/**
 * @file
 * Decode / instruction-buffer stage. Decode is a fixed one-cycle
 * stage in this model: the fetch stage pushes an InstBufEntry whose
 * readyAt is the cycle after fetch (decodeReady), and the issue stage
 * re-resolves the static instruction from the trace index when the
 * entry reaches the buffer head. The helpers here are the single
 * place that mapping lives; both fetch (barrier classification) and
 * issue (operand checks) decode through them.
 */

#ifndef GEX_SM_STAGES_DECODE_HPP
#define GEX_SM_STAGES_DECODE_HPP

#include "sm/pipeline.hpp"

namespace gex::sm {

/** Static instruction behind a dynamic trace record. */
inline const isa::Instruction &
decodeInst(const PipelineState &st, const trace::TraceInst &ti)
{
    return st.li.kernel->program.at(ti.staticIdx());
}

/** Cycle a just-fetched instruction becomes issue-eligible. */
inline Cycle
decodeReady(Cycle fetched_at)
{
    return fetched_at + 1;
}

} // namespace gex::sm

#endif // GEX_SM_STAGES_DECODE_HPP
