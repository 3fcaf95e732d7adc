/**
 * @file
 * Exception scheme policies (the paper's core contribution, section 3)
 * and the operand log storage model (section 3.3).
 *
 * The SM pipeline consults a SchemePolicy at fetch, issue, operand
 * read, last-TLB-check and fault time; each of the five schemes is a
 * distinct setting of these decision points:
 *
 *   scheme          fetch disable      source release    fault action
 *   baseline        control insts      operand read      stall in pipe
 *   wd-commit       + global mem,      operand read      squash+replay
 *                     until commit
 *   wd-lastcheck    + global mem,      operand read      squash+replay
 *                     until last check
 *   replay-queue    control insts      last TLB check    squash+replay
 *                                      (global mem only)
 *   operand-log     control insts      operand read      squash+replay
 *                                      (log backs replay; finite space)
 */

#ifndef GEX_SM_EXCEPTION_MODEL_HPP
#define GEX_SM_EXCEPTION_MODEL_HPP

#include <cstdint>
#include <vector>

#include "common/stats.hpp"
#include "gpu/config.hpp"

namespace gex::sm {

/**
 * Decision-point view of a Scheme (see file comment).
 *
 * The raw flags parameterize the scheme; the pipeline stages consult
 * them only through the named per-stage hooks below, so each stage
 * module states *which* decision it is making rather than re-deriving
 * it from flag combinations. Everything stays flag-based and inline —
 * no virtual dispatch on the timing loop.
 */
struct SchemePolicy {
    gpu::Scheme kind = gpu::Scheme::StallOnFault;

    /** Fetching a global-memory instruction disables warp fetch. */
    bool fetchDisableOnGlobalMem = false;
    /** Fetch re-enables at last TLB check instead of commit. */
    bool reenableAtLastCheck = false;
    /** Global-mem source operands release at last TLB check. */
    bool holdSourcesUntilLastCheck = false;
    /** Issue requires (and holds) operand log space. */
    bool usesOperandLog = false;
    /** Faults squash + replay (otherwise stall in the pipeline). */
    bool preemptible = false;

    static SchemePolicy make(gpu::Scheme s);

    // --- per-stage hooks ------------------------------------------------

    /**
     * Fetch stage: does this instruction act as a fetch barrier for
     * its warp (warp-disable schemes; arithmetic-capable instructions
     * join in under the arith-exception extension)?
     */
    bool
    fetchBarrier(bool is_global_mem, bool can_raise_arith,
                 bool arith_exceptions) const
    {
        return fetchDisableOnGlobalMem &&
               (is_global_mem || (arith_exceptions && can_raise_arith));
    }

    /**
     * Issue stage: must this instruction reserve operand-log space
     * before it may issue (operand-log scheme back-pressure)?
     */
    bool
    logAdmission(bool is_global_mem, unsigned num_active) const
    {
        return usesOperandLog && is_global_mem && num_active > 0;
    }

    /**
     * Operand-collect stage: do the source scoreboard holds of an
     * instruction that can fault (@p can_fault: global memory, or
     * arithmetic-capable under the extension) release at operand read?
     * When false (replay queue) they stay held until the last TLB
     * check / completion so a replay re-reads unclobbered values.
     */
    bool
    releaseSourcesAtOperandRead(bool can_fault) const
    {
        return !(holdSourcesUntilLastCheck && can_fault);
    }

    /** Mem-check stage: held sources release at the last TLB check. */
    bool
    releaseSourcesAtLastCheck() const
    {
        return holdSourcesUntilLastCheck;
    }

    /** Mem-check stage: fetch barrier lifts at the last TLB check. */
    bool
    reenableFetchAtLastCheck() const
    {
        return reenableAtLastCheck;
    }

    /** Commit stage: fetch barrier lifts only at commit (wd-commit). */
    bool
    reenableFetchAtCommit() const
    {
        return fetchDisableOnGlobalMem && !reenableAtLastCheck;
    }

    /** Fault reaction: squash + replay the faulting instruction. */
    bool
    squashOnFault() const
    {
        return preemptible;
    }

    /** LSU: faulted requests stall in the pipeline (baseline). */
    bool
    stallFaultsInPipeline() const
    {
        return !preemptible;
    }
};

/**
 * Operand log (section 3.3): a single-ported SRAM partitioned per
 * resident thread block at launch. Loads log one 256 B entry (source
 * address x 32 lanes), stores/atomics two (address + data). A full
 * partition back-pressures memory-instruction issue, which is how a
 * small log costs performance.
 */
class OperandLog
{
  public:
    static constexpr std::uint32_t kLoadEntryBytes = 256;
    static constexpr std::uint32_t kStoreEntryBytes = 512;

    /** Partition @p totalBytes across @p partitions resident blocks. */
    void configure(std::uint32_t total_bytes, int partitions);

    /** Bytes a given instruction class needs. */
    static std::uint32_t entryBytes(bool is_store_like);

    bool tryAllocate(int partition, std::uint32_t bytes);
    void release(int partition, std::uint32_t bytes);

    std::uint32_t partitionBytes() const { return partitionBytes_; }
    std::uint32_t used(int partition) const;
    std::uint64_t allocFailures() const { return failures_; }
    /** Count @p n refusals made by replayed idle ticks (sm::Sm). */
    void addAllocFailures(std::uint64_t n) { failures_ += n; }

    void collectStats(StatSet &s) const;

  private:
    std::uint32_t partitionBytes_ = 0;
    std::vector<std::uint32_t> used_;
    std::uint64_t failures_ = 0;
    std::uint64_t allocs_ = 0;
};

} // namespace gex::sm

#endif // GEX_SM_EXCEPTION_MODEL_HPP
