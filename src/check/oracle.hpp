/**
 * @file
 * ArchOracle: the architectural half of the self-checking simulation
 * (docs/VALIDATION.md). The timing simulator is trace-driven — it
 * never computes values — so the architectural contract decomposes
 * into three checkable pieces:
 *
 *  1. the functional simulator is deterministic: rebuilding the
 *     workload from scratch and re-executing it reproduces the final
 *     memory image and the per-warp committed instruction streams
 *     bit-for-bit (verifyReplay);
 *  2. the timing simulator retires exactly the traced stream: every
 *     traced instruction commits exactly once under any scheme, fault
 *     model and UC1/UC2 setting — enforced per event by
 *     SimSanitizer's coverage bitmap, and summarized by the
 *     committed-instruction count gpu::Gpu::run compares with the
 *     trace at the end of every run;
 *  3. schemes are equivalent: with 1 and 2 holding for every scheme
 *     over the same trace, all five produce the same architectural
 *     final state, so cross-scheme divergence reduces to fingerprint
 *     or instruction-count inequality (the fuzz campaign's oracle).
 *
 * Violations raise InvariantError (exit code 7).
 */

#ifndef GEX_CHECK_ORACLE_HPP
#define GEX_CHECK_ORACLE_HPP

#include <cstdint>
#include <string>

#include "common/types.hpp"

namespace gex::func {
class GlobalMemory;
}
namespace gex::trace {
struct KernelTrace;
}

namespace gex::check {

/** Architectural identity of one executed workload. */
struct ArchFingerprint {
    /** func::GlobalMemory::digest() of the final memory image. */
    std::uint64_t memDigest = 0;
    /** FNV-1a over every warp's committed instruction stream. */
    std::uint64_t traceDigest = 0;
    std::uint64_t dynamicInsts = 0;

    bool
    operator==(const ArchFingerprint &o) const
    {
        return memDigest == o.memDigest && traceDigest == o.traceDigest &&
               dynamicInsts == o.dynamicInsts;
    }
    bool operator!=(const ArchFingerprint &o) const { return !(*this == o); }

    std::string toString() const;
};

/**
 * FNV-1a digest of the per-warp committed instruction streams: every
 * (block, warp, staticIdx, active mask, coalesced lines, arithFault)
 * in program order. Two traces with equal digests describe the same
 * architectural execution.
 */
std::uint64_t traceDigest(const trace::KernelTrace &trace);

/** Fingerprint a finished functional execution. */
ArchFingerprint fingerprint(const func::GlobalMemory &mem,
                            const trace::KernelTrace &trace);

/**
 * One workload's oracle: captures the reference fingerprint at
 * construction, then checks functional replays against it.
 */
class ArchOracle
{
  public:
    ArchOracle(std::string workload, int scale,
               const func::GlobalMemory &mem,
               const trace::KernelTrace &trace);

    const ArchFingerprint &reference() const { return ref_; }

    /**
     * Rebuild the workload on a fresh GlobalMemory, re-execute it on
     * the functional simulator, and diff the final memory image and
     * committed instruction streams against the reference. Throws
     * InvariantError on divergence.
     */
    void verifyReplay() const;

  private:
    std::string workload_;
    int scale_;
    ArchFingerprint ref_;
};

} // namespace gex::check

#endif // GEX_CHECK_ORACLE_HPP
