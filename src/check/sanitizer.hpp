/**
 * @file
 * SimSanitizer: the runtime invariant sanitizer behind `--check`
 * (docs/VALIDATION.md). A PipelineObserver that shadows the SM
 * pipelines off the instruction-lifecycle event stream plus a few
 * targeted hooks, and raises InvariantError (exit code 7) the moment
 * the simulator violates a modeled-hardware invariant:
 *
 *  - per-scheme protocol checkers: warp-disable fetch-barrier
 *    exclusivity, replay-queue scoreboard holds until the last TLB
 *    check, operand-log partition refcounts and capacity, and the
 *    precise-baseline rule that no preemption event ever appears;
 *  - structural checkers: event-heap (cycle, seq) monotonicity and
 *    never-into-the-past scheduling, exactly-once retirement of every
 *    traced instruction (the timing-side architectural oracle), and
 *    the TLB never caching a faulting translation;
 *  - warp-mask coherence (checkWarpMasks): the fetch/issue scan
 *    gates still describe the warps they let the scans pass over;
 *  - idle-tick replay (checkIdleReplay): a tick the run loop would
 *    have replayed does exactly what the replay does;
 *  - drain checkers (checkDrained/finishRun): leak detection over the
 *    in-flight pool, scoreboard, replay queues, operand log, MSHRs
 *    and TLB miss queues once the machine claims quiescence.
 *
 * The sanitizer is exec-only: it forwards every event unchanged and
 * never mutates simulator state, so `--check` cannot alter results —
 * only detect that they were produced by a broken machine.
 */

#ifndef GEX_CHECK_SANITIZER_HPP
#define GEX_CHECK_SANITIZER_HPP

#include <cstdint>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "check/hooks.hpp"
#include "common/types.hpp"
#include "obs/observer.hpp"

namespace gex::gpu {
struct GpuConfig;
}
namespace gex::isa {
class Program;
}
namespace gex::trace {
struct KernelTrace;
}
namespace gex::vm {
class Tlb;
class SystemMmu;
}
namespace gex::sm {
struct IdleCounters;
struct PipelineState;
}

namespace gex::check {

class SimSanitizer : public obs::PipelineObserver
{
  public:
    /**
     * @p next is the downstream observer (the watchdog's last-K ring,
     * or the user's observer); every event forwards there *before* it
     * is checked, so a violation report's event tail includes the
     * violating event itself. @p tail, when non-null, is the last-K
     * ring whose render() becomes the diagnostics bundle.
     */
    SimSanitizer(const gpu::GpuConfig &cfg, obs::PipelineObserver *next,
                 const obs::LastKObserver *tail);

    /** Test-only deliberate violations (check/hooks.hpp). */
    ViolationHooks hooks;

    /** Size the shadow state for one kernel run. */
    void beginRun(const isa::Program &program,
                  const trace::KernelTrace &trace, int blocksPerSm,
                  int warpsPerBlock, std::uint32_t logPartitionBytes,
                  const vm::SystemMmu *mmu);

    /** Event-stream checkers; forwards to next, then checks (throws). */
    void event(const obs::PipeEvent &e) override;

    // --- targeted hooks (wired through PipelineState / sm::Sm) ----------

    /** The SM's clock advanced to @p now (start of its tick). */
    void onCycleStart(int sm, Cycle now);
    /** An event entered the SM's heap. */
    void onEventScheduled(int sm, Cycle cycle, std::uint64_t seq,
                          int kind);
    /** An event left the SM's heap. */
    void onEventPopped(int sm, Cycle cycle, std::uint64_t seq);
    /** A thread block was installed into a slot. */
    void onBlockInstalled(int sm, int slot, std::uint32_t blockId,
                          int firstWarp, int numWarps);
    /**
     * The LSU saw a faulting translation for @p page; the invariant is
     * that no TLB level may have cached it.
     */
    void onFaultedTranslation(int sm, int warp, Addr page,
                              const vm::Tlb &l1tlb, Cycle now);
    /**
     * Warp-mask coherence: every set scan-gate bit (sm/pipeline.hpp)
     * must still satisfy its class predicate — sbStalled: schedulable,
     * ready head at sbStallIdx with the scoreboard at sbStallGen;
     * lsuWaiting: schedulable, ready global-memory head whose operands
     * are ready; issueIdle: unschedulable or empty ibuf; fetchBlocked:
     * blocked for a state reason, not only on fetchResumeAt. Throws
     * InvariantError on the first stale bit. Runs at the end of every
     * SM tick.
     */
    void checkWarpMasks(const sm::PipelineState &st, Cycle now) const;

    /**
     * Idle-tick replay (docs/PERFORMANCE.md, "Idle-SM tick replay"):
     * the SM behind @p st just ticked for real at @p now, before the
     * wake cycle @p wake its last idle tick returned, where the run
     * loop would otherwise have added that tick's increments
     * @p recorded. The real tick must have done no work, returned
     * the same wake cycle (@p woke) and moved the IdleCounters by
     * exactly @p recorded (@p moved). Throws InvariantError otherwise.
     */
    void checkIdleReplay(const sm::PipelineState &st, Cycle now,
                         Cycle wake, const sm::IdleCounters &recorded,
                         Cycle woke, const sm::IdleCounters &moved) const;

    /**
     * Drain checker over one SM's pipeline state after the run loop
     * claims completion: leaked pool entries, scoreboard holds, warp
     * queues, operand-log bytes, and lazily-drained
     * MSHR/TLB-miss entries still pending past @p now.
     */
    void checkDrained(const sm::PipelineState &st, Cycle now) const;

    /** End-of-run shadow checks: exactly-once trace coverage, empty
     *  in-flight shadows, zero log bytes. */
    void finishRun(Cycle now);

    /** Build and throw the InvariantError for a violation. */
    [[noreturn]] void fail(const std::string &what, Cycle cycle, int sm,
                           int warp) const;

  private:
    struct InstShadow {
        bool tlbChecked = false;
        bool isGlobalMem = false;
    };

    static constexpr std::uint32_t kNoBlock = UINT32_MAX;

    struct WarpShadow {
        bool fetchDisabled = false;
        /** Barrier instruction allowed to fetch while disabled. */
        std::uint32_t allowFetchIdx = obs::PipeEvent::kNoIndex;
        std::uint32_t blockId = kNoBlock;
        int warpInBlock = -1;
        std::unordered_map<std::uint32_t, InstShadow> inflight;
    };

    struct SlotShadow {
        std::uint32_t blockId = kNoBlock;
        int firstWarp = 0;
        int numWarps = 0;
        /** Operand-log partition bytes (spans blocks; reset per run). */
        std::int64_t logBytes = 0;
    };

    struct SmShadow {
        Cycle now = 0;
        bool popped = false;
        Cycle lastPopCycle = 0;
        std::uint64_t lastPopSeq = 0;
        std::unordered_set<std::uint64_t> liveSeqs;
        std::vector<WarpShadow> warps;
        std::vector<SlotShadow> slots;
    };

    /** Exactly-once commit bitmap of one warp's trace. */
    struct WarpCoverage {
        std::vector<std::uint8_t> committed;
        std::uint64_t count = 0;
    };

    WarpShadow &warpAt(const obs::PipeEvent &e);
    bool staticIsGlobalMem(std::uint32_t staticIdx) const;

    const gpu::GpuConfig &cfg_;
    obs::PipelineObserver *next_;
    const obs::LastKObserver *tail_;

    // Scheme traits, resolved once per run from the config.
    bool wdScheme_ = false;
    bool olScheme_ = false;
    bool rqScheme_ = false;
    bool preemptible_ = false;

    const isa::Program *program_ = nullptr;
    const trace::KernelTrace *trace_ = nullptr;
    const vm::SystemMmu *mmu_ = nullptr;
    std::uint32_t partitionBytes_ = 0;

    std::vector<SmShadow> sms_;
    /** coverage_[blockId][warpInBlock] over the whole grid. */
    std::vector<std::vector<WarpCoverage>> coverage_;
};

} // namespace gex::check

#endif // GEX_CHECK_SANITIZER_HPP
