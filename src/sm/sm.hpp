/**
 * @file
 * The streaming multiprocessor timing model (paper Figure 1): fetch
 * with per-warp instruction buffers, scoreboarded 2-wide in-order
 * issue, latency-modeled backend units, an LSU with translation and
 * fault handling, out-of-order commit — plus the five exception
 * schemes and the UC1 local scheduler (block switching on fault).
 *
 * The per-cycle pipeline logic lives in the stage modules under
 * sm/stages (fetch, decode, issue, operand-collect, mem-check,
 * commit), all ticking over one shared PipelineState (sm/pipeline.hpp).
 * Sm owns that state, dispatches the event heap to the stages, and
 * keeps the block lifecycle: launch, barriers, block completion and
 * the UC1 drain/save/restore context-switch machinery.
 */

#ifndef GEX_SM_SM_HPP
#define GEX_SM_SM_HPP

#include "sm/pipeline.hpp"
#include "sm/stages/commit.hpp"
#include "sm/stages/fetch.hpp"
#include "sm/stages/issue.hpp"
#include "sm/stages/mem_check.hpp"

namespace gex::sm {

/** Source of pending thread blocks (the global TB scheduler). */
class BlockSupply
{
  public:
    virtual ~BlockSupply() = default;
    /** Next pending block, or nullptr when the grid is exhausted. */
    virtual const trace::BlockTrace *nextBlock() = 0;
    virtual bool hasPending() const = 0;
};

class Sm
{
  public:
    Sm(int id, const gpu::GpuConfig &cfg, MemorySystem &sys,
       BlockSupply &supply);

    /** Prepare warp slots and the operand log for a kernel. */
    void beginKernel(const LaunchInfo &li);

    /** Install a thread block into a free slot (initial fill). */
    bool launchBlock(const trace::BlockTrace *bt, Cycle now);

    /**
     * Advance one cycle: dispatch due events (block lifecycle, TB
     * scheduler refills, context-switch traffic), then fetch and
     * issue. Returns the next cycle this SM must really tick: now + 1
     * after a tick that changed state, otherwise its next event
     * (kNoCycle when it has none). Each tick before that cycle would
     * repeat this idle one exactly, so the run loop calls
     * replayIdleTick() instead (docs/PERFORMANCE.md, "Idle-SM tick
     * replay"). Under --check the sanitizer compares such a tick, if
     * it is run for real, with its replay.
     */
    Cycle tick(Cycle now);
    /** The cycle the last tick() returned. */
    Cycle wakeCycle() const { return wakeAt_; }
    /** Stand in for a tick before wakeCycle(): add the last idle
     *  tick's counter increments. */
    void replayIdleTick() { st_.addIdleCounters(idleDelta_); }
    /** A TB slot went Empty this cycle (gates Gpu::allDone scans). */
    bool slotReleased() const { return st_.slotReleased; }

    /** True while any block is resident or switched out. */
    bool busy() const;

    int freeSlots() const;

    void collectStats(StatSet &s) const;

    /**
     * Emit the opt-in resilience block (`resil.*`): replay pressure,
     * operand-log back-pressure and blocked-warp cycle breakdown.
     * Separate from collectStats() so plain runs keep the stat set the
     * golden digests were captured over; Gpu::run() calls it when a
     * fault injector is active or GpuConfig::resilienceStats is set.
     */
    void collectResilienceStats(StatSet &s) const;

    std::uint64_t instsCommitted() const { return st_.instsCommitted; }
    std::uint64_t blocksCompleted() const { return st_.blocksCompleted; }

    /**
     * Append a human-readable per-warp state dump to @p out — which
     * stage each resident warp is blocked in, its replay-queue and
     * i-buffer depths and in-flight count — for DeadlockError /
     * LivelockError diagnostics (docs/ROBUSTNESS.md). Warps that are
     * finished or whose slot is empty are skipped.
     */
    void appendDiagnostics(std::string &out) const;

    /**
     * Attach a pipeline observer (nullptr detaches). The observer
     * receives every instruction-lifecycle event this SM emits; with
     * none attached the emission sites are single predicted branches.
     */
    void setObserver(obs::PipelineObserver *o) { st_.obs = o; }

    /**
     * Attach the invariant sanitizer (nullptr detaches). Separate from
     * the observer chain: the sanitizer also needs the targeted hooks
     * (event heap, block installs, faulting translations) that never
     * surface as pipeline events.
     */
    void setSanitizer(check::SimSanitizer *s) { st_.san = s; }

    /** Read-only pipeline state (drain checks, log partition size). */
    const PipelineState &state() const { return st_; }

    /** UC1 hook for the mem-check stage: maybe drain this block. */
    void considerSwitch(int slot, int queue_depth, Cycle now);

    /** Commit-stage hooks into the block lifecycle. */
    void checkWarpFinished(int w, Cycle now);
    void releaseBarrierIfReady(int slot);

  private:
    void processEvents(Cycle now);
    void onWarpResume(int w, Cycle now);
    void finishBlock(int slot, Cycle now);
    void installBlock(int slot, const trace::BlockTrace *bt, Cycle now,
                      const OffchipBlock *restore_from);
    void fillEmptySlots(Cycle now);
    int ownedBlocks() const;

    // --- UC1: block switching --------------------------------------------
    void beginDrain(int slot, Cycle now);
    Cycle drainTime(int slot) const;
    /** Move one block's context to or from DRAM (non-ideal switch);
     *  returns the cycle the transfer and its fixed overhead end. */
    Cycle moveContext(Cycle now);

    PipelineState st_;
    Cycle wakeAt_ = 0;
    /** IdleCounters increments of the last idle tick. */
    IdleCounters idleDelta_;
    MemorySystem &sys_;
    BlockSupply &supply_;

    FetchStage fetch_;
    IssueStage issue_;
    MemCheckStage memCheck_;
    CommitStage commit_;
};

} // namespace gex::sm

#endif // GEX_SM_SM_HPP
