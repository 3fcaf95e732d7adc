#include "sm/stages/mem_check.hpp"

#include <algorithm>

#include "sm/sm.hpp"
#include "sm/stages/operand_collect.hpp"

namespace gex::sm {

void
MemCheckStage::onLastCheck(Inflight &in, Cycle now)
{
    WarpRt &wr = st_.warps[static_cast<size_t>(in.warp)];
    st_.emitInst(now, obs::PipeEventKind::TlbChecked, in);
    if (st_.policy.releaseSourcesAtLastCheck() && in.sourcesHeld) {
        // A global-memory instruction has no SEL/PSETP predicate
        // sources, so the guard predicate completes the set.
        releaseSources(st_, in, now, /*extra_preds=*/false);
    }
    if (in.logHeld)
        releaseLogSpace(st_, in, now);
    if (st_.policy.reenableFetchAtLastCheck() && in.isGlobalMem &&
        wr.wdFetchDisable) {
        st_.fetchDisabledCycles += now - wr.wdDisabledSince;
        wr.wdFetchDisable = false;
        wr.fetchResumeAt = now + st_.cfg.sm.fetchRestartPenalty;
        // Wake the fetch stage when the refill completes (the main
        // loop skips cycles based on pending events).
        st_.scheduleEvent(wr.fetchResumeAt, EvKind::WarpResume, in.warp,
                          UINT32_MAX);
        st_.emitWarp(now, obs::PipeEventKind::FetchReenabled, in.warp);
    }
    st_.wakeWarp(in.warp);
}

void
MemCheckStage::squash(Inflight &in, Cycle now)
{
    WarpRt &wr = st_.warps[static_cast<size_t>(in.warp)];
    st_.emitInst(now, obs::PipeEventKind::Squashed, in);
    if (in.sourcesHeld)
        releaseSources(st_, in, now);
    if (in.dstHeld)
        releaseDestinations(st_, in);
    if (in.logHeld)
        releaseLogSpace(st_, in, now);
    if (in.isControl) {
        GEX_ASSERT(wr.controlPending > 0);
        --wr.controlPending;
    }
    if (in.isGlobalMem)
        --st_.inflightMem;
    --wr.inflight;
    st_.wakeWarp(in.warp);
    in.squashed = true;
}

void
MemCheckStage::onFaultReact(Inflight &in, Cycle now)
{
    GEX_ASSERT(st_.policy.squashOnFault(),
               "fault reaction in non-preemptible scheme");
    WarpRt &wr = st_.warps[static_cast<size_t>(in.warp)];
    ++st_.faultsSeen;
    if (in.mem.kind == vm::FaultKind::Joined)
        ++st_.faultsJoined;
    if (in.mem.kind == vm::FaultKind::GpuAlloc) {
        ++st_.faultsGpuHandled;
        st_.systemModeCycles += in.mem.resolveAll - in.mem.faultDetect;
    }
    st_.emitInst(now, obs::PipeEventKind::Faulted, in,
                 static_cast<std::uint64_t>(in.mem.kind));

    const std::uint32_t replay_idx = in.traceIdx;
    const std::uint32_t static_idx = in.ti->staticIdx();
    squash(in, now);
    PipelineState::insertReplay(wr, replay_idx);
    ++st_.replaysPerWarp[static_cast<size_t>(in.warp)];
    st_.replayQHwm = std::max(st_.replayQHwm, wr.replayQ.size());
    st_.emitFetch(now, obs::PipeEventKind::Replayed, in.warp, replay_idx,
                  static_idx);
    st_.revertIbuf(wr);
    if (wr.wdFetchDisable) {
        st_.fetchDisabledCycles += now - wr.wdDisabledSince;
        wr.wdFetchDisable = false;
    }

    st_.extendBlocked(wr, now,
                      std::max(in.mem.resolveAll, wr.maxCommitScheduled));
    wr.faultBlocked = true;
    st_.scheduleEvent(std::max(wr.blockedUntil, now + 1),
                      EvKind::WarpResume, in.warp, UINT32_MAX);

    if (wr.slot >= 0) {
        TbSlot &ts = st_.slots[static_cast<size_t>(wr.slot)];
        ts.faultReadyAt = std::max(ts.faultReadyAt, in.mem.resolveAll);
        if (st_.cfg.blockSwitching && ts.state == TbSlot::State::Running &&
            in.mem.kind != vm::FaultKind::GpuAlloc)
            sm_.considerSwitch(wr.slot, in.mem.queueDepth, now);
    }
}

} // namespace gex::sm
