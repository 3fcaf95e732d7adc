#include "sm/sm.hpp"

#include <algorithm>
#include <sstream>

#include "check/sanitizer.hpp"
#include "common/log.hpp"
#include "gpu/local_scheduler.hpp"
#include "sm/stages/operand_collect.hpp"

namespace gex::sm {

Sm::Sm(int id, const gpu::GpuConfig &cfg, MemorySystem &sys,
       BlockSupply &supply)
    : st_(id, cfg, sys), sys_(sys), supply_(supply), fetch_(st_),
      issue_(st_), memCheck_(st_, *this), commit_(st_, *this)
{
}

void
Sm::beginKernel(const LaunchInfo &li)
{
    st_.li = li;
    GEX_ASSERT(li.blocksPerSm > 0);
    GEX_ASSERT(li.blocksPerSm * li.warpsPerBlock <= st_.cfg.sm.maxWarps);
    st_.activeWarps = li.blocksPerSm * li.warpsPerBlock;
    st_.slots.assign(static_cast<size_t>(li.blocksPerSm), TbSlot{});
    for (auto &w : st_.warps)
        w = WarpRt{};
    st_.fetchBlocked.clear();
    st_.sbStalled.clear();
    st_.lsuWaiting.clear();
    st_.issueIdle.clear();
    st_.offchip.clear();
    st_.extraBlocksBrought = 0;
    st_.slotRetryAt = kNoCycle;
    wakeAt_ = 0;
    if (st_.policy.usesOperandLog)
        st_.log.configure(st_.cfg.operandLogBytes, li.blocksPerSm);
}

int
Sm::freeSlots() const
{
    int n = 0;
    for (const auto &s : st_.slots)
        if (s.state == TbSlot::State::Empty)
            ++n;
    return n;
}

int
Sm::ownedBlocks() const
{
    int n = static_cast<int>(st_.offchip.size());
    for (const auto &s : st_.slots)
        if (s.state != TbSlot::State::Empty)
            ++n;
    return n;
}

bool
Sm::launchBlock(const trace::BlockTrace *bt, Cycle now)
{
    for (size_t s = 0; s < st_.slots.size(); ++s) {
        if (st_.slots[s].state == TbSlot::State::Empty) {
            installBlock(static_cast<int>(s), bt, now, nullptr);
            return true;
        }
    }
    return false;
}

void
Sm::installBlock(int slot, const trace::BlockTrace *bt, Cycle now,
                 const OffchipBlock *restore_from)
{
    TbSlot &ts = st_.slots[static_cast<size_t>(slot)];
    ts.state = TbSlot::State::Running;
    ts.blockId = bt->blockId;
    ts.bt = bt;
    ts.firstWarp = slot * st_.li.warpsPerBlock;
    ts.numWarps = static_cast<int>(bt->warps.size());
    ts.warpsFinished = 0;
    ts.faultReadyAt = 0;
    ts.installedAt = now;

    for (int j = 0; j < ts.numWarps; ++j) {
        WarpRt &w = st_.warps[static_cast<size_t>(ts.firstWarp + j)];
        w = WarpRt{};
        st_.wakeWarp(ts.firstWarp + j);
        w.slot = slot;
        w.tr = &bt->warps[static_cast<size_t>(j)];
        if (restore_from) {
            const SavedWarp &sv =
                restore_from->warps[static_cast<size_t>(j)];
            w.fetchIdx = sv.fetchIdx;
            w.replayQ = sv.replayQ;
            w.waitingBarrier = sv.waitingBarrier;
            w.finished = sv.finished;
            if (w.finished)
                ++ts.warpsFinished;
        }
    }
    if (st_.san)
        st_.san->onBlockInstalled(st_.smId, slot, bt->blockId,
                                  ts.firstWarp, ts.numWarps);
    st_.didWork = true;
}

bool
Sm::busy() const
{
    if (!st_.offchip.empty())
        return true;
    for (const auto &s : st_.slots)
        if (s.state != TbSlot::State::Empty)
            return true;
    return false;
}

Cycle
Sm::tick(Cycle now)
{
    const IdleCounters before = st_.idleCounters();
    st_.didWork = false;
    st_.slotReleased = false;
    if (st_.san)
        st_.san->onCycleStart(st_.smId, now);
    processEvents(now);
    fetch_.tick(now);
    issue_.tick(now);
    // Nothing outside this SM schedules into its heap, and every
    // time-based gate (fetchResumeAt, blockedUntil) has its own
    // WarpResume event, so an idle tick changes nothing until the
    // next event.
    const Cycle wake = st_.didWork ? now + 1
                       : st_.events.empty() ? kNoCycle
                                            : st_.events.top().cycle;
    const IdleCounters moved = st_.idleCounters() - before;
    if (st_.san) {
        st_.san->checkWarpMasks(st_, now);
        if (now < wakeAt_)
            st_.san->checkIdleReplay(st_, now, wakeAt_, idleDelta_,
                                     wake, moved);
    }
    if (!st_.didWork)
        idleDelta_ = moved;
    wakeAt_ = wake;
    return wake;
}

// ---------------------------------------------------------------------------
// Event dispatch: pop due events and hand each to its stage.

void
Sm::processEvents(Cycle now)
{
    while (!st_.events.empty() && st_.events.top().cycle <= now) {
        Event ev = st_.events.top();
        st_.events.pop();
        if (st_.san)
            st_.san->onEventPopped(st_.smId, ev.cycle, ev.seq);
        st_.didWork = true;
        switch (ev.kind) {
          case EvKind::SourceRelease: {
            // Operand-collect stage: scheduled source-release point
            // (operand read for most schemes; see issue stage).
            Inflight &in = st_.pool[ev.id];
            if (!in.squashed && in.sourcesHeld) {
                releaseSources(st_, in, now);
                st_.wakeWarp(in.warp);
            }
            st_.retireEventRef(ev.id);
            break;
          }
          case EvKind::LastCheck: {
            Inflight &in = st_.pool[ev.id];
            if (!in.squashed)
                memCheck_.onLastCheck(in, now);
            st_.retireEventRef(ev.id);
            break;
          }
          case EvKind::Commit: {
            Inflight &in = st_.pool[ev.id];
            if (!in.squashed)
                commit_.onCommit(in, now);
            st_.retireEventRef(ev.id);
            // Commit retires the record.
            Inflight &in2 = st_.pool[ev.id];
            if (in2.live && !in2.squashed && in2.eventsLeft == 0) {
                in2.live = false;
                st_.freeList.push_back(ev.id);
            }
            break;
          }
          case EvKind::FaultReact: {
            Inflight &in = st_.pool[ev.id];
            if (!in.squashed)
                memCheck_.onFaultReact(in, now);
            st_.retireEventRef(ev.id);
            break;
          }
          case EvKind::WarpResume:
            onWarpResume(ev.arg, now);
            break;
          case EvKind::TrapEnter: {
            Inflight &in = st_.pool[ev.id];
            commit_.onTrapEnter(in, now);
            st_.retireEventRef(ev.id);
            break;
          }
          case EvKind::SaveReady: {
            int slot = ev.arg;
            TbSlot &ts = st_.slots[static_cast<size_t>(slot)];
            if (ts.state != TbSlot::State::Draining)
                break;
            bool drained = true;
            for (int j = 0; j < ts.numWarps; ++j)
                if (st_.warps[static_cast<size_t>(ts.firstWarp + j)]
                        .inflight > 0)
                    drained = false;
            if (!drained) {
                st_.scheduleEvent(std::max(drainTime(slot), now + 1),
                                  EvKind::SaveReady, slot, UINT32_MAX);
                break;
            }
            ts.state = TbSlot::State::Saving;
            if (st_.cfg.idealContextSwitch) {
                st_.scheduleEvent(now + 1, EvKind::SaveDone, slot,
                                  UINT32_MAX);
            } else {
                st_.scheduleEvent(moveContext(now), EvKind::SaveDone,
                                  slot, UINT32_MAX);
            }
            break;
          }
          case EvKind::SaveDone: {
            int slot = ev.arg;
            TbSlot &ts = st_.slots[static_cast<size_t>(slot)];
            GEX_ASSERT(ts.state == TbSlot::State::Saving);
            OffchipBlock ob;
            ob.blockId = ts.blockId;
            ob.bt = ts.bt;
            ob.readyAt = ts.faultReadyAt;
            ob.warps.resize(static_cast<size_t>(ts.numWarps));
            for (int j = 0; j < ts.numWarps; ++j) {
                WarpRt &w = st_.warps[static_cast<size_t>(ts.firstWarp + j)];
                SavedWarp &sv = ob.warps[static_cast<size_t>(j)];
                sv.fetchIdx = w.fetchIdx;
                sv.replayQ = std::move(w.replayQ);
                sv.waitingBarrier = w.waitingBarrier;
                sv.finished = w.finished;
                w = WarpRt{};
                st_.wakeWarp(ts.firstWarp + j);
            }
            st_.emitBlock(now, obs::PipeEventKind::ContextSaved, slot,
                          ob.blockId);
            st_.offchip.push_back(std::move(ob));
            ts = TbSlot{};
            st_.slotReleased = true;
            ++st_.switchOuts;
            fillEmptySlots(now);
            break;
          }
          case EvKind::RestoreDone: {
            int slot = ev.arg;
            TbSlot &ts = st_.slots[static_cast<size_t>(slot)];
            GEX_ASSERT(ts.state == TbSlot::State::Restoring);
            GEX_ASSERT(ev.id < st_.restorePending.size() &&
                       st_.restorePending[ev.id].bt != nullptr);
            OffchipBlock ob = std::move(st_.restorePending[ev.id]);
            st_.restorePending[ev.id] = OffchipBlock{};
            installBlock(slot, ob.bt, now, &ob);
            st_.emitBlock(now, obs::PipeEventKind::ContextRestored, slot,
                          ob.blockId);
            ++st_.switchIns;
            break;
          }
          case EvKind::SlotRetry:
            st_.slotRetryAt = kNoCycle;
            fillEmptySlots(now);
            break;
        }
    }
}

void
Sm::onWarpResume(int w, Cycle now)
{
    WarpRt &wr = st_.warps[static_cast<size_t>(w)];
    if (wr.slot < 0 || !wr.faultBlocked || now < wr.blockedUntil)
        return; // stale (block switched out, or deadline extended)
    wr.faultBlocked = false;
    st_.wakeWarp(w);
    st_.didWork = true;
}

void
Sm::checkWarpFinished(int w, Cycle now)
{
    WarpRt &wr = st_.warps[static_cast<size_t>(w)];
    if (wr.finished || wr.slot < 0)
        return;
    if (wr.fetchIdx >= wr.tr->size() && wr.replayQ.empty() &&
        wr.ibuf.empty() && wr.inflight == 0 && !wr.faultBlocked) {
        wr.finished = true;
        TbSlot &ts = st_.slots[static_cast<size_t>(wr.slot)];
        ++ts.warpsFinished;
        releaseBarrierIfReady(wr.slot);
        if (ts.warpsFinished == ts.numWarps)
            finishBlock(wr.slot, now);
    }
}

void
Sm::releaseBarrierIfReady(int slot)
{
    TbSlot &ts = st_.slots[static_cast<size_t>(slot)];
    int waiting = 0;
    for (int j = 0; j < ts.numWarps; ++j)
        if (st_.warps[static_cast<size_t>(ts.firstWarp + j)].waitingBarrier)
            ++waiting;
    if (waiting == 0)
        return;
    if (waiting + ts.warpsFinished == ts.numWarps) {
        for (int j = 0; j < ts.numWarps; ++j) {
            st_.warps[static_cast<size_t>(ts.firstWarp + j)]
                .waitingBarrier = false;
            st_.wakeWarp(ts.firstWarp + j);
        }
        st_.didWork = true;
    }
}

void
Sm::finishBlock(int slot, Cycle now)
{
    TbSlot &ts = st_.slots[static_cast<size_t>(slot)];
    for (int j = 0; j < ts.numWarps; ++j) {
        st_.warps[static_cast<size_t>(ts.firstWarp + j)] = WarpRt{};
        st_.wakeWarp(ts.firstWarp + j);
    }
    ts = TbSlot{};
    st_.slotReleased = true;
    ++st_.blocksCompleted;
    fillEmptySlots(now);
}

// ---------------------------------------------------------------------------
// UC1: block switching on fault (paper section 4.1)

Cycle
Sm::drainTime(int slot) const
{
    const TbSlot &ts = st_.slots[static_cast<size_t>(slot)];
    Cycle t = 0;
    for (int j = 0; j < ts.numWarps; ++j)
        t = std::max(t, st_.warps[static_cast<size_t>(ts.firstWarp + j)]
                            .maxCommitScheduled);
    return t;
}

Cycle
Sm::moveContext(Cycle now)
{
    st_.contextBytesMoved += st_.li.contextBytesPerBlock;
    return sys_.bulkDramTraffic(now, st_.li.contextBytesPerBlock) +
           st_.cfg.contextSwitchOverhead;
}

void
Sm::considerSwitch(int slot, int queue_depth, Cycle now)
{
    const TbSlot &ts = st_.slots[static_cast<size_t>(slot)];
    if (now < ts.installedAt + st_.cfg.minResidencyBeforeSwitch)
        return; // anti-churn: freshly installed blocks stay put
    if (!gpu::shouldSwitchOnFault(st_.cfg, queue_depth, ownedBlocks(),
                                  static_cast<int>(st_.slots.size()),
                                  supply_.hasPending(),
                                  static_cast<int>(st_.offchip.size())))
        return;
    beginDrain(slot, now);
}

void
Sm::beginDrain(int slot, Cycle now)
{
    TbSlot &ts = st_.slots[static_cast<size_t>(slot)];
    ts.state = TbSlot::State::Draining;
    for (int j = 0; j < ts.numWarps; ++j) {
        WarpRt &w = st_.warps[static_cast<size_t>(ts.firstWarp + j)];
        w.frozen = true;
        st_.wakeWarp(ts.firstWarp + j);
        // A fetch barrier engages on the *fetch* of its instruction,
        // and fetch stops right behind it — so an engaged barrier with
        // a non-empty ibuf belongs to the ibuf tail, which revertIbuf
        // is about to un-fetch. Disengage it: the saved context must
        // not carry a barrier for an instruction that was never
        // issued (it re-engages when the instruction is re-fetched
        // after restore). An engaged barrier with an empty ibuf
        // belongs to an issued instruction; the drain wait runs until
        // that instruction commits, which re-enables fetch itself.
        if (w.wdFetchDisable && !w.ibuf.empty()) {
            w.wdFetchDisable = false;
            st_.emitWarp(now, obs::PipeEventKind::FetchReenabled,
                         ts.firstWarp + j);
        }
        st_.revertIbuf(w);
    }
    st_.scheduleEvent(std::max(drainTime(slot), now + 1),
                      EvKind::SaveReady, slot, UINT32_MAX);
}

void
Sm::fillEmptySlots(Cycle now)
{
    for (size_t s = 0; s < st_.slots.size(); ++s) {
        TbSlot &ts = st_.slots[s];
        if (ts.state != TbSlot::State::Empty)
            continue;

        // 1) A switched-out block whose faults all resolved.
        int best = -1;
        for (size_t o = 0; o < st_.offchip.size(); ++o) {
            if (st_.offchip[o].readyAt <= now &&
                (best < 0 ||
                 st_.offchip[o].readyAt <
                     st_.offchip[static_cast<size_t>(best)].readyAt))
                best = static_cast<int>(o);
        }
        if (best >= 0) {
            OffchipBlock ob =
                std::move(st_.offchip[static_cast<size_t>(best)]);
            st_.offchip.erase(st_.offchip.begin() + best);
            ts.state = TbSlot::State::Restoring;
            std::uint32_t rid =
                static_cast<std::uint32_t>(st_.restorePending.size());
            for (std::uint32_t r = 0; r < st_.restorePending.size(); ++r) {
                if (st_.restorePending[r].bt == nullptr) {
                    rid = r;
                    break;
                }
            }
            if (rid == st_.restorePending.size())
                st_.restorePending.push_back(OffchipBlock{});
            st_.restorePending[rid] = std::move(ob);
            if (st_.cfg.idealContextSwitch) {
                st_.scheduleEvent(now + 1, EvKind::RestoreDone,
                                  static_cast<std::int32_t>(s), rid);
            } else {
                st_.scheduleEvent(moveContext(now), EvKind::RestoreDone,
                                  static_cast<std::int32_t>(s), rid);
            }
            continue;
        }

        // 2) A fresh pending block from the global scheduler.
        if (supply_.hasPending() &&
            ownedBlocks() <
                static_cast<int>(st_.slots.size()) + st_.cfg.maxExtraBlocks) {
            const trace::BlockTrace *bt = supply_.nextBlock();
            if (bt) {
                installBlock(static_cast<int>(s), bt, now, nullptr);
                if (!st_.offchip.empty())
                    ++st_.newBlocksViaSwitch;
                continue;
            }
        }

        // 3) Wait for the earliest off-chip block to become ready.
        // One pending retry per SM: a retry re-runs this whole scan,
        // so per-slot events would multiply.
        if (!st_.offchip.empty()) {
            Cycle earliest = kNoCycle;
            for (const auto &ob : st_.offchip)
                earliest = std::min(earliest, ob.readyAt);
            Cycle at = std::max(earliest, now + 1);
            if (st_.slotRetryAt == kNoCycle || at < st_.slotRetryAt) {
                st_.slotRetryAt = at;
                st_.scheduleEvent(at, EvKind::SlotRetry,
                                  static_cast<std::int32_t>(s), UINT32_MAX);
            }
        }
    }
}

// ---------------------------------------------------------------------------

void
Sm::collectStats(StatSet &s) const
{
    st_.lsu.collectStats(s);
    if (st_.policy.usesOperandLog)
        st_.log.collectStats(s);
    s.add("sm.insts_committed", static_cast<double>(st_.instsCommitted));
    s.add("sm.insts_issued", static_cast<double>(st_.instsIssued));
    s.add("sm.fetches", static_cast<double>(st_.fetches));
    s.add("sm.stall_scoreboard", static_cast<double>(st_.stallScoreboard));
    s.add("sm.stall_log", static_cast<double>(st_.stallLog));
    s.add("sm.stall_lsu_queue", static_cast<double>(st_.stallLsuQueue));
    s.add("sm.faults_reacted", static_cast<double>(st_.faultsSeen));
    s.add("sm.faults_joined", static_cast<double>(st_.faultsJoined));
    s.add("sm.faults_gpu_handled",
          static_cast<double>(st_.faultsGpuHandled));
    s.add("sm.switch_outs", static_cast<double>(st_.switchOuts));
    s.add("sm.switch_ins", static_cast<double>(st_.switchIns));
    s.add("sm.new_blocks_via_switch",
          static_cast<double>(st_.newBlocksViaSwitch));
    s.add("sm.system_mode_cycles",
          static_cast<double>(st_.systemModeCycles));
    s.add("sm.traps_handled", static_cast<double>(st_.trapsHandled));
    s.add("sm.arith_reported_only",
          static_cast<double>(st_.arithReportedOnly));
    s.add("sm.context_bytes_moved",
          static_cast<double>(st_.contextBytesMoved));
    s.add("sm.blocks_completed", static_cast<double>(st_.blocksCompleted));
}

void
Sm::collectResilienceStats(StatSet &s) const
{
    std::uint64_t replays = 0;
    std::uint32_t max_per_warp = 0;
    std::uint64_t warps_with = 0;
    for (std::uint32_t r : st_.replaysPerWarp) {
        replays += r;
        max_per_warp = std::max(max_per_warp, r);
        if (r > 0)
            ++warps_with;
    }
    s.add("resil.replays_total", static_cast<double>(replays));
    s.maxOf("resil.replays_max_per_warp",
            static_cast<double>(max_per_warp));
    s.add("resil.warps_with_replays", static_cast<double>(warps_with));
    s.maxOf("resil.replayq_hwm", static_cast<double>(st_.replayQHwm));
    s.add("resil.log_backpressure_cycles",
          static_cast<double>(st_.logBackpressureCycles));
    s.add("resil.fault_blocked_warp_cycles",
          static_cast<double>(st_.faultBlockedCycles));
    s.add("resil.fetch_disabled_warp_cycles",
          static_cast<double>(st_.fetchDisabledCycles));
}

void
Sm::appendDiagnostics(std::string &out) const
{
    std::ostringstream os;
    auto slotState = [](TbSlot::State st) {
        switch (st) {
          case TbSlot::State::Empty: return "empty";
          case TbSlot::State::Running: return "running";
          case TbSlot::State::Draining: return "draining";
          case TbSlot::State::Saving: return "saving";
          case TbSlot::State::Restoring: return "restoring";
        }
        return "?";
    };
    os << "  sm" << st_.smId << ": " << st_.instsCommitted
       << " committed, " << st_.blocksCompleted << " blocks retired, "
       << st_.offchip.size() << " blocks off-chip, lsu in-flight "
       << st_.inflightMem << "\n";
    for (std::size_t i = 0; i < st_.slots.size(); ++i) {
        const TbSlot &ts = st_.slots[i];
        if (ts.state == TbSlot::State::Empty)
            continue;
        os << "    slot " << i << ": block " << ts.blockId << " "
           << slotState(ts.state) << ", " << ts.warpsFinished << "/"
           << ts.numWarps << " warps finished\n";
    }
    for (int w = 0; w < st_.activeWarps; ++w) {
        const WarpRt &wr = st_.warps[static_cast<std::size_t>(w)];
        if (wr.slot < 0 || wr.finished)
            continue;
        // Classify the stage the warp is wedged in, most-specific
        // condition first.
        const char *stage = "issue-wait";
        if (wr.frozen)
            stage = "frozen-for-switch";
        else if (wr.faultBlocked)
            stage = "fault-blocked";
        else if (wr.waitingBarrier)
            stage = "barrier";
        else if (wr.wdFetchDisable)
            stage = "wd-fetch-disabled";
        else if (!wr.replayQ.empty())
            stage = "replay-wait";
        else if (wr.ibuf.empty())
            stage = "fetch-wait";
        os << "    w" << w << ": slot " << wr.slot << " " << stage
           << ", ibuf " << wr.ibuf.size() << ", replayQ "
           << wr.replayQ.size() << ", inflight " << wr.inflight;
        if (wr.blockedUntil)
            os << ", blocked until " << wr.blockedUntil;
        os << "\n";
    }
    out += os.str();
}

} // namespace gex::sm
