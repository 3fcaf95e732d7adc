#include "sm/stages/issue.hpp"

#include <algorithm>

#include "check/sanitizer.hpp"
#include "sm/stages/decode.hpp"
#include "sm/stages/operand_collect.hpp"

namespace gex::sm {

using isa::Instruction;
using isa::Unit;

void
IssueStage::tick(Cycle now)
{
    // Deliberate event-heap corruption (check/hooks.hpp): schedule a
    // stale resume into the past so the sanitizer's never-into-the-past
    // shadow trips.
    if (st_.san && now > 0 &&
        check::take(st_.san->hooks.corruptEventSeq))
        st_.scheduleEvent(0, EvKind::WarpResume, 0, UINT32_MAX);
    // Visit only candidate warps. A warp in sbStalled, or in
    // lsuWaiting while the LSU is closed, would fail again with exactly
    // one stall increment, so each range the scan passes over adds the
    // popcount of those masks instead; issueIdle warps would add
    // nothing. The LSU can only go from open to closed within one tick
    // (first memory issue, inflightMem increments), so its state is
    // refreshed after every visit that issued.
    const int depth = st_.cfg.sm.lsuQueueDepth;
    bool lsu_closed = false;
    bool lsu_counts = false; // a refusal would count as stallLsuQueue
    auto refresh_lsu = [&] {
        const bool full = st_.inflightMem >= depth;
        lsu_closed = st_.lsuIssuedAt == now || full;
        lsu_counts = st_.lsuIssuedAt != now && full;
    };
    refresh_lsu();
    int total = 0;
    int warps_used = 0;
    int last_issued = st_.rrIssue;
    st_.scanWarps(
        st_.rrIssue,
        [&](int wi) {
            std::uint64_t gated =
                st_.sbStalled.word(wi) | st_.issueIdle.word(wi);
            if (lsu_closed)
                gated |= st_.lsuWaiting.word(wi);
            return ~gated;
        },
        [&](int lo, int hi) {
            st_.stallScoreboard +=
                static_cast<std::uint64_t>(st_.sbStalled.count(lo, hi));
            if (lsu_counts)
                st_.stallLsuQueue += static_cast<std::uint64_t>(
                    st_.lsuWaiting.count(lo, hi));
        },
        [&](int w) {
            const int k = issueWarp(w, now, total);
            if (k > 0) {
                ++warps_used;
                last_issued = w;
                refresh_lsu();
            }
            return total >= st_.cfg.sm.issueWidth || warps_used >= 2;
        });
    if (total > 0)
        st_.rrIssue = last_issued;
}

int
IssueStage::issueWarp(int w, Cycle now, int &total)
{
    // Cheap per-warp gates run inline; the full decode + check in
    // tryIssueHead only runs for warps that might actually issue.
    int k = 0;
    WarpRt &wr = st_.warps[static_cast<size_t>(w)];
    while (k < st_.cfg.sm.maxIssuePerWarp &&
           total < st_.cfg.sm.issueWidth) {
        if (!wr.schedulable() || wr.ibuf.empty()) {
            st_.issueIdle.set(w);
            break;
        }
        if (wr.ibuf.front().readyAt > now)
            break;
        // Stall memo: this head already failed the scoreboard checks
        // and no scoreboard entry of this warp changed since, so the
        // same checks would fail again — count the stall without
        // re-decoding.
        if (wr.ibuf.front().idx == wr.sbStallIdx &&
            st_.sb.gen(w) == wr.sbStallGen) {
            st_.sbStalled.set(w);
            ++st_.stallScoreboard;
            break;
        }
        if (!tryIssueHead(w, now))
            break;
        ++k;
        ++total;
    }
    return k;
}

bool
IssueStage::tryIssueHead(int w, Cycle now)
{
    // issueWarp already found the warp schedulable with a ready head
    // that does not match its stall memo.
    WarpRt &wr = st_.warps[static_cast<size_t>(w)];
    const std::uint32_t idx = wr.ibuf.front().idx;
    const trace::TraceInst &ti = wr.tr->inst(idx);
    const Instruction &si = decodeInst(st_, ti);
    const auto &t = si.traits();

    // --- scoreboard checks (RAW on sources, WAW+WAR on destinations) ---
    // The checks depend only on the instruction and this warp's
    // scoreboard state, so a failure stays valid until gen(w) moves.
    if (!operandsReady(st_.sb, w, si)) {
        wr.sbStallIdx = idx;
        wr.sbStallGen = st_.sb.gen(w);
        st_.sbStalled.set(w);
        ++st_.stallScoreboard;
        return false;
    }

    const bool is_global = si.isGlobalMem();

    // --- structural gates ---
    if (is_global) {
        if (st_.lsuIssuedAt == now) {
            st_.lsuWaiting.set(w);
            return false; // one memory instruction per cycle
        }
        if (st_.inflightMem >= st_.cfg.sm.lsuQueueDepth) {
            st_.lsuWaiting.set(w);
            ++st_.stallLsuQueue;
            return false;
        }
    }

    // --- operand log gate (OperandLog scheme) ---
    std::uint32_t log_bytes = 0;
    if (st_.policy.logAdmission(is_global, ti.numActive())) {
        log_bytes = OperandLog::entryBytes(t.isStore || t.isAtomic);
        if (!st_.log.tryAllocate(wr.slot, log_bytes)) {
            ++st_.stallLog;
            // Distinct-cycle back-pressure: count each cycle in which
            // at least one issue attempt was refused log space, not
            // each refused attempt.
            if (st_.lastLogStallCycle != now) {
                st_.lastLogStallCycle = now;
                ++st_.logBackpressureCycles;
            }
            return false;
        }
    }

    // --- issue ---
    wr.ibuf.pop_front();
    st_.wakeWarp(w); // buffer space freed
    const Cycle op_read = now + 1;

    std::uint32_t id = st_.allocInflight();
    Inflight &in = st_.pool[id];
    in.traceIdx = idx;
    in.warp = w;
    in.ti = &ti;
    in.si = &si;
    in.isGlobalMem = is_global;
    in.isControl = si.isControl();
    in.logHeld = log_bytes > 0;
    in.logBytes = log_bytes;
    in.logPartition = wr.slot;
    st_.emitInst(now, obs::PipeEventKind::Issued, in);
    if (in.logHeld)
        st_.emitInst(now, obs::PipeEventKind::LogAllocated, in, log_bytes);

    acquireOperands(st_, in, now);

    if (is_global) {
        st_.lsuIssuedAt = now;
        ++st_.inflightMem;
        // LSU: translation through the L1 TLB and the shared MMU, then
        // the cache hierarchy. The timeline sets the LastCheck and
        // Commit events, or the FaultReact of a faulting request.
        trace::LineBuf buf;
        const Addr *lines = wr.tr->lines(idx, buf).data();
        in.mem = st_.lsu.processGlobal(si, ti, lines, op_read,
                                       st_.policy.stallFaultsInPipeline(),
                                       st_.cfg.faultRetryLatency);
        if (in.mem.faulted) {
            if (st_.san)
                st_.san->onFaultedTranslation(st_.smId, w,
                                              in.mem.faultPage,
                                              st_.lsu.l1Tlb(), now);
            st_.scheduleInstEvent(in.mem.faultDetect, EvKind::FaultReact,
                                  w, id);
            wr.maxCommitScheduled =
                std::max(wr.maxCommitScheduled, in.mem.faultDetect);
        } else {
            st_.scheduleInstEvent(in.mem.lastTlbCheck, EvKind::LastCheck,
                                  w, id);
            in.commitAt = in.mem.execDone + 1;
            st_.scheduleInstEvent(in.commitAt, EvKind::Commit, w, id);
        }
        // Source release point depends on the scheme. Under the
        // replay-queue scheme, sources of a faulted instruction stay
        // held until it is squashed (its last TLB check never comes).
        if (st_.policy.releaseSourcesAtOperandRead(true)) {
            st_.scheduleInstEvent(op_read, EvKind::SourceRelease, w, id);
        } else if (st_.san &&
                   check::take(st_.san->hooks.breakRqHold)) {
            // Deliberate protocol break (check/hooks.hpp): release the
            // replay-queue hold at operand read anyway.
            st_.scheduleInstEvent(op_read, EvKind::SourceRelease, w, id);
        }
    } else {
        Cycle start = 0;
        Cycle lat = 1;
        switch (t.unit) {
          case Unit::Math:
            start = st_.mathPort.reserve(op_read + 1);
            lat = st_.cfg.sm.mathLatency;
            break;
          case Unit::Sfu:
            start = st_.sfuPort.reserve(op_read + 1);
            lat = st_.cfg.sm.sfuLatency;
            break;
          case Unit::Branch:
            start = st_.branchPort.reserve(op_read + 1);
            lat = st_.cfg.sm.branchLatency;
            break;
          case Unit::Shared:
            start = st_.sharedPort.reserve(op_read + 1);
            lat = st_.cfg.sm.sharedLatency;
            break;
          case Unit::None:
          default:
            start = op_read + 1;
            lat = 0;
            break;
        }
        in.commitAt = start + lat;
        st_.scheduleInstEvent(in.commitAt, EvKind::Commit, w, id);
        const bool arith_capable =
            st_.cfg.arithExceptions && t.canRaiseArith;
        in.isArithBarrier =
            arith_capable && st_.policy.fetchDisableOnGlobalMem;
        if (st_.policy.releaseSourcesAtOperandRead(arith_capable)) {
            st_.scheduleInstEvent(op_read, EvKind::SourceRelease, w, id);
        } else {
            // Replay queue extension: sources of possibly-raising
            // instructions release only once they are known safe
            // (here: completion); see paper section 3.2.
        }
        if (arith_capable && ti.arithFault()) {
            if (st_.policy.preemptible)
                st_.scheduleInstEvent(in.commitAt, EvKind::TrapEnter, w,
                                      id);
            else
                ++st_.arithReportedOnly; // current GPUs: report, no recovery
        }
    }

    ++wr.inflight;
    wr.maxCommitScheduled = std::max(wr.maxCommitScheduled, in.commitAt);
    ++st_.instsIssued;
    st_.didWork = true;
    return true;
}

} // namespace gex::sm
