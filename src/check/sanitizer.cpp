#include "check/sanitizer.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "common/log.hpp"
#include "gpu/config.hpp"
#include "isa/program.hpp"
#include "sm/exception_model.hpp"
#include "sm/pipeline.hpp"
#include "sm/stages/decode.hpp"
#include "sm/stages/operand_collect.hpp"
#include "trace/trace.hpp"
#include "vm/fill_unit.hpp"
#include "vm/tlb.hpp"

namespace gex::check {

void
ViolationHooks::arm(const std::string &name)
{
    if (name == "none")
        return;
    if (name == "rq-hold")
        breakRqHold = true;
    else if (name == "ol-leak")
        leakLogEntry = true;
    else if (name == "event-seq")
        corruptEventSeq = true;
    else if (name == "double-commit")
        doubleCommit = true;
    else
        throw ConfigError(strprintf(
            "unknown violation hook '%s' (none, rq-hold, ol-leak, "
            "event-seq, double-commit)",
            name.c_str()));
}

SimSanitizer::SimSanitizer(const gpu::GpuConfig &cfg,
                           obs::PipelineObserver *next,
                           const obs::LastKObserver *tail)
    : cfg_(cfg), next_(next), tail_(tail)
{
    sm::SchemePolicy pol = sm::SchemePolicy::make(cfg.scheme);
    wdScheme_ = pol.fetchDisableOnGlobalMem;
    olScheme_ = pol.usesOperandLog;
    rqScheme_ = pol.holdSourcesUntilLastCheck;
    preemptible_ = pol.preemptible;
}

void
SimSanitizer::beginRun(const isa::Program &program,
                       const trace::KernelTrace &trace, int blocksPerSm,
                       int warpsPerBlock,
                       std::uint32_t logPartitionBytes,
                       const vm::SystemMmu *mmu)
{
    program_ = &program;
    trace_ = &trace;
    mmu_ = mmu;
    partitionBytes_ = logPartitionBytes;

    sms_.assign(static_cast<std::size_t>(cfg_.numSms), SmShadow{});
    for (SmShadow &s : sms_) {
        s.warps.assign(
            static_cast<std::size_t>(blocksPerSm * warpsPerBlock),
            WarpShadow{});
        s.slots.assign(static_cast<std::size_t>(blocksPerSm),
                       SlotShadow{});
    }

    coverage_.clear();
    coverage_.resize(trace.blocks.size());
    for (std::size_t b = 0; b < trace.blocks.size(); ++b) {
        const trace::BlockTrace &bt = trace.blocks[b];
        coverage_[b].resize(bt.warps.size());
        for (std::size_t w = 0; w < bt.warps.size(); ++w)
            coverage_[b][w].committed.assign(bt.warps[w].size(),
                                             0);
    }
}

void
SimSanitizer::fail(const std::string &what, Cycle cycle, int sm,
                   int warp) const
{
    ErrorContext ctx;
    ctx.cycle = cycle;
    ctx.sm = sm;
    ctx.warp = warp;
    ctx.scheme = gpu::schemeName(cfg_.scheme);
    std::string diag;
    if (tail_) {
        diag = "  last pipeline events:\n";
        diag += tail_->render();
    } else {
        diag = "  (recent-event capture off; add --capture-events for "
               "the event tail)\n";
    }
    throw InvariantError(what, std::move(ctx), std::move(diag));
}

SimSanitizer::WarpShadow &
SimSanitizer::warpAt(const obs::PipeEvent &e)
{
    return sms_[static_cast<std::size_t>(e.sm)]
        .warps[static_cast<std::size_t>(e.warp)];
}

bool
SimSanitizer::staticIsGlobalMem(std::uint32_t staticIdx) const
{
    if (!program_ || staticIdx == obs::PipeEvent::kNoIndex)
        return false;
    return program_->at(staticIdx).isGlobalMem();
}

void
SimSanitizer::event(const obs::PipeEvent &e)
{
    // Forward first: the violating event must reach the last-K ring
    // (and any user observer) before a violation renders it.
    if (next_)
        next_->event(e);
    if (e.sm < 0 || static_cast<std::size_t>(e.sm) >= sms_.size())
        return;
    SmShadow &s = sms_[static_cast<std::size_t>(e.sm)];

    using K = obs::PipeEventKind;
    switch (e.kind) {
      case K::Fetched: {
        WarpShadow &w = warpAt(e);
        if (w.fetchDisabled) {
            if (e.traceIdx == w.allowFetchIdx)
                w.allowFetchIdx = obs::PipeEvent::kNoIndex;
            else
                fail(strprintf(
                         "warp-disable violation: instruction fetched "
                         "past an engaged fetch barrier (trace idx %u)",
                         e.traceIdx),
                     e.cycle, e.sm, e.warp);
        }
        break;
      }
      case K::FetchDisabled: {
        if (!wdScheme_)
            fail("fetch barrier engaged outside a warp-disable scheme",
                 e.cycle, e.sm, e.warp);
        WarpShadow &w = warpAt(e);
        if (w.fetchDisabled)
            fail("warp-disable exclusivity violation: second fetch "
                 "barrier engaged while one is already in flight",
                 e.cycle, e.sm, e.warp);
        w.fetchDisabled = true;
        w.allowFetchIdx = e.traceIdx;
        break;
      }
      case K::FetchReenabled: {
        WarpShadow &w = warpAt(e);
        if (!w.fetchDisabled)
            fail("fetch re-enabled without an engaged fetch barrier",
                 e.cycle, e.sm, e.warp);
        w.fetchDisabled = false;
        w.allowFetchIdx = obs::PipeEvent::kNoIndex;
        break;
      }
      case K::Issued: {
        WarpShadow &w = warpAt(e);
        auto [it, fresh] = w.inflight.emplace(e.traceIdx, InstShadow{});
        if (!fresh)
            fail(strprintf("instruction issued twice without an "
                           "intervening commit or squash (trace idx %u)",
                           e.traceIdx),
                 e.cycle, e.sm, e.warp);
        it->second.isGlobalMem = staticIsGlobalMem(e.staticIdx);
        break;
      }
      case K::SourcesHeld:
        break;
      case K::SourcesReleased: {
        if (!rqScheme_)
            break;
        WarpShadow &w = warpAt(e);
        auto it = w.inflight.find(e.traceIdx);
        // A squashed instruction's release is exempt: Squashed erases
        // the shadow entry before its SourcesReleased arrives.
        if (it != w.inflight.end() && it->second.isGlobalMem &&
            !it->second.tlbChecked)
            fail(strprintf(
                     "replay-queue hold violation: sources of "
                     "global-memory instruction (trace idx %u) released "
                     "before its last TLB check",
                     e.traceIdx),
                 e.cycle, e.sm, e.warp);
        break;
      }
      case K::LogAllocated: {
        if (!olScheme_)
            fail("operand-log allocation outside the operand-log "
                 "scheme",
                 e.cycle, e.sm, e.warp);
        if (e.slot < 0 ||
            static_cast<std::size_t>(e.slot) >= s.slots.size())
            break;
        SlotShadow &sl = s.slots[static_cast<std::size_t>(e.slot)];
        sl.logBytes += static_cast<std::int64_t>(e.arg);
        if (sl.logBytes > static_cast<std::int64_t>(partitionBytes_))
            fail(strprintf("operand-log capacity violation: partition "
                           "%d holds %lld bytes of a %u-byte partition",
                           static_cast<int>(e.slot),
                           static_cast<long long>(sl.logBytes),
                           partitionBytes_),
                 e.cycle, e.sm, e.warp);
        break;
      }
      case K::LogReleased: {
        if (e.slot < 0 ||
            static_cast<std::size_t>(e.slot) >= s.slots.size())
            break;
        SlotShadow &sl = s.slots[static_cast<std::size_t>(e.slot)];
        sl.logBytes -= static_cast<std::int64_t>(e.arg);
        if (sl.logBytes < 0)
            fail(strprintf("operand-log refcount violation: partition "
                           "%d released below zero",
                           static_cast<int>(e.slot)),
                 e.cycle, e.sm, e.warp);
        break;
      }
      case K::TlbChecked: {
        WarpShadow &w = warpAt(e);
        auto it = w.inflight.find(e.traceIdx);
        if (it == w.inflight.end())
            fail(strprintf("last TLB check for an instruction that is "
                           "not in flight (trace idx %u)",
                           e.traceIdx),
                 e.cycle, e.sm, e.warp);
        it->second.tlbChecked = true;
        break;
      }
      case K::Faulted: {
        if (!preemptible_)
            fail("precise-baseline violation: preemptible fault event "
                 "under a stall-on-fault scheme",
                 e.cycle, e.sm, e.warp);
        // The fault reaction clears the warp-disable barrier without a
        // FetchReenabled event (the squash re-fetches the barrier
        // instruction); mirror that silently.
        WarpShadow &w = warpAt(e);
        w.fetchDisabled = false;
        w.allowFetchIdx = obs::PipeEvent::kNoIndex;
        break;
      }
      case K::Squashed: {
        if (!preemptible_)
            fail("precise-baseline violation: squash under a "
                 "stall-on-fault scheme",
                 e.cycle, e.sm, e.warp);
        WarpShadow &w = warpAt(e);
        if (w.inflight.erase(e.traceIdx) == 0)
            fail(strprintf("squash of an instruction that is not in "
                           "flight (trace idx %u)",
                           e.traceIdx),
                 e.cycle, e.sm, e.warp);
        break;
      }
      case K::Replayed:
        if (!preemptible_)
            fail("precise-baseline violation: replay under a "
                 "stall-on-fault scheme",
                 e.cycle, e.sm, e.warp);
        break;
      case K::TrapEntered:
        if (!preemptible_)
            fail("precise-baseline violation: trap entry under a "
                 "stall-on-fault scheme",
                 e.cycle, e.sm, e.warp);
        break;
      case K::Committed: {
        WarpShadow &w = warpAt(e);
        if (w.blockId == kNoBlock)
            fail("commit on a warp with no installed thread block",
                 e.cycle, e.sm, e.warp);
        WarpCoverage &cov =
            coverage_[w.blockId][static_cast<std::size_t>(
                w.warpInBlock)];
        if (e.traceIdx >= cov.committed.size())
            fail(strprintf("commit beyond the warp's trace (idx %u of "
                           "%zu traced instructions)",
                           e.traceIdx, cov.committed.size()),
                 e.cycle, e.sm, e.warp);
        if (cov.committed[e.traceIdx])
            fail(strprintf("exactly-once retirement violation: "
                           "instruction committed twice (block %u, "
                           "warp %d, trace idx %u)",
                           w.blockId, w.warpInBlock, e.traceIdx),
                 e.cycle, e.sm, e.warp);
        cov.committed[e.traceIdx] = 1;
        ++cov.count;
        if (w.inflight.erase(e.traceIdx) == 0)
            fail(strprintf("commit of an instruction that never "
                           "issued (trace idx %u)",
                           e.traceIdx),
                 e.cycle, e.sm, e.warp);
        break;
      }
      case K::ContextSaved: {
        if (e.slot < 0 ||
            static_cast<std::size_t>(e.slot) >= s.slots.size())
            break;
        SlotShadow &sl = s.slots[static_cast<std::size_t>(e.slot)];
        for (int j = 0; j < sl.numWarps; ++j) {
            WarpShadow &w =
                s.warps[static_cast<std::size_t>(sl.firstWarp + j)];
            if (w.fetchDisabled)
                fail("context saved with an engaged fetch barrier",
                     e.cycle, e.sm, sl.firstWarp + j);
            if (!w.inflight.empty())
                fail(strprintf("context saved with %zu in-flight "
                               "instructions",
                               w.inflight.size()),
                     e.cycle, e.sm, sl.firstWarp + j);
            w.blockId = kNoBlock;
            w.warpInBlock = -1;
        }
        sl.blockId = kNoBlock;
        break;
      }
      case K::ContextRestored:
        break; // mapping updates through onBlockInstalled
    }
}

void
SimSanitizer::onCycleStart(int sm, Cycle now)
{
    SmShadow &s = sms_[static_cast<std::size_t>(sm)];
    if (now < s.now)
        fail(strprintf("event-heap violation: SM clock moved backwards "
                       "(tick at cycle %llu after cycle %llu)",
                       static_cast<unsigned long long>(now),
                       static_cast<unsigned long long>(s.now)),
             now, sm, -1);
    s.now = now;
    // Pop-order monotonicity is a per-tick property: processEvents
    // pops everything with cycle <= now in (cycle, seq) heap order
    // each tick, so only within one tick does a regression indicate a
    // corrupted heap (see onEventPopped).
    s.popped = false;
}

void
SimSanitizer::onEventScheduled(int sm, Cycle cycle, std::uint64_t seq,
                               int kind)
{
    static const char *const kEvNames[] = {
        "SourceRelease", "LastCheck",   "Commit",    "FaultReact",
        "WarpResume",    "SaveReady",   "SaveDone",  "RestoreDone",
        "SlotRetry",     "TrapEnter",
    };
    SmShadow &s = sms_[static_cast<std::size_t>(sm)];
    // Never-into-the-past, with one documented carve-out: a warp
    // joining a fault that has been outstanding for a while inherits
    // the *original* detect time from the TLB's pending-miss entry
    // (vm/tlb.cpp merge path), so its FaultReact legitimately targets
    // a past cycle — the event still fires on the very next tick.
    if (cycle < s.now &&
        kind != static_cast<int>(sm::EvKind::FaultReact)) {
        const char *name =
            kind >= 0 && kind < 10 ? kEvNames[kind] : "?";
        fail(strprintf("event-heap violation: %s event scheduled into "
                       "the past (target cycle %llu < current cycle "
                       "%llu)",
                       name, static_cast<unsigned long long>(cycle),
                       static_cast<unsigned long long>(s.now)),
             s.now, sm, -1);
    }
    if (!s.liveSeqs.insert(seq).second)
        fail(strprintf("event-heap violation: duplicate event sequence "
                       "number %llu",
                       static_cast<unsigned long long>(seq)),
             s.now, sm, -1);
}

void
SimSanitizer::onEventPopped(int sm, Cycle cycle, std::uint64_t seq)
{
    SmShadow &s = sms_[static_cast<std::size_t>(sm)];
    if (s.popped &&
        (cycle < s.lastPopCycle ||
         (cycle == s.lastPopCycle && seq <= s.lastPopSeq)))
        fail(strprintf("event-heap violation: events popped out of "
                       "(cycle, seq) order — (%llu, %llu) after "
                       "(%llu, %llu)",
                       static_cast<unsigned long long>(cycle),
                       static_cast<unsigned long long>(seq),
                       static_cast<unsigned long long>(s.lastPopCycle),
                       static_cast<unsigned long long>(s.lastPopSeq)),
             s.now, sm, -1);
    if (s.liveSeqs.erase(seq) == 0)
        fail(strprintf("event-heap violation: popped an event that was "
                       "never scheduled (seq %llu)",
                       static_cast<unsigned long long>(seq)),
             s.now, sm, -1);
    s.popped = true;
    s.lastPopCycle = cycle;
    s.lastPopSeq = seq;
}

void
SimSanitizer::onBlockInstalled(int sm, int slot, std::uint32_t blockId,
                               int firstWarp, int numWarps)
{
    SmShadow &s = sms_[static_cast<std::size_t>(sm)];
    SlotShadow &sl = s.slots[static_cast<std::size_t>(slot)];
    sl.blockId = blockId;
    sl.firstWarp = firstWarp;
    sl.numWarps = numWarps;
    for (int j = 0; j < numWarps; ++j) {
        WarpShadow &w = s.warps[static_cast<std::size_t>(firstWarp + j)];
        // Only the block mapping updates: the warp-disable and
        // in-flight shadows track the continuous event stream.
        w.blockId = blockId;
        w.warpInBlock = j;
    }
}

void
SimSanitizer::checkWarpMasks(const sm::PipelineState &st, Cycle now) const
{
    const int n = static_cast<int>(st.warps.size());
    auto any = [&](int wi) {
        return st.fetchBlocked.word(wi) | st.sbStalled.word(wi) |
               st.lsuWaiting.word(wi) | st.issueIdle.word(wi);
    };
    for (int w = WarpBitset::findNextIn(0, n, any); w < n;
         w = WarpBitset::findNextIn(w + 1, n, any)) {
        const sm::WarpRt &wr = st.warps[static_cast<std::size_t>(w)];
        const bool sched = wr.schedulable();
        const bool ready = sched && !wr.ibuf.empty() &&
                           wr.ibuf.front().readyAt <= now;
        const char *stale = nullptr;
        if (st.issueIdle.test(w) && sched && !wr.ibuf.empty())
            stale = "issueIdle";
        else if (st.sbStalled.test(w) &&
                 !(ready && wr.ibuf.front().idx == wr.sbStallIdx &&
                   st.sb.gen(w) == wr.sbStallGen))
            stale = "sbStalled";
        else if (st.fetchBlocked.test(w) && sched &&
                 static_cast<int>(wr.ibuf.size()) <
                     st.cfg.sm.instBufferDepth &&
                 wr.controlPending == 0 && !wr.wdFetchDisable &&
                 !(wr.replayQ.empty() &&
                   wr.fetchIdx >= wr.tr->size()))
            stale = "fetchBlocked";
        else if (st.lsuWaiting.test(w)) {
            bool holds = ready;
            if (holds) {
                const isa::Instruction &si = sm::decodeInst(
                    st, wr.tr->inst(wr.ibuf.front().idx));
                holds = si.isGlobalMem() && sm::operandsReady(st.sb, w, si);
            }
            if (!holds)
                stale = "lsuWaiting";
        }
        if (stale)
            fail(strprintf("warp-mask coherence violation: %s bit set but "
                           "its predicate does not hold",
                           stale),
                 now, st.smId, w);
    }
}

void
SimSanitizer::checkIdleReplay(const sm::PipelineState &st, Cycle now,
                              Cycle wake, const sm::IdleCounters &recorded,
                              Cycle woke,
                              const sm::IdleCounters &moved) const
{
    if (!st.didWork && woke == wake && moved == recorded)
        return;
    auto cyc = [](Cycle c) {
        return c == kNoCycle
                   ? std::string("none")
                   : std::to_string(static_cast<unsigned long long>(c));
    };
    fail(strprintf("idle-tick replay violation: a tick before wake cycle "
                   "%s %s (woke %s; moved %s; replay adds %s)",
                   cyc(wake).c_str(),
                   st.didWork ? "did work" : "differs from its replay",
                   cyc(woke).c_str(), moved.describe().c_str(),
                   recorded.describe().c_str()),
         now, st.smId, -1);
}

void
SimSanitizer::onFaultedTranslation(int sm, int warp, Addr page,
                                   const vm::Tlb &l1tlb, Cycle now)
{
    if (l1tlb.contains(page))
        fail(strprintf("TLB caching violation: L1 TLB holds the "
                       "faulting translation of page 0x%llx",
                       static_cast<unsigned long long>(page)),
             now, sm, warp);
    if (mmu_ && mmu_->l2Tlb().contains(page))
        fail(strprintf("TLB caching violation: shared L2 TLB holds the "
                       "faulting translation of page 0x%llx",
                       static_cast<unsigned long long>(page)),
             now, sm, warp);
}

void
SimSanitizer::checkDrained(const sm::PipelineState &st, Cycle now) const
{
    for (std::size_t i = 0; i < st.pool.size(); ++i)
        if (st.pool[i].live)
            fail(strprintf("leak at drain: in-flight pool entry %zu "
                           "still live (trace idx %u)",
                           i, st.pool[i].traceIdx),
                 now, st.smId, st.pool[i].warp);
    for (const sm::TbSlot &ts : st.slots)
        if (ts.state != sm::TbSlot::State::Empty)
            fail("leak at drain: thread-block slot not empty after the "
                 "run claimed completion",
                 now, st.smId, -1);
    for (int w = 0; w < st.activeWarps; ++w) {
        const sm::WarpRt &wr = st.warps[static_cast<std::size_t>(w)];
        if (wr.slot >= 0)
            fail("leak at drain: warp still owns a thread-block slot",
                 now, st.smId, w);
        if (wr.inflight != 0 || !wr.replayQ.empty() || !wr.ibuf.empty())
            fail(strprintf("leak at drain: warp state not empty "
                           "(inflight %d, replayQ %zu, ibuf %zu)",
                           wr.inflight, wr.replayQ.size(),
                           wr.ibuf.size()),
                 now, st.smId, w);
        if (wr.wdFetchDisable)
            fail("leak at drain: warp-disable fetch barrier still "
                 "engaged",
                 now, st.smId, w);
        if (!st.sb.clean(w))
            fail("leak at drain: scoreboard entries still held", now,
                 st.smId, w);
    }
    if (st.policy.usesOperandLog)
        for (int p = 0; p < st.li.blocksPerSm; ++p)
            if (st.log.used(p) != 0)
                fail(strprintf("leak at drain: operand-log partition "
                               "%d holds %u bytes",
                               p, st.log.used(p)),
                     now, st.smId, -1);
    if (!st.offchip.empty())
        fail("leak at drain: blocks still switched out off-chip", now,
             st.smId, -1);
    for (const sm::OffchipBlock &rb : st.restorePending)
        if (rb.bt != nullptr)
            fail("leak at drain: context restore still pending", now,
                 st.smId, -1);
    if (st.inflightMem != 0)
        fail(strprintf("leak at drain: LSU in-flight count is %d",
                       st.inflightMem),
             now, st.smId, -1);
    // MSHRs and TLB miss queues drain lazily: quiescence at cycle N
    // means nothing outstanding past N, not emptiness.
    if (st.lsu.l1Tlb().maxPendingExpiry() > now)
        fail("leak at drain: L1 TLB miss outstanding past the end of "
             "the run",
             now, st.smId, -1);
    if (st.lsu.l1().maxPendingReady() > now)
        fail("leak at drain: L1 MSHR entry outstanding past the end of "
             "the run",
             now, st.smId, -1);
}

void
SimSanitizer::finishRun(Cycle now)
{
    for (std::size_t b = 0; b < coverage_.size(); ++b)
        for (std::size_t w = 0; w < coverage_[b].size(); ++w) {
            const WarpCoverage &cov = coverage_[b][w];
            if (cov.count != cov.committed.size())
                fail(strprintf(
                         "architectural coverage violation: block %zu "
                         "warp %zu retired %llu of %zu traced "
                         "instructions",
                         b, w,
                         static_cast<unsigned long long>(cov.count),
                         cov.committed.size()),
                     now, -1, -1);
        }
    for (std::size_t i = 0; i < sms_.size(); ++i) {
        const SmShadow &s = sms_[i];
        for (std::size_t w = 0; w < s.warps.size(); ++w) {
            if (!s.warps[w].inflight.empty())
                fail(strprintf("shadow leak at drain: %zu instructions "
                               "issued but never retired or squashed",
                               s.warps[w].inflight.size()),
                     now, static_cast<int>(i), static_cast<int>(w));
            if (s.warps[w].fetchDisabled)
                fail("shadow leak at drain: fetch barrier engaged at "
                     "end of run",
                     now, static_cast<int>(i), static_cast<int>(w));
        }
        for (std::size_t p = 0; p < s.slots.size(); ++p)
            if (s.slots[p].logBytes != 0)
                fail(strprintf("operand-log accounting violation: "
                               "partition %zu ends the run with %lld "
                               "bytes",
                               p,
                               static_cast<long long>(
                                   s.slots[p].logBytes)),
                     now, static_cast<int>(i), -1);
    }
}

} // namespace gex::check
