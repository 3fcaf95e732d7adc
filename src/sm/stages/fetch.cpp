#include "sm/stages/fetch.hpp"

#include "sm/stages/decode.hpp"

namespace gex::sm {

void
FetchStage::tick(Cycle now)
{
    // Only warps outside fetchBlocked are visited: a blocked warp's
    // visit would break out without side effects (no counters, no
    // didWork), so passing over it is invisible to the results.
    int lines = 0;
    st_.scanWarps(
        st_.rrFetch, [&](int wi) { return ~st_.fetchBlocked.word(wi); },
        [](int, int) {},
        [&](int w) {
            if (!fetchWarp(w, now))
                return false;
            st_.rrFetch = w;
            return ++lines >= st_.cfg.sm.fetchPerCycle;
        });
}

bool
FetchStage::fetchWarp(int w, Cycle now)
{
    WarpRt &wr = st_.warps[static_cast<size_t>(w)];
    if (!wr.schedulable()) {
        st_.fetchBlocked.set(w);
        return false;
    }

    int fetched_from_warp = 0;
    while (fetched_from_warp < st_.cfg.sm.fetchWidth) {
        if (static_cast<int>(wr.ibuf.size()) >=
            st_.cfg.sm.instBufferDepth)
            break;
        if (wr.controlPending > 0 || wr.wdFetchDisable)
            break;
        if (now < wr.fetchResumeAt)
            break;

        std::uint32_t idx;
        bool from_replay = false;
        if (!wr.replayQ.empty()) {
            idx = wr.replayQ.front();
            wr.replayQ.pop_front();
            from_replay = true;
        } else if (wr.fetchIdx < wr.tr->size()) {
            idx = wr.fetchIdx++;
        } else {
            break;
        }

        const trace::TraceInst &ti = wr.tr->inst(idx);
        const isa::Instruction &si = decodeInst(st_, ti);
        if (si.isControl())
            ++wr.controlPending;
        if (st_.policy.fetchBarrier(si.isGlobalMem(),
                                    si.traits().canRaiseArith,
                                    st_.cfg.arithExceptions)) {
            wr.wdFetchDisable = true;
            wr.wdDisabledSince = now;
            st_.emitFetch(now, obs::PipeEventKind::FetchDisabled, w,
                          idx, ti.staticIdx());
        }
        wr.ibuf.push_back(InstBufEntry{idx, decodeReady(now)});
        st_.emitFetch(now, obs::PipeEventKind::Fetched, w, idx,
                      ti.staticIdx(), from_replay ? 1 : 0);
        ++st_.fetches;
        ++fetched_from_warp;
        st_.didWork = true;
    }
    if (fetched_from_warp > 0) {
        st_.issueIdle.reset(w); // the ibuf refilled
        return true;
    }
    // Mark state-blocked warps so later scans pass over them; a wait on
    // fetchResumeAt is the only purely time-based reason and must keep
    // the warp a candidate.
    const bool time_blocked =
        static_cast<int>(wr.ibuf.size()) < st_.cfg.sm.instBufferDepth &&
        wr.controlPending == 0 && !wr.wdFetchDisable &&
        now < wr.fetchResumeAt;
    if (!time_blocked)
        st_.fetchBlocked.set(w);
    return false;
}

} // namespace gex::sm
