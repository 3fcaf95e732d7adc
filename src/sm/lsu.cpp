#include "sm/lsu.hpp"

namespace gex::sm {

Lsu::Lsu(const gpu::SmConfig &cfg, MemorySystem &sys)
    : sys_(sys), tlb_(cfg.l1Tlb), l1_(cfg.l1), port_(1),
      xlatePort_(cfg.translationsPerCycle),
      frontendCycles_(cfg.memFrontendCycles)
{
    lowerFn_ = [this](Addr p, Cycle t) { return sys_.translatePage(p, t); };
    l2FetchFn_ = [this](Addr l, Cycle t) { return sys_.l2Load(l, t); };
}

Cycle
Lsu::accessForData(const isa::Instruction &inst, Addr line, Cycle earliest)
{
    const auto &t = inst.traits();
    if (t.isAtomic) {
        // Atomics are performed at the L2 (GPU-typical); they bypass
        // the L1 data array but still paid translation.
        return sys_.l2Atomic(line, earliest);
    }
    if (t.isStore) {
        // Write-through, no-allocate: local ack at L1 speed; the
        // write traffic continues to L2 for bandwidth accounting.
        Cycle ack = l1_.store(line, earliest);
        sys_.l2Store(line, ack);
        return ack;
    }
    // Load through L1; misses fetch from L2 (which fetches from DRAM).
    return l1_.load(line, earliest, l2FetchFn_);
}

MemTimeline
Lsu::processGlobal(const isa::Instruction &inst, const trace::TraceInst &ti,
                   const Addr *lines, Cycle op_read_done,
                   bool stall_on_fault, Cycle fault_retry_latency)
{
    ++instsProcessed_;
    MemTimeline tl;
    const Cycle front_done = op_read_done + frontendCycles_;
    tl.lastTlbCheck = front_done;
    tl.execDone = front_done;

    if (ti.numLines() == 0) {
        // Fully predicated-off instruction: flows through the pipe
        // with no memory work.
        tl.execDone = front_done + 1;
        tl.lastTlbCheck = front_done + 1;
        return tl;
    }

    for (unsigned i = 0; i < ti.numLines(); ++i) {
        Addr line = lines[i];
        Addr page = pageOf(line);
        ++requests_;

        // One coalesced request enters translation per cycle, after
        // the address-calc/coalescing front end.
        Cycle xlate_start = xlatePort_.reserve(front_done + 1);
        vm::Translation tr = tlb_.translate(page, xlate_start, lowerFn_);

        if (!tr.fault) {
            tl.lastTlbCheck = std::max(tl.lastTlbCheck, tr.ready);
            Cycle done = accessForData(inst, line, tr.ready);
            tl.execDone = std::max(tl.execDone, done);
            continue;
        }

        // Page fault on this request.
        ++faults_;
        if (tr.detect < tl.faultDetect) {
            tl.faultDetect = tr.detect;
            tl.faultPage = page;
        }
        tl.resolveAll = std::max(tl.resolveAll, tr.resolve);
        if (tl.kind == vm::FaultKind::None ||
            tr.kind == vm::FaultKind::GpuAlloc)
            tl.kind = tr.kind;
        tl.queueDepth = std::max(tl.queueDepth, tr.queueDepth);

        if (stall_on_fault) {
            // Baseline: the request is parked in the fill unit and
            // re-sent when the fault resolves (paper section 2.3);
            // the instruction stays stalled in the pipeline.
            Cycle retry = tr.resolve + fault_retry_latency;
            Cycle done = accessForData(inst, line, retry);
            tl.execDone = std::max(tl.execDone, done);
            tl.lastTlbCheck = std::max(tl.lastTlbCheck, retry);
        } else {
            tl.faulted = true;
        }
    }
    return tl;
}

void
Lsu::collectStats(StatSet &s) const
{
    tlb_.collectStats(s);
    l1_.collectStats(s);
    s.add("lsu.insts", static_cast<double>(instsProcessed_));
    s.add("lsu.requests", static_cast<double>(requests_));
    s.add("lsu.faulted_requests", static_cast<double>(faults_));
}

} // namespace gex::sm
