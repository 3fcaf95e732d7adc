#include "gpu/gpu.hpp"

#include <algorithm>
#include <sstream>

#include "check/sanitizer.hpp"
#include "common/error.hpp"
#include "common/json.hpp"
#include "common/log.hpp"

namespace gex::gpu {

void
SimResult::writeJson(json::Writer &w) const
{
    w.beginObject();
    w.key("cycles").value(static_cast<std::uint64_t>(cycles));
    w.key("instructions").value(instructions);
    w.key("ipc").value(ipc());
    w.key("stats");
    stats.writeJson(w);
    w.endObject();
}

std::string
SimResult::toJson() const
{
    std::ostringstream os;
    json::Writer w(os);
    writeJson(w);
    return os.str();
}

Gpu::Gpu(const GpuConfig &cfg) : cfg_(cfg) {}
Gpu::~Gpu() = default;

void
Gpu::reset(const func::Kernel &kernel, const trace::KernelTrace &trace,
           const vm::VmPolicy &policy)
{
    mem::CacheConfig l2cfg = cfg_.l2;
    l2cfg.writeAllocate = true; // GPU L2: write-back, write-allocate
    l2_ = std::make_unique<mem::Cache>(l2cfg);
    dram_ = std::make_unique<mem::Dram>(cfg_.dramBytesPerCycle,
                                        cfg_.dramLatency);
    l2_->setWriteback([this](Addr, Cycle at) { dram_->writeLine(at); });
    dramFetchFn_ = [this](Addr, Cycle t) { return dram_->readLine(t); };
    dir_ = std::make_unique<vm::PageDirectory>(
        cfg_.migrationGranularityBytes);
    link_ = std::make_unique<vm::HostLink>(cfg_.hostLink);
    gpuHandler_ = std::make_unique<vm::GpuFaultHandler>(cfg_.gpuHandler);

    vm::MmuConfig mmu_cfg = cfg_.mmu;
    mmu_cfg.localHandling = policy.localHandling;
    mmu_ = std::make_unique<vm::SystemMmu>(mmu_cfg, *dir_, *link_,
                                           *gpuHandler_);
    injector_.reset();
    if (policy.inject.enabled()) {
        injector_ =
            std::make_unique<inject::FaultInjector>(policy.inject);
        mmu_->setInjector(injector_.get());
    }

    vm::applyPolicy(*dir_, kernel, policy);

    sched_ = std::make_unique<TbScheduler>(trace);
    // Watchdog event capture: a bounded ring teeing into the user's
    // observer (if any). Only built on request — attaching any
    // observer makes every emission site construct its event, which
    // plain runs must not pay for.
    lastK_.reset();
    obs::PipelineObserver *eff = observer_;
    if (cfg_.watchdogCaptureEvents) {
        lastK_ = std::make_unique<obs::LastKObserver>(
            static_cast<std::size_t>(std::max(1, cfg_.watchdogLastEvents)),
            observer_);
        eff = lastK_.get();
    }
    // Invariant sanitizer (--check): heads the chain so it sees the
    // same stream the ring and the user observer do, and forwards
    // every event before checking it.
    san_.reset();
    if (cfg_.checkInvariants) {
        san_ = std::make_unique<check::SimSanitizer>(cfg_, eff,
                                                     lastK_.get());
        san_->hooks.arm(cfg_.checkViolation);
        eff = san_.get();
    }
    sms_.clear();
    sms_.reserve(static_cast<std::size_t>(cfg_.numSms));
    for (int i = 0; i < cfg_.numSms; ++i) {
        sms_.push_back(std::make_unique<sm::Sm>(i, cfg_, *this, *sched_));
        sms_.back()->setObserver(eff);
        sms_.back()->setSanitizer(san_.get());
    }
}

bool
Gpu::allDone() const
{
    if (sched_->hasPending())
        return false;
    for (const auto &s : sms_)
        if (s->busy())
            return false;
    return true;
}

bool
Gpu::anyBusy() const
{
    for (const auto &s : sms_)
        if (s->busy())
            return true;
    return false;
}

std::string
Gpu::diagnose(Cycle now)
{
    std::string out;
    out += strprintf("  pending faults: %d, blocks still queued: %s\n",
                     mmu_->pendingFaults(now),
                     sched_->hasPending() ? "yes" : "no");
    for (auto &s : sms_)
        s->appendDiagnostics(out);
    if (lastK_) {
        out += strprintf("  last %d pipeline events:\n",
                         cfg_.watchdogLastEvents);
        out += lastK_->render();
    } else {
        out += "  (recent-event capture off; set "
               "GpuConfig::watchdogCaptureEvents for the event tail)\n";
    }
    return out;
}

SimResult
Gpu::run(const func::Kernel &kernel, const trace::KernelTrace &trace,
         const vm::VmPolicy &policy)
{
    kernel.program.validate();
    if (trace.blocks.size() != kernel.numBlocks())
        throw TraceError(strprintf(
            "trace/kernel geometry mismatch: trace has %zu blocks, "
            "kernel '%s' declares %u",
            trace.blocks.size(), kernel.program.name().c_str(),
            kernel.numBlocks()));
    reset(kernel, trace, policy);

    sm::LaunchInfo li;
    li.kernel = &kernel;
    li.trace = &trace;
    li.warpsPerBlock = static_cast<int>(kernel.warpsPerBlock());
    li.blocksPerSm = blocksPerSm(cfg_, kernel);
    li.contextBytesPerBlock = contextBytesPerBlock(cfg_, kernel);
    for (auto &s : sms_)
        s->beginKernel(li);
    if (san_)
        san_->beginRun(kernel.program, trace, li.blocksPerSm,
                       li.warpsPerBlock,
                       sms_[0]->state().log.partitionBytes(),
                       mmu_.get());

    // Initial fill: breadth-first across SMs, as the baseline TB
    // scheduler does on a kernel launch.
    bool placed = true;
    while (placed && sched_->hasPending()) {
        placed = false;
        for (auto &s : sms_) {
            if (!sched_->hasPending())
                break;
            if (s->freeSlots() > 0) {
                const trace::BlockTrace *bt = sched_->nextBlock();
                GEX_ASSERT(bt != nullptr);
                bool ok = s->launchBlock(bt, 0);
                GEX_ASSERT(ok);
                placed = true;
            }
        }
    }

    // Forward-progress watchdog (docs/ROBUSTNESS.md): the run loop
    // pays one predictable `now >= checkAt` branch per cycle; the
    // actual progress scan (summing commits and retired blocks across
    // SMs) runs at most once per window. Progress is measured against
    // the last scan, so a livelock is detected between one and two
    // windows after the last commit/retire. The maxCycles budget
    // shares the same branch via the min() below.
    const Cycle wdWindow = cfg_.watchdogCycles;
    const Cycle budget = cfg_.maxCycles ? cfg_.maxCycles : kNoCycle;
    Cycle wdCheckAt = wdWindow ? wdWindow : kNoCycle;
    Cycle checkAt = std::min(wdCheckAt, budget);
    std::uint64_t wdLastProgress = 0;
    Cycle wdProgressAt = 0;

    Cycle now = 0;
    while (true) {
        if (now >= checkAt) {
            ErrorContext ctx;
            ctx.cycle = now;
            ctx.scheme = schemeName(cfg_.scheme);
            if (now >= budget)
                throw CycleBudgetExceeded(
                    strprintf("run reached the %llu-cycle budget "
                              "(GpuConfig::maxCycles)",
                              static_cast<unsigned long long>(budget)),
                    std::move(ctx), diagnose(now));
            std::uint64_t progress = 0;
            for (auto &s : sms_)
                progress += s->instsCommitted() + s->blocksCompleted();
            if (progress == wdLastProgress && anyBusy())
                throw LivelockError(
                    strprintf("forward-progress watchdog: no instruction "
                              "committed and no thread block retired in "
                              "%llu cycles (window %llu, last progress "
                              "at cycle %llu)",
                              static_cast<unsigned long long>(
                                  now - wdProgressAt),
                              static_cast<unsigned long long>(wdWindow),
                              static_cast<unsigned long long>(
                                  wdProgressAt)),
                    std::move(ctx), diagnose(now));
            wdLastProgress = progress;
            wdProgressAt = now;
            wdCheckAt = now + wdWindow;
            checkAt = std::min(wdCheckAt, budget);
        }
        // One serial tick per SM in ascending index order. Shared
        // resources (TB scheduler, L2, DRAM, MMU) therefore see SM 0's
        // accesses for a cycle before SM 1's, every run. An SM before
        // its wake cycle would repeat its last idle tick exactly, so
        // only that tick's counter increments are added; under --check
        // it ticks for real and the sanitizer compares the two.
        bool released = false;
        Cycle next = kNoCycle;
        for (auto &s : sms_) {
            Cycle wake = s->wakeCycle();
            if (now < wake && !san_) {
                s->replayIdleTick();
            } else {
                wake = s->tick(now);
                released |= s->slotReleased();
            }
            next = std::min(next, wake);
        }
        // allDone() scans every SM; it can only flip true in a cycle
        // that emptied a TB slot (or when the machine was idle to
        // begin with, and so has no events), so the scan is gated on
        // those cases instead of running every cycle.
        if (released && allDone())
            break;
        if (next == kNoCycle) {
            if (allDone())
                break;
            // Warps are resident but nothing can ever run again: a
            // survivable, classifiable event — the harness records the
            // point and the campaign continues (docs/ROBUSTNESS.md).
            ErrorContext ctx;
            ctx.cycle = now;
            ctx.scheme = schemeName(cfg_.scheme);
            throw DeadlockError(
                strprintf("GPU deadlock at cycle %llu: no work and no "
                          "future events while warps are resident",
                          static_cast<unsigned long long>(now)),
                std::move(ctx), diagnose(now));
        }
        now = std::max(now + 1, next);
    }

    if (san_) {
        for (auto &s : sms_)
            san_->checkDrained(s->state(), now);
        if (l2_->maxPendingReady() > now)
            san_->fail("leak at drain: L2 MSHR entry outstanding past "
                       "the end of the run",
                       now, -1, -1);
        san_->finishRun(now);
    }

    SimResult r;
    r.cycles = now;
    for (auto &s : sms_) {
        r.instructions += s->instsCommitted();
        s->collectStats(r.stats);
    }
    l2_->collectStats(r.stats);
    dram_->collectStats(r.stats);
    mmu_->collectStats(r.stats);
    link_->collectStats(r.stats);
    gpuHandler_->collectStats(r.stats);
    dir_->collectStats(r.stats);
    // The resilience block is opt-in (injection active, or the
    // resilienceStats knob): plain runs keep the exact stat set the
    // golden digests were captured over.
    if (injector_ || cfg_.resilienceStats) {
        mmu_->collectResilienceStats(r.stats);
        for (auto &s : sms_)
            s->collectResilienceStats(r.stats);
        if (injector_)
            injector_->collectStats(r.stats);
    }
    r.stats.set("gpu.cycles", static_cast<double>(r.cycles));
    r.stats.set("gpu.instructions", static_cast<double>(r.instructions));
    r.stats.set("gpu.ipc", r.ipc());
    r.stats.set("gpu.blocks", static_cast<double>(trace.blocks.size()));
    return r;
}

Cycle
Gpu::l2Load(Addr line, Cycle earliest)
{
    return l2_->load(line, earliest, dramFetchFn_);
}

Cycle
Gpu::l2Store(Addr line, Cycle earliest)
{
    // Write-allocate: DRAM traffic happens on dirty eviction (the
    // writeback callback), not on the store itself.
    return l2_->store(line, earliest);
}

Cycle
Gpu::l2Atomic(Addr line, Cycle earliest)
{
    Cycle done = l2_->load(line, earliest, dramFetchFn_);
    return done + cfg_.sm.atomicExtraLatency;
}

vm::Translation
Gpu::translatePage(Addr page, Cycle earliest)
{
    return mmu_->translate(page, earliest);
}

Cycle
Gpu::bulkDramTraffic(Cycle earliest, std::uint64_t bytes)
{
    return dram_->bulkTransfer(earliest, bytes);
}

} // namespace gex::gpu
