/**
 * @file
 * Top-level GPU timing simulator: owns the SM array, the shared L2,
 * DRAM, the system MMU, the host link and the GPU-local fault handler;
 * drives the global clock with event-based cycle skipping; produces a
 * SimResult per kernel run.
 */

#ifndef GEX_GPU_GPU_HPP
#define GEX_GPU_GPU_HPP

#include <memory>
#include <vector>

#include "func/kernel.hpp"
#include "gpu/config.hpp"
#include "gpu/context_switch.hpp"
#include "gpu/tb_scheduler.hpp"
#include "inject/fault_model.hpp"
#include "mem/cache.hpp"
#include "mem/dram.hpp"
#include "sm/lsu.hpp"
#include "sm/sm.hpp"
#include "trace/trace.hpp"
#include "vm/fill_unit.hpp"
#include "vm/memory_manager.hpp"

namespace gex::gpu {

/** Outcome of one kernel execution on the timing simulator. */
struct SimResult {
    Cycle cycles = 0;
    std::uint64_t instructions = 0;
    StatSet stats;

    double
    ipc() const
    {
        return cycles ? static_cast<double>(instructions) /
                            static_cast<double>(cycles)
                      : 0.0;
    }

    /**
     * JSON object: {"cycles": N, "instructions": N, "ipc": X,
     * "stats": {...}} with round-trippable numbers.
     */
    std::string toJson() const;

    /** Stream @p this as a JSON object into an in-progress document. */
    void writeJson(json::Writer &w) const;
};

/**
 * A configured GPU. Each run() executes one kernel trace to completion
 * on fresh microarchitectural state (caches, TLBs, page directory),
 * mirroring the paper's one-kernel-per-simulation methodology.
 */
class Gpu : public sm::MemorySystem
{
  public:
    explicit Gpu(const GpuConfig &cfg);
    ~Gpu() override;

    /**
     * Execute @p kernel (whose dynamic behaviour is @p trace) under
     * the given paging policy.
     *
     * Thread-safety contract (relied on by harness::SweepEngine): the
     * kernel and trace are read-only here and in everything reachable
     * from run() — any number of Gpu instances on different threads
     * may share one trace concurrently. A single Gpu instance is NOT
     * reentrant; use one Gpu per thread.
     */
    SimResult run(const func::Kernel &kernel,
                  const trace::KernelTrace &trace,
                  const vm::VmPolicy &policy = vm::VmPolicy::allResident());

    const GpuConfig &config() const { return cfg_; }

    /**
     * Attach a pipeline observer to every SM (nullptr detaches). The
     * pointer is installed on the fresh SM array each run(), so it may
     * be set once before any number of runs; it must outlive them.
     */
    void setObserver(obs::PipelineObserver *o) { observer_ = o; }

    // --- sm::MemorySystem ---
    Cycle l2Load(Addr line, Cycle earliest) override;
    Cycle l2Store(Addr line, Cycle earliest) override;
    Cycle l2Atomic(Addr line, Cycle earliest) override;
    vm::Translation translatePage(Addr page, Cycle earliest) override;
    Cycle bulkDramTraffic(Cycle earliest, std::uint64_t bytes) override;

  private:
    void reset(const func::Kernel &kernel,
               const trace::KernelTrace &trace, const vm::VmPolicy &policy);
    bool allDone() const;
    /** Any SM still owns a block (resident or switched out)? */
    bool anyBusy() const;
    /**
     * Render the machine-state diagnostics bundle for DeadlockError /
     * LivelockError / CycleBudgetExceeded: per-SM warp dumps, pending
     * fault count, and — when watchdogCaptureEvents is on — the last-K
     * pipeline events from the capture ring.
     */
    std::string diagnose(Cycle now);

    GpuConfig cfg_;
    std::unique_ptr<mem::Cache> l2_;
    std::unique_ptr<mem::Dram> dram_;
    /** Built once per reset(); l2Load/l2Atomic run per miss and must
     *  not construct a std::function each call. */
    mem::Cache::FetchFn dramFetchFn_;
    std::unique_ptr<vm::PageDirectory> dir_;
    std::unique_ptr<vm::HostLink> link_;
    std::unique_ptr<vm::GpuFaultHandler> gpuHandler_;
    std::unique_ptr<inject::FaultInjector> injector_;
    std::unique_ptr<vm::SystemMmu> mmu_;
    std::unique_ptr<TbScheduler> sched_;
    std::vector<std::unique_ptr<sm::Sm>> sms_;
    obs::PipelineObserver *observer_ = nullptr;
    /**
     * Last-K event capture ring for watchdog diagnostics, created per
     * reset() when GpuConfig::watchdogCaptureEvents is set; tees into
     * observer_ so capture composes with a user observer.
     */
    std::unique_ptr<obs::LastKObserver> lastK_;
    /**
     * Invariant sanitizer (GpuConfig::checkInvariants), rebuilt per
     * reset(). Heads the observer chain (sanitizer → last-K ring →
     * user observer) and is also attached to every SM's targeted
     * hooks; exec-only, so results are identical with it detached.
     */
    std::unique_ptr<check::SimSanitizer> san_;
};

} // namespace gex::gpu

#endif // GEX_GPU_GPU_HPP
