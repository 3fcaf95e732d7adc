/**
 * @file
 * Global-memory pipeline (LSU) of one SM: per-request address
 * translation through the L1 TLB (the "last TLB check" event central to
 * the paper's schemes, Figure 5), then cache hierarchy access. Also the
 * MemorySystem interface the SM uses to reach shared resources.
 */

#ifndef GEX_SM_LSU_HPP
#define GEX_SM_LSU_HPP

#include "common/stats.hpp"
#include "gpu/config.hpp"
#include "isa/instruction.hpp"
#include "mem/cache.hpp"
#include "trace/trace.hpp"
#include "vm/tlb.hpp"

namespace gex::sm {

/**
 * Shared (system-level) resources, implemented by gpu::Gpu: the L2
 * cache, DRAM, the system MMU (L2 TLB + walkers + fault routing) and
 * bulk DRAM traffic for context switches.
 */
class MemorySystem
{
  public:
    virtual ~MemorySystem() = default;

    virtual Cycle l2Load(Addr line, Cycle earliest) = 0;
    virtual Cycle l2Store(Addr line, Cycle earliest) = 0;
    virtual Cycle l2Atomic(Addr line, Cycle earliest) = 0;
    virtual vm::Translation translatePage(Addr page, Cycle earliest) = 0;
    virtual Cycle bulkDramTraffic(Cycle earliest, std::uint64_t bytes) = 0;
};

/** Computed timeline of one global-memory warp instruction. */
struct MemTimeline {
    /** All requests passed translation without fault by this cycle. */
    Cycle lastTlbCheck = 0;
    /** Data/ack complete; commit is the cycle after. */
    Cycle execDone = 0;
    /** At least one request page-faulted. */
    bool faulted = false;
    /** Earliest fault detection (walk completion). */
    Cycle faultDetect = kNoCycle;
    /** All faults raised by this instruction resolve by this cycle. */
    Cycle resolveAll = 0;
    /** Most significant fault kind (GpuAlloc > Migration > ...). */
    vm::FaultKind kind = vm::FaultKind::None;
    /** Page of the earliest-detected fault (sanitizer TLB probe). */
    Addr faultPage = kBadAddr;
    /** Pending-fault queue depth at first detect (UC1 input). */
    int queueDepth = 0;
};

/**
 * Per-SM LSU. Owns the L1 TLB and L1 cache; accepts one memory
 * instruction per cycle and one translation per cycle (paper section
 * 3.3 justifies the single-ported operand log with this rate).
 */
class Lsu
{
  public:
    Lsu(const gpu::SmConfig &cfg, MemorySystem &sys);

    /**
     * Process the requests of a global-memory instruction issued so
     * its operand-read completes at @p op_read_done.
     *
     * @param stall_on_fault  baseline semantics: faulted requests wait
     *        for resolution and retry inside the pipeline, so the
     *        returned timeline never reports a fault.
     */
    MemTimeline processGlobal(const isa::Instruction &inst,
                              const trace::TraceInst &ti,
                              const Addr *lines, Cycle op_read_done,
                              bool stall_on_fault,
                              Cycle fault_retry_latency);

    /** One LSU instruction slot per cycle. */
    Cycle reserveIssueSlot(Cycle earliest) { return port_.reserve(earliest); }

    void collectStats(StatSet &s) const;

    const vm::Tlb &l1Tlb() const { return tlb_; }
    const mem::Cache &l1() const { return l1_; }

  private:
    Cycle accessForData(const isa::Instruction &inst, Addr line,
                        Cycle earliest);

    MemorySystem &sys_;
    vm::Tlb tlb_;
    mem::Cache l1_;
    /** Built once: constructing a std::function per access is hot-path
     *  overhead the translation/L1 loops do not need to pay. */
    vm::Tlb::LowerFn lowerFn_;
    mem::Cache::FetchFn l2FetchFn_;
    mem::Port port_;       ///< 1 memory instruction per cycle
    mem::Port xlatePort_;  ///< translations per cycle
    Cycle frontendCycles_; ///< address calc + coalescing queue depth

    std::uint64_t instsProcessed_ = 0;
    std::uint64_t requests_ = 0;
    std::uint64_t faults_ = 0;
};

} // namespace gex::sm

#endif // GEX_SM_LSU_HPP
