/**
 * @file
 * Integration tests: GPU top-level behaviour — breadth-first block
 * placement, run-to-run determinism, stat completeness, multi-run
 * isolation, and the TB scheduler.
 */

#include <gtest/gtest.h>
#include "common/error.hpp"

#include "func/functional_sim.hpp"
#include "gpu/gpu.hpp"
#include "gpu/tb_scheduler.hpp"
#include "kasm/builder.hpp"
#include "workloads/workloads.hpp"

namespace gex {
namespace {

struct Built {
    func::GlobalMemory mem;
    func::Kernel kernel;
    trace::KernelTrace trace;
};

Built *
shared()
{
    static Built *bt = [] {
        auto *b = new Built;
        auto w = workloads::make("bfs", b->mem, 1);
        b->kernel = std::move(w.kernel);
        func::FunctionalSim fsim(b->mem);
        b->trace = fsim.run(b->kernel);
        return b;
    }();
    return bt;
}

TEST(TbScheduler, HandsOutBlocksInLaunchOrderOnce)
{
    Built *bt = shared();
    gpu::TbScheduler sched(bt->trace);
    EXPECT_EQ(sched.total(), bt->trace.blocks.size());
    std::uint32_t expect = 0;
    while (sched.hasPending()) {
        const trace::BlockTrace *blk = sched.nextBlock();
        ASSERT_NE(blk, nullptr);
        EXPECT_EQ(blk->blockId, expect++);
    }
    EXPECT_EQ(sched.nextBlock(), nullptr);
    EXPECT_EQ(sched.issued(), sched.total());
}

TEST(GpuTop, ReusableAcrossRuns)
{
    Built *bt = shared();
    gpu::Gpu g(gpu::GpuConfig::baseline());
    auto r1 = g.run(bt->kernel, bt->trace);
    auto r2 = g.run(bt->kernel, bt->trace);
    // Each run starts from fresh microarchitectural state.
    EXPECT_EQ(r1.cycles, r2.cycles);
    EXPECT_EQ(r1.instructions, r2.instructions);
    EXPECT_EQ(r1.stats.get("l1.misses"), r2.stats.get("l1.misses"));
}

TEST(GpuTop, StatSetIsComprehensive)
{
    Built *bt = shared();
    gpu::Gpu g(gpu::GpuConfig::baseline());
    auto r = g.run(bt->kernel, bt->trace);
    for (const char *key :
         {"gpu.cycles", "gpu.instructions", "gpu.ipc", "gpu.blocks",
          "sm.insts_committed", "sm.insts_issued", "sm.fetches",
          "l1.hits", "l1.misses", "l1tlb.hits", "l2.hits", "l2tlb.hits",
          "dram.reads", "dram.bytes", "mmu.walks", "lsu.requests"})
        EXPECT_TRUE(r.stats.has(key)) << key;
    EXPECT_DOUBLE_EQ(r.stats.get("gpu.cycles"),
                     static_cast<double>(r.cycles));
    // Issued == committed on a fault-free run (nothing squashed).
    EXPECT_DOUBLE_EQ(r.stats.get("sm.insts_issued"),
                     r.stats.get("sm.insts_committed"));
    // Everything fetched is eventually issued (replays refetch).
    EXPECT_GE(r.stats.get("sm.fetches"),
              r.stats.get("sm.insts_issued"));
}

TEST(GpuTop, IssuedExceedsCommittedUnderReplay)
{
    Built *bt = shared();
    gpu::GpuConfig cfg = gpu::GpuConfig::baseline();
    cfg.scheme = gpu::Scheme::ReplayQueue;
    gpu::Gpu g(cfg);
    auto r = g.run(bt->kernel, bt->trace, vm::VmPolicy::demandPaging());
    // Squashed+replayed instructions are issued more than once but
    // committed exactly once.
    EXPECT_GT(r.stats.get("sm.insts_issued"),
              r.stats.get("sm.insts_committed"));
    EXPECT_EQ(r.instructions, bt->trace.dynamicInsts());
}

TEST(GpuTop, GeometryMismatchIsFatal)
{
    Built *bt = shared();
    func::Kernel wrong = bt->kernel;
    wrong.grid.x += 1; // grid no longer matches the trace
    gpu::Gpu g(gpu::GpuConfig::baseline());
    EXPECT_THROW(g.run(wrong, bt->trace), TraceError);
}

TEST(GpuTop, SingleSmStillCompletes)
{
    Built *bt = shared();
    gpu::GpuConfig cfg = gpu::GpuConfig::baseline();
    cfg.numSms = 1;
    gpu::Gpu g(cfg);
    auto r = g.run(bt->kernel, bt->trace);
    EXPECT_EQ(r.instructions, bt->trace.dynamicInsts());
}

TEST(GpuTop, CycleSkippingMatchesDenseTicking)
{
    // A kernel with a long memory-latency gap: the event-skip fast
    // path must produce the same cycle count as a run that has
    // continuous work (here we simply check determinism across
    // configurations that change skip patterns: one SM vs many).
    kasm::KernelBuilder b("gap");
    b.setNumParams(1);
    b.ldparam(1, 0);
    b.ldGlobal(2, 1);
    b.fadd(3, 2, 2); // depends on the load: long idle gap
    b.exit();
    Built bt;
    bt.kernel.program = b.build();
    bt.kernel.grid = {1, 1, 1};
    bt.kernel.block = {32, 1, 1};
    bt.kernel.params = {1 << 20};
    func::FunctionalSim fsim(bt.mem);
    bt.trace = fsim.run(bt.kernel);
    gpu::Gpu g(gpu::GpuConfig::baseline());
    auto r1 = g.run(bt.kernel, bt.trace);
    auto r2 = g.run(bt.kernel, bt.trace);
    EXPECT_EQ(r1.cycles, r2.cycles);
    EXPECT_GT(r1.cycles, 300u); // the DRAM round trip really happened
}

TEST(Trace, BlockAndKernelCountsConsistent)
{
    Built *bt = shared();
    std::uint64_t sum = 0;
    for (const auto &blk : bt->trace.blocks)
        sum += blk.dynamicInsts();
    EXPECT_EQ(sum, bt->trace.dynamicInsts());
    EXPECT_GT(bt->trace.memRequests, bt->trace.memInsts / 2);
}

TEST(Trace, LinePointersInBounds)
{
    Built *bt = shared();
    for (const auto &blk : bt->trace.blocks) {
        for (const auto &w : blk.warps) {
            std::size_t off = 0;
            trace::LineBuf buf;
            for (std::uint32_t i = 0; i < w.size(); ++i) {
                const trace::TraceInst &ti = w.inst(i);
                ASSERT_LE(off + ti.numLines(), w.lineCount());
                off += ti.numLines();
                std::span<const Addr> lines = w.lines(i, buf);
                ASSERT_EQ(lines.size(), ti.numLines());
                for (Addr l : lines)
                    EXPECT_EQ(l % kLineSize, 0u);
            }
        }
    }
}

} // namespace
} // namespace gex
