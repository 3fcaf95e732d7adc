/**
 * @file
 * Tests for the arithmetic-exception extension (paper sections 2.2,
 * 3.1, 3.2): divide-by-zero and friends detected functionally, treated
 * as fetch barriers / late-release instructions by the schemes, and
 * handled by a GPU trap routine under preemptible pipelines.
 */

#include <gtest/gtest.h>

#include "func/functional_sim.hpp"
#include "gpu/gpu.hpp"
#include "kasm/builder.hpp"

namespace gex {
namespace {

using kasm::KernelBuilder;
using kasm::SpecialReg;

struct Built {
    func::GlobalMemory mem;
    func::Kernel kernel;
    trace::KernelTrace trace;
};

/** One warp; lane 0 divides by zero when @p raise is set. */
void
buildDivider(Built &bt, bool raise)
{
    KernelBuilder b("div0");
    b.s2r(0, SpecialReg::LaneId);
    b.i2f(1, 0);            // lane id as double (0.0 for lane 0)
    if (!raise)
        b.faddi(1, 1, 1.0); // shift away from zero
    b.movf(2, 42.0);
    b.fdiv(3, 2, 1);        // lane 0 divides by zero when raising
    b.fadd(4, 3, 3);
    b.exit();
    bt.kernel.program = b.build();
    bt.kernel.grid = {4, 1, 1};
    bt.kernel.block = {32, 1, 1};
    func::FunctionalSim fsim(bt.mem);
    bt.trace = fsim.run(bt.kernel);
}

TEST(ArithExceptions, TraitsCoverTheRightOpcodes)
{
    EXPECT_TRUE(isa::canRaiseArith(isa::Opcode::FDIV));
    EXPECT_TRUE(isa::canRaiseArith(isa::Opcode::FRCP));
    EXPECT_TRUE(isa::canRaiseArith(isa::Opcode::FRSQ));
    EXPECT_TRUE(isa::canRaiseArith(isa::Opcode::FSQRT));
    EXPECT_TRUE(isa::canRaiseArith(isa::Opcode::FLOG2));
    EXPECT_FALSE(isa::canRaiseArith(isa::Opcode::FADD));
    EXPECT_FALSE(isa::canRaiseArith(isa::Opcode::FSIN));
    EXPECT_FALSE(isa::canRaiseArith(isa::Opcode::LD_GLOBAL));
}

TEST(ArithExceptions, FunctionalDetectionFlagsTrace)
{
    Built raising, clean;
    buildDivider(raising, true);
    buildDivider(clean, false);
    auto count_flags = [](const trace::KernelTrace &kt) {
        int n = 0;
        for (const auto &blk : kt.blocks)
            for (const auto &w : blk.warps)
                for (const auto &ti : w.insts())
                    if (ti.arithFault())
                        ++n;
        return n;
    };
    EXPECT_EQ(count_flags(raising.trace), 4); // one fdiv per block
    EXPECT_EQ(count_flags(clean.trace), 0);
}

TEST(ArithExceptions, DetectionCoversEachOpcode)
{
    // frcp(0), frsq(-1), fsqrt(-1), flog2(0) all flag; fsin never.
    KernelBuilder b("ops");
    b.movi(0, 0);            // 0.0 bits
    b.movf(1, -1.0);
    b.frcp(2, 0);
    b.frsq(3, 1);
    b.fsqrt(4, 1);
    b.flog2(5, 0);
    b.fsin(6, 1);
    b.exit();
    Built bt;
    bt.kernel.program = b.build();
    bt.kernel.grid = {1, 1, 1};
    bt.kernel.block = {32, 1, 1};
    func::FunctionalSim fsim(bt.mem);
    bt.trace = fsim.run(bt.kernel);
    const auto insts = bt.trace.blocks[0].warps[0].insts();
    EXPECT_TRUE(insts[2].arithFault());  // frcp
    EXPECT_TRUE(insts[3].arithFault());  // frsq
    EXPECT_TRUE(insts[4].arithFault());  // fsqrt
    EXPECT_TRUE(insts[5].arithFault());  // flog2
    EXPECT_FALSE(insts[6].arithFault()); // fsin
}

gpu::SimResult
runArith(const Built &bt, gpu::Scheme s, bool enabled)
{
    gpu::GpuConfig cfg = gpu::GpuConfig::baseline();
    cfg.scheme = s;
    cfg.arithExceptions = enabled;
    gpu::Gpu g(cfg);
    return g.run(bt.kernel, bt.trace);
}

TEST(ArithExceptions, DisabledByDefaultNoTimingEffect)
{
    Built bt;
    buildDivider(bt, true);
    auto r = runArith(bt, gpu::Scheme::ReplayQueue, false);
    EXPECT_EQ(r.stats.get("sm.traps_handled"), 0.0);
    EXPECT_EQ(r.instructions, bt.trace.dynamicInsts());
}

TEST(ArithExceptions, PreemptibleSchemesRunTrapHandler)
{
    Built bt;
    buildDivider(bt, true);
    for (auto s : {gpu::Scheme::WarpDisableCommit,
                   gpu::Scheme::WarpDisableLastCheck,
                   gpu::Scheme::ReplayQueue, gpu::Scheme::OperandLog}) {
        auto r = runArith(bt, s, true);
        EXPECT_EQ(r.stats.get("sm.traps_handled"), 4.0)
            << gpu::schemeName(s);
        EXPECT_EQ(r.instructions, bt.trace.dynamicInsts());
    }
}

TEST(ArithExceptions, BaselineOnlyReports)
{
    Built bt;
    buildDivider(bt, true);
    auto r = runArith(bt, gpu::Scheme::StallOnFault, true);
    EXPECT_EQ(r.stats.get("sm.traps_handled"), 0.0);
    EXPECT_EQ(r.stats.get("sm.arith_reported_only"), 4.0);
}

TEST(ArithExceptions, TrapCostsTime)
{
    Built bt;
    buildDivider(bt, true);
    auto off = runArith(bt, gpu::Scheme::ReplayQueue, false);
    auto on = runArith(bt, gpu::Scheme::ReplayQueue, true);
    // Each warp pays the trap handler latency.
    EXPECT_GE(on.cycles, off.cycles + 400);
}

TEST(ArithExceptions, CleanRunUnaffectedExceptBarriers)
{
    Built bt;
    buildDivider(bt, false);
    auto off = runArith(bt, gpu::Scheme::ReplayQueue, false);
    auto on = runArith(bt, gpu::Scheme::ReplayQueue, true);
    EXPECT_EQ(on.stats.get("sm.traps_handled"), 0.0);
    // The RQ extension may delay WAR-dependent neighbours slightly but
    // never triggers traps on a clean run.
    EXPECT_LT(on.cycles, off.cycles + off.cycles / 4 + 64);
}

TEST(ArithExceptions, WarpDisableTreatsArithAsBarrier)
{
    // A chain of independent fdivs: with arithExceptions on, wd-commit
    // serializes them (fetch barrier), costing cycles even when
    // nothing raises.
    KernelBuilder b("chain");
    b.movf(1, 2.0);
    for (int i = 0; i < 16; ++i)
        b.fdiv(static_cast<kasm::Reg>(2 + i), 1, 1);
    b.exit();
    Built bt;
    bt.kernel.program = b.build();
    bt.kernel.grid = {1, 1, 1};
    bt.kernel.block = {32, 1, 1};
    func::FunctionalSim fsim(bt.mem);
    bt.trace = fsim.run(bt.kernel);

    auto off = runArith(bt, gpu::Scheme::WarpDisableCommit, false);
    auto on = runArith(bt, gpu::Scheme::WarpDisableCommit, true);
    EXPECT_GT(on.cycles, off.cycles + 100);
}

} // namespace
} // namespace gex
