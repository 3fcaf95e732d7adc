/**
 * @file
 * Functional simulator edge cases: nested divergence, EXIT under
 * divergence, loops with early lane exits, integer corner semantics,
 * heap exhaustion, and the trace's view of predicated-off memory ops.
 */

#include <gtest/gtest.h>
#include "common/error.hpp"

#include "func/functional_sim.hpp"
#include "kasm/builder.hpp"

namespace gex::func {
namespace {

using kasm::Cmp;
using kasm::KernelBuilder;
using kasm::SpecialReg;

constexpr Addr kOut = 2 << 20;

trace::KernelTrace
run1(GlobalMemory &mem, isa::Program prog, std::uint32_t threads = 32,
     std::vector<std::uint64_t> params = {})
{
    Kernel k;
    k.program = std::move(prog);
    k.grid = {1, 1, 1};
    k.block = {threads, 1, 1};
    k.params = std::move(params);
    FunctionalSim fsim(mem);
    return fsim.run(k);
}

TEST(FunctionalEdge, NestedDivergence)
{
    // Outer split at lane<16, inner split at lane&1.
    GlobalMemory mem;
    KernelBuilder b("nest");
    b.setNumParams(1);
    b.ldparam(1, 0);
    b.s2r(0, SpecialReg::LaneId);
    b.movi(3, 0);
    b.setpi(0, Cmp::LT, 0, 16);
    auto omerge = b.label();
    auto oelse = b.label();
    b.ssy(omerge);
    b.guard(0, true);
    b.bra(oelse);
    b.clearGuard();
    {
        // lanes 0..15: inner divergence on parity
        b.andi(4, 0, 1);
        b.setpi(1, Cmp::EQ, 4, 0);
        auto imerge = b.label();
        b.ssy(imerge);
        b.guard(1, true);
        b.bra(imerge);
        b.clearGuard();
        b.iaddi(3, 3, 100); // even lanes < 16
        b.bind(imerge);
        b.join();
        b.iaddi(3, 3, 10); // all lanes < 16
        b.bra(omerge);
    }
    b.bind(oelse);
    b.iaddi(3, 3, 1); // lanes >= 16
    b.bind(omerge);
    b.join();
    b.shli(5, 0, 3);
    b.iadd(5, 5, 1);
    b.stGlobal(5, 0, 3);
    b.exit();
    run1(mem, b.build(), 32, {kOut});
    for (std::uint64_t lane = 0; lane < 32; ++lane) {
        std::uint64_t want =
            lane >= 16 ? 1 : (lane % 2 == 0 ? 110 : 10);
        EXPECT_EQ(mem.read64(kOut + lane * 8), want) << lane;
    }
}

TEST(FunctionalEdge, GuardedExitRetiresLanesEarly)
{
    GlobalMemory mem;
    KernelBuilder b("gexit");
    b.setNumParams(1);
    b.ldparam(1, 0);
    b.s2r(0, SpecialReg::LaneId);
    b.shli(2, 0, 3);
    b.iadd(2, 2, 1);
    b.movi(3, 7);
    b.stGlobal(2, 0, 3);     // everyone writes 7
    b.setpi(0, Cmp::LT, 0, 8);
    b.guard(0);
    b.exit();                // lanes 0..7 leave
    b.clearGuard();
    b.movi(3, 9);
    b.stGlobal(2, 0, 3);     // survivors overwrite with 9
    b.exit();
    run1(mem, b.build(), 32, {kOut});
    for (std::uint64_t lane = 0; lane < 32; ++lane)
        EXPECT_EQ(mem.read64(kOut + lane * 8), lane < 8 ? 7u : 9u);
}

TEST(FunctionalEdge, WhileLoopLanesExitOneByOne)
{
    // Lane i spins until counter reaches i; verifies deep repeated
    // divergence on the same SSY scope (the loop pattern).
    GlobalMemory mem;
    KernelBuilder b("spin");
    b.setNumParams(1);
    b.ldparam(1, 0);
    b.s2r(0, SpecialReg::LaneId);
    b.movi(2, 0);
    auto done = b.label();
    auto loop = b.label();
    b.ssy(done);
    b.bind(loop);
    b.setp(0, Cmp::GE, 2, 0);
    b.guard(0);
    b.bra(done);
    b.clearGuard();
    b.iaddi(2, 2, 1);
    b.bra(loop);
    b.bind(done);
    b.join();
    b.shli(3, 0, 3);
    b.iadd(3, 3, 1);
    b.stGlobal(3, 0, 2);
    b.exit();
    run1(mem, b.build(), 32, {kOut});
    for (std::uint64_t lane = 0; lane < 32; ++lane)
        EXPECT_EQ(mem.read64(kOut + lane * 8), lane);
}

TEST(FunctionalEdge, IntegerCornerSemantics)
{
    GlobalMemory mem;
    KernelBuilder b("corners");
    b.setNumParams(1);
    b.ldparam(1, 0);
    b.movi(2, -5);
    b.movi(3, 3);
    b.imin(4, 2, 3);
    b.stGlobal(1, 0, 4);  // min(-5,3) = -5 (signed)
    b.imax(4, 2, 3);
    b.stGlobal(1, 8, 4);  // 3
    b.not_(4, 2);
    b.stGlobal(1, 16, 4); // ~(-5) = 4
    b.shri(4, 2, 1);      // logical shift of 0xff..fb
    b.stGlobal(1, 24, 4);
    b.movf(5, -2.7);
    b.f2i(6, 5);
    b.stGlobal(1, 32, 6); // trunc toward zero = -2
    b.exit();
    run1(mem, b.build(), 1, {kOut});
    EXPECT_EQ(static_cast<std::int64_t>(mem.read64(kOut)), -5);
    EXPECT_EQ(mem.read64(kOut + 8), 3u);
    EXPECT_EQ(mem.read64(kOut + 16), 4u);
    EXPECT_EQ(mem.read64(kOut + 24), 0x7ffffffffffffffdull);
    EXPECT_EQ(static_cast<std::int64_t>(mem.read64(kOut + 32)), -2);
}

TEST(FunctionalEdge, PredicatedOffMemOpRecordsNoLines)
{
    GlobalMemory mem;
    KernelBuilder b("offmem");
    b.setNumParams(1);
    b.ldparam(1, 0);
    b.setpi(0, Cmp::EQ, isa::kRegZero, 1); // 0 == 1: always false
    b.guard(0);
    b.ldGlobal(2, 1);
    b.clearGuard();
    b.exit();
    trace::KernelTrace kt = run1(mem, b.build(), 32, {kOut});
    const auto insts = kt.blocks[0].warps[0].insts();
    // The load record exists (it flows through the pipeline) but has
    // no active lanes and no memory requests.
    const auto &ld = insts[insts.size() - 2];
    EXPECT_EQ(ld.active, 0u);
    EXPECT_EQ(ld.numLines(), 0u);
}

TEST(FunctionalEdge, HeapExhaustionIsFatal)
{
    GlobalMemory mem;
    mem.setHeap(8 << 20, 4096); // tiny heap
    KernelBuilder b("oom");
    b.movi(1, 1024);
    b.alloc(2, 1);
    b.stGlobal(2, 0, 1);
    b.exit();
    Kernel k;
    k.program = b.build();
    k.grid = {1, 1, 1};
    k.block = {32, 1, 1}; // 32 lanes x 1 KB > 4 KB heap
    FunctionalSim fsim(mem);
    EXPECT_THROW(fsim.run(k), ConfigError);
}

TEST(FunctionalEdge, RunawayLoopGuard)
{
    GlobalMemory mem;
    KernelBuilder b("forever");
    auto loop = b.label();
    b.bind(loop);
    b.iaddi(0, 0, 1);
    b.bra(loop);
    b.exit();
    Kernel k;
    k.program = b.build();
    k.grid = {1, 1, 1};
    k.block = {32, 1, 1};
    FunctionalSim fsim(mem);
    fsim.setMaxWarpInsts(10000);
    EXPECT_THROW(fsim.run(k), TraceError);
}

TEST(FunctionalEdge, MembarAndNopFlowThrough)
{
    GlobalMemory mem;
    KernelBuilder b("fence");
    b.setNumParams(1);
    b.ldparam(1, 0);
    b.movi(2, 1);
    b.stGlobal(1, 0, 2);
    b.membar();
    b.nop();
    b.ldGlobal(3, 1);
    b.stGlobal(1, 8, 3);
    b.exit();
    run1(mem, b.build(), 1, {kOut});
    EXPECT_EQ(mem.read64(kOut + 8), 1u);
}

} // namespace
} // namespace gex::func
