/**
 * @file
 * Unit tests: the LSU memory-instruction timeline against a mock
 * memory system — translation serialization, the last-TLB-check event,
 * fault aggregation, and baseline stall-and-retry semantics.
 */

#include <gtest/gtest.h>

#include <set>

#include "sm/lsu.hpp"

namespace gex::sm {
namespace {

/** Scripted MemorySystem: fixed L2 latency, per-page fault script. */
class MockSys : public MemorySystem
{
  public:
    Cycle
    l2Load(Addr, Cycle earliest) override
    {
        ++l2Loads;
        return earliest + 100;
    }
    Cycle
    l2Store(Addr, Cycle earliest) override
    {
        ++l2Stores;
        return earliest + 100;
    }
    Cycle
    l2Atomic(Addr, Cycle earliest) override
    {
        ++l2Atomics;
        return earliest + 120;
    }
    vm::Translation
    translatePage(Addr page, Cycle earliest) override
    {
        ++walks;
        vm::Translation t;
        if (faultPages.count(page)) {
            t.fault = true;
            t.detect = earliest + 570;
            t.resolve = faultResolve;
            t.kind = vm::FaultKind::Migration;
            t.queueDepth = queueDepth;
        } else {
            t.ready = earliest + 70;
        }
        return t;
    }
    Cycle
    bulkDramTraffic(Cycle earliest, std::uint64_t) override
    {
        return earliest;
    }

    std::set<Addr> faultPages;
    Cycle faultResolve = 50000;
    int queueDepth = 3;
    int l2Loads = 0, l2Stores = 0, l2Atomics = 0, walks = 0;
};

class LsuTest : public ::testing::Test
{
  protected:
    LsuTest() : lsu_(gpu::SmConfig{}, sys_) {}

    /** Build a load/store TraceInst over the given lines. */
    trace::TraceInst
    inst(const std::vector<Addr> &lines)
    {
        pool_ = lines;
        return trace::TraceInst(0, kFullMask,
                                static_cast<unsigned>(lines.size()), false);
    }

    isa::Instruction
    loadInst()
    {
        isa::Instruction si;
        si.op = isa::Opcode::LD_GLOBAL;
        si.dst = 3;
        si.srcs[0] = 2;
        return si;
    }

    MockSys sys_;
    Lsu lsu_;
    std::vector<Addr> pool_;
    gpu::SmConfig cfg_;
};

TEST_F(LsuTest, SingleLineLoadTimeline)
{
    auto ti = inst({0x1000});
    auto si = loadInst();
    MemTimeline tl = lsu_.processGlobal(si, ti, pool_.data(), 100, false,
                                        20);
    EXPECT_FALSE(tl.faulted);
    // Last check: op-read + frontend + translation-port + L1-TLB miss
    // -> mock walk (+70).
    EXPECT_GT(tl.lastTlbCheck, 100u + cfg_.memFrontendCycles);
    EXPECT_GT(tl.execDone, tl.lastTlbCheck); // data comes after
    EXPECT_EQ(sys_.walks, 1);
}

TEST_F(LsuTest, TranslationsSerializeOnThePort)
{
    // 8 lines in 8 distinct pages: one translation per cycle.
    std::vector<Addr> lines;
    for (int i = 0; i < 8; ++i)
        lines.push_back(0x100000 + static_cast<Addr>(i) * kPageSize);
    auto ti = inst(lines);
    auto si = loadInst();
    MemTimeline tl = lsu_.processGlobal(si, ti, pool_.data(), 100, false,
                                        20);
    auto one = inst({0x100000});
    Lsu fresh(gpu::SmConfig{}, sys_);
    MemTimeline tl1 = fresh.processGlobal(si, one, pool_.data(), 100,
                                          false, 20);
    EXPECT_GE(tl.lastTlbCheck, tl1.lastTlbCheck + 7);
}

TEST_F(LsuTest, SameLineTlbReuse)
{
    // Two instructions touching the same page: second hits the L1 TLB.
    auto ti = inst({0x2000});
    auto si = loadInst();
    lsu_.processGlobal(si, ti, pool_.data(), 100, false, 20);
    int walks_before = sys_.walks;
    auto ti2 = inst({0x2000});
    MemTimeline tl2 = lsu_.processGlobal(si, ti2, pool_.data(), 5000,
                                         false, 20);
    EXPECT_EQ(sys_.walks, walks_before); // TLB hit, no walk
    EXPECT_LT(tl2.lastTlbCheck, 5000u + cfg_.memFrontendCycles + 8);
}

TEST_F(LsuTest, PredicatedOffInstructionFlowsThrough)
{
    trace::TraceInst ti{};
    ASSERT_EQ(ti.numLines(), 0u);
    ASSERT_EQ(ti.numActive(), 0u);
    auto si = loadInst();
    MemTimeline tl = lsu_.processGlobal(si, ti, nullptr, 100, false, 20);
    EXPECT_FALSE(tl.faulted);
    EXPECT_EQ(tl.execDone, 100u + cfg_.memFrontendCycles + 1);
    EXPECT_EQ(sys_.walks, 0);
}

TEST_F(LsuTest, StoreUsesL1AckAndForwardsToL2)
{
    auto ti = inst({0x3000});
    isa::Instruction si;
    si.op = isa::Opcode::ST_GLOBAL;
    si.srcs[0] = 2;
    si.srcs[1] = 4;
    MemTimeline tl = lsu_.processGlobal(si, ti, pool_.data(), 100, false,
                                        20);
    EXPECT_FALSE(tl.faulted);
    EXPECT_EQ(sys_.l2Stores, 1);
    EXPECT_EQ(sys_.l2Loads, 0);
    // Ack at L1 speed: far sooner than an L2 round trip would be.
    EXPECT_LT(tl.execDone, tl.lastTlbCheck + 100);
    (void)tl;
}

TEST_F(LsuTest, AtomicGoesToL2)
{
    auto ti = inst({0x4000});
    isa::Instruction si;
    si.op = isa::Opcode::ATOM_ADD;
    si.dst = 5;
    si.srcs[0] = 2;
    si.srcs[1] = 4;
    lsu_.processGlobal(si, ti, pool_.data(), 100, false, 20);
    EXPECT_EQ(sys_.l2Atomics, 1);
    EXPECT_EQ(sys_.l2Loads, 0);
}

TEST_F(LsuTest, FaultAggregation)
{
    sys_.faultPages.insert(pageOf(0x10000));
    sys_.faultPages.insert(pageOf(0x20000));
    sys_.faultResolve = 99999;
    auto ti = inst({0x10000, 0x18000, 0x20000}); // fault, ok, fault
    auto si = loadInst();
    MemTimeline tl = lsu_.processGlobal(si, ti, pool_.data(), 100, false,
                                        20);
    EXPECT_TRUE(tl.faulted);
    EXPECT_EQ(tl.resolveAll, 99999u);
    EXPECT_EQ(tl.kind, vm::FaultKind::Migration);
    EXPECT_EQ(tl.queueDepth, 3);
    EXPECT_LT(tl.faultDetect, 99999u);
}

TEST_F(LsuTest, BaselineStallFoldsResolutionIntoCompletion)
{
    sys_.faultPages.insert(pageOf(0x10000));
    sys_.faultResolve = 30000;
    auto ti = inst({0x10000});
    auto si = loadInst();
    MemTimeline tl = lsu_.processGlobal(si, ti, pool_.data(), 100,
                                        /*stall_on_fault=*/true, 20);
    EXPECT_FALSE(tl.faulted); // baseline never reports a squash
    // Completion after resolve + retry + access.
    EXPECT_GT(tl.execDone, 30000u + 20u);
}

TEST_F(LsuTest, OneInstructionPerCycleSlot)
{
    EXPECT_EQ(lsu_.reserveIssueSlot(10), 10u);
    EXPECT_EQ(lsu_.reserveIssueSlot(10), 11u);
    EXPECT_EQ(lsu_.reserveIssueSlot(10), 12u);
}

TEST_F(LsuTest, StatsAccumulate)
{
    auto ti = inst({0x5000, 0x5080});
    auto si = loadInst();
    lsu_.processGlobal(si, ti, pool_.data(), 100, false, 20);
    StatSet s;
    lsu_.collectStats(s);
    EXPECT_DOUBLE_EQ(s.get("lsu.insts"), 1.0);
    EXPECT_DOUBLE_EQ(s.get("lsu.requests"), 2.0);
}

} // namespace
} // namespace gex::sm
