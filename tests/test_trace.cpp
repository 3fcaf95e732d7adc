/**
 * @file
 * Compact trace format: 8-byte records, line lookup through the
 * per-32-record pool checkpoints against a reference prefix sum, the
 * two packing limits, and the trace-memory bound reported as
 * func.trace_bytes.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <random>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "func/functional_sim.hpp"
#include "harness/sweep.hpp"
#include "kasm/builder.hpp"
#include "trace/trace.hpp"

namespace gex::trace {
namespace {

static_assert(sizeof(TraceInst) == 8);

struct RefInst {
    std::uint32_t pc;
    WarpMask active;
    bool arith;
    std::vector<Addr> lines;
};

/** A random warp; 0 and kWarpSize lines are each drawn often. */
std::vector<RefInst>
randomWarp(std::mt19937_64 &rng, std::size_t n)
{
    std::vector<RefInst> ref(n);
    for (RefInst &r : ref) {
        r.pc = static_cast<std::uint32_t>(rng() % TraceInst::kMaxStaticIdx);
        r.active = static_cast<WarpMask>(rng());
        r.arith = rng() % 5 == 0;
        std::size_t k;
        switch (rng() % 4) {
          case 0: k = 0; break;
          case 1: k = kWarpSize; break;
          default: k = rng() % (kWarpSize + 1); break;
        }
        for (std::size_t j = 0; j < k; ++j)
            r.lines.push_back((rng() % (WarpTrace::kMaxLineAddr / kLineSize)) *
                              kLineSize);
    }
    return ref;
}

TEST(TraceFormat, LinesMatchReferencePrefixSum)
{
    std::mt19937_64 rng(20261017);
    for (std::size_t n : {1u, 31u, 32u, 33u, 64u, 65u, 200u, 1000u}) {
        SCOPED_TRACE("records=" + std::to_string(n));
        const std::vector<RefInst> ref = randomWarp(rng, n);
        WarpTrace w;
        for (const RefInst &r : ref)
            w.append("k", r.pc, r.active, r.arith, r.lines);
        if (n % 2)
            w.shrinkToFit();
        ASSERT_EQ(w.size(), n);

        // Reference offsets: a plain prefix sum over the line counts.
        std::vector<std::size_t> off(n + 1, 0);
        for (std::size_t i = 0; i < n; ++i)
            off[i + 1] = off[i] + ref[i].lines.size();
        EXPECT_EQ(w.lineCount(), off[n]);

        // Checkpoint neighbourhoods first, then every index out of
        // order, as a replay or a drained block would look them up.
        std::vector<std::uint32_t> order;
        for (std::uint32_t c : {0u, 1u, 30u, 31u, 32u, 33u, 63u, 64u, 65u})
            if (c < n)
                order.push_back(c);
        std::vector<std::uint32_t> all(n);
        std::iota(all.begin(), all.end(), 0u);
        std::shuffle(all.begin(), all.end(), rng);
        order.insert(order.end(), all.begin(), all.end());

        LineBuf buf;
        for (std::uint32_t i : order) {
            const TraceInst &ti = w.inst(i);
            const RefInst &r = ref[i];
            ASSERT_EQ(ti.staticIdx(), r.pc) << i;
            ASSERT_EQ(ti.active, r.active) << i;
            ASSERT_EQ(ti.numActive(),
                      static_cast<unsigned>(std::popcount(r.active)));
            ASSERT_EQ(ti.arithFault(), r.arith) << i;
            ASSERT_EQ(ti.numLines(), r.lines.size()) << i;
            std::span<const Addr> got = w.lines(i, buf);
            ASSERT_EQ(std::vector<Addr>(got.begin(), got.end()), r.lines)
                << "record " << i << " at pool offset " << off[i];
        }
    }
}

TEST(TraceFormat, PacksTheLimitsExactly)
{
    WarpTrace w;
    const std::vector<Addr> top = {WarpTrace::kMaxLineAddr - kLineSize};
    w.append("k", TraceInst::kMaxStaticIdx - 1, kFullMask, true, top);
    LineBuf buf;
    EXPECT_EQ(w.inst(0).staticIdx(), TraceInst::kMaxStaticIdx - 1);
    EXPECT_TRUE(w.inst(0).arithFault());
    EXPECT_EQ(w.inst(0).numActive(), 32u);
    ASSERT_EQ(w.lines(0, buf).size(), 1u);
    EXPECT_EQ(w.lines(0, buf)[0], top[0]);

    EXPECT_THROW(w.append("k", TraceInst::kMaxStaticIdx, kFullMask, false,
                          {}),
                 TraceError);
    const std::vector<Addr> past = {WarpTrace::kMaxLineAddr};
    EXPECT_THROW(w.append("k", 0, kFullMask, false, past), TraceError);
    // A refused record leaves the trace as it was.
    EXPECT_EQ(w.size(), 1u);
    EXPECT_EQ(w.lineCount(), 1u);
}

TEST(TraceFormat, LoadPast2To39IsATraceErrorNotTruncated)
{
    const Addr far = Addr{1} << 39;
    func::GlobalMemory mem;
    kasm::KernelBuilder b("faraway");
    b.movi(1, static_cast<std::int64_t>(far));
    b.ldGlobal(2, 1);
    b.exit();
    func::Kernel k;
    k.program = b.build();
    k.grid = {1, 1, 1};
    k.block = {32, 1, 1};
    func::FunctionalSim fsim(mem);
    try {
        fsim.run(k);
        FAIL() << "a line address of 2^39 was accepted";
    } catch (const TraceError &e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("faraway"), std::string::npos) << msg;
        EXPECT_NE(msg.find("pc 1"), std::string::npos) << msg;
        EXPECT_NE(msg.find("0x8000000000"), std::string::npos) << msg;
    }
}

TEST(TraceMemory, TraceBytesStayWithinTheCompactBound)
{
    // 8 B per record plus 4 B per 32-record checkpoint, 4 B per line;
    // the slack covers each warp's partially filled last checkpoint.
    harness::TraceCache cache;
    for (const char *name : {"sgemm", "spmv"}) {
        SCOPED_TRACE(name);
        const KernelTrace &kt = cache.get(name).trace;
        double warps = 0;
        for (const BlockTrace &b : kt.blocks)
            warps += static_cast<double>(b.warps.size());
        const double bytes = kt.stats.get("func.trace_bytes");
        const double insts = kt.stats.get("func.dynamic_warp_insts");
        const double lines = kt.stats.get("func.mem_requests");
        EXPECT_GT(bytes, 0);
        EXPECT_LE(bytes, 8.5 * insts + 4 * lines + 4 * warps);
        EXPECT_GE(bytes, 8 * insts + 4 * lines);
    }
}

} // namespace
} // namespace gex::trace
