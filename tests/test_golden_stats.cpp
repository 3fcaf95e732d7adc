/**
 * @file
 * Golden end-to-end results: a grid of (workload, scheme, paging
 * policy, block switching) points with the exact cycle count,
 * instruction count and a digest over EVERY exported statistic,
 * captured before the hot-path container overhaul (flat maps, ring
 * buffers, scan gating). Performance work on the timing loop must be
 * behavior-neutral; any change to any stat on any point fails here.
 *
 * To regenerate after an *intentional* behavior change, print the new
 * table with the digest below (FNV-1a over the sorted scalars' names
 * and raw double bits) and review every moved point.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "gex.hpp"

namespace gex {
namespace {

std::uint64_t
digestStats(const gpu::SimResult &r)
{
    // FNV-1a 64-bit over each scalar's name bytes then its raw value
    // bits, in the StatSet's sorted order. Bit-exact by construction.
    std::uint64_t h = 1469598103934665603ull;
    auto mix = [&h](const void *p, std::size_t n) {
        const auto *b = static_cast<const unsigned char *>(p);
        for (std::size_t i = 0; i < n; ++i) {
            h ^= b[i];
            h *= 1099511628211ull;
        }
    };
    for (const auto &kv : r.stats.scalars()) {
        mix(kv.first.data(), kv.first.size());
        double v = kv.second;
        mix(&v, sizeof v);
    }
    return h;
}

vm::VmPolicy
policyByName(const std::string &p)
{
    if (p == "all-resident")
        return vm::VmPolicy::allResident();
    if (p == "demand-paging")
        return vm::VmPolicy::demandPaging();
    if (p == "output-local")
        return vm::VmPolicy::outputFaults(true);
    if (p == "output-cpu")
        return vm::VmPolicy::outputFaults(false);
    if (p == "heap-local")
        return vm::VmPolicy::heapFaults(true);
    ADD_FAILURE() << "unknown policy " << p;
    return vm::VmPolicy::allResident();
}

struct GoldenPoint {
    const char *workload;
    const char *scheme;
    const char *policy;
    bool blockSwitching;
    std::uint64_t cycles;
    std::uint64_t instructions;
    std::uint64_t statsDigest;
};

// Captured at the pre-overhaul baseline (std::unordered_map /
// std::deque containers, full-width warp scans). Covers every
// exception scheme fault-free, demand paging, block switching (the
// saved-warp context path), local/CPU output faults and the GPU-local
// heap handler.
const GoldenPoint kGolden[] = {
    {"bfs", "baseline", "all-resident", false,
     15338ull, 50994ull, 0x1935f1c9fb129810ull},
    {"bfs", "wd-commit", "all-resident", false,
     15967ull, 50994ull, 0x7b993b39894332bbull},
    {"bfs", "wd-lastcheck", "all-resident", false,
     15499ull, 50994ull, 0xd5757877af1736c5ull},
    {"bfs", "replay-queue", "all-resident", false,
     15468ull, 50994ull, 0x360532fe14697848ull},
    {"bfs", "operand-log", "all-resident", false,
     15989ull, 50994ull, 0x98748b7a4f332beeull},
    {"spmv", "baseline", "all-resident", false,
     261971ull, 135892ull, 0xdcdf28d380e734e7ull},
    {"spmv", "replay-queue", "all-resident", false,
     262261ull, 135892ull, 0x4c64c8a25f6bc9bcull},
    {"spmv", "operand-log", "all-resident", false,
     264751ull, 135892ull, 0xec4ac5b7893bc2cdull},
    {"lbm", "wd-lastcheck", "all-resident", false,
     49762ull, 116736ull, 0x9da746263d97ce5eull},
    {"sgemm", "replay-queue", "all-resident", false,
     19441ull, 287232ull, 0x11e3def4164c7b8cull},
    {"bfs", "baseline", "demand-paging", false,
     155021ull, 50994ull, 0x823563883bca5143ull},
    {"bfs", "replay-queue", "demand-paging", false,
     146874ull, 50994ull, 0xe73334ce5390b7d2ull},
    {"bfs", "replay-queue", "demand-paging", true,
     146874ull, 50994ull, 0xe73334ce5390b7d2ull},
    {"spmv", "operand-log", "demand-paging", true,
     705846ull, 135892ull, 0x09cc3b7b543a7c3aull},
    {"stencil", "replay-queue", "output-local", false,
     411997ull, 176640ull, 0x3ce98445f903fd70ull},
    {"stencil", "replay-queue", "output-cpu", false,
     270677ull, 176640ull, 0xd22b5e468ee3e491ull},
    {"ha-prob", "operand-log", "heap-local", false,
     71499ull, 32064ull, 0x08650c7ab646df8eull},
    {"quad-tree", "replay-queue", "heap-local", false,
     83974ull, 21120ull, 0xc8131dbf0bfd37daull},
};

TEST(GoldenStats, EveryPointBitIdenticalToCapturedBaseline)
{
    harness::TraceCache cache; // share each workload's trace across points
    for (const GoldenPoint &pt : kGolden) {
        SCOPED_TRACE(std::string(pt.workload) + "/" + pt.scheme + "/" +
                     pt.policy + (pt.blockSwitching ? "/bs" : ""));
        const harness::TracedWorkload &tw = cache.get(pt.workload);
        gpu::GpuConfig cfg = gpu::GpuConfig::baseline();
        cfg.scheme = gpu::schemeFromName(pt.scheme);
        cfg.blockSwitching = pt.blockSwitching;
        gpu::Gpu g(cfg);
        gpu::SimResult r =
            g.run(tw.kernel, tw.trace, policyByName(pt.policy));
        EXPECT_EQ(static_cast<std::uint64_t>(r.cycles), pt.cycles);
        EXPECT_EQ(r.instructions, pt.instructions);
        EXPECT_EQ(digestStats(r), pt.statsDigest)
            << "a statistic changed value — the timing refactor is "
               "no longer behavior-neutral";
    }
}

struct OccupiedPoint {
    const char *workload;
    int scale;
    const char *scheme;
    int sms;
    bool gto;
    /** 128 resident warps: sm.max-warps 128 with the block, register
     *  and shared-memory limits doubled so 32 four-warp blocks fit. */
    bool wide;
    std::uint64_t cycles;
    std::uint64_t instructions;
    std::uint64_t statsDigest;
};

// Regimes the warp-mask fetch/issue scans change, captured on the
// per-warp-scan code they replaced: fully occupied SMs (64 warps) that
// queue behind the LSU under replay-queue, operand-log and wd-commit,
// the greedy-then-oldest visit order, and 128 resident warps per SM
// (multi-word masks). The full-occupancy greedy-then-oldest point was
// added with the fix that lets that scan reach warp maxWarps - 1; it
// deadlocked before.
const OccupiedPoint kOccupied[] = {
    {"sad", 2, "replay-queue", 16, false, false,
     61756ull, 110592ull, 0x8a6765ba058cd8a7ull},
    {"sad", 2, "operand-log", 16, false, false,
     60729ull, 110592ull, 0x418f886ee5d92a52ull},
    {"sad", 2, "wd-commit", 16, false, false,
     64068ull, 110592ull, 0x9d2da9d3ab5de3f5ull},
    {"sad", 1, "replay-queue", 16, true, false,
     32942ull, 55296ull, 0xa78bdec77d5d27a7ull},
    {"sad", 2, "replay-queue", 16, true, false,
     66460ull, 110592ull, 0xb8c3265186f83fc0ull},
    {"sad", 2, "operand-log", 8, false, true,
     116010ull, 110592ull, 0xc7001df1dbaa1530ull},
};

TEST(GoldenStats, OccupiedAndWideSmsBitIdenticalToCapturedBaseline)
{
    harness::TraceCache cache;
    for (const OccupiedPoint &pt : kOccupied) {
        SCOPED_TRACE(std::string(pt.workload) + "x" +
                     std::to_string(pt.scale) + "/" + pt.scheme +
                     "/sms=" + std::to_string(pt.sms) +
                     (pt.gto ? "/gto" : "") + (pt.wide ? "/wide" : ""));
        const harness::TracedWorkload &tw =
            cache.get(pt.workload, pt.scale);
        gpu::GpuConfig cfg = gpu::GpuConfig::baseline();
        cfg.scheme = gpu::schemeFromName(pt.scheme);
        cfg.numSms = pt.sms;
        if (pt.gto)
            cfg.sm.schedPolicy = gpu::SchedPolicy::GreedyThenOldest;
        if (pt.wide) {
            cfg.sm.maxWarps = 128;
            cfg.sm.maxThreadBlocks = 32;
            cfg.sm.registerFileBytes *= 2;
            cfg.sm.sharedMemBytes *= 2;
        }
        gpu::Gpu g(cfg);
        gpu::SimResult r = g.run(tw.kernel, tw.trace);
        EXPECT_EQ(static_cast<std::uint64_t>(r.cycles), pt.cycles);
        EXPECT_EQ(r.instructions, pt.instructions);
        EXPECT_EQ(digestStats(r), pt.statsDigest);
    }
}

struct PagingPoint {
    const char *workload;
    int scale;
    const char *scheme;
    const char *policy; ///< vm::policyFromName spelling
    bool blockSwitching;
    /** First-touch injection rate (0 = off), seeded by injectSeed. */
    double firstTouchRate;
    std::uint64_t injectSeed;
    std::uint64_t cycles;
    std::uint64_t instructions;
    std::uint64_t statsDigest;
};

// Fault-dominated runs in which almost every SM tick does no work:
// warps sit fault- or LSU-blocked for thousands of cycles. The second
// point is the only golden point with fault injection, so it also pins
// the opt-in resil.* block (log back-pressure cycles among it). Both
// are the paging-faults points of the perfbench benchmark.
const PagingPoint kPaging[] = {
    {"histo", 2, "replay-queue", "demand-paging", true, 0.0, 0,
     506728ull, 96768ull, 0x5d2026b6c6bea92cull},
    {"ha-prob", 2, "operand-log", "heap-faults-local", false, 0.25, 7,
     99474ull, 64128ull, 0xcb1ea22ab03e1556ull},
};

/** Run every kPaging point, with the --check sanitizer if @p check. */
void
expectPagingPointsGolden(bool check)
{
    harness::TraceCache cache;
    for (const PagingPoint &pt : kPaging) {
        SCOPED_TRACE(std::string(pt.workload) + "x" +
                     std::to_string(pt.scale) + "/" + pt.scheme + "/" +
                     pt.policy + (pt.blockSwitching ? "/bs" : "") +
                     (pt.firstTouchRate > 0 ? "/ft" : ""));
        const harness::TracedWorkload &tw =
            cache.get(pt.workload, pt.scale);
        gpu::GpuConfig cfg = gpu::GpuConfig::baseline();
        cfg.scheme = gpu::schemeFromName(pt.scheme);
        cfg.blockSwitching = pt.blockSwitching;
        cfg.checkInvariants = check;
        vm::VmPolicy policy = vm::policyFromName(pt.policy);
        if (pt.firstTouchRate > 0) {
            policy.inject.model = inject::ModelKind::FirstTouch;
            policy.inject.rate = pt.firstTouchRate;
            policy.inject.seed = pt.injectSeed;
        }
        gpu::Gpu g(cfg);
        gpu::SimResult r = g.run(tw.kernel, tw.trace, policy);
        EXPECT_EQ(static_cast<std::uint64_t>(r.cycles), pt.cycles);
        EXPECT_EQ(r.instructions, pt.instructions);
        EXPECT_EQ(digestStats(r), pt.statsDigest);
    }
}

TEST(GoldenStats, PagingFaultPointsBitIdenticalToCapturedBaseline)
{
    expectPagingPointsGolden(false);
}

// Nearly every SM tick of these points is an idle one that the run
// loop replays. Under --check each of them runs for real instead and
// the sanitizer compares it with its replay; the results must not
// move either way.
TEST(GoldenStats, PagingFaultPointsBitIdenticalUnderCheck)
{
    expectPagingPointsGolden(true);
}

} // namespace
} // namespace gex
