/** @file Unit tests: common utilities (stats, rng, math, types, task pool). */

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <set>
#include <sstream>
#include <vector>

#include "common/stats.hpp"
#include "common/task_pool.hpp"
#include "common/types.hpp"

namespace gex {
namespace {

TEST(StatSet, AddAndGet)
{
    StatSet s;
    EXPECT_EQ(s.get("x"), 0.0);
    EXPECT_FALSE(s.has("x"));
    s.add("x");
    s.add("x", 2.5);
    EXPECT_DOUBLE_EQ(s.get("x"), 3.5);
    EXPECT_TRUE(s.has("x"));
}

TEST(StatSet, SetOverwrites)
{
    StatSet s;
    s.add("x", 10);
    s.set("x", 3);
    EXPECT_DOUBLE_EQ(s.get("x"), 3.0);
}

TEST(StatSet, MaxOf)
{
    StatSet s;
    s.maxOf("m", 5);
    s.maxOf("m", 2);
    EXPECT_DOUBLE_EQ(s.get("m"), 5.0);
    s.maxOf("m", 9);
    EXPECT_DOUBLE_EQ(s.get("m"), 9.0);
}

TEST(StatSet, MergeSumsSharedNames)
{
    StatSet a, b;
    a.add("x", 1);
    a.add("y", 2);
    b.add("x", 10);
    b.add("z", 3);
    a.merge(b);
    EXPECT_DOUBLE_EQ(a.get("x"), 11.0);
    EXPECT_DOUBLE_EQ(a.get("y"), 2.0);
    EXPECT_DOUBLE_EQ(a.get("z"), 3.0);
}

TEST(StatSet, DumpFormat)
{
    StatSet s;
    s.set("a", 1);
    std::ostringstream os;
    s.dump(os, "p.");
    EXPECT_EQ(os.str(), "p.a = 1\n");
}

TEST(StatSet, CsvFormat)
{
    StatSet s;
    s.set("b", 2.5);
    s.set("a", 1);
    std::ostringstream os;
    s.dumpCsv(os);
    EXPECT_EQ(os.str(), "stat,value\na,1\nb,2.5\n");
}

TEST(Geomean, KnownValues)
{
    EXPECT_DOUBLE_EQ(geomean({4.0}), 4.0);
    EXPECT_NEAR(geomean({1.0, 4.0}), 2.0, 1e-12);
    EXPECT_NEAR(geomean({2.0, 2.0, 2.0}), 2.0, 1e-12);
}

TEST(CeilDiv, Basics)
{
    EXPECT_EQ(ceilDiv(0, 4), 0u);
    EXPECT_EQ(ceilDiv(1, 4), 1u);
    EXPECT_EQ(ceilDiv(4, 4), 1u);
    EXPECT_EQ(ceilDiv(5, 4), 2u);
}

TEST(Rng, DeterministicAcrossInstances)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, BelowInRange)
{
    Rng r(7);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(r.below(17), 17u);
}

TEST(Rng, RealInUnitInterval)
{
    Rng r(9);
    for (int i = 0; i < 1000; ++i) {
        double x = r.real();
        EXPECT_GE(x, 0.0);
        EXPECT_LT(x, 1.0);
    }
}

TEST(Rng, SpreadsValues)
{
    Rng r(1);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 256; ++i)
        seen.insert(r.below(1024));
    EXPECT_GT(seen.size(), 180u); // near-uniform draw
}

TEST(Types, PageAndLineHelpers)
{
    EXPECT_EQ(pageOf(0), 0u);
    EXPECT_EQ(pageOf(4095), 0u);
    EXPECT_EQ(pageOf(4096), 1u);
    EXPECT_EQ(lineOf(0), 0u);
    EXPECT_EQ(lineOf(127), 0u);
    EXPECT_EQ(lineOf(128), 128u);
    EXPECT_EQ(lineOf(255), 128u);
}

TEST(TaskPool, RunsEveryIndexExactlyOnce)
{
    common::TaskPool pool(4);
    struct Ctx {
        std::vector<std::atomic<int>> hits;
        Ctx() : hits(257) {}
    } ctx;
    pool.run(257,
             [](void *c, int i) {
                 static_cast<Ctx *>(c)->hits[static_cast<size_t>(i)]
                     .fetch_add(1);
             },
             &ctx);
    for (const auto &h : ctx.hits)
        EXPECT_EQ(h.load(), 1);
}

TEST(TaskPool, ReusableAcrossManyRounds)
{
    // Same pool, many run() calls — the per-cycle usage pattern of the
    // phased tick engine. Also covers n smaller than the thread count
    // and n == 0.
    common::TaskPool pool(3);
    std::atomic<long> sum{0};
    long expect = 0;
    for (int round = 0; round < 200; ++round) {
        int n = round % 7; // 0..6 items on 3 threads
        expect += n;
        pool.run(n,
                 [](void *c, int) {
                     static_cast<std::atomic<long> *>(c)->fetch_add(1);
                 },
                 &sum);
    }
    EXPECT_EQ(sum.load(), expect);
}

TEST(TaskPool, SingleThreadRunsInline)
{
    common::TaskPool pool(1);
    std::atomic<int> hits{0};
    pool.run(16,
             [](void *c, int) {
                 static_cast<std::atomic<int> *>(c)->fetch_add(1);
             },
             &hits);
    EXPECT_EQ(hits.load(), 16);
}

TEST(TaskPool, CallerSeesWorkerWrites)
{
    // run() must publish worker writes to the caller (the drain phase
    // reads staged state written by compute workers).
    common::TaskPool pool(4);
    std::vector<int> data(1024, 0);
    pool.run(1024,
             [](void *c, int i) {
                 (*static_cast<std::vector<int> *>(c))[static_cast<size_t>(
                     i)] = i * 3;
             },
             &data);
    for (int i = 0; i < 1024; ++i)
        ASSERT_EQ(data[static_cast<size_t>(i)], i * 3);
}

TEST(TaskPool, HundredThousandBackToBackDispatches)
{
    // Back-to-back dispatches alternating between two jobs and cycling
    // the size: a worker still leaving one dispatch must never claim
    // an index of the next (an index run twice, or under the wrong
    // job) nor lose a completion to the next reset (a hang). Built
    // directly with 4 threads, so real workers run on any host.
    common::TaskPool pool(4);
    struct Job {
        int hits[16] = {};
    };
    Job jobs[2];
    for (int d = 0; d < 100000; ++d) {
        Job &job = jobs[d & 1];
        const int n = 1 + d % 16;
        pool.run(n,
                 [](void *c, int i) { ++static_cast<Job *>(c)->hits[i]; },
                 &job);
        for (int i = 0; i < 16; ++i) {
            ASSERT_EQ(job.hits[i], i < n ? 1 : 0)
                << "dispatch " << d << " index " << i;
            job.hits[i] = 0;
        }
    }
}

} // namespace
} // namespace gex
