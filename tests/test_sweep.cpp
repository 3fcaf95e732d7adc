/**
 * @file
 * Sweep engine + JSON tests: writer/parser round trips (escaping,
 * round-trippable doubles), StatSet/SimResult serialization, trace
 * cache sharing, and the key determinism property — a multi-threaded
 * sweep produces bit-identical cycles and stats to the same grid run
 * serially.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "common/json.hpp"
#include "common/stats.hpp"
#include "harness/experiment.hpp"
#include "harness/sweep.hpp"

namespace gex {
namespace {

// --- JSON writer/parser ---------------------------------------------

TEST(Json, EscapeControlAndQuoteCharacters)
{
    EXPECT_EQ(json::escape("plain"), "plain");
    EXPECT_EQ(json::escape("a\"b"), "a\\\"b");
    EXPECT_EQ(json::escape("back\\slash"), "back\\\\slash");
    EXPECT_EQ(json::escape("tab\tnl\ncr\r"), "tab\\tnl\\ncr\\r");
    EXPECT_EQ(json::escape(std::string("nul\x01") + "x"), "nul\\u0001x");
}

TEST(Json, StringRoundTripThroughParser)
{
    const std::string nasty = "q\"uote \\ back\n\t\r\f\b \x01\x1f end";
    std::ostringstream os;
    json::Writer w(os);
    w.beginObject();
    w.key(nasty).value(nasty);
    w.endObject();

    std::string err;
    auto v = json::parse(os.str(), &err);
    ASSERT_NE(v, nullptr) << err;
    ASSERT_TRUE(v->isObject());
    const json::Value *member = v->find(nasty);
    ASSERT_NE(member, nullptr);
    EXPECT_EQ(member->asString(), nasty);
}

TEST(Json, NumbersRoundTripBitExactly)
{
    const double values[] = {0.0,          1.0,         -1.0,
                             1.0 / 3.0,    0.1,         1e-9,
                             1e300,        -2.5e-300,   3.14159265358979,
                             123456789.0,  1.0 / 7.0,   6.02214076e23};
    for (double d : values) {
        std::string text = json::formatNumber(d);
        std::string err;
        auto v = json::parse(text, &err);
        ASSERT_NE(v, nullptr) << text << ": " << err;
        ASSERT_TRUE(v->isNumber()) << text;
        // Bit-exact, not approximately equal.
        EXPECT_EQ(v->asNumber(), d) << text;
    }
}

TEST(Json, ParserHandlesNestedDocuments)
{
    std::string err;
    auto v = json::parse(
        R"({"a": [1, 2.5, "x", true, false, null], "b": {"c": -3}})",
        &err);
    ASSERT_NE(v, nullptr) << err;
    const json::Value *a = v->find("a");
    ASSERT_NE(a, nullptr);
    ASSERT_TRUE(a->isArray());
    ASSERT_EQ(a->items.size(), 6u);
    EXPECT_EQ(a->items[1].asNumber(), 2.5);
    EXPECT_EQ(a->items[2].asString(), "x");
    EXPECT_TRUE(a->items[5].isNull());
    const json::Value *b = v->find("b");
    ASSERT_NE(b, nullptr);
    ASSERT_NE(b->find("c"), nullptr);
    EXPECT_EQ(b->find("c")->asNumber(), -3.0);
}

TEST(Json, ParserRejectsMalformedInput)
{
    for (const char *bad :
         {"", "{", "[1,", "{\"a\" 1}", "tru", "1 2", "{\"a\":}",
          "\"unterminated", "[1,]x", "nan", "+1"}) {
        std::string err;
        EXPECT_EQ(json::parse(bad, &err), nullptr)
            << "accepted: " << bad;
        EXPECT_FALSE(err.empty()) << bad;
    }
}

// --- StatSet::toJson -------------------------------------------------

TEST(StatSetJson, RoundTripsNamesAndValues)
{
    StatSet s;
    s.set("plain", 42.0);
    s.set("ratio", 1.0 / 3.0);
    s.set("weird \"name\"\twith\nescapes\\", -7.25e-11);
    s.set("zero", 0.0);

    std::string err;
    auto v = json::parse(s.toJson(), &err);
    ASSERT_NE(v, nullptr) << err;
    ASSERT_TRUE(v->isObject());
    EXPECT_EQ(v->members.size(), s.scalars().size());
    for (const auto &kv : s.scalars()) {
        const json::Value *m = v->find(kv.first);
        ASSERT_NE(m, nullptr) << kv.first;
        EXPECT_EQ(m->asNumber(), kv.second) << kv.first;
    }
}

TEST(StatSetJson, EmptySetIsEmptyObject)
{
    StatSet s;
    std::string err;
    auto v = json::parse(s.toJson(), &err);
    ASSERT_NE(v, nullptr) << err;
    ASSERT_TRUE(v->isObject());
    EXPECT_TRUE(v->members.empty());
}

// --- Sweep engine ----------------------------------------------------

/**
 * The small grid the determinism tests run: two cheap workloads, two
 * schemes each, fault-free plus one demand-paging point so the fault
 * machinery is exercised concurrently too.
 */
std::vector<harness::RunSpec>
smallGrid()
{
    std::vector<harness::RunSpec> grid;
    for (const char *w : {"bfs", "spmv"}) {
        for (gpu::Scheme s :
             {gpu::Scheme::StallOnFault, gpu::Scheme::ReplayQueue}) {
            harness::RunSpec rs;
            rs.workload = w;
            rs.cfg = gpu::GpuConfig::baseline();
            rs.cfg.numSms = 4;
            rs.cfg.scheme = s;
            grid.push_back(std::move(rs));
        }
    }
    harness::RunSpec dp;
    dp.workload = "bfs";
    dp.cfg = gpu::GpuConfig::baseline();
    dp.cfg.numSms = 4;
    dp.cfg.scheme = gpu::Scheme::ReplayQueue;
    dp.policy = vm::VmPolicy::demandPaging();
    dp.series = "replay-queue-dp";
    grid.push_back(std::move(dp));
    return grid;
}

std::vector<harness::RunRecord>
runGrid(int jobs)
{
    harness::SweepEngine eng(jobs);
    for (auto &rs : smallGrid())
        eng.add(std::move(rs));
    return eng.run();
}

TEST(SweepEngine, ParallelSweepBitIdenticalToSerial)
{
    std::vector<harness::RunRecord> serial = runGrid(1);
    std::vector<harness::RunRecord> parallel = runGrid(4);

    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        EXPECT_EQ(serial[i].result.cycles, parallel[i].result.cycles)
            << "run " << i << " (" << serial[i].spec.workload << ")";
        EXPECT_EQ(serial[i].result.instructions,
                  parallel[i].result.instructions);
        // Full stat set must match bit-for-bit, not just headline
        // numbers.
        const auto &ss = serial[i].result.stats.scalars();
        const auto &ps = parallel[i].result.stats.scalars();
        ASSERT_EQ(ss.size(), ps.size()) << "run " << i;
        auto it = ps.begin();
        for (const auto &kv : ss) {
            EXPECT_EQ(kv.first, it->first);
            EXPECT_EQ(kv.second, it->second)
                << "run " << i << " stat " << kv.first;
            ++it;
        }
    }
}

TEST(SweepEngine, ResultsLandInAddOrder)
{
    std::vector<harness::RunSpec> grid = smallGrid();
    harness::SweepEngine eng(4);
    for (auto &rs : grid)
        eng.add(rs);
    std::vector<harness::RunRecord> runs = eng.run();
    ASSERT_EQ(runs.size(), grid.size());
    for (std::size_t i = 0; i < grid.size(); ++i) {
        EXPECT_EQ(runs[i].spec.workload, grid[i].workload);
        EXPECT_EQ(runs[i].spec.seriesLabel(), grid[i].seriesLabel());
        EXPECT_GT(runs[i].result.cycles, 0u);
    }
}

TEST(TraceCache, BuildsEachWorkloadOnce)
{
    harness::TraceCache cache;
    const harness::TracedWorkload &a = cache.get("bfs");
    const harness::TracedWorkload &b = cache.get("bfs");
    EXPECT_EQ(&a, &b);
    EXPECT_EQ(cache.size(), 1u);
    // Distinct scales are distinct cache entries.
    const harness::TracedWorkload &c = cache.get("bfs", 2);
    EXPECT_NE(&a, &c);
    EXPECT_EQ(cache.size(), 2u);
    EXPECT_GT(a.trace.blocks.size(), 0u);
}

TEST(SweepHelpers, NormalizeAndGeomeans)
{
    // A 2x2 toy grid: two workloads x {baseline, x}, normalized to
    // baseline, with made-up cycle counts standing in for the runs.
    harness::Experiment exp;
    exp.workloads = {{"bfs", 0}, {"spmv", 0}};
    exp.schemes = {"baseline", "replay-queue"};
    exp.normalizeAxis = "scheme";
    exp.normalizeLabel = "baseline";
    std::vector<harness::RunSpec> points =
        exp.expand(config::RunParams::baseline());
    ASSERT_EQ(points.size(), 4u);
    const Cycle cycles[] = {1000, 2000, 500, 250};
    std::vector<harness::RunRecord> runs(points.size());
    for (std::size_t i = 0; i < runs.size(); ++i) {
        runs[i].spec = points[i];
        runs[i].result.cycles = cycles[i];
    }
    exp.normalize(runs);
    // base.cycles / run.cycles per point; a base is its own base.
    EXPECT_DOUBLE_EQ(runs[0].derived.at("normalized"), 1.0);
    EXPECT_DOUBLE_EQ(runs[1].derived.at("normalized"), 0.5);
    EXPECT_DOUBLE_EQ(runs[2].derived.at("normalized"), 1.0);
    EXPECT_DOUBLE_EQ(runs[3].derived.at("normalized"), 2.0);

    auto gms = exp.geomeans(runs);
    EXPECT_DOUBLE_EQ(gms.at("baseline"), 1.0);
    EXPECT_DOUBLE_EQ(gms.at("replay-queue"), 1.0); // geomean(0.5, 2.0)

    // A point whose base failed gets no value, and leaves the geomean.
    for (auto &r : runs)
        r.derived.clear();
    runs[2].status = harness::PointStatus::Failed;
    exp.normalize(runs);
    EXPECT_DOUBLE_EQ(runs[1].derived.at("normalized"), 0.5);
    EXPECT_EQ(runs[2].derived.count("normalized"), 0u);
    EXPECT_EQ(runs[3].derived.count("normalized"), 0u);
    EXPECT_DOUBLE_EQ(exp.geomeans(runs).at("replay-queue"), 0.5);

    // Normalizing on a leading axis pairs points across table rows:
    // bfs x sms {4, 8} x scheme {baseline, replay-queue}, to sms 4.
    harness::Experiment two;
    two.workloads = {{"bfs", 0}};
    two.axes = {harness::Experiment::parseAxis(
                    *json::parse("{\"knob\": \"sms\", \"values\": [4, 8]}"),
                    "sms axis"),
                harness::Experiment::parseAxis(
                    *json::parse("{\"knob\": \"scheme\", \"values\": "
                                 "[\"baseline\", \"replay-queue\"]}"),
                    "scheme axis")};
    two.normalizeAxis = "0";
    two.normalizeLabel = "4";
    points = two.expand(config::RunParams::baseline());
    ASSERT_EQ(points.size(), 4u);
    EXPECT_EQ(points[2].groupLabel(), "bfs/8");
    EXPECT_EQ(points[3].seriesLabel(), "replay-queue");
    for (std::size_t i = 0; i < runs.size(); ++i) {
        runs[i] = harness::RunRecord{};
        runs[i].spec = points[i];
        runs[i].result.cycles = cycles[i];
    }
    two.normalize(runs);
    EXPECT_DOUBLE_EQ(runs[2].derived.at("normalized"), 2.0);  // 1000/500
    EXPECT_DOUBLE_EQ(runs[3].derived.at("normalized"), 8.0);  // 2000/250
    EXPECT_DOUBLE_EQ(two.geomeans(runs).at("8/replay-queue"), 8.0);
}

TEST(SweepReport, JsonDocumentParsesAndCarriesStats)
{
    harness::Experiment exp;
    exp.workloads = {{"bfs", 0}, {"spmv", 0}};
    exp.schemes = {"baseline", "replay-queue"};
    config::RunParams base;
    base.cfg.numSms = 4;
    harness::SweepEngine eng(2);
    for (auto &rs : exp.expand(base))
        eng.add(std::move(rs));
    harness::SweepReport rep;
    rep.name = "test_sweep";
    rep.jobs = eng.jobs();
    rep.runs = eng.run();
    exp.normalize(rep.runs);
    rep.geomeans = exp.geomeans(rep.runs);

    std::ostringstream os;
    rep.writeJson(os);

    std::string err;
    auto v = json::parse(os.str(), &err);
    ASSERT_NE(v, nullptr) << err;
    EXPECT_EQ(v->find("name")->asString(), "test_sweep");
    const json::Value *runsV = v->find("runs");
    ASSERT_NE(runsV, nullptr);
    ASSERT_TRUE(runsV->isArray());
    ASSERT_EQ(runsV->items.size(), rep.runs.size());
    for (std::size_t i = 0; i < rep.runs.size(); ++i) {
        const json::Value &rv = runsV->items[i];
        EXPECT_EQ(rv.find("workload")->asString(),
                  rep.runs[i].spec.workload);
        EXPECT_EQ(rv.find("cycles")->asNumber(),
                  static_cast<double>(rep.runs[i].result.cycles));
        const json::Value *stats = rv.find("stats");
        ASSERT_NE(stats, nullptr);
        ASSERT_TRUE(stats->isObject());
        // Spot-check a stat every run must have, bit-exact.
        ASSERT_NE(stats->find("gpu.cycles"), nullptr);
        EXPECT_EQ(stats->find("gpu.cycles")->asNumber(),
                  rep.runs[i].result.stats.get("gpu.cycles"));
    }
    const json::Value *gms = v->find("geomeans");
    ASSERT_NE(gms, nullptr);
    ASSERT_TRUE(gms->isObject());
    EXPECT_NE(gms->find("replay-queue"), nullptr);
}

TEST(SimResultJson, ParsesAndMatchesFields)
{
    harness::TraceCache cache;
    const harness::TracedWorkload &tw = cache.get("bfs");
    gpu::GpuConfig cfg = gpu::GpuConfig::baseline();
    cfg.numSms = 4;
    gpu::Gpu g(cfg);
    gpu::SimResult r = g.run(tw.kernel, tw.trace);

    std::string err;
    auto v = json::parse(r.toJson(), &err);
    ASSERT_NE(v, nullptr) << err;
    EXPECT_EQ(v->find("cycles")->asNumber(),
              static_cast<double>(r.cycles));
    EXPECT_EQ(v->find("instructions")->asNumber(),
              static_cast<double>(r.instructions));
    EXPECT_EQ(v->find("ipc")->asNumber(), r.ipc());
    ASSERT_NE(v->find("stats"), nullptr);
    EXPECT_EQ(v->find("stats")->members.size(),
              r.stats.scalars().size());
}

} // namespace
} // namespace gex
