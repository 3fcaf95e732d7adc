/**
 * @file
 * Robustness tests (docs/ROBUSTNESS.md): the structured error
 * taxonomy's rendering contract, the forward-progress watchdog
 * tripping on a seeded livelock, the hard cycle budget, the sweep
 * engine surviving (and classifying) failing grid points, and the
 * hardened JSON parser rejecting truncated or corrupt input with a
 * byte offset.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "common/error.hpp"
#include "common/json.hpp"
#include "common/log.hpp"
#include "harness/experiment.hpp"
#include "harness/sweep.hpp"
#include "inject/fault_model.hpp"

namespace gex {
namespace {

// --- Error taxonomy --------------------------------------------------

TEST(ErrorTaxonomy, ContextDescribesOnlySetFields)
{
    ErrorContext ctx;
    EXPECT_EQ(ctx.describe(), "");

    ctx.cycle = 1234;
    ctx.sm = 2;
    ctx.warp = 7;
    ctx.scheme = "replay-queue";
    std::string d = ctx.describe();
    EXPECT_NE(d.find("cycle 1234"), std::string::npos) << d;
    EXPECT_NE(d.find("sm 2"), std::string::npos) << d;
    EXPECT_NE(d.find("warp 7"), std::string::npos) << d;
    EXPECT_NE(d.find("replay-queue"), std::string::npos) << d;
}

TEST(ErrorTaxonomy, ReportRendersKindContextAndDiagnostics)
{
    ErrorContext ctx;
    ctx.cycle = 99;
    LivelockError e("nothing commits", ctx, "  warp 0: stalled\n");
    EXPECT_EQ(e.kind(), "LivelockError");
    EXPECT_STREQ(e.what(), "nothing commits");
    std::string r = e.report();
    EXPECT_NE(r.find("LivelockError: nothing commits"),
              std::string::npos) << r;
    EXPECT_NE(r.find("cycle 99"), std::string::npos) << r;
    EXPECT_NE(r.find("warp 0: stalled"), std::string::npos) << r;
}

TEST(ErrorTaxonomy, FatalThrowsConfigErrorWithFormattedMessage)
{
    try {
        fatal("bad knob %d for '%s'", 42, "thing");
        FAIL() << "fatal() returned";
    } catch (const ConfigError &e) {
        EXPECT_STREQ(e.what(), "bad knob 42 for 'thing'");
    }
}

// --- Forward-progress watchdog --------------------------------------

/**
 * The seeded livelock: under replay-queue, a rate-1.0 Bernoulli
 * injector re-faults every replayed page-table walk, so the squash/
 * replay loop spins forever without committing. (Baseline
 * stall-on-fault is immune: the stalled access completes after one
 * service without re-walking.)
 */
harness::RunSpec
livelockSpec()
{
    harness::RunSpec rs;
    rs.workload = "bfs";
    rs.cfg = gpu::GpuConfig::baseline();
    rs.cfg.numSms = 4;
    rs.cfg.scheme = gpu::Scheme::ReplayQueue;
    rs.cfg.watchdogCycles = 20'000;
    rs.policy = vm::VmPolicy::allResident();
    rs.policy.inject.model = inject::modelFromName("bernoulli");
    rs.policy.inject.rate = 1.0;
    rs.policy.inject.seed = 1;
    return rs;
}

TEST(Watchdog, TripsOnSeededLivelockWithDiagnostics)
{
    harness::RunSpec rs = livelockSpec();
    harness::TraceCache cache;
    const harness::TracedWorkload &tw = cache.get(rs.workload);
    gpu::Gpu g(rs.cfg);
    try {
        g.run(tw.kernel, tw.trace, rs.policy);
        FAIL() << "seeded livelock completed";
    } catch (const LivelockError &e) {
        EXPECT_EQ(e.kind(), "LivelockError");
        EXPECT_NE(e.context().cycle, kNoCycle);
        EXPECT_EQ(e.context().scheme, "replay-queue");
        std::string r = e.report();
        EXPECT_NE(r.find("forward-progress watchdog"),
                  std::string::npos) << r;
        // The bundle carries machine state, per-SM warp dumps and a
        // pointer at the (off-by-default) event capture knob.
        EXPECT_NE(r.find("pending faults"), std::string::npos) << r;
        EXPECT_NE(r.find("recent-event capture off"),
                  std::string::npos) << r;
    }
}

TEST(Watchdog, CapturesEventTailWhenEnabled)
{
    harness::RunSpec rs = livelockSpec();
    rs.cfg.watchdogCaptureEvents = true;
    rs.cfg.watchdogLastEvents = 32;
    harness::TraceCache cache;
    const harness::TracedWorkload &tw = cache.get(rs.workload);
    gpu::Gpu g(rs.cfg);
    try {
        g.run(tw.kernel, tw.trace, rs.policy);
        FAIL() << "seeded livelock completed";
    } catch (const LivelockError &e) {
        EXPECT_NE(e.diagnostics().find("last 32 pipeline events"),
                  std::string::npos) << e.diagnostics();
        EXPECT_EQ(e.diagnostics().find("recent-event capture off"),
                  std::string::npos);
    }
}

TEST(Watchdog, BaselineSchemeSurvivesTheSameInjection)
{
    // The same rate-1.0 campaign under stall-on-fault terminates: the
    // watchdog must stay quiet on slow-but-live runs.
    harness::RunSpec rs = livelockSpec();
    rs.cfg.scheme = gpu::Scheme::StallOnFault;
    harness::TraceCache cache;
    const harness::TracedWorkload &tw = cache.get(rs.workload);
    gpu::Gpu g(rs.cfg);
    gpu::SimResult r = g.run(tw.kernel, tw.trace, rs.policy);
    EXPECT_GT(r.cycles, 0u);
}

TEST(Watchdog, CycleBudgetThrowsBudgetExceeded)
{
    harness::TraceCache cache;
    const harness::TracedWorkload &tw = cache.get("bfs");
    gpu::GpuConfig cfg = gpu::GpuConfig::baseline();
    cfg.numSms = 4;
    cfg.maxCycles = 500;
    gpu::Gpu g(cfg);
    try {
        g.run(tw.kernel, tw.trace);
        FAIL() << "run fit inside an absurdly small budget";
    } catch (const CycleBudgetExceeded &e) {
        EXPECT_EQ(e.kind(), "CycleBudgetExceeded");
        EXPECT_NE(std::string(e.what()).find("500-cycle budget"),
                  std::string::npos) << e.what();
        EXPECT_GE(e.context().cycle, 500u);
    }
}

// --- Sweep resilience ------------------------------------------------

TEST(SweepResilience, FailedPointsNeverKillTheSweep)
{
    harness::SweepEngine eng(2);
    eng.setMaxRetries(2);

    harness::RunSpec good;
    good.workload = "bfs";
    good.cfg = gpu::GpuConfig::baseline();
    good.cfg.numSms = 4;
    eng.add(good);

    harness::RunSpec live = livelockSpec();
    live.series = "seeded-livelock";
    eng.add(live);

    harness::RunSpec bad;
    bad.workload = "no-such-workload";
    bad.cfg = gpu::GpuConfig::baseline();
    eng.add(bad);

    std::vector<harness::RunRecord> runs = eng.run();
    ASSERT_EQ(runs.size(), 3u);

    EXPECT_EQ(runs[0].status, harness::PointStatus::Ok);
    EXPECT_TRUE(runs[0].ok());
    EXPECT_GT(runs[0].result.cycles, 0u);
    EXPECT_EQ(runs[0].attempts, 1);
    EXPECT_TRUE(runs[0].error.empty());

    EXPECT_EQ(runs[1].status, harness::PointStatus::Livelock);
    EXPECT_FALSE(runs[1].ok());
    // Livelock is a deterministic function of the spec: never retried.
    EXPECT_EQ(runs[1].attempts, 1);
    EXPECT_NE(runs[1].error.find("LivelockError"), std::string::npos)
        << runs[1].error;
    EXPECT_EQ(runs[1].result.cycles, 0u);

    EXPECT_EQ(runs[2].status, harness::PointStatus::Failed);
    // Failed points are retried maxRetries times before recording.
    EXPECT_EQ(runs[2].attempts, 3);
    EXPECT_NE(runs[2].error.find("ConfigError"), std::string::npos)
        << runs[2].error;

    // Summary rows only see Ok points.
    harness::normalizeTo(runs, {0, 0, 0});
    EXPECT_DOUBLE_EQ(runs[0].derived.at("normalized"), 1.0);
    EXPECT_EQ(runs[1].derived.count("normalized"), 0u);
    EXPECT_EQ(runs[2].derived.count("normalized"), 0u);
}

TEST(SweepResilience, ReportJsonCarriesStatusAndError)
{
    harness::SweepEngine eng(1);
    harness::RunSpec good;
    good.workload = "bfs";
    good.cfg = gpu::GpuConfig::baseline();
    good.cfg.numSms = 4;
    eng.add(good);
    harness::RunSpec live = livelockSpec();
    live.series = "seeded-livelock";
    eng.add(live);

    harness::SweepReport rep;
    rep.name = "test_robustness";
    rep.deterministic = true;
    rep.runs = eng.run();
    EXPECT_EQ(rep.countStatus(harness::PointStatus::Ok), 1u);
    EXPECT_EQ(rep.countStatus(harness::PointStatus::Livelock), 1u);

    std::ostringstream os;
    rep.writeJson(os);
    std::string err;
    auto v = json::parse(os.str(), &err);
    ASSERT_NE(v, nullptr) << err;
    // Deterministic documents omit the execution environment.
    EXPECT_EQ(v->find("jobs"), nullptr);
    EXPECT_EQ(v->find("wall_seconds"), nullptr);
    const json::Value *runs = v->find("runs");
    ASSERT_NE(runs, nullptr);
    ASSERT_EQ(runs->items.size(), 2u);
    EXPECT_EQ(runs->items[0].find("status")->asString(), "ok");
    EXPECT_EQ(runs->items[0].find("error")->asString(), "");
    EXPECT_EQ(runs->items[1].find("status")->asString(), "livelock");
    EXPECT_NE(runs->items[1].find("error")->asString().find(
                  "forward-progress watchdog"),
              std::string::npos);
    EXPECT_EQ(runs->items[1].find("attempts")->asNumber(), 1.0);
}

// --- Hardened JSON parser -------------------------------------------

TEST(JsonHardening, TruncatedDocumentsFailWithByteOffset)
{
    for (const char *bad : {"{\"a\": [1, 2", "{\"a\": \"unterminated",
                            "{\"a\": 1, ", "[[[1,2],"}) {
        std::string err;
        EXPECT_EQ(json::parse(bad, &err), nullptr) << bad;
        EXPECT_NE(err.find("at offset"), std::string::npos)
            << bad << ": " << err;
    }
}

TEST(JsonHardening, RejectsHexNumbers)
{
    // strtod() accepts "0x1f"; JSON does not. A journal line with a
    // mangled number must be a parse error, not a silent value.
    std::string err;
    EXPECT_EQ(json::parse("{\"v\": 0x1f}", &err), nullptr);
    EXPECT_NE(err.find("hex"), std::string::npos) << err;
}

TEST(JsonHardening, RejectsRawControlCharactersInStrings)
{
    std::string doc = "{\"a\": \"torn";
    doc += '\x01';
    doc += "line\"}";
    std::string err;
    EXPECT_EQ(json::parse(doc, &err), nullptr);
    EXPECT_NE(err.find("control character"), std::string::npos) << err;
    // The offset names the corrupt byte, not the end of input.
    EXPECT_NE(err.find("at offset 11"), std::string::npos) << err;
}

TEST(JsonHardening, RejectsPathologicallyDeepNesting)
{
    std::string bomb(5000, '[');
    std::string err;
    EXPECT_EQ(json::parse(bomb, &err), nullptr);
    EXPECT_NE(err.find("nesting"), std::string::npos) << err;

    // 200 levels is legal; the limit only exists to bound recursion.
    std::string ok(199, '[');
    ok += "1";
    ok.append(199, ']');
    err.clear();
    EXPECT_NE(json::parse(ok, &err), nullptr) << err;
}

} // namespace
} // namespace gex
