/**
 * @file
 * Self-checking simulation tests (docs/VALIDATION.md): the
 * InvariantError taxonomy entry and its exit code, every seeded
 * violation hook tripping its checker, the idle-tick replay check,
 * the --check on/off bit-identity contract, the architectural oracle,
 * and a small seeded differential fuzz campaign with shrink +
 * repro-spec round-trip.
 */

#include <gtest/gtest.h>

#include <string>

#include "check/fuzz.hpp"
#include "check/oracle.hpp"
#include "check/sanitizer.hpp"
#include "common/error.hpp"
#include "common/json.hpp"
#include "config/cli.hpp"
#include "config/knob_registry.hpp"
#include "gpu/gpu.hpp"
#include "harness/sweep.hpp"
#include "sm/pipeline.hpp"
#include "sm/sm.hpp"

namespace gex {
namespace {

// --- Taxonomy --------------------------------------------------------

TEST(InvariantTaxonomy, MapsToExitCodeSeven)
{
    InvariantError e("shadow mismatch");
    EXPECT_EQ(e.kind(), "InvariantError");
    EXPECT_EQ(cli::exitCodeFor(e), cli::ExitInvariant);
    EXPECT_EQ(cli::ExitInvariant, 7);
}

TEST(InvariantTaxonomy, CheckKnobsAreExecOnly)
{
    // --check must never change results, so neither knob may enter the
    // result digest or the resolved_config manifest.
    const auto &reg = config::KnobRegistry::instance();
    const config::Knob *check = reg.find("check");
    const config::Knob *violate = reg.find("check.violate");
    ASSERT_NE(check, nullptr);
    ASSERT_NE(violate, nullptr);
    EXPECT_TRUE(check->execOnly);
    EXPECT_TRUE(violate->execOnly);

    config::RunParams off = config::RunParams::baseline();
    config::RunParams on = config::RunParams::baseline();
    on.cfg.checkInvariants = true;
    on.cfg.checkViolation = "rq-hold";
    EXPECT_EQ(reg.resultDigest(off), reg.resultDigest(on));
}

// --- Seeded violations ----------------------------------------------

harness::TraceCache &
cache()
{
    static harness::TraceCache c;
    return c;
}

/** Run bfs/demand-paging with @p violate armed; return the error. */
InvariantError
runSeededViolation(gpu::Scheme scheme, const std::string &violate,
                   bool capture)
{
    const harness::TracedWorkload &tw = cache().get("bfs");
    gpu::GpuConfig cfg = gpu::GpuConfig::baseline();
    cfg.numSms = 4;
    cfg.scheme = scheme;
    cfg.checkInvariants = true;
    cfg.checkViolation = violate;
    cfg.watchdogCaptureEvents = capture;
    gpu::Gpu g(cfg);
    try {
        g.run(tw.kernel, tw.trace, vm::VmPolicy::demandPaging());
    } catch (const InvariantError &e) {
        return e;
    }
    return InvariantError("NOT DETECTED");
}

TEST(SeededViolations, RqHoldTripsTheReplayQueueChecker)
{
    InvariantError e = runSeededViolation(gpu::Scheme::ReplayQueue,
                                          "rq-hold", true);
    std::string r = e.report();
    EXPECT_NE(r.find("replay-queue hold violation"), std::string::npos)
        << r;
    EXPECT_EQ(e.context().scheme, "replay-queue");
    EXPECT_NE(e.context().cycle, kNoCycle);
    // Satellite contract: the report reuses the last-K event ring.
    EXPECT_NE(e.diagnostics().find("last pipeline events"),
              std::string::npos)
        << e.diagnostics();
}

TEST(SeededViolations, RqHoldWithoutCapturePointsAtTheKnob)
{
    InvariantError e = runSeededViolation(gpu::Scheme::ReplayQueue,
                                          "rq-hold", false);
    EXPECT_NE(e.report().find("replay-queue hold violation"),
              std::string::npos);
    EXPECT_NE(e.diagnostics().find("recent-event capture off"),
              std::string::npos)
        << e.diagnostics();
}

TEST(SeededViolations, OlLeakTripsTheDrainLeakChecker)
{
    InvariantError e = runSeededViolation(gpu::Scheme::OperandLog,
                                          "ol-leak", false);
    std::string r = e.report();
    EXPECT_NE(r.find("operand-log partition"), std::string::npos) << r;
    EXPECT_NE(r.find("leak"), std::string::npos) << r;
}

TEST(SeededViolations, EventSeqTripsTheEventHeapChecker)
{
    InvariantError e = runSeededViolation(gpu::Scheme::StallOnFault,
                                          "event-seq", false);
    EXPECT_NE(e.report().find("scheduled into the past"),
              std::string::npos)
        << e.report();
}

TEST(SeededViolations, DoubleCommitTripsExactlyOnceRetirement)
{
    InvariantError e = runSeededViolation(gpu::Scheme::StallOnFault,
                                          "double-commit", false);
    EXPECT_NE(e.report().find("committed twice"), std::string::npos)
        << e.report();
}

TEST(SeededViolations, UnknownHookNameIsAConfigError)
{
    const harness::TracedWorkload &tw = cache().get("bfs");
    gpu::GpuConfig cfg = gpu::GpuConfig::baseline();
    cfg.checkInvariants = true;
    cfg.checkViolation = "rq-holdd";
    gpu::Gpu g(cfg);
    EXPECT_THROW(g.run(tw.kernel, tw.trace, vm::VmPolicy::demandPaging()),
                 ConfigError);
}

// --- Always-on retirement count --------------------------------------

/**
 * Known defect (ROADMAP.md, the operand-log double commit): under
 * dense Bernoulli injection with demand paging, operand-log commits
 * some instructions twice. Without --check the end-of-run retirement
 * count is the only check that sees it. This pins seed 1 of that repro; it flips when the double commit's
 * root cause is fixed, and must then expect the run to complete with
 * exactly the trace's 48384 instructions.
 */
TEST(RetirementCount, OperandLogDoubleCommitTripsWithoutCheck)
{
    const harness::TracedWorkload &tw = cache().get("histo");
    gpu::GpuConfig cfg = gpu::GpuConfig::baseline();
    cfg.scheme = gpu::Scheme::OperandLog;
    vm::VmPolicy policy = vm::VmPolicy::demandPaging();
    policy.inject.model = inject::ModelKind::Bernoulli;
    policy.inject.rate = 0.05;
    policy.inject.seed = 1;
    gpu::Gpu g(cfg);
    try {
        g.run(tw.kernel, tw.trace, policy);
        FAIL() << "the double commit no longer reproduces; update this "
                  "test to expect a clean run";
    } catch (const InvariantError &e) {
        EXPECT_NE(e.report().find("committed 48404 != trace 48384"),
                  std::string::npos)
            << e.report();
        EXPECT_EQ(e.context().scheme, "operand-log");
    }
}

// --- Warp-mask coherence ---------------------------------------------

/** Shared memory system stub: the mask checker never touches it. */
class NoMemory : public sm::MemorySystem
{
  public:
    Cycle l2Load(Addr, Cycle t) override { return t; }
    Cycle l2Store(Addr, Cycle t) override { return t; }
    Cycle l2Atomic(Addr, Cycle t) override { return t; }
    vm::Translation translatePage(Addr, Cycle) override { return {}; }
    Cycle bulkDramTraffic(Cycle t, std::uint64_t) override { return t; }
};

TEST(WarpMaskCoherence, FlippedBitTripsTheChecker)
{
    const gpu::GpuConfig cfg = gpu::GpuConfig::baseline();
    NoMemory sys;
    check::SimSanitizer san(cfg, nullptr, nullptr);
    trace::WarpTrace wt;
    wt.append("k", 0, kFullMask, false, {});
    // Warp 0 is resident with its only instruction buffered and ready;
    // its trace is drained, so fetchBlocked is a correct mark. Warp 1
    // holds no block, so it is correctly idle and fetch-blocked.
    auto coherent = [&](sm::PipelineState &st) {
        sm::WarpRt &wr = st.warps[0];
        wr.slot = 0;
        wr.tr = &wt;
        wr.fetchIdx = 1;
        wr.ibuf.push_back(sm::InstBufEntry{0, 0});
        st.fetchBlocked.set(0);
        st.issueIdle.set(1);
        st.fetchBlocked.set(1);
    };
    {
        sm::PipelineState st(0, cfg, sys);
        coherent(st);
        EXPECT_NO_THROW(san.checkWarpMasks(st, 10));
    }
    // Each flipped bit claims a blocking reason warp 0 does not have.
    for (auto flip : {&sm::PipelineState::issueIdle,
                      &sm::PipelineState::sbStalled}) {
        sm::PipelineState st(0, cfg, sys);
        coherent(st);
        (st.*flip).set(0);
        try {
            san.checkWarpMasks(st, 10);
            ADD_FAILURE() << "flipped mask bit not detected";
        } catch (const InvariantError &e) {
            EXPECT_NE(std::string(e.what()).find("warp-mask coherence"),
                      std::string::npos)
                << e.what();
            EXPECT_EQ(cli::exitCodeFor(e), cli::ExitInvariant);
        }
    }
}

// --- Idle-tick replay ------------------------------------------------

TEST(IdleTickReplay, MismatchedIncrementsTripTheChecker)
{
    const gpu::GpuConfig cfg = gpu::GpuConfig::baseline();
    NoMemory sys;
    check::SimSanitizer san(cfg, nullptr, nullptr);
    sm::PipelineState st(0, cfg, sys);
    sm::IdleCounters recorded;
    recorded.stallScoreboard = 3;
    recorded.stallLog = 1;
    recorded.logBackpressureCycles = 1;
    recorded.logAllocFailures = 1;
    EXPECT_NO_THROW(san.checkIdleReplay(st, 10, 40, recorded, 40, recorded));

    auto expectTrip = [&](Cycle woke, const sm::IdleCounters &moved,
                          const char *what) {
        try {
            san.checkIdleReplay(st, 10, 40, recorded, woke, moved);
            ADD_FAILURE() << what << " not detected";
        } catch (const InvariantError &e) {
            const std::string msg = e.what();
            EXPECT_NE(msg.find("idle-tick replay violation"),
                      std::string::npos)
                << msg;
            EXPECT_EQ(cli::exitCodeFor(e), cli::ExitInvariant);
            EXPECT_EQ(e.context().cycle, 10u);
            EXPECT_EQ(e.context().sm, 0);
        }
    };
    // Every counter an idle tick moves is compared, the operand-log
    // refusal count included.
    sm::IdleCounters moved = recorded;
    moved.stallLsuQueue = 1;
    expectTrip(40, moved, "an extra LSU stall");
    moved = recorded;
    moved.logAllocFailures = 0;
    expectTrip(40, moved, "a missing alloc failure");
    moved = recorded;
    moved.stallScoreboard = 2;
    expectTrip(40, moved, "a missing scoreboard stall");
    // The tick must also keep the wake cycle and do no work.
    expectTrip(41, recorded, "a moved wake cycle");
    st.didWork = true;
    expectTrip(40, recorded, "a tick that did work");
}

/** TB scheduler stub with an exhausted grid. */
class NoBlocks : public sm::BlockSupply
{
  public:
    const trace::BlockTrace *nextBlock() override { return nullptr; }
    bool hasPending() const override { return false; }
};

TEST(IdleTickReplay, SmWithNoEventsSleepsUntilNoCycle)
{
    const gpu::GpuConfig cfg = gpu::GpuConfig::baseline();
    NoMemory sys;
    NoBlocks supply;
    sm::Sm s(0, cfg, sys, supply);
    sm::LaunchInfo li;
    li.warpsPerBlock = 4;
    li.blocksPerSm = 2;
    s.beginKernel(li);
    EXPECT_EQ(s.wakeCycle(), 0u); // a fresh SM ticks at cycle 0
    EXPECT_EQ(s.tick(0), kNoCycle);
    EXPECT_EQ(s.wakeCycle(), kNoCycle);
    s.replayIdleTick();
    EXPECT_EQ(s.tick(5), kNoCycle);
    EXPECT_TRUE(s.state().idleCounters() == sm::IdleCounters{});

    // End to end: 128 SMs for bfs's 96 blocks leave 32 SMs without any
    // block or event. Under --check they tick for real every visited
    // cycle and the replay check compares each with its replay.
    const harness::TracedWorkload &tw = cache().get("bfs");
    gpu::GpuConfig gcfg = gpu::GpuConfig::baseline();
    gcfg.numSms = 128;
    gcfg.scheme = gpu::Scheme::ReplayQueue;
    gpu::Gpu off(gcfg);
    gpu::SimResult roff = off.run(tw.kernel, tw.trace);
    gcfg.checkInvariants = true;
    gpu::Gpu on(gcfg);
    gpu::SimResult ron = on.run(tw.kernel, tw.trace);
    EXPECT_EQ(roff.cycles, ron.cycles);
    EXPECT_EQ(roff.stats.toJson(), ron.stats.toJson());
}

// --- --check on/off bit-identity ------------------------------------

TEST(CheckInvariance, CheckOnLeavesEverySchemeBitIdentical)
{
    const harness::TracedWorkload &tw = cache().get("bfs");
    for (gpu::Scheme s : gpu::allSchemes()) {
        gpu::GpuConfig cfg = gpu::GpuConfig::baseline();
        cfg.numSms = 4;
        cfg.scheme = s;

        gpu::Gpu off(cfg);
        gpu::SimResult roff =
            off.run(tw.kernel, tw.trace, vm::VmPolicy::demandPaging());

        cfg.checkInvariants = true;
        cfg.watchdogCaptureEvents = true;
        gpu::Gpu on(cfg);
        gpu::SimResult ron =
            on.run(tw.kernel, tw.trace, vm::VmPolicy::demandPaging());

        EXPECT_EQ(roff.cycles, ron.cycles) << gpu::schemeName(s);
        EXPECT_EQ(roff.stats.toJson(), ron.stats.toJson())
            << gpu::schemeName(s);
    }
}

// --- Architectural oracle -------------------------------------------

TEST(ArchOracleContract, ReplayAndTimingPassOnAHealthyRun)
{
    const harness::TracedWorkload &tw = cache().get("sgemm");
    check::ArchOracle oracle("sgemm", 1, *tw.mem, tw.trace);
    EXPECT_NO_THROW(oracle.verifyReplay());

    gpu::GpuConfig cfg = gpu::GpuConfig::baseline();
    cfg.numSms = 4;
    gpu::Gpu g(cfg);
    gpu::SimResult r = g.run(tw.kernel, tw.trace);
    EXPECT_EQ(r.instructions, oracle.reference().dynamicInsts);
}

TEST(ArchOracleContract, FingerprintsDifferAcrossWorkloads)
{
    const harness::TracedWorkload &a = cache().get("sgemm");
    const harness::TracedWorkload &b = cache().get("bfs");
    EXPECT_NE(check::fingerprint(*a.mem, a.trace),
              check::fingerprint(*b.mem, b.trace));
}

TEST(ArchOracleContract, FingerprintsMatchPinnedValues)
{
    // Captured once; any change to the trace format or the functional
    // simulator that alters an active mask, fault flag, line address
    // or final memory byte moves these.
    struct Pinned {
        const char *workload;
        check::ArchFingerprint fp;
    };
    const Pinned pinned[] = {
        {"sgemm", {0x32d65b83b2747da8, 0x61318d57205d9565, 287232}},
        {"histo", {0x31b4d59a6e6a32a6, 0xbb3e1d7eeeeb88ec, 48384}},
        {"ha-prob", {0x1ad1263afb0ada4f, 0xaa4ec30e1ca77d93, 32064}},
        {"spmv", {0x473a0dc4fbd664f0, 0x04ac2a181a20edcc, 135892}},
    };
    for (const Pinned &p : pinned) {
        const harness::TracedWorkload &tw = cache().get(p.workload);
        check::ArchFingerprint fp = check::fingerprint(*tw.mem, tw.trace);
        EXPECT_EQ(fp, p.fp) << p.workload << ": " << fp.toString();
    }
}

// --- Differential fuzz campaign -------------------------------------

TEST(FuzzCampaign, GenerationIsDeterministic)
{
    check::FuzzOptions opt;
    opt.seed = 7;
    check::FuzzCampaign c1(opt), c2(opt);
    for (std::uint64_t i = 0; i < 4; ++i) {
        check::FuzzCase a = c1.generate(i);
        check::FuzzCase b = c2.generate(i);
        EXPECT_EQ(a.workload, b.workload);
        EXPECT_EQ(check::FuzzCampaign::describeCase(a),
                  check::FuzzCampaign::describeCase(b));
        EXPECT_EQ(config::KnobRegistry::instance().resultDigest(a.params),
                  config::KnobRegistry::instance().resultDigest(b.params));
        EXPECT_TRUE(a.params.cfg.checkInvariants);
    }
}

TEST(FuzzCampaign, QuickDifferentialCampaignPasses)
{
    // Two seeded cases, all five schemes each, sanitizer + oracle. Any
    // violation fails the test with the full failure report.
    check::FuzzOptions opt;
    opt.seed = 42;
    opt.cases = 2;
    opt.workloads = {"bfs", "spmv"};
    check::FuzzCampaign camp(opt);
    check::FuzzFailure fail;
    bool ok = camp.run(&fail);
    EXPECT_TRUE(ok) << fail.kind << ": " << fail.message;
}

TEST(FuzzCampaign, SeededFailureShrinksToAReplayableSpec)
{
    check::FuzzOptions opt;
    opt.seed = 5;
    check::FuzzCampaign camp(opt);

    // A hand-built failing case with noise knobs the shrinker should
    // strip: the armed rq-hold violation only needs the scheme and a
    // fault-producing policy.
    check::FuzzCase c;
    c.workload = "bfs";
    c.scale = 1;
    c.params = config::RunParams::baseline();
    const auto &reg = config::KnobRegistry::instance();
    reg.find("policy")->set(c.params, config::KnobValue::ofEnum(
                                          "demand-paging"));
    reg.find("sms")->set(c.params, config::KnobValue::ofInt(4));
    reg.find("operand-log-kb")->set(c.params,
                                    config::KnobValue::ofInt(32));
    reg.find("l1tlb.entries")->set(c.params,
                                   config::KnobValue::ofInt(16));
    reg.find("ideal-switch")->set(c.params,
                                  config::KnobValue::ofBool(true));
    c.params.cfg.scheme = gpu::Scheme::ReplayQueue;
    c.params.cfg.checkInvariants = true;
    c.params.cfg.checkViolation = "rq-hold";

    check::FuzzFailure fail;
    ASSERT_FALSE(camp.runCase(c, &fail));
    EXPECT_EQ(fail.kind, "InvariantError");
    EXPECT_NE(fail.message.find("replay-queue hold violation"),
              std::string::npos)
        << fail.message;

    check::FuzzCase shrunk = camp.shrink(fail);
    // The noise knobs reset; the essentials survive.
    EXPECT_EQ(shrunk.params.cfg.scheme, gpu::Scheme::ReplayQueue);
    EXPECT_EQ(shrunk.params.cfg.checkViolation, "rq-hold");
    std::string desc = check::FuzzCampaign::describeCase(shrunk);
    EXPECT_EQ(desc.find("operand-log-kb"), std::string::npos) << desc;
    EXPECT_EQ(desc.find("l1tlb.entries"), std::string::npos) << desc;
    EXPECT_EQ(desc.find("ideal-switch"), std::string::npos) << desc;

    // The shrunk case still fails.
    check::FuzzFailure again;
    EXPECT_FALSE(camp.runCase(shrunk, &again));

    // The repro spec round-trips through the spec loader into params
    // that reproduce the same violation.
    std::string spec = check::FuzzCampaign::reproSpecJson(shrunk);
    EXPECT_NE(spec.find("\"check\": true"), std::string::npos) << spec;
    EXPECT_NE(spec.find("\"check.violate\": \"rq-hold\""),
              std::string::npos)
        << spec;

    check::FuzzCase replay;
    replay.scale = 1;
    replay.params = config::RunParams::baseline();
    reg.applySpecText(
        replay.params, spec, "repro.json",
        [&](const std::string &key, const json::Value &v) {
            if (key == "workload") {
                replay.workload = v.asString();
                return true;
            }
            if (key == "scale") {
                replay.scale = static_cast<int>(v.asNumber());
                return true;
            }
            return false;
        });
    EXPECT_EQ(replay.workload, "bfs");
    check::FuzzFailure replayFail;
    EXPECT_FALSE(camp.runCase(replay, &replayFail));
    EXPECT_EQ(replayFail.kind, "InvariantError");
}

} // namespace
} // namespace gex
