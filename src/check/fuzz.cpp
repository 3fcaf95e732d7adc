#include "check/fuzz.hpp"

#include <sstream>

#include "check/oracle.hpp"
#include "common/error.hpp"
#include "common/json.hpp"
#include "common/log.hpp"
#include "gpu/gpu.hpp"
#include "inject/rng.hpp"

namespace gex::check {

namespace {

/** Write a knob value with its native JSON type. */
void
writeKnobValue(json::Writer &w, const config::Knob &k,
               const config::KnobValue &v)
{
    switch (k.type) {
      case config::KnobType::Int:
        if (v.i >= 0)
            w.value(static_cast<std::uint64_t>(v.i));
        else
            w.value(static_cast<int>(v.i));
        break;
      case config::KnobType::Real:
        w.value(v.r);
        break;
      case config::KnobType::Bool:
        w.value(v.b);
        break;
      case config::KnobType::Enum:
        w.value(v.e);
        break;
    }
}

} // namespace

FuzzCampaign::FuzzCampaign(FuzzOptions opt) : opt_(std::move(opt))
{
    if (opt_.workloads.empty())
        opt_.workloads = defaultWorkloads();
}

const std::vector<std::string> &
FuzzCampaign::defaultWorkloads()
{
    // Small, fast kernels covering the behaviours the invariants care
    // about: coalesced and scattered memory, atomics, divergence,
    // barriers, SFU arithmetic (arith exceptions), and the allocator.
    static const std::vector<std::string> kPool = [] {
        std::vector<std::string> pool;
        for (const char *name :
             {"sgemm", "spmv", "bfs", "histo", "stencil", "mri-q",
              "ha-prob"})
            if (workloads::exists(name))
                pool.emplace_back(name);
        GEX_ASSERT(!pool.empty(), "no fuzz workloads registered");
        return pool;
    }();
    return kPool;
}

FuzzCase
FuzzCampaign::generate(std::uint64_t index) const
{
    FuzzCase c;
    c.index = index;
    c.scale = 1;
    c.params = config::RunParams::baseline();

    const inject::CounterRng rng(opt_.seed, index);
    const auto &reg = config::KnobRegistry::instance();
    auto setEnum = [&](const char *name, const std::string &v) {
        reg.find(name)->set(c.params, config::KnobValue::ofEnum(v));
    };
    auto setInt = [&](const char *name, std::int64_t v) {
        reg.find(name)->set(c.params, config::KnobValue::ofInt(v));
    };
    auto setReal = [&](const char *name, double v) {
        reg.find(name)->set(c.params, config::KnobValue::ofReal(v));
    };
    auto setBool = [&](const char *name, bool v) {
        reg.find(name)->set(c.params, config::KnobValue::ofBool(v));
    };

    c.workload = opt_.workloads[static_cast<std::size_t>(
        rng.at(0) % opt_.workloads.size())];

    // Residency policy: where faults come from.
    static const char *kPolicies[] = {"resident", "demand-paging",
                                      "output-faults", "heap-faults"};
    setEnum("policy", kPolicies[rng.at(1) % 4]);

    // Fault model layered on top of the policy.
    static const char *kModels[] = {"none", "bernoulli", "burst",
                                    "hot-page"};
    const char *model = kModels[rng.at(2) % 4];
    setEnum("inject.model", model);
    if (std::string(model) != "none") {
        static const double kRates[] = {1e-4, 5e-4, 1e-3};
        setReal("inject.rate", kRates[rng.at(3) % 3]);
        setInt("inject.seed",
               static_cast<std::int64_t>(rng.at(4) % 100000));
    }

    // UC1 block switching and the arithmetic-exception extension.
    if (rng.realAt(5) < 0.5)
        setBool("block-switching", true);
    if (rng.realAt(6) < 0.25)
        setBool("ideal-switch", true);
    if (rng.realAt(7) < 0.5)
        setBool("arith-exceptions", true);

    // Machine-shape knobs that stress the checked structures: LSU
    // queue (replay pressure), TLB reach (fault paths), operand-log
    // capacity (back-pressure), SM count (event interleaving).
    static const std::int64_t kLsuDepths[] = {4, 8, 16};
    setInt("sm.lsu-queue-depth", kLsuDepths[rng.at(8) % 3]);
    static const std::int64_t kTlbEntries[] = {8, 16, 64};
    setInt("l1tlb.entries", kTlbEntries[rng.at(9) % 3]);
    static const std::int64_t kLogKb[] = {16, 32, 64};
    setInt("operand-log-kb", kLogKb[rng.at(10) % 3]);
    setInt("sms", 2 + static_cast<std::int64_t>(rng.at(11) % 3));

    // Self-checking contract of every fuzz run.
    c.params.cfg.checkInvariants = true;
    c.params.cfg.watchdogCaptureEvents = opt_.captureEvents;
    return c;
}

bool
FuzzCampaign::runScheme(const FuzzCase &c, gpu::Scheme scheme,
                        FuzzFailure *fail)
{
    const harness::TracedWorkload &tw = cache_.get(c.workload, c.scale);
    config::RunParams p = c.params;
    p.cfg.scheme = scheme;
    try {
        gpu::Gpu g(p.cfg);
        g.run(tw.kernel, tw.trace, p.policy);
    } catch (const GexError &e) {
        if (fail) {
            fail->c = c;
            fail->c.params.cfg.scheme = scheme;
            fail->kind = e.kind();
            fail->message = e.report();
        }
        return false;
    }
    return true;
}

bool
FuzzCampaign::runCase(const FuzzCase &c, FuzzFailure *fail)
{
    // Oracle piece 1: the functional execution itself is reproducible.
    const harness::TracedWorkload &tw = cache_.get(c.workload, c.scale);
    const ArchOracle oracle(c.workload, c.scale, *tw.mem, tw.trace);
    try {
        oracle.verifyReplay();
    } catch (const GexError &e) {
        if (fail) {
            fail->c = c;
            fail->kind = e.kind();
            fail->message = e.report();
        }
        return false;
    }
    for (gpu::Scheme s : gpu::allSchemes())
        if (!runScheme(c, s, fail))
            return false;
    return true;
}

bool
FuzzCampaign::run(FuzzFailure *fail,
                  const std::function<void(const FuzzCase &, bool)>
                      &progress)
{
    for (int i = 0; i < opt_.cases; ++i) {
        FuzzCase c = generate(static_cast<std::uint64_t>(i));
        FuzzFailure ff;
        const bool ok = runCase(c, &ff);
        if (progress)
            progress(c, ok);
        if (!ok) {
            if (fail)
                *fail = ff;
            return false;
        }
    }
    return true;
}

FuzzCase
FuzzCampaign::shrink(const FuzzFailure &f)
{
    FuzzCase best = f.c;
    const gpu::Scheme scheme = best.params.cfg.scheme;
    const auto &reg = config::KnobRegistry::instance();

    // Reset order: biggest simplification first (fault model, then the
    // behaviour switches, then machine shape). Every reset that keeps
    // the case failing under the pinned scheme is kept.
    static const char *kResets[] = {
        "inject.model",     "inject.rate",   "inject.seed",
        "block-switching",  "ideal-switch",  "arith-exceptions",
        "policy",           "operand-log-kb", "sm.lsu-queue-depth",
        "l1tlb.entries",    "sms",
    };
    for (const char *name : kResets) {
        const config::Knob *k = reg.find(name);
        if (!k || k->get(best.params) == k->def)
            continue;
        FuzzCase cand = best;
        k->set(cand.params, k->def);
        cand.params.cfg.scheme = scheme; // presets never touch it
        if (!runScheme(cand, scheme, nullptr))
            best = cand;
    }
    best.params.cfg.scheme = scheme;
    return best;
}

std::string
FuzzCampaign::reproSpecJson(const FuzzCase &c)
{
    std::ostringstream os;
    json::Writer w(os);
    w.beginObject();
    w.key("workload").value(c.workload);
    w.key("scale").value(static_cast<std::uint64_t>(c.scale));
    // Non-default knobs only, in registry order; presets are skipped
    // (their component knobs already carry the exact state). Exec-only
    // knobs (check, check.violate) are included: the repro must re-arm
    // the checkers that tripped.
    for (const config::Knob &k : config::KnobRegistry::instance().knobs()) {
        if (k.preset)
            continue;
        const config::KnobValue v = k.get(c.params);
        if (v == k.def)
            continue;
        w.key(k.name);
        writeKnobValue(w, k, v);
    }
    w.endObject();
    return os.str();
}

std::string
FuzzCampaign::describeCase(const FuzzCase &c)
{
    std::string out = strprintf("%s x%d", c.workload.c_str(), c.scale);
    for (const config::Knob &k : config::KnobRegistry::instance().knobs()) {
        if (k.preset)
            continue;
        const config::KnobValue v = k.get(c.params);
        if (v == k.def)
            continue;
        out += strprintf(" %s=%s", k.name.c_str(), v.toString().c_str());
    }
    return out;
}

} // namespace gex::check
