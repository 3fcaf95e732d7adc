/**
 * @file
 * gexbench: end-to-end and per-layer benchmark of the gexsim library.
 *
 *     gexbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
 *              [--size full|smoke] [--spans FILE] [--commit SHA]
 *
 * One run of one workload in a fresh process. A run makes one warm-up
 * pass and then repeats full passes — workloads::make, then
 * FunctionalSim::run, then one Gpu per point (or SweepEngine::run for
 * the grid workload), then the output check — until --seconds have
 * passed, and reports the median of each per-pass figure. Host times
 * are scaled to a nominal host speed with a reference computation
 * timed between passes (see referenceSeconds()).
 *
 * --trace 0 prints the end-to-end metrics. --trace 1 alternates
 * untraced and traced passes: a traced pass records a span around
 * every call into a library module and attaches a counting pipeline
 * observer; it prints the per-layer metrics, writes the spans as
 * Chrome-trace JSON to --spans, and reports the tracing overhead.
 *
 * Every point of every pass is checked: it must finish, commit exactly
 * its trace's dynamic instruction count, and produce the same StatSet
 * digest as the point's first execution in the process (so traced and
 * untraced passes are bit-identical). The last stdout line is
 *     {"correct": B, "attempted": N, "failed": N, "metrics": {...}}
 * preceded by one report line with provenance, per-point digests and
 * per-span self times. Exit 0 when every check passed, 1 when one
 * failed, 2 on a usage error.
 */

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "gex.hpp"

using namespace gex;

namespace {

double
now()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** Peak resident set of the process so far, in MB. */
double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

double
median(std::vector<double> xs)
{
    if (xs.empty())
        return 0.0;
    std::sort(xs.begin(), xs.end());
    std::size_t n = xs.size();
    return n % 2 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0.0;
}

/** FNV-1a over every scalar's name and value bits (sorted order). */
std::uint64_t
digestStats(const StatSet &s)
{
    std::uint64_t h = 1469598103934665603ull;
    auto mix = [&h](const void *p, std::size_t n) {
        const auto *b = static_cast<const unsigned char *>(p);
        for (std::size_t i = 0; i < n; ++i) {
            h ^= b[i];
            h *= 1099511628211ull;
        }
    };
    for (const auto &kv : s.scalars()) {
        mix(kv.first.data(), kv.first.size());
        double v = kv.second;
        mix(&v, sizeof v);
    }
    return h;
}

// --------------------------------------------------------------------------
// Host-speed reference

/**
 * Median referenceSeconds() on the 4-core Intel Xeon host where this
 * benchmark was defined. Host times are reported at that speed: each
 * pass's times are multiplied by this over the reference time measured
 * around the pass. Raw times are in the report line.
 */
constexpr double kNominalRefSeconds = 0.215;

/** Checksum of the reference's work, printed so it cannot be elided. */
std::uint64_t referenceChecksum = 0;

/**
 * Seconds taken by a fixed computation that does not use the simulator
 * library: hash-map inserts and lookups, ordered-map searches and a
 * sort over a few MB. It is cache- and branch-bound like the simulator,
 * so its time follows the host's momentary speed, which on a shared
 * host drifts by ±25% over tens of seconds. One sample is taken
 * between every two passes.
 */
double
referenceSeconds()
{
    const double t0 = now();
    std::uint64_t x = 0x9e3779b97f4a7c15ull;
    auto next = [&x] {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        return x;
    };
    constexpr std::uint64_t kKeys = 1u << 17;
    std::unordered_map<std::uint64_t, std::uint64_t> hash;
    hash.reserve(kKeys);
    std::map<std::uint64_t, std::uint64_t> tree;
    std::vector<std::uint64_t> keys;
    keys.reserve(kKeys);
    for (std::uint64_t i = 0; i < kKeys; ++i) {
        std::uint64_t k = next();
        hash[k % 1000003] += i;
        keys.push_back(k);
        if (i % 4 == 0)
            tree[k % 500009] = i;
    }
    std::uint64_t sum = 0;
    for (std::uint64_t i = 0; i < 4 * kKeys; ++i) {
        std::uint64_t k = next();
        auto it = hash.find(k % 1000003);
        sum += it != hash.end() ? it->second : k;
        if (k & 1) {
            auto jt = tree.lower_bound(k % 500009);
            if (jt != tree.end())
                sum += jt->second;
        }
    }
    std::sort(keys.begin(), keys.end());
    referenceChecksum = sum + keys[keys.size() / 2];
    return now() - t0;
}

// --------------------------------------------------------------------------
// Spans

struct Span {
    std::string name;
    double start = 0;
    double end = 0;
    int parent = -1;
};

/** In-memory span recorder; records nothing while off. */
struct Tracer {
    bool on = false;
    std::vector<Span> spans;
    std::vector<int> open;
};

/**
 * Times one call into a module: adds its duration to @p acc and, while
 * the tracer is on, records it as a span under the innermost open one.
 */
class Timed
{
  public:
    Timed(Tracer &tr, const char *name, double *acc = nullptr)
        : tr_(tr), acc_(acc), t0_(now())
    {
        if (!tr_.on)
            return;
        id_ = static_cast<int>(tr_.spans.size());
        tr_.spans.push_back(
            {name, t0_, 0, tr_.open.empty() ? -1 : tr_.open.back()});
        tr_.open.push_back(id_);
    }

    ~Timed()
    {
        double t = now();
        if (acc_)
            *acc_ += t - t0_;
        if (id_ >= 0) {
            tr_.spans[id_].end = t;
            tr_.open.pop_back();
        }
    }

    Timed(const Timed &) = delete;
    Timed &operator=(const Timed &) = delete;

  private:
    Tracer &tr_;
    double *acc_;
    double t0_;
    int id_ = -1;
};

/** Counts pipeline events per kind (the `obs` layer's work). */
class CountingObserver : public obs::PipelineObserver
{
  public:
    void
    event(const obs::PipeEvent &e) override
    {
        ++counts[static_cast<int>(e.kind)];
    }

    std::array<std::uint64_t, obs::kNumPipeEventKinds> counts{};
};

// --------------------------------------------------------------------------
// Workloads

struct PointDef {
    std::string workload;
    int scale = 1;
    gpu::GpuConfig cfg;
    vm::VmPolicy policy;

    std::string
    label() const
    {
        return workload + "x" + std::to_string(scale) + "/" +
               gpu::schemeName(cfg.scheme) + "/" +
               vm::policyName(policy) +
               (cfg.blockSwitching ? "+uc1" : "") +
               (policy.inject.enabled() ? "+ft" : "");
    }
};

struct WorkloadDef {
    std::string name;
    std::vector<PointDef> points;
    /** SweepEngine workers; 0 runs the points directly, one Gpu each. */
    int jobs = 0;
};

PointDef
point(const std::string &workload, int scale, const char *scheme,
      const char *policy = "resident")
{
    PointDef p;
    p.workload = workload;
    p.scale = scale;
    p.cfg.scheme = gpu::schemeFromName(scheme);
    p.cfg.smThreads = 1;
    p.policy = vm::policyFromName(policy);
    return p;
}

/** First-touch fault injection at rate 0.25 seeded by --seed. */
PointDef
withFirstTouch(PointDef p, std::uint64_t seed)
{
    p.policy.inject.model = inject::ModelKind::FirstTouch;
    p.policy.inject.rate = 0.25;
    p.policy.inject.seed = seed;
    return p;
}

/**
 * The benchmark's workloads; `smoke` shrinks each to its smallest
 * size for the self-test. Only paging-faults depends on @p seed; the
 * others use the library's fixed built-in input generators.
 */
WorkloadDef
defineWorkload(const std::string &name, bool smoke, std::uint64_t seed)
{
    WorkloadDef w;
    w.name = name;
    const int big = smoke ? 1 : 2;
    if (name == "occupied-memory") {
        // 16 resident blocks (64 warps) on every SM, LSU-bound.
        w.points.push_back(point("sad", big, "replay-queue"));
        w.points.push_back(point("sad", big, "operand-log"));
    } else if (name == "paging-faults") {
        PointDef uc1 = point("histo", big, "replay-queue", "demand-paging");
        uc1.cfg.blockSwitching = true;
        w.points.push_back(uc1);
        w.points.push_back(withFirstTouch(
            point("ha-prob", big, "operand-log", "heap-faults-local"),
            seed));
    } else if (name == "large-trace") {
        w.points.push_back(point("sgemm", big, "baseline"));
    } else if (name == "sweep-grid") {
        w.jobs = 2;
        std::vector<std::string> names = {"bfs", "sgemm", "lbm", "cutcp"};
        if (smoke)
            names = {"bfs", "lbm"};
        for (const auto &n : names)
            for (gpu::Scheme s : gpu::allSchemes())
                w.points.push_back(point(n, 1, gpu::schemeName(s)));
    } else {
        throw ConfigError("unknown workload '" + name +
                          "' (occupied-memory, paging-faults, large-trace "
                          "or sweep-grid)");
    }
    return w;
}

// --------------------------------------------------------------------------
// One pass

struct Outcome {
    std::string label;
    bool ok = false;
    std::string error;
    std::uint64_t traceInsts = 0;
    gpu::SimResult result;
};

struct Pass {
    double wall = 0;     ///< first make .. last point checked
    double make = 0;     ///< workloads::make
    double trace = 0;    ///< FunctionalSim::run
    double cache = 0;    ///< TraceCache fill (sweep-grid set-up)
    double construct = 0;
    double run = 0;      ///< Gpu::run
    double harness = 0;  ///< the point loop / SweepEngine::run
    double harnessSelf = 0; ///< harness minus the Gpu calls inside it
    double check = 0;
    double traceRssMb = 0; ///< peak-RSS growth across the set-up
    double ref = 0;        ///< reference seconds around this pass
    std::uint64_t warpInsts = 0;
    std::size_t tracesBuilt = 0;
    std::vector<Outcome> points;
    StatSet totals;

    double setup() const { return make + trace + cache; }

    /** Host time @p t of this pass at the nominal host speed. */
    double at(double t) const { return t * kNominalRefSeconds / ref; }
};

struct Built {
    std::unique_ptr<func::GlobalMemory> mem;
    func::Kernel kernel;
    trace::KernelTrace trace;
};

using BuiltMap = std::map<std::pair<std::string, int>, Built>;

/** workloads::make + FunctionalSim::run for each distinct input. */
BuiltMap
buildInputs(const WorkloadDef &w, Tracer &tr, Pass &p)
{
    BuiltMap built;
    for (const auto &pt : w.points) {
        auto key = std::make_pair(pt.workload, pt.scale);
        if (built.count(key))
            continue;
        Built &b = built[key];
        {
            Timed t(tr, "workloads.make", &p.make);
            b.mem = std::make_unique<func::GlobalMemory>();
            b.kernel = workloads::make(pt.workload, *b.mem, pt.scale).kernel;
        }
        {
            Timed t(tr, "func.trace", &p.trace);
            b.trace = func::FunctionalSim(*b.mem).run(b.kernel);
        }
    }
    return built;
}

/** Gpu construction + Gpu::run of every point, serially. */
std::vector<Outcome>
runDirect(const WorkloadDef &w, const BuiltMap &built, Tracer &tr,
          Pass &p, obs::PipelineObserver *observer)
{
    std::vector<Outcome> out;
    for (const auto &pt : w.points) {
        const Built &b = built.at({pt.workload, pt.scale});
        Outcome o;
        o.label = pt.label();
        o.traceInsts = b.trace.dynamicInsts();
        try {
            std::unique_ptr<gpu::Gpu> g;
            {
                Timed t(tr, "gpu.construct", &p.construct);
                g = std::make_unique<gpu::Gpu>(pt.cfg);
            }
            g->setObserver(observer);
            Timed t(tr, "gpu.run", &p.run);
            o.result = g->run(b.kernel, b.trace, pt.policy);
            o.ok = true;
        } catch (const GexError &ex) {
            o.error = ex.report();
        } catch (const std::exception &ex) {
            o.error = ex.what();
        }
        out.push_back(std::move(o));
    }
    return out;
}

/** The points of a sweep workload through harness::SweepEngine. */
std::vector<Outcome>
runSweep(const WorkloadDef &w, Tracer &tr, Pass &p)
{
    harness::SweepEngine eng(w.jobs);
    double rss0 = peakRssMb();
    {
        Timed t(tr, "harness.trace_cache", &p.cache);
        for (const auto &pt : w.points)
            eng.traces().get(pt.workload, pt.scale);
    }
    p.traceRssMb = peakRssMb() - rss0;
    p.tracesBuilt = eng.traces().size();
    for (const auto &pt : w.points) {
        harness::RunSpec rs;
        rs.workload = pt.workload;
        rs.scale = pt.scale;
        rs.cfg = pt.cfg;
        rs.policy = pt.policy;
        eng.add(std::move(rs));
    }
    std::vector<harness::RunRecord> recs;
    {
        Timed t(tr, "harness.run", &p.harness);
        recs = eng.run();
    }
    std::vector<Outcome> out;
    for (std::size_t i = 0; i < recs.size(); ++i) {
        const auto &pt = w.points[i];
        Outcome o;
        o.label = pt.label();
        o.traceInsts =
            eng.traces().get(pt.workload, pt.scale).trace.dynamicInsts();
        o.ok = recs[i].ok();
        o.error = recs[i].error;
        o.result = std::move(recs[i].result);
        out.push_back(std::move(o));
    }
    std::set<std::pair<std::string, int>> distinct;
    for (const auto &pt : w.points)
        if (distinct.insert({pt.workload, pt.scale}).second)
            p.warpInsts += eng.traces()
                               .get(pt.workload, pt.scale)
                               .trace.dynamicInsts();
    return out;
}

/**
 * Per-point checks shared by every pass. @p firstDigest holds each
 * point's digest from its first execution in this process.
 */
int
checkPoints(Pass &p, std::vector<std::uint64_t> &firstDigest)
{
    int failed = 0;
    for (std::size_t i = 0; i < p.points.size(); ++i) {
        Outcome &o = p.points[i];
        std::string why;
        if (!o.ok) {
            why = "status not ok: " + o.error;
        } else {
            auto committed = static_cast<std::uint64_t>(
                o.result.stats.get("sm.insts_committed"));
            std::uint64_t d = digestStats(o.result.stats);
            if (committed != o.traceInsts)
                why = "committed " + std::to_string(committed) +
                      " != trace " + std::to_string(o.traceInsts);
            else if (firstDigest.size() <= i)
                firstDigest.push_back(d);
            else if (firstDigest[i] != d)
                why = "stats digest differs from the point's first run";
        }
        if (!why.empty()) {
            ++failed;
            o.ok = false;
            std::fprintf(stderr, "gexbench: check failed: %s: %s\n",
                         o.label.c_str(), why.c_str());
        } else {
            p.totals.merge(o.result.stats);
        }
    }
    return failed;
}

// --------------------------------------------------------------------------
// Reporting

struct Metric {
    std::string name;
    double value;
    const char *unit;
};

std::vector<Metric>
endToEnd(const WorkloadDef &w, const std::vector<Pass> &passes,
         std::uint64_t attempted, std::uint64_t failed)
{
    std::vector<double> wall, setup, kcps;
    for (const auto &p : passes) {
        wall.push_back(p.at(p.wall));
        setup.push_back(p.at(p.setup()));
        double host = p.at(w.jobs ? p.harness : p.run);
        kcps.push_back(ratio(p.totals.get("gpu.cycles"), host) / 1e3);
    }
    return {
        {"wall_s", median(wall), "s"},
        {"setup_s", median(setup), "s"},
        {"sim_kcycles_per_s", median(kcps), "kcycles/s"},
        {"peak_rss_mb", peakRssMb(), "MB"},
        {"sim_cycles", passes.front().totals.get("gpu.cycles"), "cycles"},
        {"ok_ratio",
         ratio(static_cast<double>(attempted - failed),
               static_cast<double>(attempted)),
         "ratio"},
    };
}

std::vector<Metric>
perLayer(const WorkloadDef &w, const std::vector<Pass> &traced,
         const std::vector<Pass> &untraced, double firstTraceRssMb,
         const CountingObserver &obsCounts)
{
    auto med = [&](const std::function<double(const Pass &)> &f) {
        std::vector<double> xs;
        for (const auto &p : traced)
            xs.push_back(f(p));
        return median(xs);
    };
    // Median over traced passes of one host-time field, speed-scaled.
    auto medAt = [&](double Pass::*field) {
        return med([field](const Pass &p) { return p.at(p.*field); });
    };
    const Pass &p0 = traced.front();
    const StatSet &s = p0.totals;
    double points = static_cast<double>(w.points.size());
    double runS = medAt(&Pass::run);
    double issued = s.get("sm.insts_issued");
    double attempts = issued + s.get("sm.stall_scoreboard") +
                      s.get("sm.stall_lsu_queue") + s.get("sm.stall_log");
    double cycles = s.get("gpu.cycles");
    double insts = s.get("gpu.instructions");
    std::vector<double> uw, refs;
    for (const auto &p : untraced) {
        uw.push_back(p.at(p.wall));
        refs.push_back(p.ref);
    }
    for (const auto &p : traced)
        refs.push_back(p.ref);
    auto perPass = [&](obs::PipeEventKind k) {
        return static_cast<double>(obsCounts.counts[static_cast<int>(k)]) /
               static_cast<double>(traced.size());
    };
    double obsIssued = perPass(obs::PipeEventKind::Issued);
    return {
        {"workloads.build_s", medAt(&Pass::make), "s"},
        {"func.trace_s", medAt(&Pass::trace), "s"},
        {"func.warp_insts", static_cast<double>(p0.warpInsts), "insts"},
        {"func.minsts_per_s",
         med([](const Pass &p) {
             return ratio(static_cast<double>(p.warpInsts), p.at(p.trace)) /
                    1e6;
         }),
         "Minsts/s"},
        {"func.trace_rss_mb", firstTraceRssMb, "MB"},
        {"gpu.construct_s", medAt(&Pass::construct), "s"},
        {"gpu.run_s", runS, "s"},
        {"gpu.ns_per_cycle", ratio(runS * 1e9, cycles), "ns"},
        {"gpu.ns_per_inst", ratio(runS * 1e9, insts), "ns"},
        {"sm.insts_issued", issued, "count"},
        {"sm.fetches", s.get("sm.fetches"), "count"},
        {"sm.stall_scoreboard", s.get("sm.stall_scoreboard"), "count"},
        {"sm.stall_lsu_queue", s.get("sm.stall_lsu_queue"), "count"},
        {"sm.stall_log", s.get("sm.stall_log"), "count"},
        {"sm.issue_yield", ratio(issued, attempts), "ratio"},
        {"sm.ns_per_issue_attempt", ratio(runS * 1e9, attempts), "ns"},
        {"sm.faults_reacted", s.get("sm.faults_reacted"), "count"},
        {"sm.faults_joined", s.get("sm.faults_joined"), "count"},
        {"sm.switch_outs", s.get("sm.switch_outs"), "count"},
        {"sm.context_bytes_moved", s.get("sm.context_bytes_moved"), "B"},
        {"sm.squash_ratio",
         ratio(perPass(obs::PipeEventKind::Squashed), obsIssued), "ratio"},
        {"mem.l1_hit_ratio",
         ratio(s.get("l1.hits"), s.get("l1.hits") + s.get("l1.misses")),
         "ratio"},
        {"mem.l2_hit_ratio",
         ratio(s.get("l2.hits"), s.get("l2.hits") + s.get("l2.misses")),
         "ratio"},
        {"mem.l1_mshr_stalls", s.get("l1.mshr_stalls"), "count"},
        {"mem.dram_bytes", s.get("dram.bytes"), "B"},
        {"mem.lsu_requests", s.get("lsu.requests"), "count"},
        {"vm.l1tlb_hit_ratio",
         ratio(s.get("l1tlb.hits"),
               s.get("l1tlb.hits") + s.get("l1tlb.misses")),
         "ratio"},
        {"vm.l2tlb_misses", s.get("l2tlb.misses"), "count"},
        {"vm.walks", s.get("mmu.walks"), "count"},
        {"vm.faults", s.get("mmu.faults"), "count"},
        {"vm.joined_faults", s.get("mmu.joined_faults"), "count"},
        {"vm.faulted_requests", s.get("lsu.faulted_requests"), "count"},
        {"vm.migrated_bytes", s.get("hostlink.bytes_migrated"), "B"},
        {"vm.gpu_handled_faults", s.get("gpuhandler.faults"), "count"},
        {"inject.faults_injected", s.get("inject.faults_injected"), "count"},
        {"inject.walks_considered", s.get("inject.walks_considered"),
         "count"},
        {"resil.replays_total", s.get("resil.replays_total"), "count"},
        {"resil.fault_blocked_warp_cycles",
         s.get("resil.fault_blocked_warp_cycles"), "cycles"},
        {"harness.run_s", medAt(&Pass::harness), "s"},
        {"harness.self_s", medAt(&Pass::harnessSelf), "s"},
        {"harness.points_per_s",
         med([&](const Pass &p) { return ratio(points, p.at(p.harness)); }),
         "1/s"},
        {"harness.trace_share",
         ratio(points, static_cast<double>(p0.tracesBuilt)), "ratio"},
        {"obs.fetched", perPass(obs::PipeEventKind::Fetched), "count"},
        {"obs.issued", obsIssued, "count"},
        {"obs.squashed", perPass(obs::PipeEventKind::Squashed), "count"},
        {"obs.replayed", perPass(obs::PipeEventKind::Replayed), "count"},
        {"obs.committed", perPass(obs::PipeEventKind::Committed), "count"},
        {"obs.log_allocated", perPass(obs::PipeEventKind::LogAllocated),
         "count"},
        {"obs.context_saved", perPass(obs::PipeEventKind::ContextSaved),
         "count"},
        {"check_s", medAt(&Pass::check), "s"},
        {"trace.overhead_s", medAt(&Pass::wall) - median(uw), "s"},
        {"host.ref_s", median(refs), "s"},
    };
}

// --------------------------------------------------------------------------
// Passes

struct Tally {
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::uint64_t> firstDigest;
};

/**
 * Traced sweep passes only: re-run every grid point directly, outside
 * the engine, so the gpu and obs layers get spans and event counts.
 * Each point must reproduce the engine's result bit for bit.
 */
void
attribute(const WorkloadDef &w, Tracer &tr, Pass &p,
          obs::PipelineObserver *observer, Tally &tally)
{
    Timed t(tr, "attribution");
    BuiltMap built = buildInputs(w, tr, p);
    std::vector<Outcome> direct = runDirect(w, built, tr, p, observer);
    for (std::size_t i = 0; i < direct.size(); ++i) {
        ++tally.attempted;
        if (!direct[i].ok || !p.points[i].ok ||
            digestStats(direct[i].result.stats) !=
                digestStats(p.points[i].result.stats)) {
            ++tally.failed;
            std::fprintf(stderr,
                         "gexbench: check failed: %s: direct run differs "
                         "from the sweep engine's\n",
                         direct[i].label.c_str());
        }
    }
}

Pass
runPass(const WorkloadDef &w, Tracer &tr, CountingObserver *observer,
        Tally &tally)
{
    Pass p;
    double t0 = now();
    Timed whole(tr, "pass");
    if (w.jobs) {
        p.points = runSweep(w, tr, p);
        p.harnessSelf = p.harness;
    } else {
        double rss0 = peakRssMb();
        BuiltMap built = buildInputs(w, tr, p);
        p.traceRssMb = peakRssMb() - rss0;
        p.tracesBuilt = built.size();
        for (const auto &kv : built)
            p.warpInsts += kv.second.trace.dynamicInsts();
        {
            Timed t(tr, "harness.run", &p.harness);
            p.points = runDirect(w, built, tr, p, observer);
        }
        p.harnessSelf = p.harness - p.construct - p.run;
    }
    {
        Timed t(tr, "check", &p.check);
        tally.attempted += p.points.size();
        tally.failed += checkPoints(p, tally.firstDigest);
    }
    p.wall = now() - t0;
    if (w.jobs && observer)
        attribute(w, tr, p, observer, tally);
    return p;
}

// --------------------------------------------------------------------------
// Output

/** Per-name self time (span minus its children), per traced pass. */
std::map<std::string, double>
selfTimes(const Tracer &tr, std::size_t passes)
{
    std::vector<double> self(tr.spans.size());
    for (std::size_t i = 0; i < tr.spans.size(); ++i) {
        const Span &s = tr.spans[i];
        self[i] += s.end - s.start;
        if (s.parent >= 0)
            self[s.parent] -= s.end - s.start;
    }
    std::map<std::string, double> out;
    for (std::size_t i = 0; i < tr.spans.size(); ++i)
        out[tr.spans[i].name] += self[i] / static_cast<double>(passes);
    return out;
}

void
writeSpans(const Tracer &tr, const std::string &path)
{
    std::ofstream os(path);
    if (!os)
        throw ConfigError("cannot write spans to '" + path + "'");
    double t0 = tr.spans.empty() ? 0.0 : tr.spans.front().start;
    json::Writer w(os, -1);
    w.beginObject().key("traceEvents").beginArray();
    for (std::size_t i = 0; i < tr.spans.size(); ++i) {
        const Span &s = tr.spans[i];
        w.beginObject();
        w.key("name").value(s.name);
        w.key("ph").value("X");
        w.key("pid").value(1);
        w.key("tid").value(1);
        w.key("ts").value((s.start - t0) * 1e6);
        w.key("dur").value((s.end - s.start) * 1e6);
        w.key("args").beginObject();
        w.key("id").value(static_cast<int>(i));
        w.key("parent").value(s.parent);
        w.endObject();
        w.endObject();
    }
    w.endArray();
    w.key("displayTimeUnit").value("ms");
    w.endObject();
    os << "\n";
}

void
writeMetrics(json::Writer &w, const std::vector<Metric> &ms)
{
    w.beginObject();
    for (const auto &m : ms) {
        w.key(m.name).beginObject();
        w.key("value").value(m.value);
        w.key("unit").value(m.unit);
        w.endObject();
    }
    w.endObject();
}

std::string
hex(std::uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

struct Options {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    bool smoke = false;
    std::string spans = "gexbench-spans.json";
    std::string commit = "unknown";
};

Options
parseArgs(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        if (i + 1 >= argc)
            throw ConfigError("missing value after '" + a + "'");
        std::string v = argv[++i];
        if (a == "--workload")
            o.workload = v;
        else if (a == "--seed")
            o.seed = static_cast<std::uint64_t>(
                cli::parseInt("--seed", v, 0, INT64_MAX));
        else if (a == "--seconds")
            o.seconds = cli::parseDouble("--seconds", v, 0, 3600);
        else if (a == "--trace")
            o.trace = cli::parseIntFlag("--trace", v, 0, 1) == 1;
        else if (a == "--size" && (v == "full" || v == "smoke"))
            o.smoke = v == "smoke";
        else if (a == "--spans")
            o.spans = v;
        else if (a == "--commit")
            o.commit = v;
        else
            throw ConfigError("bad option '" + a + " " + v + "'");
    }
    if (o.workload.empty())
        throw ConfigError("--workload is required");
    return o;
}

int
benchMain(int argc, char **argv)
{
    const Options opt = parseArgs(argc, argv);
    const WorkloadDef w = defineWorkload(opt.workload, opt.smoke, opt.seed);

    Tally tally;
    Tracer tr;
    CountingObserver counter;
    // Warm-up: lets caches, the allocator and lazy set-up settle; its
    // set-up also gives the trace build's peak-RSS growth.
    // Every pass is bracketed by two reference samples.
    double ref = referenceSeconds();
    auto pass = [&](bool traced) {
        tr.on = traced;
        Pass p = runPass(w, tr, traced ? &counter : nullptr, tally);
        double after = referenceSeconds();
        p.ref = 0.5 * (ref + after);
        ref = after;
        return p;
    };
    const Pass warm = pass(false);

    std::vector<Pass> untraced, traced;
    const double start = now();
    auto more = [&](std::size_t have, std::size_t need) {
        return now() - start < opt.seconds || have < need;
    };
    if (!opt.trace) {
        do
            untraced.push_back(pass(false));
        while (more(untraced.size(), 3));
    } else {
        tr.on = true;
        Timed root(tr, w.name.c_str());
        do {
            untraced.push_back(pass(false));
            traced.push_back(pass(true));
        } while (more(traced.size(), 2));
    }

    std::vector<Metric> metrics =
        opt.trace ? perLayer(w, traced, untraced, warm.traceRssMb, counter)
                  : endToEnd(w, untraced, tally.attempted, tally.failed);

    // Report line: provenance, per-point digests, self times.
    json::Writer r(std::cout, -1);
    r.beginObject().key("report").beginObject();
    r.key("workload").value(w.name);
    r.key("size").value(opt.smoke ? "smoke" : "full");
    r.key("seed").value(opt.seed);
    r.key("host_cpus").value(static_cast<int>(sysconf(_SC_NPROCESSORS_ONLN)));
    r.key("build_type").value(GEXBENCH_BUILD_TYPE);
    r.key("compiler").value(GEXBENCH_COMPILER);
    r.key("commit").value(opt.commit);
    r.key("sweep_jobs").value(w.jobs);
    r.key("sm_threads").value(1);
    r.key("untraced_passes").value(static_cast<int>(untraced.size()));
    r.key("traced_passes").value(static_cast<int>(traced.size()));
    // Raw host times, before the speed scaling.
    std::vector<double> rawWall, rawSetup, rawRun;
    for (const auto &p : untraced) {
        rawWall.push_back(p.wall);
        rawSetup.push_back(p.setup());
        rawRun.push_back(w.jobs ? p.harness : p.run);
    }
    r.key("nominal_ref_s").value(kNominalRefSeconds);
    r.key("ref_checksum").value(referenceChecksum);
    r.key("raw_wall_s").value(median(rawWall));
    r.key("raw_setup_s").value(median(rawSetup));
    r.key("raw_sim_kcycles_per_s")
        .value(ratio(untraced.front().totals.get("gpu.cycles"),
                     median(rawRun)) / 1e3);
    r.key("pass_wall_s").beginArray();
    for (const auto &p : untraced)
        r.value(p.wall);
    r.endArray();
    r.key("pass_ref_s").beginArray();
    for (const auto &p : untraced)
        r.value(p.ref);
    r.endArray();
    r.key("points").beginArray();
    for (std::size_t i = 0; i < warm.points.size(); ++i) {
        const Outcome &o = warm.points[i];
        r.beginObject();
        r.key("label").value(o.label);
        r.key("ok").value(o.ok);
        r.key("cycles").value(static_cast<std::uint64_t>(o.result.cycles));
        r.key("instructions").value(o.result.instructions);
        r.key("digest").value(hex(digestStats(o.result.stats)));
        r.endObject();
    }
    r.endArray();
    r.key("sim_cycles_untraced")
        .value(untraced.front().totals.get("gpu.cycles"));
    if (opt.trace) {
        r.key("sim_cycles_traced")
            .value(traced.front().totals.get("gpu.cycles"));
        r.key("spans_file").value(opt.spans);
        r.key("spans").value(static_cast<std::uint64_t>(tr.spans.size()));
        r.key("self_s").beginObject();
        for (const auto &kv : selfTimes(tr, traced.size()))
            r.key(kv.first).value(kv.second);
        r.endObject();
        writeSpans(tr, opt.spans);
    }
    r.endObject().endObject();
    std::cout << "\n";

    json::Writer out(std::cout, -1);
    out.beginObject();
    out.key("correct").value(tally.failed == 0);
    out.key("attempted").value(tally.attempted);
    out.key("failed").value(tally.failed);
    out.key("metrics");
    writeMetrics(out, metrics);
    out.endObject();
    std::cout << std::endl;
    return tally.failed == 0 ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        return benchMain(argc, argv);
    } catch (const GexError &ex) {
        std::fprintf(stderr, "gexbench: error: %s\n", ex.report().c_str());
        return 2;
    }
}
