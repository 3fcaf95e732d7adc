/**
 * @file
 * Self-measuring simulator-throughput harness (gexsim-throughput):
 * runs a fixed grid of timing simulations, serially and through the
 * parallel sweep engine, and reports simulated kcycles per wall
 * second on this host. Compare two builds by running both on the same
 * host: the simulated results themselves are pinned bit-identical by
 * the golden-stats test, so the only thing allowed to move here is
 * wall time. One timing on a shared host is one draw from a wide
 * spread, so each phase runs kRepeats times (kQuickRepeats under
 * --quick) and every rate is reported as the median and quartiles
 * over those repeats.
 *
 *     gexsim-throughput [--quick] [--jobs N] [--json FILE]
 *
 * --quick runs a 5-point subset (CI smoke),
 * --jobs N sets sweep-engine workers (0 = all cores), --json FILE
 * writes the measurements as one BENCH_throughput.json document.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <thread>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "gex.hpp"

using namespace gex;

namespace {

using Clock = std::chrono::steady_clock;

struct Point {
    const char *workload;
    const char *scheme;
    bool demandPaging;
};

/**
 * The standard grid: six workloads under the three heavyweight
 * exception schemes with everything resident, plus two demand-paging
 * points so the fault/TLB/page-walk paths contribute.
 */
const Point kStandardGrid[] = {
    {"bfs", "baseline", false},      {"bfs", "replay-queue", false},
    {"bfs", "operand-log", false},   {"sgemm", "baseline", false},
    {"sgemm", "replay-queue", false},{"sgemm", "operand-log", false},
    {"lbm", "baseline", false},      {"lbm", "replay-queue", false},
    {"lbm", "operand-log", false},   {"histo", "baseline", false},
    {"histo", "replay-queue", false},{"histo", "operand-log", false},
    {"sad", "baseline", false},      {"sad", "replay-queue", false},
    {"sad", "operand-log", false},   {"stencil", "baseline", false},
    {"stencil", "replay-queue", false}, {"stencil", "operand-log", false},
    {"bfs", "replay-queue", true},   {"stencil", "replay-queue", true},
};

/** CI smoke subset: one workload across schemes plus one paging point. */
const Point kQuickGrid[] = {
    {"bfs", "baseline", false},
    {"bfs", "replay-queue", false},
    {"bfs", "operand-log", false},
    {"sgemm", "baseline", false},
    {"bfs", "replay-queue", true},
};

/** Times each phase is repeated (--quick: kQuickRepeats). */
constexpr int kRepeats = 5;
constexpr int kQuickRepeats = 3;

/** Median and quartiles of one measurement over the repeats. */
struct Spread {
    double median = 0;
    double q1 = 0;
    double q3 = 0;
};

/** Linear-interpolation quantiles of @p v (non-empty). */
Spread
spreadOf(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    auto at = [&](double p) {
        const double x = p * static_cast<double>(v.size() - 1);
        const std::size_t i = static_cast<std::size_t>(x);
        const double f = x - static_cast<double>(i);
        return i + 1 < v.size() ? v[i] + f * (v[i + 1] - v[i]) : v[i];
    };
    return {at(0.5), at(0.25), at(0.75)};
}

/** Simulated work of a grid point or a phase, and its wall times. */
struct Timed {
    std::uint64_t cycles = 0;
    std::uint64_t instructions = 0;
    std::vector<double> wallSeconds; ///< one entry per repeat

    /** Record one repeat; its simulated work must match the first's. */
    void
    add(std::uint64_t c, std::uint64_t insts, double wall,
        const std::string &what)
    {
        if (wallSeconds.empty()) {
            cycles = c;
            instructions = insts;
        } else if (c != cycles || insts != instructions) {
            fatal("%s: repeat %zu simulated %llu cycles / %llu "
                  "instructions, the first %llu / %llu",
                  what.c_str(), wallSeconds.size() + 1,
                  static_cast<unsigned long long>(c),
                  static_cast<unsigned long long>(insts),
                  static_cast<unsigned long long>(cycles),
                  static_cast<unsigned long long>(instructions));
        }
        wallSeconds.push_back(wall);
    }

    /** @p work per wall second, over the repeats. */
    Spread
    rate(double work) const
    {
        std::vector<double> r;
        for (double s : wallSeconds)
            r.push_back(s > 0 ? work / s : 0);
        return spreadOf(std::move(r));
    }

    Spread kcyclesPerSec() const { return rate(cycles / 1e3); }
    Spread instsPerSec() const
    {
        return rate(static_cast<double>(instructions));
    }
};

struct PointResult {
    const Point *pt;
    Timed t;
};

std::string
pointName(const Point &pt)
{
    return std::string(pt.workload) + "/" + pt.scheme +
           (pt.demandPaging ? "/paging" : "");
}

gpu::GpuConfig
configFor(const Point &pt)
{
    gpu::GpuConfig cfg = gpu::GpuConfig::baseline();
    cfg.scheme = gpu::schemeFromName(pt.scheme);
    return cfg;
}

vm::VmPolicy
policyFor(const Point &pt)
{
    return pt.demandPaging ? vm::VmPolicy::demandPaging()
                           : vm::VmPolicy::allResident();
}

/**
 * The grid on this thread, @p repeats times over, one simulation per
 * point, each individually timed. A repeat's phase time is the sum of
 * its points' times.
 */
std::vector<PointResult>
runSerial(harness::TraceCache &cache, const Point *grid, std::size_t n,
          int repeats, Timed &phase)
{
    std::vector<PointResult> results(n);
    for (int rep = 0; rep < repeats; ++rep) {
        double wall = 0;
        std::uint64_t cycles = 0;
        std::uint64_t insts = 0;
        for (std::size_t i = 0; i < n; ++i) {
            const Point &pt = grid[i];
            const harness::TracedWorkload &tw = cache.get(pt.workload);
            auto t0 = Clock::now();
            gpu::Gpu g(configFor(pt));
            gpu::SimResult r = g.run(tw.kernel, tw.trace, policyFor(pt));
            auto t1 = Clock::now();

            const double s = std::chrono::duration<double>(t1 - t0).count();
            results[i].pt = &pt;
            results[i].t.add(r.cycles, r.instructions, s, pointName(pt));
            wall += s;
            cycles += r.cycles;
            insts += r.instructions;
        }
        phase.add(cycles, insts, wall, "serial phase");
    }
    return results;
}

/** The same grid through the sweep engine's thread pool. */
Timed
runSweep(harness::SweepEngine &eng, const Point *grid, std::size_t n,
         int repeats)
{
    Timed phase;
    for (int rep = 0; rep < repeats; ++rep) {
        for (std::size_t i = 0; i < n; ++i) {
            const Point &pt = grid[i];
            harness::RunSpec rs;
            rs.workload = pt.workload;
            rs.cfg = configFor(pt);
            rs.policy = policyFor(pt);
            rs.series = std::string(pt.scheme) +
                        (pt.demandPaging ? "/paging" : "");
            eng.add(std::move(rs));
        }
        auto t0 = Clock::now();
        std::vector<harness::RunRecord> runs = eng.run();
        auto t1 = Clock::now();

        std::uint64_t cycles = 0;
        std::uint64_t insts = 0;
        for (const harness::RunRecord &rr : runs) {
            cycles += rr.result.cycles;
            insts += rr.result.instructions;
        }
        phase.add(cycles, insts,
                  std::chrono::duration<double>(t1 - t0).count(),
                  "sweep phase");
    }
    return phase;
}

void
writeSpread(json::Writer &w, const char *key, const Spread &s)
{
    w.key(key).beginObject();
    w.key("median").value(s.median);
    w.key("q1").value(s.q1);
    w.key("q3").value(s.q3);
    w.endObject();
}

/** Keys shared by a phase and a point: work, n and the spreads. */
void
writeTimed(json::Writer &w, const Timed &t)
{
    w.key("cycles").value(t.cycles);
    w.key("instructions").value(t.instructions);
    w.key("n").value(static_cast<std::uint64_t>(t.wallSeconds.size()));
    writeSpread(w, "wall_seconds", spreadOf(t.wallSeconds));
    writeSpread(w, "kcycles_per_sec", t.kcyclesPerSec());
}

void
printPhase(const char *name, std::size_t points, const Timed &t)
{
    const Spread wall = spreadOf(t.wallSeconds);
    const Spread k = t.kcyclesPerSec();
    std::printf("%-6s  %2zu pts  x%zu  wall median %7.3fs  kcycles/s "
                "median %8.2f  (quartiles %.2f-%.2f)",
                name, points, t.wallSeconds.size(), wall.median, k.median,
                k.q1, k.q3);
}

void
writeJson(const std::string &path, bool quick, int jobs,
          const std::vector<PointResult> &points, const Timed &serial,
          const Timed &sweep)
{
    std::ofstream os(path);
    if (!os)
        fatal("cannot open %s for writing", path.c_str());

    json::Writer w(os);
    w.beginObject();
    w.key("name").value("throughput");
    // The machine every grid point starts from (scheme/policy axes
    // are per-point, listed in "points").
    w.key("resolved_config");
    config::KnobRegistry::instance().writeManifest(
        w, config::RunParams::baseline());
    // Wall-clock context: the sweep phase scales with host cores.
    w.key("host_cpus")
        .value(static_cast<std::uint64_t>(
            std::thread::hardware_concurrency()));
    w.key("grid").value(quick ? "quick" : "standard");
    w.key("grid_points").value(static_cast<std::uint64_t>(points.size()));

    // Every rate and time is the median and quartiles over n repeats.
    w.key("serial").beginObject();
    writeTimed(w, serial);
    writeSpread(w, "insts_per_sec", serial.instsPerSec());
    w.endObject();

    w.key("sweep").beginObject();
    w.key("jobs").value(jobs);
    writeTimed(w, sweep);
    writeSpread(w, "insts_per_sec", sweep.instsPerSec());
    w.endObject();

    w.key("points").beginArray();
    for (const PointResult &pr : points) {
        w.beginObject();
        w.key("workload").value(pr.pt->workload);
        w.key("scheme").value(pr.pt->scheme);
        w.key("policy").value(pr.pt->demandPaging ? "demand-paging"
                                                  : "all-resident");
        writeTimed(w, pr.t);
        w.endObject();
    }
    w.endArray();
    w.endObject();
    std::printf("[wrote %s]\n", path.c_str());
}

} // namespace

static int
toolMain(int argc, char **argv)
{
    bool quick = false;
    int jobs = 0; // sweep phase defaults to all cores
    std::string jsonPath;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc)
                fatal("flag %s needs a value", a.c_str());
            return argv[++i];
        };
        if (a == "--quick") quick = true;
        else if (a == "--jobs")
            jobs = cli::parseIntFlag("--jobs", next(), 0, 4096);
        else if (a == "--json") jsonPath = next();
        else if (a == "--help" || a == "-h") {
            std::printf("gexsim-throughput [--quick] [--jobs N] "
                        "[--json FILE]\n");
            return 0;
        } else {
            fatal("unknown flag '%s' (accepted: --quick, --jobs N, "
                  "--json FILE)", a.c_str());
        }
    }

    const Point *grid = quick ? kQuickGrid : kStandardGrid;
    const std::size_t n = quick ? std::size(kQuickGrid)
                                : std::size(kStandardGrid);

    // Functional tracing is one-time setup, not timing-loop work;
    // build every trace before both measured phases.
    harness::SweepEngine eng(jobs);
    for (std::size_t i = 0; i < n; ++i)
        (void)eng.traces().get(grid[i].workload);

    const int repeats = quick ? kQuickRepeats : kRepeats;
    Timed serial;
    std::vector<PointResult> points =
        runSerial(eng.traces(), grid, n, repeats, serial);
    printPhase("serial", n, serial);
    std::printf("\n");

    Timed sweep = runSweep(eng, grid, n, repeats);
    printPhase("sweep", n, sweep);
    std::printf("  jobs=%d\n", eng.jobs());

    if (!jsonPath.empty())
        writeJson(jsonPath, quick, eng.jobs(), points, serial, sweep);
    return 0;
}

int
main(int argc, char **argv)
{
    return cli::run("throughput", [&] { return toolMain(argc, argv); });
}
