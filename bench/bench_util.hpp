/**
 * @file
 * Shared helpers for the figure/table reproduction benches: traced
 * workloads (now provided by the harness layer, see src/harness), a
 * common --jobs/--json command line, and paper-style table printing.
 */

#ifndef GEX_BENCH_BENCH_UTIL_HPP
#define GEX_BENCH_BENCH_UTIL_HPP

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "gex.hpp"

namespace gex::bench {

/** A workload plus its one-time functional trace. */
using TracedWorkload = harness::TracedWorkload;

inline TracedWorkload
buildTraced(const std::string &name, int scale = 1)
{
    return harness::buildTraced(name, scale);
}

inline gpu::SimResult
runConfig(const TracedWorkload &tw, const gpu::GpuConfig &cfg,
          const vm::VmPolicy &policy = vm::VmPolicy::allResident())
{
    gpu::Gpu g(cfg);
    return g.run(tw.kernel, tw.trace, policy);
}

/**
 * Common command line of the sweep-engine benches:
 * --jobs N (worker threads; 0 = all cores) and --json FILE (write the
 * full result set as a BENCH_*.json document).
 */
struct SweepOptions {
    int jobs = 1;
    std::string jsonPath;
};

inline SweepOptions
parseSweepArgs(int argc, char **argv, const char *benchName)
{
    SweepOptions o;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc)
                fatal("flag %s needs a value", a.c_str());
            return argv[++i];
        };
        if (a == "--jobs")
            o.jobs = cli::parseIntFlag("--jobs", next(), 0, 4096);
        else if (a == "--json") o.jsonPath = next();
        else if (a == "--help" || a == "-h") {
            std::printf("%s [--jobs N] [--json FILE]\n", benchName);
            std::exit(0);
        } else {
            fatal("unknown flag '%s' (accepted: --jobs N, --json FILE)",
                  a.c_str());
        }
    }
    return o;
}

/**
 * Time eng.run() and, when --json was given, save a SweepReport with
 * the bench's name, per-run derived metrics and geomean summary.
 * Returns the finished records in add() order. Each entry of
 * @p normalizeTo names a base series; groups containing it get
 * derived["normalized"] = base.cycles / run.cycles. The report's
 * resolved_config manifest records @p base — the machine the bench
 * built its grid from (the swept axes live in the run rows).
 */
inline std::vector<harness::RunRecord>
runAndReport(harness::SweepEngine &eng, const SweepOptions &opt,
             const std::string &benchName,
             const std::vector<std::string> &normalizeTo = {"baseline"},
             const config::RunParams &base = config::RunParams::baseline())
{
    auto t0 = std::chrono::steady_clock::now();
    std::vector<harness::RunRecord> runs = eng.run();
    auto t1 = std::chrono::steady_clock::now();

    for (const std::string &base : normalizeTo)
        harness::normalizeToSeries(runs, base);

    if (!opt.jsonPath.empty()) {
        harness::SweepReport rep;
        rep.name = benchName;
        rep.jobs = eng.jobs();
        rep.wallSeconds = std::chrono::duration<double>(t1 - t0).count();
        rep.baseConfig = base;
        rep.runs = runs;
        rep.geomeans = harness::seriesGeomeans(runs);
        rep.saveJson(opt.jsonPath);
        std::printf("[wrote %s]\n", opt.jsonPath.c_str());
    }
    return runs;
}

/** Print a header row: name column plus the given series labels. */
inline void
printHeader(const std::vector<std::string> &series)
{
    std::printf("%-14s", "benchmark");
    for (const auto &s : series)
        std::printf(" %10s", s.c_str());
    std::printf("\n");
}

inline void
printRow(const std::string &name, const std::vector<double> &values,
         const char *fmt = " %10.3f")
{
    std::printf("%-14s", name.c_str());
    for (double v : values)
        std::printf(fmt, v);
    std::printf("\n");
    std::fflush(stdout);
}

/** Print the geometric-mean row over per-series value columns. */
inline void
printGeomean(const std::vector<std::vector<double>> &columns)
{
    std::printf("%-14s", "GEOMEAN");
    for (const auto &col : columns)
        std::printf(" %10.3f", geomean(col));
    std::printf("\n");
}

} // namespace gex::bench

#endif // GEX_BENCH_BENCH_UTIL_HPP
