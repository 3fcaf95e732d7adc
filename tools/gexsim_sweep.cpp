/**
 * @file
 * gexsim-sweep: the one grid runner. Expands an experiment grid
 * (workloads x ordered knob axes, harness/experiment.hpp) onto the
 * parallel sweep engine, prints it as one normalized table, and
 * optionally exports the full result set — per-run stats included — as
 * a BENCH_*.json document (schema: docs/METRICS.md) carrying the base
 * configuration's resolved_config manifest.
 *
 *   gexsim-sweep --config experiments/fig10.json --jobs 4
 *   gexsim-sweep --config experiments/faultsim-quick.json --json out.json
 *   gexsim-sweep --workloads sgemm,lbm --schemes baseline,replay-queue \
 *                --policy demand-paging --link pcie
 *
 * Without `axes`, --schemes (default all five) is one scheme axis
 * normalized to its first scheme. Run with --help for every flag and
 * spec key.
 */

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "config/cli.hpp"
#include "gex.hpp"

using namespace gex;

namespace {

/** Report name: the last spec file's stem, else "gexsim_sweep". */
std::string
reportName(const std::vector<std::string> &configFiles)
{
    return configFiles.empty()
               ? "gexsim_sweep"
               : std::filesystem::path(configFiles.back()).stem().string();
}

int
toolMain(int argc, char **argv)
{
    harness::Experiment exp;
    config::RunParams params;
    std::string resumePath, jsonPath;
    int retries = 1;
    int jobs = 1;
    bool listWorkloads = false;

    cli::ArgParser p("gexsim-sweep", "experiment grid runner");
    p.synopsis("gexsim-sweep [--config spec.json] [--suite S | "
               "--workloads A,B] [--schemes A,B] [knob flags...]");
    exp.addOptions(p);
    p.option("--jobs", "N", "worker threads (default 1; 0 = all cores)",
             [&](const std::string &v) {
                 jobs = cli::parseIntFlag("--jobs", v, 0, 4096);
             });
    p.option("--json", "FILE", "write the full result set as JSON",
             [&](const std::string &v) { jsonPath = v; });
    p.option("--resume", "FILE",
             "campaign journal: record every finished point there and "
             "skip points already in it (--json output is then "
             "byte-identical to an uninterrupted run at any --jobs)",
             [&](const std::string &v) { resumePath = v; });
    p.option("--retries", "N",
             "retries for transiently failed points (default 1)",
             [&](const std::string &v) {
                 retries = cli::parseIntFlag("--retries", v, 0, 100);
             },
             "retries");
    p.flag("--list", "list built-in workloads",
           [&] { listWorkloads = true; });
    p.bindKnobs(&params);
    p.parse(argc, argv);

    if (listWorkloads) {
        for (const auto &n : workloads::allNames())
            std::printf("%s\n", n.c_str());
        return 0;
    }

    std::vector<harness::RunSpec> points = exp.expand(params);
    harness::SweepEngine eng(jobs);
    eng.setMaxRetries(retries);
    harness::CampaignJournal journal(resumePath);
    if (journal.active()) {
        std::size_t loaded = journal.load();
        if (loaded)
            std::printf("resume: %zu completed points in %s\n", loaded,
                        journal.path().c_str());
        eng.setJournal(&journal);
    }
    for (harness::RunSpec &rs : points)
        eng.add(std::move(rs));

    const std::string name = reportName(p.configFiles());
    std::printf("%s: %zu runs, %d jobs\n", name.c_str(), eng.size(),
                eng.jobs());

    auto t0 = std::chrono::steady_clock::now();
    std::vector<harness::RunRecord> runs = eng.run();
    auto t1 = std::chrono::steady_clock::now();
    double wall = std::chrono::duration<double>(t1 - t0).count();

    exp.normalize(runs);
    exp.printTable(runs);
    std::printf("wall time: %.2fs (%d jobs, %zu traces)\n", wall,
                eng.jobs(), eng.traces().size());

    if (!jsonPath.empty()) {
        harness::SweepReport rep;
        rep.name = name;
        rep.jobs = eng.jobs();
        rep.wallSeconds = wall;
        rep.deterministic = journal.active();
        rep.baseConfig = params;
        rep.geomeans = exp.geomeans(runs);
        rep.runs = std::move(runs);
        rep.saveJson(jsonPath);
        std::printf("wrote %s\n", jsonPath.c_str());
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return cli::run("gexsim-sweep",
                    [&] { return toolMain(argc, argv); });
}
