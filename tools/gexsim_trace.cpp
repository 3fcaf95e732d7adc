/**
 * @file
 * gexsim-trace: run a kernel with the pipeline observer attached and
 * export the instruction-lifecycle event stream as a Chrome-trace
 * (Perfetto) JSON file — each SM a process, each warp a track,
 * instructions as issue→commit slices, scheme events (fetch barriers,
 * TLB checks, faults, squashes, replays, context switches) as
 * instants.
 *
 *   gexsim-trace --trace-out out.json
 *   gexsim-trace --workload sgemm --scheme wd-lastcheck \
 *                --policy resident --trace-out sgemm.json --view 40
 *
 * The machine knobs come from the knob registry, but with
 * trace-friendly defaults: a small vector-add under the replay-queue
 * scheme with demand paging on a single SM, so the default trace shows
 * squash + replay at the page faults. Load the output at
 * https://ui.perfetto.dev or chrome://tracing. Run with --help for the
 * full flag list.
 */

#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>

#include "config/cli.hpp"
#include "gex.hpp"

using namespace gex;

namespace {

/** Two-block vector add whose inputs span several pages. */
func::Kernel
makeVecadd(func::GlobalMemory &mem, vm::AddressSpace &as, int scale)
{
    kasm::KernelBuilder b("vecadd");
    b.setNumParams(3);
    b.s2r(0, isa::SpecialReg::GlobalTid);
    b.ldparam(1, 0); // a
    b.ldparam(2, 1); // b
    b.ldparam(3, 2); // out
    b.shli(4, 0, 3); // byte offset
    b.iadd(5, 1, 4);
    b.ldGlobal(6, 5); // a[i]
    b.iadd(5, 2, 4);
    b.ldGlobal(7, 5); // b[i]
    b.fadd(8, 6, 7);
    b.iadd(5, 3, 4);
    b.stGlobal(5, 0, 8);
    b.exit();

    const std::uint32_t blocks = 2 * static_cast<std::uint32_t>(scale);
    const std::uint32_t threads = 256;
    const std::uint64_t n = static_cast<std::uint64_t>(blocks) * threads;
    func::Kernel k;
    k.program = b.build();
    k.grid = {blocks, 1, 1};
    k.block = {threads, 1, 1};
    Addr a = as.allocate(n * 8), bb = as.allocate(n * 8),
         out = as.allocate(n * 8);
    k.params = {a, bb, out};
    k.buffers = {{"a", a, n * 8, func::BufferKind::Input},
                 {"b", bb, n * 8, func::BufferKind::Input},
                 {"out", out, n * 8, func::BufferKind::Output}};
    for (std::uint64_t i = 0; i < n; ++i) {
        mem.writeF64(a + i * 8, static_cast<double>(i));
        mem.writeF64(bb + i * 8, 1.0);
    }
    return k;
}

/** Forward each event to both consumers. */
class TeeObserver : public obs::PipelineObserver
{
  public:
    TeeObserver(obs::PipelineObserver &a, obs::PipelineObserver &b)
        : a_(a), b_(b)
    {}
    void
    event(const obs::PipeEvent &e) override
    {
        a_.event(e);
        b_.event(e);
    }

  private:
    obs::PipelineObserver &a_;
    obs::PipelineObserver &b_;
};

int
toolMain(int argc, char **argv)
{
    std::string traceOut;
    std::string workload = "vecadd"; ///< in-process default, makeVecadd
    int scale = 1;
    int view = 0; ///< also print the last N events as a table

    // Trace-friendly knob defaults, applied before parse() so any
    // --config spec or knob flag overrides them: replay-queue over
    // demand paging shows squash/replay activity, one SM keeps the
    // trace small.
    config::RunParams params;
    params.cfg.scheme = gpu::Scheme::ReplayQueue;
    params.cfg.numSms = 1;
    params.policy = vm::VmPolicy::demandPaging();

    cli::ArgParser p("gexsim-trace",
                     "pipeline event trace exporter (Chrome trace JSON)");
    p.synopsis("gexsim-trace --trace-out FILE [--workload NAME] "
               "[--view N] [knob flags...]");
    p.option("--trace-out", "FILE", "output file (required)",
             [&](const std::string &v) { traceOut = v; });
    p.option("--workload", "NAME",
             "built-in workload, or 'vecadd' (default: a small vector "
             "add built in-process)",
             [&](const std::string &v) { workload = v; }, "workload");
    p.option("--scale", "N", "workload scale factor (default 1)",
             [&](const std::string &v) {
                 scale = cli::parseIntFlag("--scale", v, 1, 1 << 20);
             },
             "scale");
    p.option("--view", "N", "also print the last N pipeline events",
             [&](const std::string &v) {
                 view = cli::parseIntFlag("--view", v, 0, 1 << 20);
             });
    p.bindKnobs(&params);
    p.parse(argc, argv);

    if (traceOut.empty())
        fatal("--trace-out is required (--help for usage)");

    func::GlobalMemory mem;
    vm::AddressSpace as;
    func::Kernel kernel;
    if (workload == "vecadd") {
        kernel = makeVecadd(mem, as, scale);
    } else if (workloads::exists(workload)) {
        kernel = workloads::make(workload, mem, scale).kernel;
    } else {
        fatal("unknown workload '%s'", workload.c_str());
    }
    func::FunctionalSim fsim(mem);
    trace::KernelTrace tr = fsim.run(kernel);

    obs::ChromeTraceWriter trace_writer;
    trace_writer.setProgram(&kernel.program);
    obs::PipelineView pview(
        static_cast<std::size_t>(view > 0 ? view : 1));
    pview.setProgram(&kernel.program);
    TeeObserver tee(trace_writer, pview);

    gpu::Gpu g(params.cfg);
    g.setObserver(view > 0
                      ? static_cast<obs::PipelineObserver *>(&tee)
                      : &trace_writer);
    auto r = g.run(kernel, tr, params.policy);

    std::ofstream out(traceOut);
    if (!out)
        fatal("cannot open '%s' for writing", traceOut.c_str());
    trace_writer.write(out);

    std::printf("workload  %s (scale %d), scheme %s, policy %s\n",
                workload.c_str(), scale,
                gpu::schemeName(params.cfg.scheme),
                vm::policyName(params.policy));
    std::printf("cycles    %llu, instructions %llu, faults %.0f\n",
                static_cast<unsigned long long>(r.cycles),
                static_cast<unsigned long long>(r.instructions),
                r.stats.get("mmu.faults"));
    std::printf("trace     %zu events -> %s\n", trace_writer.eventCount(),
                traceOut.c_str());
    if (view > 0) {
        std::printf("\n");
        pview.render(std::cout);
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return cli::run("gexsim-trace",
                    [&] { return toolMain(argc, argv); });
}
