#include "check/oracle.hpp"

#include "common/error.hpp"
#include "common/log.hpp"
#include "func/functional_sim.hpp"
#include "func/memory.hpp"
#include "gpu/gpu.hpp"
#include "trace/trace.hpp"
#include "workloads/workloads.hpp"

namespace gex::check {

namespace {

constexpr std::uint64_t kFnvOffset = 14695981039346656037ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

void
mix(std::uint64_t &h, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i) {
        h ^= (v >> (i * 8)) & 0xff;
        h *= kFnvPrime;
    }
}

} // namespace

std::string
ArchFingerprint::toString() const
{
    return strprintf("mem %016llx, trace %016llx, %llu insts",
                     static_cast<unsigned long long>(memDigest),
                     static_cast<unsigned long long>(traceDigest),
                     static_cast<unsigned long long>(dynamicInsts));
}

std::uint64_t
traceDigest(const trace::KernelTrace &trace)
{
    std::uint64_t h = kFnvOffset;
    for (const trace::BlockTrace &bt : trace.blocks) {
        mix(h, bt.blockId);
        for (const trace::WarpTrace &wt : bt.warps) {
            mix(h, wt.size());
            trace::LineBuf buf;
            for (std::uint32_t i = 0; i < wt.size(); ++i) {
                const trace::TraceInst &ti = wt.inst(i);
                mix(h, ti.staticIdx());
                mix(h, static_cast<std::uint64_t>(ti.active));
                mix(h, (static_cast<std::uint64_t>(ti.numLines()) << 17) ^
                           ti.numActive() ^
                           (ti.arithFault() ? 1ull << 40 : 0));
                for (Addr line : wt.lines(i, buf))
                    mix(h, line);
            }
        }
    }
    return h;
}

ArchFingerprint
fingerprint(const func::GlobalMemory &mem, const trace::KernelTrace &trace)
{
    ArchFingerprint fp;
    fp.memDigest = mem.digest();
    fp.traceDigest = traceDigest(trace);
    fp.dynamicInsts = trace.dynamicInsts();
    return fp;
}

ArchOracle::ArchOracle(std::string workload, int scale,
                       const func::GlobalMemory &mem,
                       const trace::KernelTrace &trace)
    : workload_(std::move(workload)), scale_(scale),
      ref_(fingerprint(mem, trace))
{
}

void
ArchOracle::verifyReplay() const
{
    func::GlobalMemory mem;
    workloads::Workload wl = workloads::make(workload_, mem, scale_);
    func::FunctionalSim sim(mem);
    trace::KernelTrace replay = sim.run(wl.kernel);
    ArchFingerprint fp = fingerprint(mem, replay);
    if (fp == ref_)
        return;
    ErrorContext ctx;
    ctx.workload = workload_;
    throw InvariantError(
        strprintf("architectural oracle: functional replay diverged "
                  "from the reference execution (replay: %s; "
                  "reference: %s)",
                  fp.toString().c_str(), ref_.toString().c_str()),
        std::move(ctx));
}

} // namespace gex::check
