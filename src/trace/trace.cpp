#include "trace/trace.hpp"

#include <cstdint>

#include "common/error.hpp"
#include "common/log.hpp"

namespace gex::trace {

void
WarpTrace::append(const std::string &kernel, std::uint32_t pc,
                  WarpMask active, bool arith_fault,
                  std::span<const Addr> lines)
{
    if (pc >= TraceInst::kMaxStaticIdx)
        throw TraceError(strprintf(
            "kernel '%s': pc %u does not fit the trace's 24-bit "
            "instruction index (programs are limited to 2^24 "
            "instructions)",
            kernel.c_str(), pc));
    GEX_ASSERT(lines.size() <= static_cast<std::size_t>(kWarpSize),
               "%zu lines for one warp instruction", lines.size());
    if (linePool_.size() + lines.size() > UINT32_MAX)
        throw TraceError(strprintf(
            "kernel '%s' pc %u: a warp's line pool exceeds 2^32 entries",
            kernel.c_str(), pc));

    for (Addr l : lines) {
        if (l >= kMaxLineAddr)
            throw TraceError(strprintf(
                "kernel '%s' pc %u: line address 0x%llx does not fit "
                "the trace (line addresses are limited to 2^39)",
                kernel.c_str(), pc, static_cast<unsigned long long>(l)));
        GEX_ASSERT(l % kLineSize == 0, "unaligned line address");
    }

    if (insts_.size() % kCheckpointEvery == 0)
        checkpoints_.push_back(static_cast<std::uint32_t>(linePool_.size()));
    for (Addr l : lines)
        linePool_.push_back(static_cast<std::uint32_t>(l / kLineSize));
    insts_.emplace_back(pc, active, static_cast<unsigned>(lines.size()),
                        arith_fault);
}

void
WarpTrace::shrinkToFit()
{
    insts_.shrink_to_fit();
    linePool_.shrink_to_fit();
    checkpoints_.shrink_to_fit();
}

std::uint64_t
WarpTrace::bytes() const
{
    return insts_.capacity() * sizeof(TraceInst) +
           linePool_.capacity() * sizeof(std::uint32_t) +
           checkpoints_.capacity() * sizeof(std::uint32_t);
}

std::uint64_t
BlockTrace::dynamicInsts() const
{
    std::uint64_t n = 0;
    for (const auto &w : warps)
        n += w.size();
    return n;
}

std::uint64_t
KernelTrace::dynamicInsts() const
{
    std::uint64_t n = 0;
    for (const auto &b : blocks)
        n += b.dynamicInsts();
    return n;
}

} // namespace gex::trace
