/**
 * @file
 * Dynamic trace data model: the interface between the execution-driven
 * functional simulator and the cycle-level timing simulator, mirroring
 * the paper's methodology (section 5.1).
 *
 * Memory instructions carry their post-coalescing unique cache-line
 * addresses (what the LSU, TLBs and caches operate on); per-lane
 * addresses are coalesced at trace-generation time by the same rules the
 * hardware coalescing unit applies (one request per unique line).
 *
 * Storage is compact, because trace memory bounds how large a workload
 * can be simulated end to end. A record is 8 bytes: the active mask and
 * one word packing the static index (24 bits), the line count (6 bits)
 * and the arithmetic-fault flag. Lines are stored as 32-bit line
 * numbers, and a record finds its lines through one pool offset kept
 * per kCheckpointEvery records plus the line counts of the records
 * before it. Two limits follow: programs of at most 2^24 instructions
 * and line addresses below 2^39. WarpTrace::append throws TraceError
 * past either.
 */

#ifndef GEX_TRACE_TRACE_HPP
#define GEX_TRACE_TRACE_HPP

#include <array>
#include <bit>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/stats.hpp"
#include "common/types.hpp"

namespace gex::trace {

/** One dynamic warp instruction. */
class TraceInst
{
  public:
    /** Programs are limited to this many static instructions. */
    static constexpr std::uint32_t kMaxStaticIdx = 1u << 24;

    TraceInst() = default;
    /** Pack a record; the caller keeps @p static_idx below
     *  kMaxStaticIdx and @p num_lines at most kWarpSize. */
    TraceInst(std::uint32_t static_idx, WarpMask mask, unsigned num_lines,
              bool arith_fault)
        : active(mask),
          bits_(static_idx | (num_lines << 24) |
                (arith_fault ? kArithBit : 0u))
    {}

    WarpMask active = 0;  ///< lanes that executed (guard included)

    /** pc of the static instruction. */
    std::uint32_t staticIdx() const { return bits_ & (kMaxStaticIdx - 1); }
    /** Coalesced unique lines (mem ops only), at most kWarpSize. */
    unsigned numLines() const { return (bits_ >> 24) & 63u; }
    /** Popcount of active (operand log sizing). */
    unsigned numActive() const { return std::popcount(active); }
    /**
     * Some active lane raised an arithmetic exception (divide by
     * zero, log of a non-positive value, ...). Only meaningful for
     * opcodes with the canRaiseArith trait.
     */
    bool arithFault() const { return (bits_ & kArithBit) != 0; }

  private:
    static constexpr std::uint32_t kArithBit = 1u << 30;
    std::uint32_t bits_ = 0;
};

/** Line addresses of one instruction, expanded for the LSU. */
using LineBuf = std::array<Addr, kWarpSize>;

/** The full dynamic instruction stream of one warp. */
class WarpTrace
{
  public:
    /** Records per line-pool checkpoint. */
    static constexpr std::uint32_t kCheckpointEvery = 32;
    /** Line addresses must lie below this (32-bit line numbers). */
    static constexpr Addr kMaxLineAddr = (Addr{1} << 32) * kLineSize;

    /**
     * Append the next instruction of kernel @p kernel (named in
     * errors) at @p pc, with its coalesced, line-aligned addresses.
     * Throws TraceError when the pc or a line address does not fit
     * the record format.
     */
    void append(const std::string &kernel, std::uint32_t pc,
                WarpMask active, bool arith_fault,
                std::span<const Addr> lines);

    /** Release the spare capacity of a finished warp's vectors. */
    void shrinkToFit();

    std::size_t size() const { return insts_.size(); }
    const TraceInst &inst(std::uint32_t i) const { return insts_[i]; }
    std::span<const TraceInst> insts() const { return insts_; }
    /** Lines stored for the whole warp (sum of numLines()). */
    std::size_t lineCount() const { return linePool_.size(); }

    /** Byte line addresses of instruction @p i, expanded into @p buf. */
    std::span<const Addr>
    lines(std::uint32_t i, LineBuf &buf) const
    {
        const unsigned n = insts_[i].numLines();
        if (n == 0)
            return {};
        std::uint32_t off = checkpoints_[i / kCheckpointEvery];
        for (std::uint32_t j = i - i % kCheckpointEvery; j < i; ++j)
            off += insts_[j].numLines();
        for (unsigned k = 0; k < n; ++k)
            buf[k] = Addr{linePool_[off + k]} * kLineSize;
        return {buf.data(), n};
    }

    /** Allocated bytes of the records, line pool and checkpoints. */
    std::uint64_t bytes() const;

  private:
    std::vector<TraceInst> insts_;
    /** Line numbers (address / kLineSize), in instruction order. */
    std::vector<std::uint32_t> linePool_;
    /** linePool_ offset of every kCheckpointEvery-th record. */
    std::vector<std::uint32_t> checkpoints_;
};

/** All warps of one thread block, in warp-id order. */
struct BlockTrace {
    std::uint32_t blockId = 0;   ///< linearized block index
    std::vector<WarpTrace> warps;

    std::uint64_t dynamicInsts() const;
};

/** The whole kernel: one BlockTrace per launched thread block. */
struct KernelTrace {
    std::vector<BlockTrace> blocks;
    StatSet stats;  ///< functional-execution statistics

    std::uint64_t dynamicInsts() const;
    std::uint64_t dynamicMemInsts() const { return memInsts; }

    std::uint64_t memInsts = 0;      ///< global memory instructions
    std::uint64_t memRequests = 0;   ///< post-coalescing line requests
};

} // namespace gex::trace

#endif // GEX_TRACE_TRACE_HPP
