#include "func/functional_sim.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/error.hpp"
#include "common/log.hpp"
#include "sm/coalescer.hpp"

namespace gex::func {

using isa::Instruction;
using isa::kPredTrue;
using isa::kRegZero;
using isa::Opcode;
using isa::SpecialReg;

namespace {

double
asF64(std::uint64_t bits)
{
    double d;
    std::memcpy(&d, &bits, sizeof(d));
    return d;
}

std::uint64_t
asBits(double d)
{
    std::uint64_t bits;
    std::memcpy(&bits, &d, sizeof(bits));
    return bits;
}

} // namespace

/** Per-warp execution state. */
struct FunctionalSim::WarpExec {
    std::uint32_t warpId = 0;
    std::uint32_t laneBase = 0;   ///< first thread index of this warp
    WarpMask launchMask = 0;      ///< lanes that exist (last warp may be partial)
    SimtStack stack;
    WarpMask exited = 0;
    bool atBarrier = false;
    bool done = false;
    std::uint64_t instCount = 0;
};

/** Per-block execution state. */
struct FunctionalSim::BlockExec {
    std::uint32_t blockId = 0;
    std::uint32_t numThreads = 0;
    int regsPerThread = 0;
    std::vector<std::uint64_t> regs;   // [thread][reg]
    std::vector<std::uint8_t> preds;   // [thread] bitmask of P0..P6
    std::vector<std::uint8_t> shared;  // shared memory bytes
    std::vector<WarpExec> warps;

    std::uint64_t &
    reg(std::uint32_t thread, isa::Reg r)
    {
        return regs[thread * static_cast<std::uint32_t>(regsPerThread) + r];
    }

    std::uint64_t
    readReg(std::uint32_t thread, isa::Reg r) const
    {
        if (r == kRegZero)
            return 0;
        return regs[thread * static_cast<std::uint32_t>(regsPerThread) + r];
    }

    bool
    readPred(std::uint32_t thread, isa::PredReg p) const
    {
        if (p == kPredTrue)
            return true;
        return (preds[thread] >> p) & 1;
    }

    void
    writePred(std::uint32_t thread, isa::PredReg p, bool v)
    {
        if (p == kPredTrue)
            return;
        if (v)
            preds[thread] |= static_cast<std::uint8_t>(1u << p);
        else
            preds[thread] &= static_cast<std::uint8_t>(~(1u << p));
    }

    std::uint64_t
    readShared64(std::uint64_t off) const
    {
        GEX_ASSERT(off + 8 <= shared.size(),
                   "shared access out of bounds: %llu",
                   static_cast<unsigned long long>(off));
        std::uint64_t v;
        std::memcpy(&v, shared.data() + off, sizeof(v));
        return v;
    }

    void
    writeShared64(std::uint64_t off, std::uint64_t v)
    {
        GEX_ASSERT(off + 8 <= shared.size(),
                   "shared access out of bounds: %llu",
                   static_cast<unsigned long long>(off));
        std::memcpy(shared.data() + off, &v, sizeof(v));
    }
};

trace::KernelTrace
FunctionalSim::run(const Kernel &kernel)
{
    kernel.program.validate();
    trace::KernelTrace kt;
    std::uint32_t nblocks = kernel.numBlocks();
    kt.blocks.resize(nblocks);
    std::uint64_t traceBytes = 0;
    for (std::uint32_t b = 0; b < nblocks; ++b) {
        kt.blocks[b].blockId = b;
        runBlock(kernel, b, kt.blocks[b]);
        for (auto &w : kt.blocks[b].warps) {
            for (const trace::TraceInst &ti : w.insts()) {
                const Instruction &in = kernel.program.at(ti.staticIdx());
                if (in.isGlobalMem()) {
                    ++kt.memInsts;
                    kt.memRequests += ti.numLines();
                }
            }
            traceBytes += w.bytes();
        }
    }
    kt.stats.set("func.dynamic_warp_insts",
                 static_cast<double>(kt.dynamicInsts()));
    kt.stats.set("func.mem_insts", static_cast<double>(kt.memInsts));
    kt.stats.set("func.mem_requests", static_cast<double>(kt.memRequests));
    kt.stats.set("func.trace_bytes", static_cast<double>(traceBytes));
    kt.stats.set("func.touched_pages",
                 static_cast<double>(mem_.touchedPages()));
    return kt;
}

void
FunctionalSim::runBlock(const Kernel &kernel, std::uint32_t block_id,
                        trace::BlockTrace &out)
{
    const isa::Program &prog = kernel.program;
    BlockExec blk;
    blk.blockId = block_id;
    blk.numThreads = kernel.threadsPerBlock();
    blk.regsPerThread = prog.regsPerThread();
    blk.regs.assign(static_cast<size_t>(blk.numThreads) *
                        static_cast<size_t>(blk.regsPerThread),
                    0);
    blk.preds.assign(blk.numThreads, 0);
    blk.shared.assign(prog.sharedBytes(), 0);

    std::uint32_t nwarps = kernel.warpsPerBlock();
    blk.warps.resize(nwarps);
    out.blockId = block_id;
    out.warps.resize(nwarps);
    for (std::uint32_t w = 0; w < nwarps; ++w) {
        WarpExec &we = blk.warps[w];
        we.warpId = w;
        we.laneBase = w * kWarpSize;
        std::uint32_t lanes =
            std::min<std::uint32_t>(kWarpSize, blk.numThreads - we.laneBase);
        we.launchMask = lanes == kWarpSize
                            ? kFullMask
                            : ((1u << lanes) - 1);
        we.stack.reset(we.launchMask);
    }

    // Warp-at-a-time execution with barrier-driven round robin.
    bool all_done = false;
    while (!all_done) {
        bool progressed = false;
        for (std::uint32_t w = 0; w < nwarps; ++w) {
            WarpExec &we = blk.warps[w];
            while (!we.done && !we.atBarrier) {
                if (!stepWarp(kernel, blk, we, out.warps[w]))
                    break;
                progressed = true;
            }
        }
        all_done = true;
        bool any_waiting = false;
        for (auto &we : blk.warps) {
            if (!we.done)
                all_done = false;
            if (we.atBarrier)
                any_waiting = true;
        }
        if (all_done)
            break;
        if (any_waiting) {
            // Release the barrier when every live warp arrived.
            bool all_arrived = true;
            for (auto &we : blk.warps)
                if (!we.done && !we.atBarrier)
                    all_arrived = false;
            if (all_arrived) {
                for (auto &we : blk.warps)
                    we.atBarrier = false;
                progressed = true;
            }
        }
        if (!progressed)
            throw TraceError(strprintf(
                "functional deadlock in kernel '%s' block %u",
                prog.name().c_str(), block_id));
    }
    for (trace::WarpTrace &w : out.warps)
        w.shrinkToFit();
}

bool
FunctionalSim::stepWarp(const Kernel &kernel, BlockExec &blk, WarpExec &we,
                        trace::WarpTrace &out)
{
    if (we.done || we.atBarrier)
        return false;
    if (we.stack.empty()) {
        we.done = true;
        return false;
    }
    if (++we.instCount > maxWarpInsts_)
        throw TraceError(strprintf(
            "kernel '%s': warp exceeded %llu dynamic instructions",
            kernel.program.name().c_str(),
            static_cast<unsigned long long>(maxWarpInsts_)));

    const isa::Program &prog = kernel.program;
    SimtStack::Entry &e = we.stack.top();
    std::uint32_t pc = e.pc;
    WarpMask mask = e.mask;
    GEX_ASSERT(pc < prog.size(), "pc out of range");
    const Instruction &in = prog.at(pc);

    // Guard predicate: which of the active lanes actually execute.
    WarpMask g = 0;
    if (in.pred == kPredTrue && !in.predNeg) {
        g = mask;
    } else {
        for (int lane = 0; lane < kWarpSize; ++lane) {
            if (!(mask & (1u << lane)))
                continue;
            bool p = blk.readPred(we.laneBase + static_cast<std::uint32_t>(lane),
                                  in.pred);
            if (p != in.predNeg)
                g |= 1u << lane;
        }
    }

    // Trace record fields (line addresses filled below for
    // global-memory ops), appended once the instruction has executed.
    bool arith_fault = false;
    lineScratch_.clear();
    auto append_trace = [&] {
        out.append(prog.name(), pc, g, arith_fault, lineScratch_);
    };

    auto add_lines_for = [&](const std::vector<Addr> &addrs) {
        // Coalesce: one request per unique cache line (paper Fig 5).
        sm::coalesceInto(addrs.data(), addrs.size(), lineScratch_);
    };

    auto lane_reg = [&](int lane, isa::Reg r) {
        return blk.readReg(we.laneBase + static_cast<std::uint32_t>(lane), r);
    };
    auto set_lane_reg = [&](int lane, isa::Reg r, std::uint64_t v) {
        if (r != kRegZero)
            blk.reg(we.laneBase + static_cast<std::uint32_t>(lane), r) = v;
    };
    auto src_b = [&](int lane) -> std::uint64_t {
        return in.useImm ? static_cast<std::uint64_t>(in.imm)
                         : lane_reg(lane, in.srcs[1]);
    };

    bool is_control = in.isControl();
    std::uint32_t next_pc = pc + 1;
    bool stack_handled = false;

    switch (in.op) {
      case Opcode::BRA: {
        WarpMask taken = g;
        WarpMask not_taken = mask & ~g;
        GEX_ASSERT(in.target >= 0);
        auto target = static_cast<std::uint32_t>(in.target);
        if (not_taken == 0) {
            next_pc = target;
        } else if (taken == 0) {
            next_pc = pc + 1;
        } else {
            we.stack.diverge(target, pc + 1, we.stack.scopeTarget(), taken,
                             not_taken);
            stack_handled = true;
        }
        break;
      }
      case Opcode::SSY:
        GEX_ASSERT(in.target >= 0);
        we.stack.pushScope(static_cast<std::uint32_t>(in.target));
        break;
      case Opcode::JOIN:
      case Opcode::MEMBAR:
      case Opcode::NOP:
        break;
      case Opcode::BAR:
        if (mask != (we.launchMask & ~we.exited))
            throw TraceError(strprintf(
                "kernel '%s': divergent barrier at pc %u",
                prog.name().c_str(), pc));
        we.atBarrier = true;
        break;
      case Opcode::EXIT: {
        we.exited |= g;
        we.stack.removeLanes(g);
        if (we.stack.empty()) {
            we.done = true;
            append_trace();
            return true;
        }
        if (g == mask)
            stack_handled = true; // TOS changed; pc already correct
        break;
      }
      case Opcode::MOVI:
        for (int lane = 0; lane < kWarpSize; ++lane)
            if (g & (1u << lane))
                set_lane_reg(lane, in.dst,
                             static_cast<std::uint64_t>(in.imm));
        break;
      case Opcode::MOV:
        for (int lane = 0; lane < kWarpSize; ++lane)
            if (g & (1u << lane))
                set_lane_reg(lane, in.dst, lane_reg(lane, in.srcs[0]));
        break;
      case Opcode::S2R: {
        auto sr = static_cast<SpecialReg>(in.imm);
        for (int lane = 0; lane < kWarpSize; ++lane) {
            if (!(g & (1u << lane)))
                continue;
            std::uint32_t tid = we.laneBase + static_cast<std::uint32_t>(lane);
            std::uint32_t bx = kernel.block.x, by = kernel.block.y;
            std::uint32_t tx = tid % bx;
            std::uint32_t ty = (tid / bx) % by;
            std::uint32_t tz = tid / (bx * by);
            std::uint32_t gx = kernel.grid.x, gy = kernel.grid.y;
            std::uint32_t cx = blk.blockId % gx;
            std::uint32_t cy = (blk.blockId / gx) % gy;
            std::uint32_t cz = blk.blockId / (gx * gy);
            std::uint64_t v = 0;
            switch (sr) {
              case SpecialReg::TidX: v = tx; break;
              case SpecialReg::TidY: v = ty; break;
              case SpecialReg::TidZ: v = tz; break;
              case SpecialReg::NTidX: v = kernel.block.x; break;
              case SpecialReg::NTidY: v = kernel.block.y; break;
              case SpecialReg::NTidZ: v = kernel.block.z; break;
              case SpecialReg::CtaIdX: v = cx; break;
              case SpecialReg::CtaIdY: v = cy; break;
              case SpecialReg::CtaIdZ: v = cz; break;
              case SpecialReg::NCtaIdX: v = kernel.grid.x; break;
              case SpecialReg::NCtaIdY: v = kernel.grid.y; break;
              case SpecialReg::NCtaIdZ: v = kernel.grid.z; break;
              case SpecialReg::LaneId: v = static_cast<std::uint64_t>(lane); break;
              case SpecialReg::WarpId: v = we.warpId; break;
              case SpecialReg::GlobalTid:
                v = static_cast<std::uint64_t>(blk.blockId) *
                        kernel.threadsPerBlock() + tid;
                break;
              default:
                panic("bad special register %d", static_cast<int>(sr));
            }
            set_lane_reg(lane, in.dst, v);
        }
        break;
      }
      case Opcode::LDPARAM:
        GEX_ASSERT(in.imm >= 0 &&
                   static_cast<size_t>(in.imm) < kernel.params.size(),
                   "LDPARAM index out of range");
        for (int lane = 0; lane < kWarpSize; ++lane)
            if (g & (1u << lane))
                set_lane_reg(lane, in.dst,
                             kernel.params[static_cast<size_t>(in.imm)]);
        break;
      case Opcode::IADD: case Opcode::ISUB: case Opcode::IMUL:
      case Opcode::IMIN: case Opcode::IMAX: case Opcode::AND:
      case Opcode::OR: case Opcode::XOR: case Opcode::SHL:
      case Opcode::SHR: {
        for (int lane = 0; lane < kWarpSize; ++lane) {
            if (!(g & (1u << lane)))
                continue;
            auto a = static_cast<std::int64_t>(lane_reg(lane, in.srcs[0]));
            auto b = static_cast<std::int64_t>(src_b(lane));
            std::int64_t r = 0;
            switch (in.op) {
              // Integer add/sub/mul wrap (two's complement), as on the
              // hardware; compute unsigned to keep the wrap defined.
              case Opcode::IADD:
                r = static_cast<std::int64_t>(static_cast<std::uint64_t>(a) +
                                              static_cast<std::uint64_t>(b));
                break;
              case Opcode::ISUB:
                r = static_cast<std::int64_t>(static_cast<std::uint64_t>(a) -
                                              static_cast<std::uint64_t>(b));
                break;
              case Opcode::IMUL:
                r = static_cast<std::int64_t>(static_cast<std::uint64_t>(a) *
                                              static_cast<std::uint64_t>(b));
                break;
              case Opcode::IMIN: r = std::min(a, b); break;
              case Opcode::IMAX: r = std::max(a, b); break;
              case Opcode::AND: r = a & b; break;
              case Opcode::OR: r = a | b; break;
              case Opcode::XOR: r = a ^ b; break;
              case Opcode::SHL:
                r = static_cast<std::int64_t>(
                    static_cast<std::uint64_t>(a) << (b & 63));
                break;
              case Opcode::SHR:
                r = static_cast<std::int64_t>(
                    static_cast<std::uint64_t>(a) >> (b & 63));
                break;
              default: break;
            }
            set_lane_reg(lane, in.dst, static_cast<std::uint64_t>(r));
        }
        break;
      }
      case Opcode::NOT:
        for (int lane = 0; lane < kWarpSize; ++lane)
            if (g & (1u << lane))
                set_lane_reg(lane, in.dst, ~lane_reg(lane, in.srcs[0]));
        break;
      case Opcode::IMAD:
        for (int lane = 0; lane < kWarpSize; ++lane) {
            if (!(g & (1u << lane)))
                continue;
            auto a = static_cast<std::int64_t>(lane_reg(lane, in.srcs[0]));
            auto b = static_cast<std::int64_t>(lane_reg(lane, in.srcs[1]));
            auto c = static_cast<std::int64_t>(lane_reg(lane, in.srcs[2]));
            set_lane_reg(lane, in.dst,
                         static_cast<std::uint64_t>(a * b + c));
        }
        break;
      case Opcode::FADD: case Opcode::FSUB: case Opcode::FMUL:
      case Opcode::FMIN: case Opcode::FMAX: {
        for (int lane = 0; lane < kWarpSize; ++lane) {
            if (!(g & (1u << lane)))
                continue;
            double a = asF64(lane_reg(lane, in.srcs[0]));
            double b = asF64(src_b(lane));
            double r = 0;
            switch (in.op) {
              case Opcode::FADD: r = a + b; break;
              case Opcode::FSUB: r = a - b; break;
              case Opcode::FMUL: r = a * b; break;
              case Opcode::FMIN: r = std::fmin(a, b); break;
              case Opcode::FMAX: r = std::fmax(a, b); break;
              default: break;
            }
            set_lane_reg(lane, in.dst, asBits(r));
        }
        break;
      }
      case Opcode::FFMA:
        for (int lane = 0; lane < kWarpSize; ++lane) {
            if (!(g & (1u << lane)))
                continue;
            double a = asF64(lane_reg(lane, in.srcs[0]));
            double b = asF64(lane_reg(lane, in.srcs[1]));
            double c = asF64(lane_reg(lane, in.srcs[2]));
            set_lane_reg(lane, in.dst, asBits(std::fma(a, b, c)));
        }
        break;
      case Opcode::FRCP: case Opcode::FRSQ: case Opcode::FSQRT:
      case Opcode::FSIN: case Opcode::FCOS: case Opcode::FEXP2:
      case Opcode::FLOG2: {
        for (int lane = 0; lane < kWarpSize; ++lane) {
            if (!(g & (1u << lane)))
                continue;
            double a = asF64(lane_reg(lane, in.srcs[0]));
            double r = 0;
            switch (in.op) {
              case Opcode::FRCP:
                if (a == 0.0)
                    arith_fault = true;
                r = 1.0 / a;
                break;
              case Opcode::FRSQ:
                if (a <= 0.0)
                    arith_fault = true;
                r = 1.0 / std::sqrt(a);
                break;
              case Opcode::FSQRT:
                if (a < 0.0)
                    arith_fault = true;
                r = std::sqrt(a);
                break;
              case Opcode::FSIN: r = std::sin(a); break;
              case Opcode::FCOS: r = std::cos(a); break;
              case Opcode::FEXP2: r = std::exp2(a); break;
              case Opcode::FLOG2:
                if (a <= 0.0)
                    arith_fault = true;
                r = std::log2(a);
                break;
              default: break;
            }
            set_lane_reg(lane, in.dst, asBits(r));
        }
        break;
      }
      case Opcode::FDIV:
        for (int lane = 0; lane < kWarpSize; ++lane) {
            if (!(g & (1u << lane)))
                continue;
            double a = asF64(lane_reg(lane, in.srcs[0]));
            double b = asF64(src_b(lane));
            if (b == 0.0)
                arith_fault = true;
            set_lane_reg(lane, in.dst, asBits(a / b));
        }
        break;
      case Opcode::I2F:
        for (int lane = 0; lane < kWarpSize; ++lane)
            if (g & (1u << lane))
                set_lane_reg(lane, in.dst,
                             asBits(static_cast<double>(
                                 static_cast<std::int64_t>(
                                     lane_reg(lane, in.srcs[0])))));
        break;
      case Opcode::F2I:
        for (int lane = 0; lane < kWarpSize; ++lane)
            if (g & (1u << lane))
                set_lane_reg(lane, in.dst,
                             static_cast<std::uint64_t>(
                                 static_cast<std::int64_t>(
                                     asF64(lane_reg(lane, in.srcs[0])))));
        break;
      case Opcode::SETP: {
        for (int lane = 0; lane < kWarpSize; ++lane) {
            if (!(g & (1u << lane)))
                continue;
            bool r;
            if (in.fcmp) {
                double a = asF64(lane_reg(lane, in.srcs[0]));
                double b = asF64(src_b(lane));
                switch (in.cmp) {
                  case isa::Cmp::EQ: r = a == b; break;
                  case isa::Cmp::NE: r = a != b; break;
                  case isa::Cmp::LT: r = a < b; break;
                  case isa::Cmp::LE: r = a <= b; break;
                  case isa::Cmp::GT: r = a > b; break;
                  default: r = a >= b; break;
                }
            } else {
                auto a = static_cast<std::int64_t>(lane_reg(lane, in.srcs[0]));
                auto b = static_cast<std::int64_t>(src_b(lane));
                switch (in.cmp) {
                  case isa::Cmp::EQ: r = a == b; break;
                  case isa::Cmp::NE: r = a != b; break;
                  case isa::Cmp::LT: r = a < b; break;
                  case isa::Cmp::LE: r = a <= b; break;
                  case isa::Cmp::GT: r = a > b; break;
                  default: r = a >= b; break;
                }
            }
            blk.writePred(we.laneBase + static_cast<std::uint32_t>(lane),
                          in.predDst, r);
        }
        break;
      }
      case Opcode::PSETP: {
        for (int lane = 0; lane < kWarpSize; ++lane) {
            if (!(g & (1u << lane)))
                continue;
            std::uint32_t t = we.laneBase + static_cast<std::uint32_t>(lane);
            bool a = blk.readPred(t, in.predA);
            bool b = blk.readPred(t, in.predB);
            bool r;
            switch (in.plogic) {
              case isa::PLogic::And: r = a && b; break;
              case isa::PLogic::Or: r = a || b; break;
              case isa::PLogic::Xor: r = a != b; break;
              default: r = !a; break;
            }
            blk.writePred(t, in.predDst, r);
        }
        break;
      }
      case Opcode::SEL:
        for (int lane = 0; lane < kWarpSize; ++lane) {
            if (!(g & (1u << lane)))
                continue;
            std::uint32_t t = we.laneBase + static_cast<std::uint32_t>(lane);
            bool p = blk.readPred(t, in.predA);
            set_lane_reg(lane, in.dst,
                         p ? lane_reg(lane, in.srcs[0])
                           : lane_reg(lane, in.srcs[1]));
        }
        break;
      case Opcode::LD_GLOBAL: {
        std::vector<Addr> &addrs = addrScratch_;
        addrs.clear();
        for (int lane = 0; lane < kWarpSize; ++lane) {
            if (!(g & (1u << lane)))
                continue;
            Addr a = lane_reg(lane, in.srcs[0]) +
                     static_cast<std::uint64_t>(in.imm);
            addrs.push_back(a);
            set_lane_reg(lane, in.dst, mem_.read64(a));
        }
        add_lines_for(addrs);
        break;
      }
      case Opcode::ST_GLOBAL: {
        std::vector<Addr> &addrs = addrScratch_;
        addrs.clear();
        for (int lane = 0; lane < kWarpSize; ++lane) {
            if (!(g & (1u << lane)))
                continue;
            Addr a = lane_reg(lane, in.srcs[0]) +
                     static_cast<std::uint64_t>(in.imm);
            addrs.push_back(a);
            mem_.write64(a, lane_reg(lane, in.srcs[1]));
        }
        add_lines_for(addrs);
        break;
      }
      case Opcode::LD_SHARED:
        for (int lane = 0; lane < kWarpSize; ++lane) {
            if (!(g & (1u << lane)))
                continue;
            std::uint64_t off = lane_reg(lane, in.srcs[0]) +
                                static_cast<std::uint64_t>(in.imm);
            set_lane_reg(lane, in.dst, blk.readShared64(off));
        }
        break;
      case Opcode::ST_SHARED:
        for (int lane = 0; lane < kWarpSize; ++lane) {
            if (!(g & (1u << lane)))
                continue;
            std::uint64_t off = lane_reg(lane, in.srcs[0]) +
                                static_cast<std::uint64_t>(in.imm);
            blk.writeShared64(off, lane_reg(lane, in.srcs[1]));
        }
        break;
      case Opcode::ATOM_ADD: case Opcode::ATOM_MIN: case Opcode::ATOM_MAX:
      case Opcode::ATOM_EXCH: {
        std::vector<Addr> &addrs = addrScratch_;
        addrs.clear();
        for (int lane = 0; lane < kWarpSize; ++lane) {
            if (!(g & (1u << lane)))
                continue;
            Addr a = lane_reg(lane, in.srcs[0]) +
                     static_cast<std::uint64_t>(in.imm);
            addrs.push_back(a);
            auto old = static_cast<std::int64_t>(mem_.read64(a));
            auto v = static_cast<std::int64_t>(lane_reg(lane, in.srcs[1]));
            std::int64_t nv;
            switch (in.op) {
              case Opcode::ATOM_ADD: nv = old + v; break;
              case Opcode::ATOM_MIN: nv = std::min(old, v); break;
              case Opcode::ATOM_MAX: nv = std::max(old, v); break;
              default: nv = v; break;
            }
            mem_.write64(a, static_cast<std::uint64_t>(nv));
            set_lane_reg(lane, in.dst, static_cast<std::uint64_t>(old));
        }
        add_lines_for(addrs);
        break;
      }
      case Opcode::ATOM_CAS: {
        std::vector<Addr> &addrs = addrScratch_;
        addrs.clear();
        for (int lane = 0; lane < kWarpSize; ++lane) {
            if (!(g & (1u << lane)))
                continue;
            Addr a = lane_reg(lane, in.srcs[0]) +
                     static_cast<std::uint64_t>(in.imm);
            addrs.push_back(a);
            std::uint64_t old = mem_.read64(a);
            if (old == lane_reg(lane, in.srcs[1]))
                mem_.write64(a, lane_reg(lane, in.srcs[2]));
            set_lane_reg(lane, in.dst, old);
        }
        add_lines_for(addrs);
        break;
      }
      case Opcode::ALLOC: {
        std::vector<Addr> &addrs = addrScratch_;
        addrs.clear();
        for (int lane = 0; lane < kWarpSize; ++lane) {
            if (!(g & (1u << lane)))
                continue;
            std::uint64_t sz = lane_reg(lane, in.srcs[0]);
            Addr p = mem_.allocFromHeap(sz);
            set_lane_reg(lane, in.dst, p);
        }
        // Timing-wise the bump is an atomic on the heap cursor word.
        if (g)
            addrs.push_back(mem_.heapCursorAddr());
        add_lines_for(addrs);
        break;
      }
      default:
        panic("unimplemented opcode %d", static_cast<int>(in.op));
    }

    append_trace();
    (void)is_control;

    if (!stack_handled) {
        if (!we.stack.advance(next_pc))
            we.done = true;
    } else if (we.stack.empty()) {
        we.done = true;
    }
    return true;
}

} // namespace gex::func
