/**
 * @file
 * Opcode definitions for the gex GPU ISA.
 *
 * The ISA mimics modern GPU ISAs (paper section 5.1): SIMT execution over
 * a large unified 64-bit register file, explicit divergence-stack
 * management (SSY/JOIN), fused multiply-add, approximate complex math on
 * a special function unit, separate shared/global memory pipelines, and
 * a device-side allocation intrinsic backing the lazy-allocation use
 * case.
 */

#ifndef GEX_ISA_OPCODES_HPP
#define GEX_ISA_OPCODES_HPP

#include <array>
#include <cstddef>
#include <cstdint>
#include <string_view>

#include "common/log.hpp"

namespace gex::isa {

enum class Opcode : std::uint8_t {
    // Integer ALU (math units).
    IADD, ISUB, IMUL, IMAD, IMIN, IMAX,
    AND, OR, XOR, NOT, SHL, SHR,
    // Floating point (math units); values are IEEE double in 64-bit regs.
    FADD, FSUB, FMUL, FFMA, FMIN, FMAX,
    // Approximate / complex math (special function unit).
    FRCP, FRSQ, FSQRT, FSIN, FCOS, FEXP2, FLOG2, FDIV,
    // Data movement and conversions (math units).
    MOV, MOVI, I2F, F2I, S2R, LDPARAM, SEL,
    // Predicate manipulation (math units).
    SETP, PSETP,
    // Control flow (branch unit).
    BRA, SSY, JOIN, BAR, EXIT,
    // Memory.
    LD_GLOBAL, ST_GLOBAL, LD_SHARED, ST_SHARED,
    ATOM_ADD, ATOM_MIN, ATOM_MAX, ATOM_EXCH, ATOM_CAS,
    MEMBAR,
    // Device-side heap allocation intrinsic (lowered to an atomic bump on
    // the heap cursor; timing-wise an ATOM on the global pipeline).
    ALLOC,
    NOP,
    NumOpcodes,
};

/** Execution unit classes of the baseline SM backend (paper Table 1). */
enum class Unit : std::uint8_t {
    Math,    ///< one of the 2 math pipelines
    Sfu,     ///< special function unit
    Branch,  ///< branch unit
    LdSt,    ///< global memory pipeline (cache + translation)
    Shared,  ///< shared memory (scratch-pad) pipeline
    None,    ///< consumes no backend unit (NOP)
};

/** Comparison condition for SETP. */
enum class Cmp : std::uint8_t { EQ, NE, LT, LE, GT, GE };

/** Static properties of an opcode. */
struct OpTraits {
    std::string_view name;
    Unit unit;
    bool isGlobalMem;   ///< goes through translation; can page fault
    bool isSharedMem;
    bool isLoad;
    bool isStore;       ///< writes memory (stores and atomics)
    bool isAtomic;
    bool isControl;     ///< disables warp fetch until commit (baseline)
    bool isBarrier;
    bool isExit;
    bool writesDst;     ///< produces a destination register value
    int numSrcs;        ///< architectural source register count
    /**
     * Can raise an arithmetic exception (division by zero, log of a
     * non-positive value, ...). Paper sections 3.1/3.2 extend the
     * preemptible-exception schemes to these instructions.
     */
    bool canRaiseArith;
};

/** True when @p op can raise an arithmetic exception. */
bool canRaiseArith(Opcode op);

namespace detail {
/** The traits table, indexed by opcode (defined in opcodes.cpp). */
extern const std::array<OpTraits, static_cast<std::size_t>(
                                      Opcode::NumOpcodes)>
    kOpTraits;
} // namespace detail

/**
 * Traits lookup; total over all opcodes. Inline because the timing
 * loop asks for an instruction's traits several times per issued
 * warp instruction.
 */
inline const OpTraits &
traits(Opcode op)
{
    const int idx = static_cast<int>(op);
    GEX_ASSERT(idx >= 0 && idx < static_cast<int>(Opcode::NumOpcodes),
               "bad opcode %d", idx);
    return detail::kOpTraits[static_cast<std::size_t>(idx)];
}

/** Mnemonic, e.g. "ld.global". */
std::string_view opcodeName(Opcode op);

/** Inverse of opcodeName; returns NumOpcodes when unknown. */
Opcode opcodeFromName(std::string_view name);

/** Condition mnemonic ("eq", "ne", ...). */
std::string_view cmpName(Cmp c);

} // namespace gex::isa

#endif // GEX_ISA_OPCODES_HPP
