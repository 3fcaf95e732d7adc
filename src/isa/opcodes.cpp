#include "isa/opcodes.hpp"

#include <array>

#include "common/log.hpp"

namespace gex::isa {

namespace {
constexpr int kNum = static_cast<int>(Opcode::NumOpcodes);
} // namespace

// name, unit, global, shared, load, store, atomic, control, barrier,
// exit, writesDst, numSrcs[, canRaiseArith — value-initialized false
// when omitted]
constinit const std::array<OpTraits, kNum> detail::kOpTraits = {{
    {"iadd",      Unit::Math,  false,false,false,false,false,false,false,false,true, 2,false},
    {"isub",      Unit::Math,  false,false,false,false,false,false,false,false,true, 2,false},
    {"imul",      Unit::Math,  false,false,false,false,false,false,false,false,true, 2,false},
    {"imad",      Unit::Math,  false,false,false,false,false,false,false,false,true, 3,false},
    {"imin",      Unit::Math,  false,false,false,false,false,false,false,false,true, 2,false},
    {"imax",      Unit::Math,  false,false,false,false,false,false,false,false,true, 2,false},
    {"and",       Unit::Math,  false,false,false,false,false,false,false,false,true, 2,false},
    {"or",        Unit::Math,  false,false,false,false,false,false,false,false,true, 2,false},
    {"xor",       Unit::Math,  false,false,false,false,false,false,false,false,true, 2,false},
    {"not",       Unit::Math,  false,false,false,false,false,false,false,false,true, 1,false},
    {"shl",       Unit::Math,  false,false,false,false,false,false,false,false,true, 2,false},
    {"shr",       Unit::Math,  false,false,false,false,false,false,false,false,true, 2,false},
    {"fadd",      Unit::Math,  false,false,false,false,false,false,false,false,true, 2,false},
    {"fsub",      Unit::Math,  false,false,false,false,false,false,false,false,true, 2,false},
    {"fmul",      Unit::Math,  false,false,false,false,false,false,false,false,true, 2,false},
    {"ffma",      Unit::Math,  false,false,false,false,false,false,false,false,true, 3,false},
    {"fmin",      Unit::Math,  false,false,false,false,false,false,false,false,true, 2,false},
    {"fmax",      Unit::Math,  false,false,false,false,false,false,false,false,true, 2,false},
    {"frcp",      Unit::Sfu,   false,false,false,false,false,false,false,false,true, 1,true },
    {"frsq",      Unit::Sfu,   false,false,false,false,false,false,false,false,true, 1,true },
    {"fsqrt",     Unit::Sfu,   false,false,false,false,false,false,false,false,true, 1,true },
    {"fsin",      Unit::Sfu,   false,false,false,false,false,false,false,false,true, 1,false},
    {"fcos",      Unit::Sfu,   false,false,false,false,false,false,false,false,true, 1,false},
    {"fexp2",     Unit::Sfu,   false,false,false,false,false,false,false,false,true, 1,false},
    {"flog2",     Unit::Sfu,   false,false,false,false,false,false,false,false,true, 1,true },
    {"fdiv",      Unit::Sfu,   false,false,false,false,false,false,false,false,true, 2,true },
    {"mov",       Unit::Math,  false,false,false,false,false,false,false,false,true, 1,false},
    {"movi",      Unit::Math,  false,false,false,false,false,false,false,false,true, 0,false},
    {"i2f",       Unit::Math,  false,false,false,false,false,false,false,false,true, 1,false},
    {"f2i",       Unit::Math,  false,false,false,false,false,false,false,false,true, 1,false},
    {"s2r",       Unit::Math,  false,false,false,false,false,false,false,false,true, 0,false},
    {"ldparam",   Unit::Math,  false,false,false,false,false,false,false,false,true, 0,false},
    {"sel",       Unit::Math,  false,false,false,false,false,false,false,false,true, 2,false},
    {"setp",      Unit::Math,  false,false,false,false,false,false,false,false,false,2,false},
    {"psetp",     Unit::Math,  false,false,false,false,false,false,false,false,false,0,false},
    {"bra",       Unit::Branch,false,false,false,false,false,true, false,false,false,0,false},
    {"ssy",       Unit::Branch,false,false,false,false,false,true, false,false,false,0,false},
    {"join",      Unit::Branch,false,false,false,false,false,true, false,false,false,0,false},
    {"bar",       Unit::Branch,false,false,false,false,false,true, true, false,false,0,false},
    {"exit",      Unit::Branch,false,false,false,false,false,true, false,true, false,0,false},
    {"ld.global", Unit::LdSt,  true, false,true, false,false,false,false,false,true, 1,false},
    {"st.global", Unit::LdSt,  true, false,false,true, false,false,false,false,false,2,false},
    {"ld.shared", Unit::Shared,false,true, true, false,false,false,false,false,true, 1,false},
    {"st.shared", Unit::Shared,false,true, false,true, false,false,false,false,false,2,false},
    {"atom.add",  Unit::LdSt,  true, false,true, true, true, false,false,false,true, 2,false},
    {"atom.min",  Unit::LdSt,  true, false,true, true, true, false,false,false,true, 2,false},
    {"atom.max",  Unit::LdSt,  true, false,true, true, true, false,false,false,true, 2,false},
    {"atom.exch", Unit::LdSt,  true, false,true, true, true, false,false,false,true, 2,false},
    {"atom.cas",  Unit::LdSt,  true, false,true, true, true, false,false,false,true, 3,false},
    {"membar",    Unit::Branch,false,false,false,false,false,true, false,false,false,0,false},
    {"alloc",     Unit::LdSt,  true, false,true, true, true, false,false,false,true, 1,false},
    {"nop",       Unit::None,  false,false,false,false,false,false,false,false,false,0,false},
}};

namespace {

constexpr std::array<std::string_view, 6> kCmpNames =
    {"eq", "ne", "lt", "le", "gt", "ge"};

} // namespace

std::string_view
opcodeName(Opcode op)
{
    return traits(op).name;
}

Opcode
opcodeFromName(std::string_view name)
{
    for (int i = 0; i < kNum; ++i)
        if (detail::kOpTraits[static_cast<size_t>(i)].name == name)
            return static_cast<Opcode>(i);
    return Opcode::NumOpcodes;
}

bool
canRaiseArith(Opcode op)
{
    return traits(op).canRaiseArith;
}

std::string_view
cmpName(Cmp c)
{
    return kCmpNames[static_cast<size_t>(c)];
}

} // namespace gex::isa
