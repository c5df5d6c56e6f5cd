#include "isa/instruction.hh"

#include <sstream>

#include "common/logging.hh"

namespace rpu {

InstrClass
instrClass(Opcode op)
{
    switch (op) {
      case Opcode::VLOAD:
      case Opcode::VSTORE:
      case Opcode::SLOAD:
      case Opcode::VBCAST:
      case Opcode::MLOAD:
      case Opcode::ALOAD:
        return InstrClass::LoadStore;
      case Opcode::VADDMOD:
      case Opcode::VSUBMOD:
      case Opcode::VMULMOD:
      case Opcode::VSADDMOD:
      case Opcode::VSSUBMOD:
      case Opcode::VSMULMOD:
        return InstrClass::Compute;
      case Opcode::UNPKLO:
      case Opcode::UNPKHI:
      case Opcode::PKLO:
      case Opcode::PKHI:
        return InstrClass::Shuffle;
    }
    rpu_panic("unknown opcode %u", unsigned(op));
}

std::string
mnemonic(Opcode op, bool bfly)
{
    if (op == Opcode::VMULMOD && bfly)
        return "vbfly";
    switch (op) {
      case Opcode::VLOAD: return "vload";
      case Opcode::VSTORE: return "vstore";
      case Opcode::SLOAD: return "sload";
      case Opcode::VBCAST: return "vbcast";
      case Opcode::VADDMOD: return "vaddmod";
      case Opcode::VSUBMOD: return "vsubmod";
      case Opcode::VMULMOD: return "vmulmod";
      case Opcode::VSADDMOD: return "vsaddmod";
      case Opcode::VSSUBMOD: return "vssubmod";
      case Opcode::VSMULMOD: return "vsmulmod";
      case Opcode::UNPKLO: return "unpklo";
      case Opcode::UNPKHI: return "unpkhi";
      case Opcode::PKLO: return "pklo";
      case Opcode::PKHI: return "pkhi";
      case Opcode::MLOAD: return "mload";
      case Opcode::ALOAD: return "aload";
    }
    rpu_panic("unknown opcode %u", unsigned(op));
}

std::string
addrModeName(AddrMode mode)
{
    switch (mode) {
      case AddrMode::CONTIGUOUS: return "contig";
      case AddrMode::STRIDED: return "strided";
      case AddrMode::STRIDED_SKIP: return "skip";
      case AddrMode::REPEATED: return "repeat";
    }
    rpu_panic("unknown addressing mode %u", unsigned(mode));
}

std::string
Instruction::toString() const
{
    std::ostringstream os;
    os << mnemonic(op, bfly) << " ";
    switch (op) {
      case Opcode::VLOAD:
        os << "v" << int(vd) << ", a" << int(rm) << ", " << address << ", "
           << addrModeName(mode);
        if (mode != AddrMode::CONTIGUOUS || modeValue != 0)
            os << ", " << int(modeValue);
        break;
      case Opcode::VSTORE:
        os << "v" << int(vs) << ", a" << int(rm) << ", " << address << ", "
           << addrModeName(mode);
        if (mode != AddrMode::CONTIGUOUS || modeValue != 0)
            os << ", " << int(modeValue);
        break;
      case Opcode::SLOAD:
        os << "s" << int(rt) << ", " << address;
        break;
      case Opcode::MLOAD:
        os << "m" << int(rt) << ", " << address;
        break;
      case Opcode::ALOAD:
        os << "a" << int(rt) << ", " << address;
        break;
      case Opcode::VBCAST:
        os << "v" << int(vd) << ", a" << int(rm) << ", " << address;
        break;
      case Opcode::VADDMOD:
      case Opcode::VSUBMOD:
      case Opcode::VMULMOD:
        if (bfly) {
            os << "v" << int(vd) << ", v" << int(vd1) << ", v" << int(vs)
               << ", v" << int(vt) << ", v" << int(vt1) << ", m" << int(rm);
        } else {
            os << "v" << int(vd) << ", v" << int(vs) << ", v" << int(vt)
               << ", m" << int(rm);
        }
        break;
      case Opcode::VSADDMOD:
      case Opcode::VSSUBMOD:
      case Opcode::VSMULMOD:
        os << "v" << int(vd) << ", v" << int(vs) << ", s" << int(rt)
           << ", m" << int(rm);
        break;
      case Opcode::UNPKLO:
      case Opcode::UNPKHI:
      case Opcode::PKLO:
      case Opcode::PKHI:
        os << "v" << int(vd) << ", v" << int(vs) << ", v" << int(vt);
        break;
    }
    return os.str();
}

namespace {

/** The VALUE field is 6 bits wide; encode() rejects the same values. */
void
checkModeValue(unsigned value)
{
    if (value >= 64)
        rpu_fatal("mode value %u exceeds 6 bits", value);
}

} // namespace

Instruction
Instruction::vload(uint8_t vd, uint8_t arf, uint32_t addr, AddrMode mode,
                   uint8_t value)
{
    checkModeValue(value);
    Instruction i;
    i.op = Opcode::VLOAD;
    i.vd = vd;
    i.rm = arf;
    i.address = addr;
    i.mode = mode;
    i.modeValue = value;
    return i;
}

Instruction
Instruction::vstore(uint8_t vs, uint8_t arf, uint32_t addr, AddrMode mode,
                    uint8_t value)
{
    checkModeValue(value);
    Instruction i;
    i.op = Opcode::VSTORE;
    i.vs = vs;
    i.rm = arf;
    i.address = addr;
    i.mode = mode;
    i.modeValue = value;
    return i;
}

Instruction
Instruction::sload(uint8_t rt, uint32_t addr)
{
    Instruction i;
    i.op = Opcode::SLOAD;
    i.rt = rt;
    i.address = addr;
    return i;
}

Instruction
Instruction::vbcast(uint8_t vd, uint8_t arf, uint32_t addr)
{
    Instruction i;
    i.op = Opcode::VBCAST;
    i.vd = vd;
    i.rm = arf;
    i.address = addr;
    return i;
}

Instruction
Instruction::mload(uint8_t rt, uint32_t addr)
{
    Instruction i;
    i.op = Opcode::MLOAD;
    i.rt = rt;
    i.address = addr;
    return i;
}

Instruction
Instruction::aload(uint8_t rt, uint32_t addr)
{
    Instruction i;
    i.op = Opcode::ALOAD;
    i.rt = rt;
    i.address = addr;
    return i;
}

Instruction
Instruction::vv(Opcode op, uint8_t vd, uint8_t vs, uint8_t vt, uint8_t rm)
{
    rpu_assert(op == Opcode::VADDMOD || op == Opcode::VSUBMOD ||
               op == Opcode::VMULMOD, "not a vector-vector compute op");
    Instruction i;
    i.op = op;
    i.vd = vd;
    i.vs = vs;
    i.vt = vt;
    i.rm = rm;
    return i;
}

Instruction
Instruction::vs_(Opcode op, uint8_t vd, uint8_t vs, uint8_t rt, uint8_t rm)
{
    rpu_assert(op == Opcode::VSADDMOD || op == Opcode::VSSUBMOD ||
               op == Opcode::VSMULMOD, "not a vector-scalar compute op");
    Instruction i;
    i.op = op;
    i.vd = vd;
    i.vs = vs;
    i.rt = rt;
    i.rm = rm;
    return i;
}

Instruction
Instruction::butterfly(uint8_t vd, uint8_t vd1, uint8_t vs, uint8_t vt,
                       uint8_t vt1, uint8_t rm)
{
    Instruction i;
    i.op = Opcode::VMULMOD;
    i.bfly = true;
    i.vd = vd;
    i.vd1 = vd1;
    i.vs = vs;
    i.vt = vt;
    i.vt1 = vt1;
    i.rm = rm;
    return i;
}

Instruction
Instruction::shuffle(Opcode op, uint8_t vd, uint8_t vs, uint8_t vt)
{
    rpu_assert(instrClass(op) == InstrClass::Shuffle, "not a shuffle op");
    Instruction i;
    i.op = op;
    i.vd = vd;
    i.vs = vs;
    i.vt = vt;
    return i;
}

} // namespace rpu
