#include "isa/instruction.hh"

namespace dscalar {
namespace isa {

namespace {

constexpr std::uint32_t
field(std::uint32_t v, unsigned shift, unsigned width)
{
    return (v & ((1u << width) - 1)) << shift;
}

} // namespace

std::uint32_t
encode(const Instruction &inst)
{
    std::uint32_t w = field(static_cast<std::uint32_t>(inst.op), 26, 6);
    auto imm16 = static_cast<std::uint32_t>(inst.imm) & 0xffffu;
    switch (inst.info().format) {
      case Format::None:
        break;
      case Format::RRR:
        w |= field(inst.rd, 21, 5) | field(inst.rs, 16, 5) |
             field(inst.rt, 11, 5);
        break;
      case Format::RRI:
        w |= field(inst.rd, 21, 5) | field(inst.rs, 16, 5) | imm16;
        break;
      case Format::RI:
        w |= field(inst.rd, 21, 5) | imm16;
        break;
      case Format::Mem:
        // Loads carry the destination in A; stores the value reg.
        w |= field(inst.isLoad() ? inst.rd : inst.rt, 21, 5) |
             field(inst.rs, 16, 5) | imm16;
        break;
      case Format::Branch:
        w |= field(inst.rs, 21, 5) | field(inst.rt, 16, 5) | imm16;
        break;
      case Format::Jump:
        w |= static_cast<std::uint32_t>(inst.imm) & 0x03ffffffu;
        break;
      case Format::JumpReg:
        w |= field(inst.rs, 21, 5);
        break;
      case Format::Sys:
        w |= imm16;
        break;
    }
    return w;
}

std::string
disassemble(const Instruction &inst)
{
    const OpInfo &oi = inst.info();
    switch (oi.format) {
      case Format::None:
        return oi.mnemonic;
      case Format::RRR:
        return csprintf("%s r%u, r%u, r%u", oi.mnemonic, inst.rd, inst.rs,
                        inst.rt);
      case Format::RRI:
        return csprintf("%s r%u, r%u, %d", oi.mnemonic, inst.rd, inst.rs,
                        inst.imm);
      case Format::RI:
        return csprintf("%s r%u, %d", oi.mnemonic, inst.rd, inst.imm);
      case Format::Mem:
        return csprintf("%s r%u, %d(r%u)", oi.mnemonic,
                        inst.isLoad() ? inst.rd : inst.rt, inst.imm,
                        inst.rs);
      case Format::Branch:
        return csprintf("%s r%u, r%u, %d", oi.mnemonic, inst.rs, inst.rt,
                        inst.imm);
      case Format::Jump:
        return csprintf("%s 0x%x", oi.mnemonic,
                        static_cast<unsigned>(inst.imm) * 4);
      case Format::JumpReg:
        return csprintf("%s r%u", oi.mnemonic, inst.rs);
      case Format::Sys:
        return csprintf("%s %d", oi.mnemonic, inst.imm);
    }
    return "<bad>";
}

} // namespace isa
} // namespace dscalar
