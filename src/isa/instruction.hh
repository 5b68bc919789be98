/**
 * @file
 * Decoded instruction representation, binary encoding, and
 * disassembly.
 *
 * Binary layout of a 32-bit instruction word:
 *
 *   [31:26] opcode
 *   [25:21] field A   [20:16] field B   [15:11] field C
 *   [15:0]  imm16 (overlaps C)          [25:0]  imm26 (jumps)
 *
 * Field assignment per Format is documented next to decode().
 */

#ifndef DSCALAR_ISA_INSTRUCTION_HH
#define DSCALAR_ISA_INSTRUCTION_HH

#include <cstdint>
#include <string>

#include "common/bitutils.hh"
#include "common/logging.hh"
#include "common/types.hh"
#include "isa/opcodes.hh"

namespace dscalar {
namespace isa {

/** A fully decoded instruction. */
struct Instruction
{
    Opcode op = Opcode::NOP;
    RegIndex rd = 0;      ///< destination register
    RegIndex rs = 0;      ///< first source register
    RegIndex rt = 0;      ///< second source register
    std::int32_t imm = 0; ///< immediate / offset / syscall number

    const OpInfo &info() const { return opInfo(op); }

    constexpr bool
    isLoad() const
    {
        return op == Opcode::LW || op == Opcode::LD ||
               op == Opcode::LBU;
    }
    constexpr bool
    isStore() const
    {
        return op == Opcode::SW || op == Opcode::SD ||
               op == Opcode::SB;
    }
    constexpr bool isMem() const { return isLoad() || isStore(); }
    bool
    isCtrl() const
    {
        return info().opClass == OpClass::Ctrl;
    }
    bool
    isBranch() const
    {
        return op == Opcode::BEQ || op == Opcode::BNE ||
               op == Opcode::BLT || op == Opcode::BGE;
    }
    bool isSyscall() const { return op == Opcode::SYSCALL; }
    bool isHalt() const { return op == Opcode::HALT; }

    /** Access width in bytes for memory operations. */
    constexpr unsigned
    memSize() const
    {
        if (op == Opcode::LD || op == Opcode::SD)
            return 8;
        if (op == Opcode::LBU || op == Opcode::SB)
            return 1;
        return 4;
    }

    /**
     * Destination register for dependence tracking, or -1 when the
     * instruction writes no register.
     */
    int
    destReg() const
    {
        switch (info().format) {
          case Format::RRR:
          case Format::RRI:
          case Format::RI:
            return rd == 0 ? -1 : rd;
          case Format::Mem:
            return isLoad() && rd != 0 ? rd : -1;
          case Format::Jump:
            return op == Opcode::JAL ? 31 : -1;
          case Format::Sys:
            return 2; // result register by convention
          default:
            return -1;
        }
    }

    /**
     * Source registers for dependence tracking.
     * @param srcs out-array of at least 2 entries.
     * @return number of sources written (0..2).
     */
    int
    srcRegs(RegIndex srcs[2]) const
    {
        int n = 0;
        auto add = [&](RegIndex r) {
            if (r != 0)
                srcs[n++] = r;
        };
        switch (info().format) {
          case Format::RRR:
            add(rs);
            add(rt);
            break;
          case Format::RRI:
            add(rs);
            break;
          case Format::Mem:
            add(rs);
            if (isStore())
                add(rt);
            break;
          case Format::Branch:
            add(rs);
            add(rt);
            break;
          case Format::JumpReg:
            add(rs);
            break;
          case Format::Sys:
            // Syscalls read r4/r5 by convention; modelled as two
            // sources.
            srcs[n++] = 4;
            srcs[n++] = 5;
            break;
          default:
            break;
        }
        return n;
    }

    bool operator==(const Instruction &other) const = default;
};

/** Encode @p inst into a 32-bit instruction word. */
std::uint32_t encode(const Instruction &inst);

/** True when decode() accepts @p word: its opcode field names an
 *  opcode. The non-panicking check for words from untrusted input. */
constexpr bool
validWord(std::uint32_t word)
{
    return (word >> 26) <
           static_cast<std::uint32_t>(Opcode::NUM_OPCODES);
}

/** Decode a 32-bit instruction word; panics on a bad opcode field.
 *  Inline: trace replay decodes every record it expands. */
inline Instruction
decode(std::uint32_t word)
{
    panic_if(!validWord(word), "decode: bad opcode field %u in %08x",
             word >> 26, word);

    Instruction inst;
    inst.op = static_cast<Opcode>(word >> 26);
    auto a = static_cast<RegIndex>(bits(word, 25, 21));
    auto b = static_cast<RegIndex>(bits(word, 20, 16));
    auto c = static_cast<RegIndex>(bits(word, 15, 11));
    auto imm16s = static_cast<std::int32_t>(sext(bits(word, 15, 0), 16));
    auto imm16u = static_cast<std::int32_t>(bits(word, 15, 0));

    switch (inst.info().format) {
      case Format::None:
        break;
      case Format::RRR:
        inst.rd = a;
        inst.rs = b;
        inst.rt = c;
        break;
      case Format::RRI:
        inst.rd = a;
        inst.rs = b;
        // Logical immediates are zero-extended, arithmetic ones
        // sign-extended (MIPS convention).
        inst.imm = (inst.op == Opcode::ANDI || inst.op == Opcode::ORI ||
                    inst.op == Opcode::XORI)
                       ? imm16u
                       : imm16s;
        break;
      case Format::RI:
        inst.rd = a;
        inst.imm = imm16u;
        break;
      case Format::Mem:
        if (inst.isLoad())
            inst.rd = a;
        else
            inst.rt = a;
        inst.rs = b;
        inst.imm = imm16s;
        break;
      case Format::Branch:
        inst.rs = a;
        inst.rt = b;
        inst.imm = imm16s;
        break;
      case Format::Jump:
        inst.imm = static_cast<std::int32_t>(bits(word, 25, 0));
        break;
      case Format::JumpReg:
        inst.rs = a;
        break;
      case Format::Sys:
        inst.imm = imm16u;
        break;
    }
    return inst;
}

/**
 * Where the direct branch or jump @p inst at @p pc goes when taken:
 * pc + 4 + 4 * imm for a compare-and-branch, imm * 4 for J and JAL;
 * invalidAddr for every other instruction (JR's target is a register
 * value). The interpreter and the trace layout both call this, so a
 * replayed trace cannot derive another target than the one executed.
 */
constexpr Addr
directTarget(const Instruction &inst, Addr pc)
{
    switch (inst.op) {
      case Opcode::BEQ:
      case Opcode::BNE:
      case Opcode::BLT:
      case Opcode::BGE:
        return pc + 4 + 4 * inst.imm;
      case Opcode::J:
      case Opcode::JAL:
        return static_cast<Addr>(inst.imm) * 4;
      default:
        return invalidAddr;
    }
}

/** Human-readable rendering, e.g.\ "addi r4, r4, 8". */
std::string disassemble(const Instruction &inst);

} // namespace isa
} // namespace dscalar

#endif // DSCALAR_ISA_INSTRUCTION_HH
