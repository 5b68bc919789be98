#include "func/func_sim.hh"

#include <cmath>
#include <cstring>

#include "common/bitutils.hh"
#include "common/logging.hh"
#include "prog/assembler.hh"

namespace dscalar {
namespace func {

using isa::Instruction;
using isa::Opcode;

namespace {

double
asDouble(std::uint64_t bits)
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

FuncSim::FuncSim(const prog::Program &program)
    : pc_(program.entry)
{
    mem_.loadProgram(program);
    regs_[prog::reg::sp] = program.initialSp();
}

void
FuncSim::writeReg(RegIndex index, std::uint64_t value)
{
    if (index != 0)
        regs_[index] = value;
}

void
FuncSim::doSyscall(std::int32_t code)
{
    using isa::Syscall;
    std::uint64_t a0 = regs_[prog::reg::a0];
    switch (static_cast<Syscall>(code)) {
      case Syscall::Exit:
        halted_ = true;
        writeReg(prog::reg::v0, 0);
        break;
      case Syscall::PrintInt:
        output_ += csprintf("%lld\n",
                            (long long)static_cast<std::int64_t>(a0));
        writeReg(prog::reg::v0, 0);
        break;
      case Syscall::PrintChar:
        output_ += static_cast<char>(a0 & 0xff);
        writeReg(prog::reg::v0, 0);
        break;
      case Syscall::PrintFp:
        output_ += csprintf("%.6g\n", asDouble(a0));
        writeReg(prog::reg::v0, 0);
        break;
      default:
        fatal("unknown syscall %d at pc 0x%llx", code,
              (unsigned long long)pc_);
    }
}

const Instruction &
FuncSim::fetchDecode(Addr pc)
{
    DecodeSlot &slot = decodeCache_[(pc >> 2) & (kDecodeSlots - 1)];
    if (slot.pc != pc) {
        auto word = static_cast<std::uint32_t>(mem_.read(pc, 4));
        slot.inst = isa::decode(word);
        slot.pc = pc;
    }
    return slot.inst;
}

void
FuncSim::invalidateDecode(Addr addr, unsigned size)
{
    // Any 4-byte instruction word starting in [addr - 3, addr + size)
    // overlaps the store.
    Addr first = (addr >= 3 ? addr - 3 : 0) & ~static_cast<Addr>(3);
    for (Addr pc = first; pc < addr + size; pc += 4) {
        DecodeSlot &slot =
            decodeCache_[(pc >> 2) & (kDecodeSlots - 1)];
        if (slot.pc >= first && slot.pc < addr + size)
            slot.pc = invalidAddr;
    }
}

bool
FuncSim::step(DynInst *out)
{
    return hooksEnabled_ ? stepImpl<true>(out) : stepImpl<false>(out);
}

template <bool kHooked>
bool
FuncSim::stepImpl(DynInst *out)
{
    if (halted_)
        return false;

    if (kHooked && fetchHook_)
        fetchHook_(pc_);
    const Instruction &inst = fetchDecode(pc_);

    Addr cur_pc = pc_;
    Addr next_pc = pc_ + 4;
    Addr eff_addr = invalidAddr;
    unsigned mem_size = 0;

    auto s = static_cast<std::int64_t>(readReg(inst.rs));
    auto t = static_cast<std::int64_t>(readReg(inst.rt));
    auto us = readReg(inst.rs);
    auto ut = readReg(inst.rt);

    switch (inst.op) {
      case Opcode::NOP:
        break;

      case Opcode::ADD: writeReg(inst.rd, us + ut); break;
      case Opcode::SUB: writeReg(inst.rd, us - ut); break;
      case Opcode::MUL: writeReg(inst.rd, us * ut); break;
      case Opcode::DIV:
        writeReg(inst.rd, t == 0 ? 0 : static_cast<std::uint64_t>(s / t));
        break;
      case Opcode::REM:
        writeReg(inst.rd, t == 0 ? 0 : static_cast<std::uint64_t>(s % t));
        break;
      case Opcode::AND: writeReg(inst.rd, us & ut); break;
      case Opcode::OR: writeReg(inst.rd, us | ut); break;
      case Opcode::XOR: writeReg(inst.rd, us ^ ut); break;
      case Opcode::SLL: writeReg(inst.rd, us << (ut & 63)); break;
      case Opcode::SRL: writeReg(inst.rd, us >> (ut & 63)); break;
      case Opcode::SRA:
        writeReg(inst.rd, static_cast<std::uint64_t>(s >> (ut & 63)));
        break;
      case Opcode::SLT: writeReg(inst.rd, s < t ? 1 : 0); break;
      case Opcode::SLTU: writeReg(inst.rd, us < ut ? 1 : 0); break;

      case Opcode::ADDI:
        writeReg(inst.rd, us + static_cast<std::uint64_t>(
                              static_cast<std::int64_t>(inst.imm)));
        break;
      case Opcode::ANDI:
        writeReg(inst.rd, us & static_cast<std::uint32_t>(inst.imm));
        break;
      case Opcode::ORI:
        writeReg(inst.rd, us | static_cast<std::uint32_t>(inst.imm));
        break;
      case Opcode::XORI:
        writeReg(inst.rd, us ^ static_cast<std::uint32_t>(inst.imm));
        break;
      case Opcode::SLLI: writeReg(inst.rd, us << (inst.imm & 63)); break;
      case Opcode::SRLI: writeReg(inst.rd, us >> (inst.imm & 63)); break;
      case Opcode::SRAI:
        writeReg(inst.rd,
                 static_cast<std::uint64_t>(s >> (inst.imm & 63)));
        break;
      case Opcode::SLTI:
        writeReg(inst.rd, s < inst.imm ? 1 : 0);
        break;
      case Opcode::LUI:
        writeReg(inst.rd,
                 static_cast<std::uint64_t>(
                     static_cast<std::uint32_t>(inst.imm) << 16));
        break;

      case Opcode::FADD:
        writeReg(inst.rd, asBits(asDouble(us) + asDouble(ut)));
        break;
      case Opcode::FSUB:
        writeReg(inst.rd, asBits(asDouble(us) - asDouble(ut)));
        break;
      case Opcode::FMUL:
        writeReg(inst.rd, asBits(asDouble(us) * asDouble(ut)));
        break;
      case Opcode::FDIV:
        writeReg(inst.rd, asBits(asDouble(us) / asDouble(ut)));
        break;
      case Opcode::FSLT:
        writeReg(inst.rd, asDouble(us) < asDouble(ut) ? 1 : 0);
        break;
      case Opcode::CVTIF:
        writeReg(inst.rd, asBits(static_cast<double>(s)));
        break;
      case Opcode::CVTFI: {
        double d = asDouble(us);
        // Out-of-range conversions (NaN/inf/huge) are defined as 0,
        // keeping workload checksums deterministic.
        std::int64_t v = (d >= -9.0e18 && d <= 9.0e18)
                             ? static_cast<std::int64_t>(d)
                             : 0;
        writeReg(inst.rd, static_cast<std::uint64_t>(v));
        break;
      }

      case Opcode::LW:
      case Opcode::LD:
      case Opcode::LBU: {
        eff_addr = us + static_cast<std::int64_t>(inst.imm);
        mem_size = inst.memSize();
        if (kHooked && memHook_)
            memHook_(eff_addr, mem_size, false);
        writeReg(inst.rd, mem_.read(eff_addr, mem_size));
        break;
      }
      case Opcode::SW:
      case Opcode::SD:
      case Opcode::SB: {
        eff_addr = us + static_cast<std::int64_t>(inst.imm);
        mem_size = inst.memSize();
        if (kHooked && memHook_)
            memHook_(eff_addr, mem_size, true);
        mem_.write(eff_addr, mem_size, ut);
        invalidateDecode(eff_addr, mem_size);
        break;
      }

      case Opcode::BEQ:
        if (s == t)
            next_pc = isa::directTarget(inst, cur_pc);
        break;
      case Opcode::BNE:
        if (s != t)
            next_pc = isa::directTarget(inst, cur_pc);
        break;
      case Opcode::BLT:
        if (s < t)
            next_pc = isa::directTarget(inst, cur_pc);
        break;
      case Opcode::BGE:
        if (s >= t)
            next_pc = isa::directTarget(inst, cur_pc);
        break;
      case Opcode::J:
        next_pc = isa::directTarget(inst, cur_pc);
        break;
      case Opcode::JAL:
        writeReg(31, cur_pc + 4);
        next_pc = isa::directTarget(inst, cur_pc);
        break;
      case Opcode::JR:
        next_pc = us;
        break;

      case Opcode::SYSCALL:
        doSyscall(inst.imm);
        break;
      case Opcode::HALT:
        halted_ = true;
        break;

      default:
        panic("unimplemented opcode %u at pc 0x%llx",
              static_cast<unsigned>(inst.op),
              (unsigned long long)cur_pc);
    }

    if (out) {
        out->seq = retired_;
        out->pc = cur_pc;
        out->inst = inst;
        out->effAddr = eff_addr;
        out->memSize = mem_size;
        out->nextPc = next_pc;
    }

    pc_ = next_pc;
    ++retired_;
    return true;
}

InstSeq
FuncSim::run(InstSeq max_insts)
{
    // Pick the interpreter variant once for the whole run.
    InstSeq n = 0;
    if (hooksEnabled_) {
        while (n < max_insts && stepImpl<true>(nullptr))
            ++n;
    } else {
        while (n < max_insts && stepImpl<false>(nullptr))
            ++n;
    }
    return n;
}

} // namespace func
} // namespace dscalar
