#include "func/text_image.hh"

namespace dscalar {
namespace func {

TextImage::Entry
TextImage::predecode(const isa::Instruction &inst, Addr pc)
{
    Entry e;
    e.inst = inst;
    e.target = isa::directTarget(inst, pc);
    e.width = inst.isMem() ? static_cast<std::uint8_t>(inst.memSize())
                           : 0;
    e.indirect = inst.op == isa::Opcode::JR;
    return e;
}

TextImage::TextImage(const prog::Program &program)
    : base_(program.textBaseAddr())
{
    entries_.resize(program.textWords());
    for (std::size_t i = 0; i < entries_.size(); ++i) {
        std::uint32_t word = program.textWord(i);
        if (isa::validWord(word))
            entries_[i] = predecode(isa::decode(word), base_ + 4 * i);
        else
            entries_[i].inst.op = isa::Opcode::NUM_OPCODES;
    }
}

} // namespace func
} // namespace dscalar
