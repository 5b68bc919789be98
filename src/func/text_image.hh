/**
 * @file
 * Predecoded, immutable image of a program's text.
 *
 * Under the paper's placement (Section 4.2) program text is
 * replicated and static, so the instruction at a text pc is known
 * before the program runs. A TextImage holds, per text word, what a
 * trace record would otherwise have to store: the decoded
 * instruction, its access width and its direct taken target. A
 * captured trace and a program-backed ooo::OracleStream lay their
 * chunks out against one image, shared by every chunk through a
 * std::shared_ptr, and a record stores only what the image cannot
 * tell (see InstTrace).
 */

#ifndef DSCALAR_FUNC_TEXT_IMAGE_HH
#define DSCALAR_FUNC_TEXT_IMAGE_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"
#include "isa/instruction.hh"
#include "prog/program.hh"

namespace dscalar {
namespace func {

/** One program's text, decoded once. */
class TextImage
{
  public:
    /** What a record at one pc derives from the instruction there. */
    struct Entry
    {
        /** The decoded instruction; op == NUM_OPCODES for a word
         *  decode() refuses, so no retired instruction equals it. */
        isa::Instruction inst;
        /** isa::directTarget(inst, pc). */
        Addr target = invalidAddr;
        /** Access width in bytes; 0 for a non-memory instruction. */
        std::uint8_t width = 0;
        /** JR: the taken target is a register value. */
        bool indirect = false;
    };

    /** Predecode @p inst as if it stood at @p pc. */
    static Entry predecode(const isa::Instruction &inst, Addr pc);

    explicit TextImage(const prog::Program &program);

    /** The entry of the text word at @p pc, or nullptr when @p pc is
     *  not the address of one. */
    const Entry *
    find(Addr pc) const
    {
        Addr off = pc - base_;
        if ((off & 3) || (off >> 2) >= entries_.size())
            return nullptr;
        return &entries_[off >> 2];
    }

    Addr base() const { return base_; }
    /** Entries indexed by (pc - base()) / 4. */
    const Entry *entries() const { return entries_.data(); }

    /** Heap payload in bytes. */
    std::size_t
    bytes() const
    {
        return entries_.capacity() * sizeof(Entry);
    }

  private:
    Addr base_;
    std::vector<Entry> entries_;
};

} // namespace func
} // namespace dscalar

#endif // DSCALAR_FUNC_TEXT_IMAGE_HH
