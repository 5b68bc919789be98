/**
 * @file
 * A complete executable program image: encoded text, initialized
 * data, allocation cursors, and the metadata the DataScalar page
 * distributor needs (which pages exist, per segment).
 */

#ifndef DSCALAR_PROG_PROGRAM_HH
#define DSCALAR_PROG_PROGRAM_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/types.hh"
#include "prog/layout.hh"

namespace dscalar {
namespace prog {

/** An executable image produced by the Assembler / workload builders. */
class Program
{
  public:
    Program();

    /** Name used in reports (e.g.\ "compress_s"). */
    std::string name = "anon";

    // -- Text -------------------------------------------------------

    /** Append one encoded instruction word; @return its address. */
    Addr appendText(std::uint32_t word);

    Addr textBaseAddr() const { return textBase; }
    Addr textLimit() const { return textBase + 4 * text_.size(); }
    std::size_t textWords() const { return text_.size(); }
    std::uint32_t textWord(std::size_t i) const { return text_.at(i); }
    void setTextWord(std::size_t i, std::uint32_t w) { text_.at(i) = w; }

    /** Entry point; defaults to the first text word. */
    Addr entry = textBase;

    // -- Data -------------------------------------------------------

    /**
     * Reserve @p size bytes of zero-initialized global data.
     * @return the base address of the reservation.
     */
    Addr allocGlobal(std::uint64_t size, std::uint64_t align = 8);

    /** Reserve @p size bytes in the (statically initialized) heap. */
    Addr allocHeap(std::uint64_t size, std::uint64_t align = 8);

    /** Write initialized bytes into the image; a byte inside the
     *  text edits the instruction word holding it. */
    void poke8(Addr addr, std::uint8_t v);
    void poke32(Addr addr, std::uint32_t v);
    void poke64(Addr addr, std::uint64_t v);
    void pokeDouble(Addr addr, double v);

    /** Read back initialized bytes (zero where untouched). */
    std::uint8_t peek8(Addr addr) const;
    std::uint64_t peek64(Addr addr) const;

    /** Sparse map of initialized / reserved data pages. */
    const std::map<Addr, std::vector<std::uint8_t>> &
    dataPages() const
    {
        return dataPages_;
    }

    // -- Stack ------------------------------------------------------

    Addr stackSize = defaultStackSize;
    Addr stackBase() const { return stackTop - stackSize; }
    Addr initialSp() const { return stackTop - 64; }

    // -- Identity ---------------------------------------------------

    /**
     * FNV-1a digest over everything that defines the image: entry
     * point, encoded text, and every initialized data page (address
     * and bytes). Equal digests across independently built programs
     * mean byte-identical images — the generator-determinism check
     * in test_program_gen and dsfuzz repro validation rely on it.
     */
    std::uint64_t imageDigest() const;

    // -- Footprint --------------------------------------------------

    /**
     * All pages the program can touch, in ascending address order:
     * text pages, reserved global/heap pages, and stack pages.
     * The page-table region is excluded (always replicated).
     */
    std::vector<Addr> touchedPages() const;

    /** Number of touched pages belonging to @p seg. */
    std::size_t pagesInSegment(Segment seg) const;

  private:
    std::vector<std::uint8_t> &pageFor(Addr addr);

    std::vector<std::uint32_t> text_;
    std::map<Addr, std::vector<std::uint8_t>> dataPages_;
    Addr globalBrk_ = globalBase;
    Addr heapBrk_ = heapBase;
};

} // namespace prog
} // namespace dscalar

#endif // DSCALAR_PROG_PROGRAM_HH
