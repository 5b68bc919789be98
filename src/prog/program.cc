#include "prog/program.hh"

#include <cstring>

#include "common/bitutils.hh"
#include "common/logging.hh"

namespace dscalar {
namespace prog {

Program::Program() = default;

Addr
Program::appendText(std::uint32_t word)
{
    Addr addr = textBase + 4 * text_.size();
    text_.push_back(word);
    return addr;
}

Addr
Program::allocGlobal(std::uint64_t size, std::uint64_t align)
{
    panic_if(!isPowerOf2(align), "alignment %llu not a power of two",
             (unsigned long long)align);
    globalBrk_ = alignUp(globalBrk_, align);
    Addr base = globalBrk_;
    globalBrk_ += size;
    fatal_if(globalBrk_ > heapBase, "global segment overflow");
    // Touch first and last page so the footprint includes the span.
    for (Addr a = pageBase(base); a < globalBrk_; a += pageSize)
        pageFor(a);
    return base;
}

Addr
Program::allocHeap(std::uint64_t size, std::uint64_t align)
{
    panic_if(!isPowerOf2(align), "alignment %llu not a power of two",
             (unsigned long long)align);
    heapBrk_ = alignUp(heapBrk_, align);
    Addr base = heapBrk_;
    heapBrk_ += size;
    fatal_if(heapBrk_ > stackTop - 0x0800'0000, "heap segment overflow");
    for (Addr a = pageBase(base); a < heapBrk_; a += pageSize)
        pageFor(a);
    return base;
}

std::vector<std::uint8_t> &
Program::pageFor(Addr addr)
{
    Addr base = pageBase(addr);
    auto it = dataPages_.find(base);
    if (it == dataPages_.end())
        it = dataPages_.emplace(base,
                                std::vector<std::uint8_t>(pageSize, 0))
                 .first;
    return it->second;
}

void
Program::poke8(Addr addr, std::uint8_t v)
{
    if (addr >= textBase && addr < textLimit()) {
        std::uint32_t &word = text_[(addr - textBase) / 4];
        const unsigned shift = 8 * (addr % 4);
        word = (word & ~(0xffu << shift)) | (std::uint32_t(v) << shift);
        return;
    }
    pageFor(addr)[addr & (pageSize - 1)] = v;
}

void
Program::poke32(Addr addr, std::uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        poke8(addr + i, static_cast<std::uint8_t>(v >> (8 * i)));
}

void
Program::poke64(Addr addr, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        poke8(addr + i, static_cast<std::uint8_t>(v >> (8 * i)));
}

void
Program::pokeDouble(Addr addr, double v)
{
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    poke64(addr, bits);
}

std::uint8_t
Program::peek8(Addr addr) const
{
    if (addr >= textBase && addr < textLimit())
        return text_[(addr - textBase) / 4] >> (8 * (addr % 4));
    auto it = dataPages_.find(pageBase(addr));
    if (it == dataPages_.end())
        return 0;
    return it->second[addr & (pageSize - 1)];
}

std::uint64_t
Program::peek64(Addr addr) const
{
    std::uint64_t v = 0;
    for (int i = 7; i >= 0; --i)
        v = (v << 8) | peek8(addr + i);
    return v;
}

std::uint64_t
Program::imageDigest() const
{
    constexpr std::uint64_t prime = 0x100000001b3ULL;
    std::uint64_t h = 0xcbf29ce484222325ULL;
    auto mix64 = [&h](std::uint64_t v) {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xff;
            h *= prime;
        }
    };
    mix64(entry);
    mix64(text_.size());
    for (std::uint32_t w : text_)
        mix64(w);
    for (const auto &[base, bytes] : dataPages_) {
        mix64(base);
        for (std::uint8_t b : bytes) {
            h ^= b;
            h *= prime;
        }
    }
    return h;
}

std::vector<Addr>
Program::touchedPages() const
{
    std::vector<Addr> pages;
    for (Addr a = pageBase(textBase); a < textLimit(); a += pageSize)
        pages.push_back(a);
    for (const auto &[base, bytes] : dataPages_)
        pages.push_back(base);
    for (Addr a = pageBase(stackBase()); a < stackTop; a += pageSize)
        pages.push_back(a);
    return pages;
}

std::size_t
Program::pagesInSegment(Segment seg) const
{
    std::size_t n = 0;
    for (Addr page : touchedPages())
        if (segmentOf(page) == seg)
            ++n;
    return n;
}

} // namespace prog
} // namespace dscalar
