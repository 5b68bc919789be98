#include "mem/phys_mem.hh"

#include "common/logging.hh"
#include "prog/program.hh"

namespace dscalar {
namespace mem {

std::vector<std::uint8_t> *
PhysMem::findPage(Addr addr) const
{
    auto it = pages_.find(prog::pageBase(addr));
    if (it == pages_.end())
        return nullptr;
    return const_cast<std::vector<std::uint8_t> *>(&it->second);
}

std::vector<std::uint8_t> &
PhysMem::getPage(Addr addr)
{
    Addr base = prog::pageBase(addr);
    auto it = pages_.find(base);
    if (it == pages_.end())
        it = pages_.emplace(base,
                            std::vector<std::uint8_t>(prog::pageSize, 0))
                 .first;
    return it->second;
}

std::uint64_t
PhysMem::read(Addr addr, unsigned size) const
{
    panic_if(size != 1 && size != 4 && size != 8,
             "unsupported access size %u", size);
    panic_if(prog::pageBase(addr) != prog::pageBase(addr + size - 1),
             "access at 0x%llx size %u crosses a page",
             (unsigned long long)addr, size);
    const auto *page = findPage(addr);
    if (!page)
        return 0;
    Addr off = addr & (prog::pageSize - 1);
    std::uint64_t v = 0;
    for (unsigned i = 0; i < size; ++i)
        v |= static_cast<std::uint64_t>((*page)[off + i]) << (8 * i);
    return v;
}

void
PhysMem::write(Addr addr, unsigned size, std::uint64_t value)
{
    panic_if(size != 1 && size != 4 && size != 8,
             "unsupported access size %u", size);
    panic_if(prog::pageBase(addr) != prog::pageBase(addr + size - 1),
             "access at 0x%llx size %u crosses a page",
             (unsigned long long)addr, size);
    auto &page = getPage(addr);
    Addr off = addr & (prog::pageSize - 1);
    for (unsigned i = 0; i < size; ++i)
        page[off + i] = static_cast<std::uint8_t>(value >> (8 * i));
}

void
PhysMem::loadProgram(const prog::Program &program)
{
    // Data pages first: one that shares a page with the text must
    // not replace the instructions.
    for (const auto &[base, bytes] : program.dataPages()) {
        auto &page = getPage(base);
        page = bytes;
    }
    for (std::size_t i = 0; i < program.textWords(); ++i)
        write(program.textBaseAddr() + 4 * i, 4, program.textWord(i));
    // Reserve stack pages so they count as backed memory.
    for (Addr a = program.stackBase(); a < prog::stackTop;
         a += prog::pageSize) {
        getPage(a);
    }
}

} // namespace mem
} // namespace dscalar
