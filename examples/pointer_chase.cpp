/**
 * @file
 * Datathreading demo (paper Section 3.2 / Figure 3).
 *
 * Builds a linked structure whose dependent-address chain stays on
 * one node's pages for long runs before migrating, then compares how
 * a DataScalar machine and a traditional machine traverse it. The
 * DataScalar owner fetches consecutive dependent operands locally
 * and pipelines their broadcasts; the traditional system pays a
 * request/response round trip per remote operand.
 *
 * Usage: pointer_chase [run_length_cells]
 */

#include <cstdio>
#include <cstdlib>
#include <memory>

#include "driver/driver.hh"
#include "prog/assembler.hh"

using namespace dscalar;
using namespace dscalar::prog::reg;

namespace {

/**
 * Chain over 16 pages: @p run cells of one page, then a hop to the
 * next page — datathread length is directly controlled by @p run.
 */
prog::Program
makeChain(unsigned run)
{
    prog::Program p;
    p.name = "pointer_chase";
    constexpr unsigned pages = 16;
    constexpr unsigned per_page =
        static_cast<unsigned>(prog::pageSize / 8);
    const unsigned cells = pages * per_page;
    Addr heap = p.allocHeap(pages * prog::pageSize);

    // Build one full-cycle permutation: visit pages round-robin,
    // consuming `run` not-yet-linked cells (stride 5 for fresh
    // lines) from each page per visit.
    std::vector<unsigned> order;
    order.reserve(cells);
    std::vector<unsigned> consumed(pages, 0);
    unsigned page = 0;
    while (order.size() < cells) {
        for (unsigned k = 0; k < run && consumed[page] < per_page;
             ++k) {
            unsigned off =
                (consumed[page] * 5) % per_page +
                (consumed[page] * 5) / per_page;
            order.push_back(page * per_page + off);
            ++consumed[page];
        }
        page = (page + 1) % pages;
    }
    for (unsigned i = 0; i < cells; ++i) {
        unsigned next = order[(i + 1) % cells];
        p.poke64(heap + 8ull * order[i], heap + 8ull * next);
    }

    prog::Assembler a(p);
    a.la(s1, heap);
    a.li(s0, 30000);
    a.label("loop");
    a.ld(s1, s1, 0);
    a.addi(s0, s0, -1);
    a.bne(s0, zero, "loop");
    a.add(a0, s1, zero);
    a.syscall(isa::Syscall::PrintInt);
    a.syscall(isa::Syscall::Exit);
    a.halt();
    a.finalize();
    return p;
}

} // namespace

int
main(int argc, char **argv)
{
    unsigned run = argc > 1 ? std::atoi(argv[1]) : 0;

    std::printf("datathread-length sweep: cycles per pointer hop\n");
    std::printf("%-18s %12s %12s %12s\n", "cells-per-page-run",
                "DataScalar-4", "traditional", "DS advantage");

    std::vector<unsigned> runs =
        run ? std::vector<unsigned>{run}
            : std::vector<unsigned>{1, 4, 16, 64, 256};
    for (unsigned r : runs) {
        driver::RunRequest req;
        req.program =
            std::make_shared<const prog::Program>(makeChain(r));
        req.config.numNodes = 4;
        req.system = driver::SystemKind::DataScalar;
        driver::RunResponse ds = driver::runOne(req);
        req.system = driver::SystemKind::Traditional;
        driver::RunResponse trad = driver::runOne(req);
        for (const driver::RunResponse *resp : {&ds, &trad}) {
            if (!resp->ok()) {
                std::fprintf(stderr, "pointer_chase: %s\n",
                             resp->error.c_str());
                return 1;
            }
        }
        double hops = static_cast<double>(ds.result.instructions) / 3.0;
        double ds_cyc = ds.result.cycles / hops;
        double trad_cyc = trad.result.cycles / hops;
        std::printf("%-18u %12.2f %12.2f %11.2fx\n", r, ds_cyc,
                    trad_cyc, trad_cyc / ds_cyc);
    }

    std::printf("\nlonger same-page runs let the owning node fetch "
                "dependent operands locally and pipeline their "
                "broadcasts (Section 3.2); the traditional system "
                "pays two serialized crossings per remote hop "
                "regardless\n");
    return 0;
}
