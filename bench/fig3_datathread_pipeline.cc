/**
 * @file
 * Regenerates Figure 3: serialized off-chip accesses for a dependent
 * operand chain — pipelined DataScalar broadcasts versus the
 * traditional request/response per operand.
 *
 * Part 1 reproduces the figure's analytical count (x1..x3 on one
 * chip, x4 on another: 2 crossings vs 8). Part 2 runs a real
 * pointer-chase program through both timing systems to show the
 * latency consequence the figure illustrates.
 */

#include <cstdio>

#include "baseline/mmm.hh"
#include "bench/bench_util.hh"
#include "driver/driver.hh"
#include "prog/assembler.hh"

using namespace dscalar;
using namespace dscalar::prog::reg;

namespace {

/** Pointer chase across pages: dependent addresses (Section 3.2). */
prog::Program
chaseProgram(unsigned pages, unsigned hops)
{
    prog::Program p;
    p.name = "chase";
    const unsigned cells = pages * prog::pageSize / 8;
    Addr heap = p.allocHeap(pages * prog::pageSize);
    // A stride-7 cycle (7 coprime to the cell count) walks each page
    // in a long run of dependent hops before migrating to the next:
    // page-length datathreads separated by migrations.
    std::uint32_t idx = 0;
    for (unsigned i = 0; i < cells; ++i) {
        std::uint32_t target = (idx + 7) % cells;
        p.poke64(heap + 8ull * idx, heap + 8ull * target);
        idx = target;
    }

    prog::Assembler a(p);
    a.la(s1, heap);
    a.li(s0, static_cast<std::int32_t>(hops));
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
main()
{
    bench::banner("Figure 3", "pipelined broadcasts vs "
                              "request/response serialization");

    // Part 1: the figure's four-operand dependent chain.
    auto ds_case = baseline::chainCrossings({0, 0, 0, 1});
    auto trad_case = baseline::chainCrossings({1, 1, 1, 1});
    std::printf("four dependent operands, x1..x3 colocated:\n");
    std::printf("  DataScalar serialized off-chip crossings:  %u "
                "(paper: 2)\n", ds_case.dataScalar);
    std::printf("  traditional serialized off-chip crossings: %u "
                "(paper: 8)\n\n", trad_case.traditional);

    // Part 2: timing consequence on a real dependent-load chain.
    driver::RunRequest req;
    req.program = std::make_shared<const prog::Program>(
        chaseProgram(16, 20'000 * bench::benchScale()));
    req.config.numNodes = 4;
    req.system = driver::SystemKind::DataScalar;
    core::RunResult ds = bench::runOrExit(req);
    req.system = driver::SystemKind::Traditional;
    core::RunResult trad = bench::runOrExit(req);
    req.system = driver::SystemKind::Perfect;
    core::RunResult perfect = bench::runOrExit(req);

    std::printf("pointer chase over 16 pages, 4 nodes "
                "(cycles per hop, lower is better):\n");
    std::printf("  perfect data cache: %8.2f\n",
                static_cast<double>(perfect.cycles) /
                    static_cast<double>(perfect.instructions / 3));
    std::printf("  DataScalar:         %8.2f\n",
                static_cast<double>(ds.cycles) /
                    static_cast<double>(ds.instructions / 3));
    std::printf("  traditional:        %8.2f\n",
                static_cast<double>(trad.cycles) /
                    static_cast<double>(trad.instructions / 3));
    std::printf("\npaper: a datathread migration costs one "
                "serialized off-chip access; every traditional "
                "remote operand costs two\n");
    return 0;
}
