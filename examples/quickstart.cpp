/**
 * @file
 * Quickstart: assemble a small program with the DSL, run it on a
 * two-node DataScalar system, the traditional baseline, and the
 * perfect-cache upper bound, and print what happened.
 *
 * Build & run:
 *   cmake -B build -G Ninja && cmake --build build
 *   ./build/examples/quickstart
 */

#include <cstdio>
#include <memory>
#include <utility>

#include "driver/driver.hh"
#include "func/func_sim.hh"
#include "prog/assembler.hh"

using namespace dscalar;
using namespace dscalar::prog::reg;

namespace {

/**
 * A toy kernel: sum a 64 KB array, then scatter increments into a
 * second array — enough data traffic to show the systems diverging.
 */
prog::Program
makeProgram()
{
    prog::Program p;
    p.name = "quickstart";
    prog::Assembler a(p);

    constexpr std::uint32_t words = 16 * 1024;
    Addr src = p.allocGlobal(words * 4);
    Addr dst = p.allocGlobal(words * 4);
    for (std::uint32_t i = 0; i < words; ++i)
        p.poke32(src + 4ull * i, i * 3 + 1);

    a.la(s1, src);
    a.la(s2, dst);
    a.li(s3, 0);        // sum
    a.li(s0, words);

    a.label("loop");
    a.lw(t0, s1, 0);
    a.add(s3, s3, t0);
    a.andi(t1, t0, (words - 1) & ~3);
    a.add(t2, s2, t1);
    a.lw(t3, t2, 0);
    a.add(t3, t3, t0);
    a.sw(t3, t2, 0);
    a.addi(s1, s1, 4);
    a.addi(s0, s0, -1);
    a.bne(s0, zero, "loop");

    a.li(t0, 0xfffff);
    a.and_(a0, s3, t0);
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
    auto program = std::make_shared<const prog::Program>(makeProgram());

    // 1. Functional run: the architectural reference.
    func::FuncSim ref(*program);
    ref.run();
    std::printf("functional output: %s", ref.output().c_str());
    std::printf("instructions: %llu\n\n",
                (unsigned long long)ref.retired());

    // 2. Timing runs with the paper's configuration (the request's
    //    default), at two nodes.
    driver::RunRequest req;
    req.program = program;
    req.config.numNodes = 2;

    std::printf("%-28s %10s %8s\n", "system", "cycles", "IPC");
    for (auto [system, label] :
         {std::pair{driver::SystemKind::Perfect, "perfect data cache"},
          {driver::SystemKind::DataScalar, "DataScalar (2 nodes)"},
          {driver::SystemKind::Traditional,
           "traditional (1/2 on-chip)"}}) {
        req.system = system;
        driver::RunResponse resp = driver::runOne(req);
        if (!resp.ok()) {
            std::fprintf(stderr, "quickstart: %s\n", resp.error.c_str());
            return 1;
        }
        std::printf("%-28s %10llu %8.3f\n", label,
                    (unsigned long long)resp.result.cycles,
                    resp.result.ipc);
    }
    return 0;
}
