/**
 * @file
 * Bring-your-own-kernel walkthrough: define a workload with the
 * assembler DSL, then run the paper's full experiment methodology on
 * it — ESP traffic study (Table 1), datathread measurement
 * (Table 2), and the five-system timing comparison (Figure 7) — in
 * one sitting.
 *
 * The kernel here is a banded sparse matrix-vector product, a shape
 * the paper's benchmark set does not include.
 */

#include <cstdio>
#include <cstdlib>
#include <memory>

#include "core/distribution.hh"
#include "driver/driver.hh"
#include "prog/assembler.hh"
#include "workloads/workloads.hh"

using namespace dscalar;
using namespace dscalar::prog::reg;

namespace {

/** y = A*x for a banded matrix stored by diagonals. */
prog::Program
makeSpmv()
{
    prog::Program p;
    p.name = "spmv_band";
    constexpr std::uint32_t n = 24 * 1024;  // vector length
    constexpr unsigned bands = 5;

    // allocArray staggers bases so the six streams do not collide
    // in the direct-mapped L1 (each diagonal is a multiple of 16 KB
    // long; without padding every row's five diagonal loads would
    // map to one set).
    Addr x = workloads::allocArray(p, n * 8);
    Addr y = workloads::allocArray(p, n * 8);
    Addr diags = workloads::allocArray(p, bands * n * 8 + bands * 1312);
    const std::uint64_t diag_stride = n * 8 + 1312;

    for (std::uint32_t i = 0; i < n; i += 2)
        p.pokeDouble(x + 8ull * i, 1.0 + (i % 11) * 0.125);
    for (unsigned b = 0; b < bands; ++b)
        for (std::uint32_t i = 0; i < n; i += 3)
            p.pokeDouble(diags + b * diag_stride + 8ull * i,
                         0.5 + (i % 7) * 0.0625);

    prog::Assembler a(p);
    a.la(s1, x);
    a.la(s2, y);
    a.la(s3, diags);
    a.li(s0, n - 4);
    a.li(s7, 2); // row index (skip the band edges)

    a.label("row");
    a.slli(t0, s7, 3);
    a.add(t1, s1, t0);        // &x[i]
    a.add(t2, s3, t0);        // &diag0[i]
    a.li(t7, 0);
    for (unsigned b = 0; b < 5; ++b) {
        auto xoff = static_cast<std::int32_t>(8 * b) - 16;
        // advance t2 to diagonal b (staggered stride keeps the
        // streams set-disjoint)
        if (b > 0) {
            a.li(t6, static_cast<std::int32_t>(diag_stride));
            a.add(t2, t2, t6);
        }
        a.ld(t3, t2, 0);
        a.ld(t4, t1, xoff);
        a.fmul(t3, t3, t4);
        a.fadd(t7, t7, t3);
    }
    a.add(t5, s2, t0);
    a.sd(t7, t5, 0);
    a.addi(s7, s7, 1);
    a.addi(s0, s0, -1);
    a.bne(s0, zero, "row");

    a.ld(t0, s2, 8 * 100);
    a.cvtfi(a0, t0);
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
    auto program = std::make_shared<const prog::Program>(makeSpmv());
    const prog::Program &p = *program;
    constexpr InstSeq budget = 200'000;

    std::printf("custom workload: %s "
                "(banded SpMV, %zu pages)\n\n",
                p.name.c_str(), p.touchedPages().size());

    // 1. Table 1 methodology: how much traffic would ESP remove?
    driver::TrafficResult t = driver::measureEspTraffic(p, budget);
    std::printf("ESP traffic study: %.0f%% of bytes, %.0f%% of "
                "transactions eliminated\n",
                t.bytesEliminated() * 100.0,
                t.transactionsEliminated() * 100.0);

    // 2. Table 2 methodology: datathread lengths at 4 nodes.
    core::DistributionConfig dist;
    dist.numNodes = 4;
    dist.blockPages = 4;
    core::ReplicationReport rep;
    mem::PageTable ptable =
        core::buildPageTable(p, dist, nullptr, &rep);
    driver::DatathreadResult d =
        driver::measureDatathreads(p, ptable, rep, budget);
    std::printf("datathreads (4 nodes, 4-page blocks): "
                "all %.1f, data %.1f\n\n",
                d.meanAll, d.meanData);

    // 3. Figure 7 methodology: the five systems.
    driver::RunRequest req;
    req.program = program;
    req.config.maxInsts = budget;
    auto run = [&req](driver::SystemKind system, unsigned nodes) {
        req.system = system;
        req.config.numNodes = nodes;
        driver::RunResponse resp = driver::runOne(req);
        if (!resp.ok()) {
            std::fprintf(stderr, "custom_workload: %s\n",
                         resp.error.c_str());
            std::exit(1);
        }
        return resp.result;
    };
    core::RunResult perfect = run(driver::SystemKind::Perfect, 2);
    core::RunResult ds2 = run(driver::SystemKind::DataScalar, 2);
    core::RunResult t2 = run(driver::SystemKind::Traditional, 2);
    core::RunResult ds4 = run(driver::SystemKind::DataScalar, 4);
    core::RunResult t4 = run(driver::SystemKind::Traditional, 4);

    std::printf("%-26s %8s\n", "system", "IPC");
    std::printf("%-26s %8.3f\n", "perfect data cache", perfect.ipc);
    std::printf("%-26s %8.3f\n", "DataScalar (2 nodes)", ds2.ipc);
    std::printf("%-26s %8.3f\n", "DataScalar (4 nodes)", ds4.ipc);
    std::printf("%-26s %8.3f\n", "traditional (1/2)", t2.ipc);
    std::printf("%-26s %8.3f\n", "traditional (1/4)", t4.ipc);
    std::printf("\nDataScalar vs traditional: %.2fx at 2 nodes, "
                "%.2fx at 4 nodes\n",
                ds2.ipc / t2.ipc, ds4.ipc / t4.ipc);
    std::printf("\nreading the result: six interleaved streams give "
                "SpMV datathreads of ~1 (see above) -- DataScalar's "
                "weakest regime, like the paper's 2-node mgrid/"
                "turb3d losses. It still wins once the traditional "
                "system holds only 1/4 of memory on-chip.\n");
    return 0;
}
