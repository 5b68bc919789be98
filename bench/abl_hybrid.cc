/**
 * @file
 * Ablation: hybrid execution models (Section 5.2).
 *
 * The same hardware (N processor/memory nodes) can run as a
 * DataScalar machine (SPSD: redundant computation, ESP broadcasts)
 * or as a parallel processor (SPMD: partitioned computation, local
 * memory). The paper argues the models complement one another:
 * parallel codes should use SPMD; codes "for which traditional
 * parallelization techniques fail" are where DataScalar earns its
 * keep. This bench shows both halves.
 */

#include <cstdio>
#include <iostream>

#include "baseline/spmd.hh"
#include "bench/bench_util.hh"
#include "core/datascalar.hh"
#include "driver/driver.hh"
#include "stats/table.hh"
#include "workloads/workloads.hh"

using namespace dscalar;

int
main()
{
    bench::banner("Ablation: hybrid execution",
                  "SPSD (DataScalar) vs SPMD (parallel) on the same "
                  "hardware");
    InstSeq budget = bench::defaultBudget(200'000);

    // Part 1: a parallelizable 2-D relaxation.
    std::printf("parallelizable stencil (speedup over 1-node "
                "serial run):\n");
    stats::Table table({"nodes", "SPMD-cycles", "DataScalar-cycles",
                        "SPMD-speedup", "DS-speedup"});

    // Part 1 runs to completion: truncating the serial run but not
    // the (shorter) partitions would distort the speedup.
    core::SimConfig cfg = driver::paperConfig();
    prog::Program serial = workloads::buildStencilStrip(0, 1, 1);
    baseline::SpmdResult base =
        baseline::runSpmd({serial}, cfg);

    for (unsigned nodes : {2u, 4u}) {
        std::vector<prog::Program> strips;
        for (unsigned n = 0; n < nodes; ++n)
            strips.push_back(
                workloads::buildStencilStrip(n, nodes, 1));
        baseline::SpmdResult spmd = baseline::runSpmd(strips, cfg);

        core::SimConfig ds_cfg = cfg;
        ds_cfg.numNodes = nodes;
        core::DataScalarSystem ds(
            serial, ds_cfg,
            driver::figure7PageTable(serial, nodes));
        core::RunResult ds_r = ds.run();

        table.addRow(
            {std::to_string(nodes), std::to_string(spmd.cycles),
             std::to_string(ds_r.cycles),
             stats::Table::num(
                 static_cast<double>(base.cycles) / spmd.cycles, 2),
             stats::Table::num(
                 static_cast<double>(base.cycles) / ds_r.cycles,
                 2)});
    }
    table.print(std::cout);

    // Part 2: a non-parallelizable code — SPMD cannot split it, so
    // its only option is one node plus idle silicon; DataScalar uses
    // all nodes' memory to speed the single thread.
    std::printf("\nserial (unparallelizable) code -- compress:\n");
    prog::Program comp = workloads::findWorkload("compress_s").build(1);
    cfg.maxInsts = budget;
    baseline::SpmdResult one = baseline::runSpmd({comp}, cfg);
    // The single SPMD node only has 1/N of the machine's memory;
    // the honest comparison is against the traditional system with
    // 1/4 on-chip.
    driver::RunRequest req;
    req.workload = "compress_s";
    req.config = cfg;
    req.config.numNodes = 4;
    driver::TraceCache cache;
    req.system = driver::SystemKind::Traditional;
    core::RunResult trad = bench::runOrExit(req, &cache);
    req.system = driver::SystemKind::DataScalar;
    core::RunResult ds = bench::runOrExit(req, &cache);
    std::printf("  all-memory-local single node (upper bound): "
                "%llu cycles\n",
                (unsigned long long)one.cycles);
    std::printf("  one node + 3/4 memory remote (realistic):    "
                "%llu cycles\n",
                (unsigned long long)trad.cycles);
    std::printf("  DataScalar across all 4 nodes:               "
                "%llu cycles\n",
                (unsigned long long)ds.cycles);

    std::printf("\nexpected: SPMD wins (near-linear) where the code "
                "partitions; DataScalar recovers most of the memory "
                "penalty where it does not -- the paper's argument "
                "for a hybrid machine\n");
    return 0;
}
