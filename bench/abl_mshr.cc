/**
 * @file
 * Ablation: outstanding-miss (MSHR) capacity.
 *
 * The paper assumes caches that "can support an arbitrarily high
 * number of outstanding requests". Datathreading's benefit comes
 * from memory-level parallelism — an owner streaming several owned
 * lines while others wait — so bounding the outstanding fills
 * quantifies how much of that parallelism the results depend on.
 */

#include <cstdio>
#include <iostream>

#include "bench/bench_util.hh"
#include "driver/driver.hh"
#include "stats/table.hh"

using namespace dscalar;

int
main()
{
    bench::banner("Ablation: MSHR capacity",
                  "bounded outstanding line fills, 2-node "
                  "DataScalar");
    InstSeq budget = bench::defaultBudget(150'000);

    // Each workload is captured once and replayed by all six runs.
    driver::TraceCache cache;
    for (const char *name : {"applu_s", "wave5_s", "compress_s"}) {
        std::printf("-- %s --\n", name);
        stats::Table table({"MSHRs", "IPC", "vs-unlimited"});

        driver::RunRequest req;
        req.workload = name;
        req.config.numNodes = 2;
        req.config.maxInsts = budget;
        double unlimited = bench::runOrExit(req, &cache).ipc;

        for (unsigned mshrs : {1u, 2u, 4u, 8u, 16u}) {
            req.config.core.maxOutstandingFills = mshrs;
            core::RunResult r = bench::runOrExit(req, &cache);
            table.addRow({std::to_string(mshrs),
                          stats::Table::num(r.ipc, 3),
                          stats::Table::num(r.ipc / unlimited, 2)});
        }
        table.addRow({"unlimited", stats::Table::num(unlimited, 3),
                      "1.00"});
        table.print(std::cout);
        std::printf("\n");
    }
    return 0;
}
