/**
 * @file
 * Regenerates Figure 7: instructions per cycle across the five
 * systems — perfect data cache, DataScalar at 2 and 4 nodes, and
 * the traditional system with 1/2 and 1/4 of memory on-chip — for
 * the six timing benchmarks (applu, compress, go, mgrid, turb3d,
 * wave5).
 *
 * The thirty (workload × system) points are independent simulations
 * and run concurrently (BENCH_JOBS workers, default = hardware);
 * output is byte-identical at any job count.
 *
 * Paper's findings reproduced here as shape, not absolute numbers:
 *  - DataScalar outperforms the traditional system on (almost) all
 *    benchmarks, by more at four nodes (9%-15% in the paper);
 *  - compress gains most (stores never cross the chip boundary);
 *  - DataScalar degrades little from finer-grained distribution
 *    (2 -> 4 nodes) while the traditional system degrades sharply.
 */

#include <cstdio>
#include <iostream>

#include "bench/bench_util.hh"
#include "driver/driver.hh"
#include "workloads/workloads.hh"

using namespace dscalar;

int
main()
{
    bench::banner("Figure 7", "timing-simulation IPC comparison");
    driver::RunRequest base;
    base.config.maxInsts = bench::defaultBudget(300'000);

    stats::Table table = driver::fig7IpcTable(
        workloads::timingWorkloadNames(), base, bench::benchJobs());
    table.print(std::cout);

    std::printf("\npaper: 2-node DataScalar 7%% slower to 15%% "
                "faster; 4-node 9%%-15%% faster; compress nearly "
                "doubles; DS2->DS4 drop < 0.5 IPC while trad "
                "drops 0.2-0.6 IPC\n");
    return 0;
}
