/**
 * @file
 * Shared helpers for the table/figure regeneration binaries.
 *
 * Instruction budgets are scaled down from the paper's 100M-per-run
 * (their runs took machine-days in 1997); the BENCH_SCALE environment
 * variable multiplies every budget for longer, higher-fidelity runs.
 */

#ifndef DSCALAR_BENCH_BENCH_UTIL_HH
#define DSCALAR_BENCH_BENCH_UTIL_HH

#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "common/types.hh"
#include "driver/run_request.hh"

namespace dscalar {
namespace bench {

/** Budget multiplier from the BENCH_SCALE environment variable. */
inline unsigned
benchScale()
{
    const char *env = std::getenv("BENCH_SCALE");
    if (!env)
        return 1;
    long v = std::atol(env);
    return v >= 1 ? static_cast<unsigned>(v) : 1;
}

/** Default per-run dynamic-instruction budget. */
inline InstSeq
defaultBudget(InstSeq base)
{
    return base * benchScale();
}

/**
 * Worker count for parallel experiment sweeps: the BENCH_JOBS
 * environment variable, defaulting to hardware concurrency. Sweep
 * output is byte-identical at any job count (results are ordered by
 * point, not by completion), so parallelism is safe to default on.
 */
inline unsigned
benchJobs()
{
    const char *env = std::getenv("BENCH_JOBS");
    if (env) {
        long v = std::atol(env);
        return v >= 1 ? static_cast<unsigned>(v) : 1;
    }
    unsigned hw = std::thread::hardware_concurrency();
    return hw ? hw : 1;
}

/**
 * Run @p req, replaying @p cache's shared capture when one is given.
 * A failed run prints its error and exits 1: a table with a missing
 * point is not the experiment.
 */
inline core::RunResult
runOrExit(const driver::RunRequest &req,
          driver::TraceCache *cache = nullptr)
{
    driver::RunResponse resp = driver::runOne(req, cache);
    if (!resp.ok()) {
        std::fprintf(stderr, "%s run failed: %s\n",
                     driver::systemKindName(req.system),
                     resp.error.c_str());
        std::exit(1);
    }
    return resp.result;
}

/** Banner naming the experiment and its provenance in the paper. */
inline void
banner(const char *experiment_id, const char *description)
{
    std::printf("==============================================="
                "=====================\n");
    std::printf("%s -- %s\n", experiment_id, description);
    std::printf("DataScalar Architectures (ISCA 1997) "
                "reproduction\n");
    std::printf("==============================================="
                "=====================\n\n");
}

} // namespace bench
} // namespace dscalar

#endif // DSCALAR_BENCH_BENCH_UTIL_HH
