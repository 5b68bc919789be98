/**
 * @file
 * Experiment driver: shared machinery for the bench binaries,
 * examples, and integration tests — the paper's default
 * configuration, page-heat profiling, the Table 1 ESP traffic study,
 * the Table 2 datathread-length study, and the Figure 7 page
 * placement and IPC table. Timing runs go through runOne/runMany
 * (driver/run_request.hh, re-exported here).
 */

#ifndef DSCALAR_DRIVER_DRIVER_HH
#define DSCALAR_DRIVER_DRIVER_HH

#include <cstdint>
#include <string>
#include <vector>

#include "core/distribution.hh"
#include "core/sim_config.hh"
#include "driver/run_request.hh"
#include "driver/trace_cache.hh"
#include "func/inst_trace.hh"
#include "prog/program.hh"
#include "stats/table.hh"

namespace dscalar {
namespace driver {

// paperConfig, SystemKind, the name/parse helpers, and the
// RunRequest/RunResponse runOne/runMany API live in
// driver/run_request.hh (re-exported by the include above).

/** The Table 1 / Section 3 study cache: 64 KB two-way 32 B lines,
 *  write-allocate write-back. */
mem::CacheParams table1CacheParams();

/**
 * Profile per-page access counts (instruction and data) with a
 * functional run, for hot-page replication decisions.
 */
core::PageHeat profilePages(const prog::Program &program,
                            InstSeq max_insts = 0);

/** Rederive the same page heat from a captured trace in one pass,
 *  without re-executing the program. Identical counts to the
 *  functional-run overload over the same prefix. */
core::PageHeat profilePages(const func::InstTrace &trace);

// -------------------------------------------------------------------
// Table 1: off-chip traffic eliminated by ESP
// -------------------------------------------------------------------

/** Traffic decomposition of an in-order cache-filtered run. */
struct TrafficResult
{
    std::uint64_t requestBytes = 0;
    std::uint64_t responseBytes = 0;
    std::uint64_t writeBackBytes = 0;
    std::uint64_t requests = 0;
    std::uint64_t responses = 0;
    std::uint64_t writeBacks = 0;

    std::uint64_t
    totalBytes() const
    {
        return requestBytes + responseBytes + writeBackBytes;
    }
    std::uint64_t
    totalTransactions() const
    {
        return requests + responses + writeBacks;
    }
    /** Fraction of bytes ESP removes (requests + write-backs). */
    double bytesEliminated() const;
    /** Fraction of transactions ESP removes. */
    double transactionsEliminated() const;
};

/**
 * Run @p program through an in-order simulation with the Table 1
 * cache (64 KB 2-way write-allocate write-back by default) and
 * decompose the resulting off-chip traffic.
 */
TrafficResult measureEspTraffic(const prog::Program &program,
                                InstSeq max_insts = 0,
                                const mem::CacheParams &dcache =
                                    table1CacheParams());

/** Same decomposition from a captured trace, one pass, no
 *  re-execution. Byte-identical to the functional-run overload. */
TrafficResult measureEspTraffic(const func::InstTrace &trace,
                                const mem::CacheParams &dcache =
                                    table1CacheParams());

// -------------------------------------------------------------------
// Table 2: datathread-length approximation
// -------------------------------------------------------------------

/** Arithmetic-mean run length of consecutive same-node references. */
class RunCounter
{
  public:
    /** Feed one communicated reference local to @p node. */
    void feed(NodeId node);

    double mean() const;
    std::uint64_t refs() const { return refs_; }
    std::uint64_t runs() const;

  private:
    bool active_ = false;
    NodeId curNode_ = 0;
    std::uint64_t refs_ = 0;
    std::uint64_t completedRuns_ = 0;
};

/** Table 2 row: datathread approximations for one benchmark. */
struct DatathreadResult
{
    core::ReplicationReport replicated;
    double meanAll = 0.0;   ///< all cache misses
    double meanText = 0.0;  ///< instruction misses only
    double meanData = 0.0;  ///< data misses only
    double meanRepl = 0.0;  ///< contiguous replicated-page accesses
    std::uint64_t missRefs = 0;
};

/**
 * Measure datathread lengths for @p program under the placement in
 * @p ptable: cache-filtered miss streams (paper Section 3.2 cache:
 * 64 KB two-way) attributed to owning nodes.
 */
DatathreadResult measureDatathreads(const prog::Program &program,
                                    const mem::PageTable &ptable,
                                    const core::ReplicationReport &rep,
                                    InstSeq max_insts = 0);

/** Same study from a captured trace, one pass, no re-execution.
 *  Byte-identical to the functional-run overload. */
DatathreadResult measureDatathreads(const func::InstTrace &trace,
                                    const mem::PageTable &ptable,
                                    const core::ReplicationReport &rep);

// -------------------------------------------------------------------
// Figure 7
// -------------------------------------------------------------------

/** Distribute pages for an N-node run (no static data replication,
 *  text replicated — the paper's Figure 7 setup). */
mem::PageTable figure7PageTable(const prog::Program &program,
                                unsigned num_nodes,
                                unsigned block_pages = 1);

/**
 * The Figure 7 sweep — perfect, DataScalar at 2/4 nodes, and the
 * traditional system at 1/2 and 1/4 memory — for each named
 * workload, as a formatted IPC table. Every point is @p base with
 * the workload, system and node count the figure sets; the budget,
 * interconnect, faults, recovery, BSHR and cycle skipping all come
 * from @p base. One TraceCache serves the table: each workload's
 * trace is captured once and every point replays it. All points run
 * concurrently under @p jobs. A failed point is fatal unless @p
 * error is given: then it names the first failed point and the table
 * is empty.
 */
stats::Table
fig7IpcTable(const std::vector<std::string> &workload_names,
             const RunRequest &base, unsigned jobs = 1,
             std::string *error = nullptr);

} // namespace driver
} // namespace dscalar

#endif // DSCALAR_DRIVER_DRIVER_HH
