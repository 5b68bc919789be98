#include "driver/driver.hh"

#include "common/logging.hh"
#include "func/func_sim.hh"
#include "mem/cache.hh"

namespace dscalar {
namespace driver {

// paperConfig and the SystemKind/InterconnectKind helpers are defined
// with the RunRequest API in driver/run_request.cc.

mem::CacheParams
table1CacheParams()
{
    return mem::CacheParams{64 * 1024, 2, 32, true};
}

core::PageHeat
profilePages(const prog::Program &program, InstSeq max_insts)
{
    func::FuncSim sim(program);
    core::PageHeat heat;
    sim.setMemHook([&heat](Addr addr, unsigned, bool) {
        ++heat[prog::pageBase(addr)];
    });
    sim.setFetchHook(
        [&heat](Addr pc) { ++heat[prog::pageBase(pc)]; });
    sim.run(max_insts ? max_insts : ~static_cast<InstSeq>(0));
    return heat;
}

core::PageHeat
profilePages(const func::InstTrace &trace)
{
    core::PageHeat heat;
    trace.forEach([&heat](Addr pc, const isa::Instruction &,
                          Addr eff_addr, unsigned mem_size) {
        ++heat[prog::pageBase(pc)];
        if (mem_size)
            ++heat[prog::pageBase(eff_addr)];
    });
    return heat;
}

// -------------------------------------------------------------------
// Table 1
// -------------------------------------------------------------------

double
TrafficResult::bytesEliminated() const
{
    if (totalBytes() == 0)
        return 0.0;
    return static_cast<double>(requestBytes + writeBackBytes) /
           static_cast<double>(totalBytes());
}

double
TrafficResult::transactionsEliminated() const
{
    if (totalTransactions() == 0)
        return 0.0;
    return static_cast<double>(requests + writeBacks) /
           static_cast<double>(totalTransactions());
}

namespace {

/** The Table 1 memHook body, shared by the functional-run and
 *  trace-pass overloads so both decompose traffic identically. */
class TrafficAccumulator
{
  public:
    explicit TrafficAccumulator(const mem::CacheParams &dcache_params)
        : dcache_(dcache_params), line_(dcache_params.lineSize)
    {
    }

    void
    access(Addr addr, bool is_write)
    {
        constexpr std::uint64_t header = 8;
        mem::CacheAccessResult r = dcache_.access(addr, is_write);
        if (!r.hit && r.allocated) {
            // Miss fetch: one request out, one line response back.
            ++result.requests;
            result.requestBytes += header;
            ++result.responses;
            result.responseBytes += header + line_;
        } else if (!r.hit && !r.allocated) {
            // Write-noallocate store miss: a word write crosses the
            // interconnect (counts as write traffic ESP removes).
            ++result.writeBacks;
            result.writeBackBytes += header + 8;
        }
        if (r.evicted && r.victimDirty) {
            ++result.writeBacks;
            result.writeBackBytes += header + line_;
        }
    }

    TrafficResult result;

  private:
    mem::Cache dcache_;
    std::uint64_t line_;
};

} // namespace

TrafficResult
measureEspTraffic(const prog::Program &program, InstSeq max_insts,
                  const mem::CacheParams &dcache_params)
{
    func::FuncSim sim(program);
    TrafficAccumulator acc(dcache_params);
    sim.setMemHook([&acc](Addr addr, unsigned, bool is_write) {
        acc.access(addr, is_write);
    });
    sim.run(max_insts ? max_insts : ~static_cast<InstSeq>(0));
    return acc.result;
}

TrafficResult
measureEspTraffic(const func::InstTrace &trace,
                  const mem::CacheParams &dcache_params)
{
    TrafficAccumulator acc(dcache_params);
    trace.forEach([&acc](Addr, const isa::Instruction &inst,
                         Addr eff_addr, unsigned mem_size) {
        if (mem_size)
            acc.access(eff_addr, inst.isStore());
    });
    return acc.result;
}

// -------------------------------------------------------------------
// Table 2
// -------------------------------------------------------------------

void
RunCounter::feed(NodeId node)
{
    ++refs_;
    if (!active_ || node != curNode_) {
        if (active_)
            ++completedRuns_;
        active_ = true;
        curNode_ = node;
    }
}

std::uint64_t
RunCounter::runs() const
{
    return completedRuns_ + (active_ ? 1 : 0);
}

double
RunCounter::mean() const
{
    std::uint64_t r = runs();
    return r ? static_cast<double>(refs_) / static_cast<double>(r) : 0.0;
}

namespace {

/**
 * The Table 2 hook bodies, shared by the functional-run and
 * trace-pass overloads. Order-sensitive: each instruction's fetch is
 * classified before its data access, exactly as FuncSim fires its
 * hooks, so both overloads walk the miss stream identically.
 */
class DatathreadAccumulator
{
  public:
    explicit DatathreadAccumulator(const mem::PageTable &ptable)
        // Section 3's study cache (shared approximation for both
        // reference kinds; the paper filtered through its L1).
        : ptable_(ptable), dcache_(table1CacheParams()),
          icache_(table1CacheParams())
    {
    }

    void
    fetch(Addr pc)
    {
        Addr iline = icache_.lineAlign(pc);
        if (iline == lastIline_)
            return;
        lastIline_ = iline;
        mem::CacheAccessResult r = icache_.access(pc, false);
        if (!r.hit)
            classify(pc, true);
    }

    void
    data(Addr addr, bool is_write)
    {
        mem::CacheAccessResult r = dcache_.access(addr, is_write);
        if (!r.hit)
            classify(addr, false);
    }

    DatathreadResult
    finish(const core::ReplicationReport &rep) const
    {
        DatathreadResult result;
        result.replicated = rep;
        result.missRefs = missRefs_;
        result.meanAll = all_.mean();
        result.meanText = text_.mean();
        result.meanData = data_.mean();
        result.meanRepl =
            replRuns_ ? static_cast<double>(replRefs_) /
                            static_cast<double>(replRuns_)
                      : 0.0;
        return result;
    }

  private:
    void
    classify(Addr addr, bool is_text)
    {
        ++missRefs_;
        mem::PageEntry entry = ptable_.lookup(addr);
        if (entry.replicated) {
            ++replRefs_;
            if (!inReplRun_) {
                inReplRun_ = true;
                ++replRuns_;
            }
            // Replicated references are local everywhere and do not
            // break a communicated run.
            return;
        }
        inReplRun_ = false;
        all_.feed(entry.owner);
        if (is_text)
            text_.feed(entry.owner);
        else
            data_.feed(entry.owner);
    }

    const mem::PageTable &ptable_;
    mem::Cache dcache_;
    mem::Cache icache_;
    Addr lastIline_ = invalidAddr;
    RunCounter all_;
    RunCounter text_;
    RunCounter data_;
    std::uint64_t missRefs_ = 0;
    // Replicated-run counting: consecutive *replicated* misses.
    std::uint64_t replRefs_ = 0;
    std::uint64_t replRuns_ = 0;
    bool inReplRun_ = false;
};

} // namespace

DatathreadResult
measureDatathreads(const prog::Program &program,
                   const mem::PageTable &ptable,
                   const core::ReplicationReport &rep,
                   InstSeq max_insts)
{
    func::FuncSim sim(program);
    DatathreadAccumulator acc(ptable);

    sim.setMemHook([&acc](Addr addr, unsigned, bool is_write) {
        acc.data(addr, is_write);
    });
    sim.setFetchHook([&acc](Addr pc) { acc.fetch(pc); });

    sim.run(max_insts ? max_insts : ~static_cast<InstSeq>(0));
    return acc.finish(rep);
}

DatathreadResult
measureDatathreads(const func::InstTrace &trace,
                   const mem::PageTable &ptable,
                   const core::ReplicationReport &rep)
{
    DatathreadAccumulator acc(ptable);
    trace.forEach([&acc](Addr pc, const isa::Instruction &inst,
                         Addr eff_addr, unsigned mem_size) {
        acc.fetch(pc);
        if (mem_size)
            acc.data(eff_addr, inst.isStore());
    });
    return acc.finish(rep);
}

// -------------------------------------------------------------------
// Figure 7
// -------------------------------------------------------------------

mem::PageTable
figure7PageTable(const prog::Program &program, unsigned num_nodes,
                 unsigned block_pages)
{
    core::DistributionConfig dist;
    dist.numNodes = num_nodes;
    dist.replicateText = true;
    dist.replicatedDataPages = 0;
    dist.blockPages = block_pages;
    return core::buildPageTable(program, dist);
}

stats::Table
fig7IpcTable(const std::vector<std::string> &workload_names,
             const RunRequest &base, unsigned jobs, std::string *error)
{
    std::vector<RunRequest> requests;
    for (const std::string &name : workload_names) {
        RunRequest req = base;
        req.workload = name;
        auto add = [&](SystemKind system, unsigned nodes) {
            req.system = system;
            req.config.numNodes = nodes;
            requests.push_back(req);
        };
        add(SystemKind::Perfect, 2);
        add(SystemKind::DataScalar, 2);
        add(SystemKind::DataScalar, 4);
        add(SystemKind::Traditional, 2);
        add(SystemKind::Traditional, 4);
    }

    TraceCache cache;
    std::vector<RunResponse> responses = runMany(requests, cache, jobs);
    for (std::size_t i = 0; i < responses.size(); ++i) {
        if (responses[i].ok())
            continue;
        const RunRequest &req = requests[i];
        std::string what = req.workload + " " +
                           systemKindName(req.system) + "-" +
                           std::to_string(req.config.numNodes) + ": " +
                           responses[i].error;
        if (!error)
            fatal("Figure 7 point %s", what.c_str());
        *error = what;
        return stats::Table({});
    }

    stats::Table table({"benchmark", "perfect", "DS-2", "DS-4",
                        "trad-1/2", "trad-1/4", "DS2/trad2",
                        "DS4/trad4"});
    for (std::size_t w = 0; w < workload_names.size(); ++w) {
        const core::RunResult &perfect = responses[5 * w + 0].result;
        const core::RunResult &ds2 = responses[5 * w + 1].result;
        const core::RunResult &ds4 = responses[5 * w + 2].result;
        const core::RunResult &t2 = responses[5 * w + 3].result;
        const core::RunResult &t4 = responses[5 * w + 4].result;
        table.addRow({workload_names[w],
                      stats::Table::num(perfect.ipc, 3),
                      stats::Table::num(ds2.ipc, 3),
                      stats::Table::num(ds4.ipc, 3),
                      stats::Table::num(t2.ipc, 3),
                      stats::Table::num(t4.ipc, 3),
                      stats::Table::num(ds2.ipc / t2.ipc, 2),
                      stats::Table::num(ds4.ipc / t4.ipc, 2)});
    }
    return table;
}

} // namespace driver
} // namespace dscalar
