/**
 * @file
 * `dsexp [name...]` regenerates the paper's Section 4 evaluation
 * (Tables 1-3, Figures 1, 3, 7, 8) and eight ablations: the named
 * experiments, or all in table order, over one shared TraceCache
 * (Figure 7 keeps its own). An unknown name exits 2. Budgets are
 * scaled down from the paper's 100M instructions per run; BENCH_SCALE
 * multiplies them. BENCH_JOBS sets the workers (default: hardware);
 * output is identical at any count and, at BENCH_SCALE=1, equals
 * tests/golden/experiments/<name>.txt.
 */

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <ranges>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "baseline/mmm.hh"
#include "baseline/spmd.hh"
#include "common/thread_pool.hh"
#include "core/datascalar.hh"
#include "core/result_comm.hh"
#include "driver/driver.hh"
#include "prog/assembler.hh"
#include "stats/snapshot.hh"
#include "stats/table.hh"
#include "workloads/workloads.hh"

using namespace dscalar;
using driver::RunRequest;
using driver::RunResponse;
using driver::SystemKind;
using stats::Table;
using std::to_string;

namespace {

/** @p name from the environment, at least 1; @p unset when absent. */
unsigned
envCount(const char *name, unsigned unset)
{
    const char *env = std::getenv(name);
    return env ? std::max(1L, std::atol(env)) : unset;
}

const unsigned kScale = envCount("BENCH_SCALE", 1);
const unsigned kJobs = envCount(
    "BENCH_JOBS", std::max(1u, std::thread::hardware_concurrency()));

/** Every workload is built, and captured per budget, once. */
driver::TraceCache g_cache;

/** A DataScalar run of @p workload for @p insts times BENCH_SCALE. */
RunRequest
request(const std::string &workload, InstSeq insts, unsigned nodes = 2)
{
    RunRequest req;
    req.workload = workload;
    req.config.maxInsts = insts * kScale;
    req.config.numNodes = nodes;
    return req;
}

/** Run every point over the shared cache. A failed point exits 1: a
 *  table with a missing point is not the experiment. */
std::vector<RunResponse>
runAll(const std::vector<RunRequest> &requests)
{
    std::vector<RunResponse> out =
        driver::runMany(requests, g_cache, kJobs);
    for (std::size_t i = 0; i < out.size(); ++i)
        if (!out[i].ok()) {
            std::fprintf(stderr, "%s run failed: %s\n",
                         driver::systemKindName(requests[i].system),
                         out[i].error.c_str());
            std::exit(1);
        }
    return out;
}

/** Counter @p group.@p name of a finished run; a missing one exits 1. */
std::uint64_t
counter(const RunResponse &resp, const std::string &group,
        const char *name)
{
    if (const stats::Counter *c = resp.result.stats->counter(group, name))
        return c->value();
    std::fprintf(stderr, "dsexp: no counter %s.%s\n", group.c_str(), name);
    std::exit(1);
}

/** request(name, insts), with @p vary applying each variant, for
 *  every workload and variant in that order. */
template <class Variants, class Vary>
std::vector<RunResponse>
sweep(const std::vector<std::string> &names, const Variants &variants,
      InstSeq insts, Vary vary)
{
    std::vector<RunRequest> reqs;
    for (const std::string &name : names)
        for (const auto &v : variants) {
            reqs.push_back(request(name, insts));
            vary(reqs.back(), v);
        }
    return runAll(reqs);
}

/** @p table under a "-- @p heading --" line, then a blank line. */
void
printBlock(const std::string &heading, const Table &table)
{
    std::printf("-- %s --\n", heading.c_str());
    table.print(std::cout);
    std::printf("\n");
}

/** In-order runs of all fourteen substitutes through the study cache;
 *  paper: 25%-45% of bytes, 50%-75% of transactions. */
void
table1()
{
    InstSeq insts = 2'000'000 * kScale;
    const auto &all = workloads::allWorkloads();
    std::vector<driver::TrafficResult> results(all.size());
    common::parallelFor(kJobs, all.size(), [&](std::size_t i) {
        results[i] = driver::measureEspTraffic(
            *g_cache.acquire(all[i].name, 1, insts));
    });

    Table table({"benchmark", "(SPEC95)", "traffic-bytes",
                 "transactions", "req", "resp", "writes"});
    for (std::size_t i = 0; i < all.size(); ++i) {
        const driver::TrafficResult &t = results[i];
        table.addRow({all[i].name, all[i].spec,
                      Table::pct(t.bytesEliminated()),
                      Table::pct(t.transactionsEliminated()),
                      to_string(t.requests), to_string(t.responses),
                      to_string(t.writeBacks)});
    }
    table.print(std::cout);
    std::printf("\npaper: bytes eliminated 25%%-45%%, transactions "
                "50%%-75%% (>=50%% by construction)\n");
    auto [lo, hi] = std::ranges::minmax(
        results, {}, &driver::TrafficResult::bytesEliminated);
    std::printf("ours:  bytes eliminated %.0f%%-%.0f%%\n",
                lo.bytesEliminated() * 100.0, hi.bytesEliminated() * 100.0);
}

/** Round-robin block size in pages, by the paper's rule: as large as
 *  possible while the largest segment still spans several owners. */
unsigned
blockPagesFor(const prog::Program &p)
{
    std::size_t largest = std::max(
        {p.pagesInSegment(prog::Segment::Global),
         p.pagesInSegment(prog::Segment::Heap),
         p.pagesInSegment(prog::Segment::Stack)});
    return std::max(1u, static_cast<unsigned>(largest / 8));
}

/** Datathread lengths at 4 nodes, with the hottest quarter of pages
 *  replicated and with none. */
void
table2()
{
    InstSeq insts = 2'000'000 * kScale;
    Table table({"benchmark", "dist(KB)", "text", "global", "heap",
                 "stack", "total-repl", "all", "text", "data", "repl"});
    Table raw({"benchmark", "all", "text", "data"});
    for (const auto &w : workloads::allWorkloads()) {
        const prog::Program &p = *g_cache.program(w.name, 1);
        auto trace = g_cache.acquire(w.name, 1, insts);
        core::PageHeat heat = driver::profilePages(*trace);
        // The paper replicates the hottest pages of any segment, so
        // text is not replicated wholesale.
        core::DistributionConfig dist_raw{.numNodes = 4, .replicateText = false,
                                          .blockPages = blockPagesFor(p)};
        core::DistributionConfig dist = dist_raw;
        dist.replicatedDataPages = p.touchedPages().size() / 4;
        core::ReplicationReport rep, rep_raw;
        driver::DatathreadResult r = driver::measureDatathreads(
            *trace, core::buildPageTable(p, dist, &heat, &rep), rep);
        driver::DatathreadResult rr = driver::measureDatathreads(
            *trace, core::buildPageTable(p, dist_raw, nullptr, &rep_raw),
            rep_raw);
        table.addRow(
            {p.name, to_string(dist.blockPages * prog::pageSize / 1024),
             to_string(rep.text), to_string(rep.global),
             to_string(rep.heap), to_string(rep.stack),
             to_string(rep.total()), Table::num(r.meanAll, 1),
             Table::num(r.meanText, 1), Table::num(r.meanData, 1),
             Table::num(r.meanRepl, 1)});
        raw.addRow({p.name, Table::num(rr.meanAll, 1),
                    Table::num(rr.meanText, 1), Table::num(rr.meanData, 1)});
    }
    table.print(std::cout);
    std::printf("\ncolumns: replicated 8KB pages per segment, then "
                "arithmetic-mean datathread-length approximations\n"
                "note: our substitutes' text segments are small enough "
                "that the hot-page budget replicates them fully (text "
                "runs 0); the paper's much larger SPEC texts were only "
                "1/3-1/2 replicated\n\n"
                "-- no-replication variant (all pages distributed) --\n");
    raw.print(std::cout);
    std::printf("\npaper: instruction datathreads are long (sequential "
                "code streams, tens to thousands); data datathreads are "
                "short (<10) for interleaved FP codes and longer for "
                "integer codes\n");
}

/** Per-node means of late broadcasts, BSHR squashes per access and
 *  remote fetches that found their data waiting. The squash
 *  denominator counts broadcast deliveries, which the stats snapshot
 *  does not export, so the system is built here. */
void
table3()
{
    constexpr unsigned nodes = 2;
    Table table({"benchmark", "late-broadcasts", "BSHR-squashes",
                 "found-in-BSHR", "broadcasts", "max-BSHR-occupancy"});
    for (const auto &name : workloads::timingWorkloadNames()) {
        const prog::Program &p = *g_cache.program(name, 1);
        core::SimConfig cfg = request(name, 300'000, nodes).config;
        core::DataScalarSystem sys(p, cfg, driver::figure7PageTable(p, nodes),
                                   g_cache.acquire(name, 1, cfg.maxInsts));
        sys.run();
        double late = 0.0, squash = 0.0, found = 0.0;
        std::uint64_t broadcasts = 0, max_occ = 0;
        for (NodeId n = 0; n < nodes; ++n) {
            const auto &ns = sys.node(n).nodeStats();
            const auto &bs = sys.node(n).bshr().bshrStats();
            if (ns.totalBroadcasts())
                late += static_cast<double>(ns.reparativeBroadcasts) /
                        ns.totalBroadcasts();
            if (bs.accesses())
                squash += static_cast<double>(bs.squashes) / bs.accesses();
            if (std::uint64_t remote = bs.bufferedHits + bs.waiterAllocs)
                found += static_cast<double>(bs.bufferedHits) / remote;
            broadcasts += ns.totalBroadcasts();
            max_occ = std::max(max_occ, bs.maxOccupancy);
        }
        table.addRow({p.name, Table::pct(late / nodes),
                      Table::pct(squash / nodes), Table::pct(found / nodes),
                      to_string(broadcasts), to_string(max_occ)});
    }
    table.print(std::cout);
    std::printf("\npaper: late 0%%-29%%, squashes 0%%-59%%, found "
                "1%%-39%%; found-in-BSHR is the datathreading signal\n");
}

/** The MMM on the paper's reference string w1..w9 (w5-w7 on machine
 *  1): a lead change before w5 stalls until it arrives at cycle 7. */
void
fig1()
{
    std::vector<NodeId> owners = {0, 0, 0, 0, 1, 1, 1, 0, 0};
    baseline::MmmResult r = baseline::runMmmEsp(
        owners, {.pipelinedStep = 1, .leadChangePenalty = 3});
    std::printf("word  owner  received-at-cycle\n"
                "--------------------------------\n");
    for (std::size_t i = 0; i < owners.size(); ++i)
        std::printf("w%zu    %5u  %8llu%s\n", i + 1, r.leader[i],
                    (unsigned long long)r.receiveTime[i],
                    (i > 0 && owners[i] != owners[i - 1])
                        ? "   <- lead change"
                        : "");
    std::printf("\nlead changes: %u, total cycles: %llu\n",
                r.leadChanges, (unsigned long long)r.totalCycles);
    std::printf("datathreads (consecutive same-owner runs): ");
    for (unsigned len : r.threadLengths)
        std::printf("%u ", len);
    std::printf("\n\npaper: w1-w4 pipelined on machine 0, lead change "
                "stalls until w5 at cycle 7, w5-w7 on machine 1, final "
                "lead change for w8-w9\n");
}

/** Pointer chase across pages (Section 3.2): a stride-7 cycle walks
 *  each page in a long run of dependent hops, then migrates. */
prog::Program
chaseProgram(unsigned pages, unsigned hops)
{
    using namespace prog::reg;
    prog::Program p;
    p.name = "chase";
    const unsigned cells = pages * prog::pageSize / 8;
    Addr heap = p.allocHeap(pages * prog::pageSize);
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

/** Serialized off-chip crossings of a dependent chain: the figure's
 *  analytical count, then a real pointer chase on all three systems. */
void
fig3()
{
    std::printf("four dependent operands, x1..x3 colocated:\n"
                "  DataScalar serialized off-chip crossings:  %u "
                "(paper: 2)\n"
                "  traditional serialized off-chip crossings: %u "
                "(paper: 8)\n\n",
                baseline::chainCrossings({0, 0, 0, 1}).dataScalar,
                baseline::chainCrossings({1, 1, 1, 1}).traditional);
    auto chase = std::make_shared<const prog::Program>(
        chaseProgram(16, 20'000 * kScale));
    std::vector<RunRequest> reqs(3);
    for (RunRequest &req : reqs) {
        req.program = chase;
        req.config.numNodes = 4;
    }
    reqs[0].system = SystemKind::Perfect;
    reqs[2].system = SystemKind::Traditional;
    auto res = runAll(reqs);
    std::printf("pointer chase over 16 pages, 4 nodes "
                "(cycles per hop, lower is better):\n");
    const char *labels[] = {"perfect data cache: ", "DataScalar:         ",
                            "traditional:        "};
    for (std::size_t i = 0; i < res.size(); ++i)
        std::printf("  %s%8.2f\n", labels[i],
                    static_cast<double>(res[i].result.cycles) /
                        static_cast<double>(res[i].result.instructions / 3));
    std::printf("\npaper: a datathread migration costs one serialized "
                "off-chip access; every traditional remote operand costs "
                "two\n");
}

/** IPC of the five systems on the six timing benchmarks. Paper:
 *  DataScalar ahead almost everywhere, more so at four nodes. */
void
fig7()
{
    RunRequest base;
    base.config.maxInsts = 300'000 * kScale;
    driver::fig7IpcTable(workloads::timingWorkloadNames(), base, kJobs)
        .print(std::cout);
    std::printf("\npaper: 2-node DataScalar 7%% slower to 15%% faster; "
                "4-node 9%%-15%% faster; compress nearly doubles; "
                "DS2->DS4 drop < 0.5 IPC while trad drops 0.2-0.6 IPC\n");
}

/** One Figure 8 sub-graph: a parameter, its values, the index of the
 *  paper's (default) value, and how to set it. */
struct Sensitivity
{
    const char *title;
    const char *column;
    std::uint64_t values[4];
    unsigned paper;
    void (*apply)(core::SimConfig &, std::uint64_t);
};

const Sensitivity kSensitivities[] = {
    {"data cache size (KB)", "dcacheKB", {4, 16, 64, 128}, 1,
     [](auto &c, auto v) { c.core.dcache.sizeBytes = v * 1024; }},
    {"memory access time (cycles @1GHz = ns)", "mem-ns", {4, 8, 32, 128},
     1, [](auto &c, auto v) { c.mem.accessLatency = v; }},
    {"global bus clock (core cycles per bus clock)", "bus-div",
     {2, 5, 10, 20}, 2, [](auto &c, auto v) { c.bus.clockDivisor = v; }},
    {"global bus width (bytes)", "bus-bytes", {2, 8, 16, 32}, 1,
     [](auto &c, auto v) { c.bus.widthBytes = static_cast<unsigned>(v); }},
    {"RUU entries (LSQ = half)", "ruu", {16, 64, 256, 1024}, 2,
     [](auto &c, auto v) {
         c.core.ruuEntries = static_cast<unsigned>(v);
         c.core.lsqEntries = static_cast<unsigned>(v / 2);
     }},
};

/** Figure 7's five systems on go and compress as each parameter
 *  varies; the paper's configuration runs once, for every sub-graph. */
void
fig8()
{
    const char *names[] = {"go_s", "compress_s"};
    std::vector<RunRequest> reqs;
    auto addSystems = [&reqs](RunRequest req) {
        for (auto [system, nodes] : {std::pair{SystemKind::Perfect, 2u},
                                     {SystemKind::DataScalar, 2u},
                                     {SystemKind::DataScalar, 4u},
                                     {SystemKind::Traditional, 2u},
                                     {SystemKind::Traditional, 4u}}) {
            req.system = system;
            req.config.numNodes = nodes;
            reqs.push_back(req);
        }
    };
    for (const char *name : names) {
        addSystems(request(name, 120'000));
        for (const Sensitivity &s : kSensitivities)
            for (unsigned i = 0; i < 4; ++i)
                if (i != s.paper) {
                    RunRequest req = request(name, 120'000);
                    s.apply(req.config, s.values[i]);
                    addSystems(req);
                }
    }
    auto res = runAll(reqs);

    auto r = res.begin();
    for (const char *name : names) {
        const auto paper = std::exchange(r, r + 5);
        std::printf("======== %s ========\n\n", name);
        for (const Sensitivity &s : kSensitivities) {
            Table table({s.column, "perfect", "DS-2", "DS-4", "trad-1/2",
                         "trad-1/4"});
            for (unsigned i = 0; i < 4; ++i) {
                auto p = i == s.paper ? paper : std::exchange(r, r + 5);
                std::vector<std::string> row = {to_string(s.values[i])};
                for (int k = 0; k < 5; ++k)
                    row.push_back(Table::num(p++->result.ipc, 3));
                table.addRow(row);
            }
            printBlock(s.title, table);
        }
    }
    std::printf("paper: DataScalar consistently ahead across the range; "
                "convergence as memory time dominates; gap grows as the "
                "bus slows\n");
}

/** Section 4.2: write-noallocate against write-allocate, whose write
 *  misses fetch lines only to overwrite them. */
void
ablWritePolicy()
{
    std::vector<std::string> names = {"compress_s", "wave5_s", "go_s",
                                      "applu_s"};
    auto res = sweep(names, std::array{false, true}, 200'000,
                     [](RunRequest &req, bool allocate) {
                         req.config.core.dcache.writeAllocate = allocate;
                     });

    Table table({"benchmark", "noalloc-IPC", "alloc-IPC", "noalloc-bcasts",
                 "alloc-bcasts", "noalloc-KB", "alloc-KB"});
    for (std::size_t i = 0; i < names.size(); ++i) {
        const RunResponse &na = res[2 * i], &wa = res[2 * i + 1];
        table.addRow(
            {names[i], Table::num(na.result.ipc, 3),
             Table::num(wa.result.ipc, 3),
             to_string(counter(na, "system", "bus_messages")),
             to_string(counter(wa, "system", "bus_messages")),
             to_string(counter(na, "system", "bus_bytes") / 1024),
             to_string(counter(wa, "system", "bus_bytes") / 1024)});
    }
    table.print(std::cout);
    std::printf("\nexpected: write-allocate adds fetch-for-write "
                "broadcasts (messages sent only to be overwritten) "
                "without improving IPC\n");
}

/** Section 4.1: dynamic replication is the caching of broadcast data,
 *  so shrinking the L1D toward one line approximates turning it off. */
void
ablDynamicReplication()
{
    std::vector<std::string> names = {"compress_s", "mgrid_s"};
    const std::uint64_t sizes[] = {32, 1024, 4096, 16384, 65536};
    auto res = sweep(names, sizes, 120'000, [](RunRequest &req, auto v) {
        req.config.core.dcache.sizeBytes = v;
    });

    auto r = res.begin();
    for (const std::string &name : names) {
        Table table({"dcache-bytes", "IPC", "broadcasts", "bus-busy%"});
        for (std::uint64_t size : sizes) {
            double busy = counter(*r, "system", "bus_busy_cycles");
            table.addRow(
                {to_string(size), Table::num(r->result.ipc, 3),
                 to_string(counter(*r, "system", "bus_messages")),
                 Table::pct(busy / r->result.cycles)});
            ++r;
        }
        printBlock(name, table);
    }
    std::printf("expected: without a meaningful dynamic-replication "
                "store, every access re-broadcasts and the bus saturates "
                "-- the paper's argument for the cache correspondence "
                "machinery\n");
}

/** Synchronous (MMM) against asynchronous ESP: a 1-entry window is
 *  the lock-step analogue, and wider windows let datathreads overlap. */
void
ablSyncVsAsyncEsp()
{
    std::vector<std::string> names = {"applu_s", "compress_s", "wave5_s"};
    const std::pair<unsigned, unsigned> windows[] = {
        {1, 1}, {4, 1}, {16, 4}, {64, 8}, {256, 8}};
    auto res = sweep(names, windows, 120'000, [](RunRequest &req, auto w) {
        ooo::CoreParams &core = req.config.core;
        core.ruuEntries = w.first;
        core.lsqEntries = std::max(1u, w.first / 2);
        core.issueWidth = core.fetchWidth = core.commitWidth = w.second;
    });

    auto r = res.begin();
    for (const std::string &name : names) {
        Table table({"window", "issue", "IPC", "found-in-BSHR%"});
        for (auto [ruu, width] : windows) {
            double hits = counter(*r, "node0", "bshr_buffered_hits");
            double remote = hits + counter(*r, "node0", "bshr_waiter_allocs");
            table.addRow({to_string(ruu), to_string(width),
                          Table::num(r->result.ipc, 3),
                          Table::pct(remote ? hits / remote : 0.0)});
            ++r;
        }
        printBlock(name, table);
    }
    std::printf("expected: larger windows let nodes run ahead on owned "
                "operands (datathreading), raising both IPC and the "
                "found-in-BSHR rate over the lock-step configuration\n");
}

/** Section 3.2: replicate 0%..75% of the hottest data pages. A
 *  RunRequest cannot describe that page table, so the system is
 *  built here. */
void
ablReplicationBudget()
{
    for (const char *name : {"li_s", "go_s", "compress_s"}) {
        const prog::Program &p = *g_cache.program(name, 1);
        core::SimConfig cfg = request(name, 150'000).config;
        auto trace = g_cache.acquire(name, 1, cfg.maxInsts);
        core::PageHeat heat = driver::profilePages(*trace);
        std::size_t data_pages = p.touchedPages().size() -
                                 p.pagesInSegment(prog::Segment::Text);

        Table table({"repl-pages", "IPC", "broadcasts", "bus-KB"});
        for (unsigned pct : {0u, 12u, 25u, 50u, 75u}) {
            core::DistributionConfig dist{
                .numNodes = 2, .replicatedDataPages = data_pages * pct / 100};
            core::ReplicationReport rep;
            core::DataScalarSystem sys(
                p, cfg, core::buildPageTable(p, dist, &heat, &rep), trace);
            core::RunResult r = sys.run();
            table.addRow({to_string(rep.total()), Table::num(r.ipc, 3),
                          to_string(sys.bus().totalMessages()),
                          to_string(sys.bus().totalBytes() / 1024)});
        }
        printBlock(std::string(name) + " (" + to_string(data_pages) +
                       " data pages)",
                   table);
    }
    std::printf("expected: replication monotonically removes broadcasts; "
                "IPC gains are largest for codes whose hot set fits the "
                "budget (li)\n");
}

/** Section 4.4: the envisioned SCI-style ring carries disjoint
 *  broadcasts at once, at the price of per-hop latency. */
void
ablInterconnect()
{
    const auto &names = workloads::timingWorkloadNames();
    const unsigned node_counts[] = {2, 4, 8};
    // Variant k: node_counts[k / 2] nodes, over the ring when k is odd.
    auto res = sweep(
        names, std::views::iota(0, 6), 150'000, [&](RunRequest &req, int k) {
            req.config.numNodes = node_counts[k / 2];
            if (k % 2)
                req.config.interconnect = core::InterconnectKind::Ring;
        });

    for (int n = 0; n < 3; ++n) {
        Table table({"benchmark", "bus-IPC", "ring-IPC", "ring/bus"});
        for (std::size_t i = 0; i < names.size(); ++i) {
            double bus = res[6 * i + 2 * n].result.ipc;
            double ring = res[6 * i + 2 * n + 1].result.ipc;
            table.addRow({names[i], Table::num(bus, 3), Table::num(ring, 3),
                          Table::num(ring / bus, 2)});
        }
        printBlock(to_string(node_counts[n]) + " nodes", table);
    }
    std::printf("expected: the ring wins where broadcasts saturate the "
                "bus (bandwidth-bound codes, more nodes) and roughly ties "
                "where latency dominates\n");
}

/** Section 5.2: the same nodes as a DataScalar machine (SPSD) or a
 *  parallel one (SPMD), on code that partitions and code that cannot. */
void
ablHybrid()
{
    // To completion: a truncated serial run would distort the speedup.
    auto serial = std::make_shared<const prog::Program>(
        workloads::buildStencilStrip(0, 1, 1));
    std::vector<RunRequest> reqs(2);
    for (unsigned i = 0; i < 2; ++i) {
        reqs[i].program = serial;
        reqs[i].config.numNodes = 2u << i;
    }
    // One SPMD node holds 1/4 of the memory, as trad-1/4 does.
    for (SystemKind s : {SystemKind::Traditional, SystemKind::DataScalar}) {
        reqs.push_back(request("compress_s", 200'000, 4));
        reqs.back().system = s;
    }
    auto res = runAll(reqs);

    std::printf("parallelizable stencil (speedup over 1-node serial run):\n");
    Table table({"nodes", "SPMD-cycles", "DataScalar-cycles",
                 "SPMD-speedup", "DS-speedup"});
    core::SimConfig cfg = driver::paperConfig();
    double base = baseline::runSpmd({*serial}, cfg).cycles;
    for (unsigned i = 0; i < 2; ++i) {
        unsigned nodes = 2u << i;
        std::vector<prog::Program> strips;
        for (unsigned n = 0; n < nodes; ++n)
            strips.push_back(workloads::buildStencilStrip(n, nodes, 1));
        Cycle spmd = baseline::runSpmd(strips, cfg).cycles;
        Cycle ds = res[i].result.cycles;
        table.addRow({to_string(nodes), to_string(spmd),
                      to_string(ds), Table::num(base / spmd, 2),
                      Table::num(base / ds, 2)});
    }
    table.print(std::cout);
    cfg.maxInsts = reqs[2].config.maxInsts;
    std::printf(
        "\nserial (unparallelizable) code -- compress:\n"
        "  all-memory-local single node (upper bound): %llu cycles\n"
        "  one node + 3/4 memory remote (realistic):    %llu cycles\n"
        "  DataScalar across all 4 nodes:               %llu cycles\n",
        (unsigned long long)baseline::runSpmd(
            {*g_cache.program("compress_s", 1)}, cfg).cycles,
        (unsigned long long)res[2].result.cycles,
        (unsigned long long)res[3].result.cycles);
    std::printf("\nexpected: SPMD wins (near-linear) where the code "
                "partitions; DataScalar recovers most of the memory "
                "penalty where it does not -- the paper's argument for a "
                "hybrid machine\n");
}

/** Section 5.1, analytically: when broadcasting only a private
 *  region's results beats broadcasting its operands (plain ESP). */
void
ablResultComm()
{
    core::SimConfig cfg = driver::paperConfig();
    Table table({"operands", "results", "compute", "ESP-B", "RC-B",
                 "byte-savings", "ESP-crit", "RC-crit", "RC-wins-latency"});
    for (unsigned operands : {2u, 4u, 8u, 16u, 32u})
        for (unsigned results : {1u, 4u})
            for (Cycle compute : {Cycle(10), Cycle(100)}) {
                core::ResultCommEstimate est = core::estimateResultComm(
                    {operands, results, compute}, cfg.bus, cfg.mem,
                    cfg.core.dcache.lineSize);
                bool rc_wins = est.rcCriticalPath < est.espCriticalPath;
                table.addRow({to_string(operands), to_string(results),
                              to_string(compute), to_string(est.espBytes),
                              to_string(est.rcBytes),
                              Table::pct(est.byteSavings()),
                              to_string(est.espCriticalPath),
                              to_string(est.rcCriticalPath),
                              rc_wins ? "yes" : "no"});
            }
    table.print(std::cout);
    std::printf("\nobservation: result communication always saves "
                "traffic once operands > results; it also wins latency "
                "when the region is operand-rich, because the owner's "
                "local fetches replace a pipeline of line broadcasts\n");
}

/** The paper assumes unbounded outstanding misses; bounding the line
 *  fills shows how much the results rely on that parallelism. */
void
ablMshr()
{
    std::vector<std::string> names = {"applu_s", "wave5_s", "compress_s"};
    const unsigned mshrs[] = {0, 1, 2, 4, 8, 16}; // 0 = unlimited
    auto res = sweep(names, mshrs, 150'000, [](RunRequest &req, unsigned m) {
        req.config.core.maxOutstandingFills = m;
    });

    auto r = res.begin();
    for (const std::string &name : names) {
        Table table({"MSHRs", "IPC", "vs-unlimited"});
        double unlimited = r++->result.ipc;
        for (unsigned m : std::span(mshrs).subspan(1)) {
            double ipc = r++->result.ipc;
            table.addRow({to_string(m), Table::num(ipc, 3),
                          Table::num(ipc / unlimited, 2)});
        }
        table.addRow({"unlimited", Table::num(unlimited, 3), "1.00"});
        printBlock(name, table);
    }
}

/** One experiment: its name on the command line, the function that
 *  prints its tables, and its banner line. */
struct Experiment
{
    const char *name;
    void (*run)();
    const char *title;
};

const Experiment kExperiments[] = {
    {"table1_traffic", table1,
     "Table 1 -- off-chip data traffic eliminated by ESP"},
    {"table2_datathreads", table2,
     "Table 2 -- approximate datathread measurements, 4 nodes"},
    {"table3_broadcast_stats", table3,
     "Table 3 -- DataScalar broadcast statistics (2-node timing runs)"},
    {"fig1_mmm_esp", fig1,
     "Figure 1 -- synchronous ESP on the MMM reference string"},
    {"fig3_datathread_pipeline", fig3, "Figure 3 -- pipelined broadcasts "
     "vs request/response serialization"},
    {"fig7_ipc", fig7, "Figure 7 -- timing-simulation IPC comparison"},
    {"fig8_sensitivity", fig8,
     "Figure 8 -- sensitivity analysis (go, compress)"},
    {"abl_write_policy", ablWritePolicy, "Ablation: write policy -- "
     "write-noallocate vs write-allocate under ESP (2-node DataScalar)"},
    {"abl_dynamic_replication", ablDynamicReplication,
     "Ablation: dynamic replication -- L1D (the dynamic-replication "
     "store) from one line to full size"},
    {"abl_sync_vs_async_esp", ablSyncVsAsyncEsp,
     "Ablation: sync vs async ESP -- window size 1 (lock-step MMM "
     "analogue) to 256 (DataScalar), 2 nodes"},
    {"abl_replication_budget", ablReplicationBudget,
     "Ablation: static replication budget -- fraction of hottest data "
     "pages replicated, 2-node DataScalar"},
    {"abl_interconnect", ablInterconnect, "Ablation: interconnect -- "
     "DataScalar broadcasts over a bus vs a unidirectional ring"},
    {"abl_hybrid", ablHybrid, "Ablation: hybrid execution -- SPSD "
     "(DataScalar) vs SPMD (parallel) on the same hardware"},
    {"abl_result_comm", ablResultComm, "Ablation: result communication "
     "-- private regions: broadcast operands (ESP) vs results only"},
    {"abl_mshr", ablMshr, "Ablation: MSHR capacity -- bounded outstanding "
     "line fills, 2-node DataScalar"},
};

} // namespace

int
main(int argc, char **argv)
{
    std::vector<std::string_view> names(argv + 1, argv + argc);
    for (std::string_view name : names)
        if (std::ranges::find(kExperiments, name, &Experiment::name) ==
            std::end(kExperiments)) {
            std::fprintf(stderr, "dsexp: unknown experiment '%s'; one of:\n",
                         std::string(name).c_str());
            for (const Experiment &e : kExperiments)
                std::fprintf(stderr, "  %s\n", e.name);
            return 2;
        }
    const std::string rule(68, '=');
    for (const Experiment &e : kExperiments) {
        if (!names.empty() && std::ranges::count(names, e.name) == 0)
            continue;
        std::printf("%s\n%s\nDataScalar Architectures (ISCA 1997) "
                    "reproduction\n%s\n\n", rule.c_str(), e.title,
                    rule.c_str());
        e.run();
        std::fflush(stdout);
    }
    return 0;
}
