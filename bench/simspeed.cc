/**
 * @file
 * google-benchmark microbenchmarks of the simulator itself:
 * functional-simulation and timing-simulation throughput in
 * simulated instructions per second, per system type. Useful when
 * tuning the simulator; not a paper experiment.
 *
 * Each timing benchmark has a *NoSkip twin with event-driven cycle
 * skipping disabled, so the win from fast-forwarding idle cycles is
 * visible directly (reported cycle counts are identical either way;
 * tests/test_identity.cc proves it). BM_SweepSerial/Parallel time
 * the Figure 7 sweep at 1 vs benchJobs() workers; their *NoReuse
 * twins disable the shared trace capture (driver::TraceCache), so
 * the win from executing each workload once is visible directly.
 * BM_TraceCaptureCold times one functional trace capture, the cost
 * of every TraceCache miss, and reports the capture's size as
 * bytes_per_record (InstTrace::memoryBytes() / length()).
 *
 * Smoke variants (--benchmark_filter=Smoke) run one tiny iteration
 * of every engine; the custom main() exits non-zero if any run
 * crashes or reports zero throughput, which backs the perf-smoke
 * ctest label. Pass --benchmark_out=<file> --benchmark_out_format=
 * json for a machine-readable artifact.
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "driver/driver.hh"
#include "workloads/workloads.hh"

using namespace dscalar;

namespace {

const prog::Program &
compressProgram()
{
    static prog::Program p =
        workloads::findWorkload("compress_s").build(1);
    return p;
}

/** Workload for the timing-simulator benchmarks: turb3d's long
 *  FP-latency and memory chains keep the cores stalled most cycles
 *  (IPC ~0.15 at the paper config) — the dead time the paper's
 *  asynchronous ESP creates by design and the regime the
 *  event-driven skip targets. Busy low-stall workloads (compress,
 *  IPC ~1.2) are covered by the sweep benchmarks below. */
std::shared_ptr<const prog::Program>
timingProgram()
{
    static std::shared_ptr<const prog::Program> p =
        std::make_shared<const prog::Program>(
            workloads::findWorkload("turb3d_s").build(1));
    return p;
}

void
BM_FunctionalSim(benchmark::State &state)
{
    const prog::Program &p = compressProgram();
    InstSeq budget = static_cast<InstSeq>(state.range(0));
    for (auto _ : state) {
        func::FuncSim sim(p);
        benchmark::DoNotOptimize(sim.run(budget));
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(budget));
}

void
BM_TraceCaptureCold(benchmark::State &state)
{
    const prog::Program &p = compressProgram();
    InstSeq budget = static_cast<InstSeq>(state.range(0));
    double bytes_per_record = 0;
    for (auto _ : state) {
        auto t = func::InstTrace::capture(p, budget);
        benchmark::DoNotOptimize(t);
        bytes_per_record = static_cast<double>(t->memoryBytes()) /
                           static_cast<double>(t->length());
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(budget));
    state.counters["bytes_per_record"] = bytes_per_record;
}

/** Live runs of timingProgram() on @p system for range(0)
 *  instructions; items = simulated instructions. A failed run marks
 *  the benchmark errored. */
void
timingBody(benchmark::State &state, driver::SystemKind system,
           unsigned nodes, bool event_driven)
{
    driver::RunRequest req;
    req.program = timingProgram();
    req.system = system;
    req.config.maxInsts = static_cast<InstSeq>(state.range(0));
    req.config.numNodes = nodes;
    req.config.eventDriven = event_driven;
    for (auto _ : state) {
        driver::RunResponse resp = driver::runOne(req);
        if (!resp.ok()) {
            state.SkipWithError(resp.error.c_str());
            break;
        }
        benchmark::DoNotOptimize(resp);
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        state.range(0));
}

void
BM_PerfectTiming(benchmark::State &state)
{
    timingBody(state, driver::SystemKind::Perfect,
               driver::paperConfig().numNodes, state.range(1) != 0);
}

void
BM_DataScalarTiming(benchmark::State &state)
{
    timingBody(state, driver::SystemKind::DataScalar,
               static_cast<unsigned>(state.range(1)),
               state.range(2) != 0);
}

void
BM_TraditionalTiming(benchmark::State &state)
{
    timingBody(state, driver::SystemKind::Traditional,
               static_cast<unsigned>(state.range(1)),
               state.range(2) != 0);
}

/** The Figure 7 sweep (2 workloads to keep runtime sane) at a given
 *  worker count; items = simulated instructions across all points.
 *  @p reuse toggles the shared-trace capture (the *NoReuse twins
 *  re-execute every point functionally — identical table, slower). */
void
sweepBody(benchmark::State &state, unsigned jobs, bool reuse = true)
{
    const std::vector<std::string> names{"compress_s", "go_s"};
    driver::RunRequest base;
    base.config.maxInsts = static_cast<InstSeq>(state.range(0));
    base.traceReuse = reuse;
    for (auto _ : state) {
        stats::Table t = driver::fig7IpcTable(names, base, jobs);
        benchmark::DoNotOptimize(t);
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        state.range(0) * 5 *
        static_cast<std::int64_t>(names.size()));
}

void
BM_SweepSerial(benchmark::State &state)
{
    sweepBody(state, 1);
}

void
BM_SweepSerialNoReuse(benchmark::State &state)
{
    sweepBody(state, 1, false);
}

/** At least two workers so the pool path is always exercised and the
 *  serial/parallel comparison is meaningful; scaling beyond that
 *  follows the host's core count (BENCH_JOBS to override). */
unsigned
sweepJobs()
{
    const char *env = std::getenv("BENCH_JOBS");
    long jobs = env ? std::atol(env) : std::thread::hardware_concurrency();
    return static_cast<unsigned>(std::max(2L, jobs));
}

void
BM_SweepParallel(benchmark::State &state)
{
    unsigned jobs = sweepJobs();
    state.counters["jobs"] = jobs;
    sweepBody(state, jobs);
}

void
BM_SweepParallelNoReuse(benchmark::State &state)
{
    unsigned jobs = sweepJobs();
    state.counters["jobs"] = jobs;
    sweepBody(state, jobs, false);
}

BENCHMARK(BM_FunctionalSim)->Arg(100000);
BENCHMARK(BM_TraceCaptureCold)->Arg(100000);
// {insts, skip} / {insts, nodes, skip}
BENCHMARK(BM_PerfectTiming)->Args({30000, 1})->Args({30000, 0});
BENCHMARK(BM_DataScalarTiming)
    ->Args({30000, 2, 1})
    ->Args({30000, 2, 0})
    ->Args({30000, 4, 1})
    ->Args({30000, 4, 0});
BENCHMARK(BM_TraditionalTiming)
    ->Args({30000, 2, 1})
    ->Args({30000, 2, 0})
    ->Args({30000, 4, 1})
    ->Args({30000, 4, 0});
BENCHMARK(BM_SweepSerial)->Arg(15000)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_SweepSerialNoReuse)
    ->Arg(15000)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_SweepParallel)
    ->Arg(15000)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime(); // workers run off-thread; CPU time misleads
BENCHMARK(BM_SweepParallelNoReuse)
    ->Arg(15000)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// Smoke tier: one fixed iteration per engine at a tiny budget, for
// the perf-smoke ctest label. Kept separate so the full benchmarks
// stay statistically meaningful while plain `ctest` stays fast.
void
BM_SmokeFunctional(benchmark::State &state)
{
    BM_FunctionalSim(state);
}
void
BM_SmokePerfect(benchmark::State &state)
{
    BM_PerfectTiming(state);
}
void
BM_SmokeDataScalar(benchmark::State &state)
{
    BM_DataScalarTiming(state);
}
void
BM_SmokeTraditional(benchmark::State &state)
{
    BM_TraditionalTiming(state);
}
void
BM_SmokeSweepParallel(benchmark::State &state)
{
    sweepBody(state, 4);
}
void
BM_SmokeTraceCapture(benchmark::State &state)
{
    BM_TraceCaptureCold(state);
}

BENCHMARK(BM_SmokeFunctional)->Arg(5000)->Iterations(1);
BENCHMARK(BM_SmokePerfect)->Args({2000, 1})->Iterations(1);
BENCHMARK(BM_SmokeDataScalar)
    ->Args({2000, 2, 1})
    ->Args({2000, 2, 0})
    ->Iterations(1);
BENCHMARK(BM_SmokeTraditional)->Args({2000, 2, 1})->Iterations(1);
BENCHMARK(BM_SmokeSweepParallel)->Arg(2000)->Iterations(1);
BENCHMARK(BM_SmokeTraceCapture)->Arg(5000)->Iterations(1);

/**
 * Console reporter that also checks every run for forward progress:
 * an errored run or a missing/zero items_per_second counter marks
 * the whole binary as failed (exit 1 from main).
 */
class CheckedReporter : public benchmark::ConsoleReporter
{
  public:
    bool
    ReportContext(const Context &context) override
    {
        return benchmark::ConsoleReporter::ReportContext(context);
    }

    void
    ReportRuns(const std::vector<Run> &runs) override
    {
        for (const Run &run : runs) {
            if (run.error_occurred) {
                failed_ = true;
                continue;
            }
            auto it = run.counters.find("items_per_second");
            if (it == run.counters.end() || !(it->second > 0.0))
                failed_ = true;
        }
        benchmark::ConsoleReporter::ReportRuns(runs);
    }

    bool failed() const { return failed_; }

  private:
    bool failed_ = false;
};

} // namespace

int
main(int argc, char **argv)
{
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    CheckedReporter reporter;
    std::size_t ran = benchmark::RunSpecifiedBenchmarks(&reporter);
    benchmark::Shutdown();
    if (ran == 0) {
        std::fprintf(stderr, "simspeed: no benchmarks matched\n");
        return 1;
    }
    if (reporter.failed()) {
        std::fprintf(stderr,
                     "simspeed: a benchmark errored or reported "
                     "zero throughput\n");
        return 1;
    }
    return 0;
}
