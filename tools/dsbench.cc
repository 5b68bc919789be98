/**
 * @file
 * dsbench — load generator and acceptance harness for dsserve.
 *
 * Hammers one daemon with a mixed table of run requests (workloads ×
 * system families × node counts × interconnects) over N concurrent
 * persistent connections, then reports throughput, latency
 * percentiles, and the server's trace-cache hit rate. Three checks
 * gate the exit status:
 *
 *  - every request must succeed (status = ok, non-empty stats JSON),
 *  - the server must report trace-cache hits > 0 (the mix repeats
 *    workloads, so a shared cache must show reuse),
 *  - a spot-checked warm response must byte-match a cold in-process
 *    run of the same request (the dsserve contract: serving adds no
 *    observable difference),
 *  - the server's request-latency histogram (op = metrics) must have
 *    sampled exactly the client-observed completed count — the two
 *    ends of the wire agree on how many runs finished.
 *
 * The report prints latency percentiles from BOTH sides: client-side
 * stopwatch timings and the server's own histogram, a cross-check
 * that the exported metrics describe the load actually applied.
 *
 * Usage:
 *   dsbench [--socket=PATH] [--spawn=DSSERVE] [--requests=N]
 *           [--connections=N] [--max-insts=N] [--smoke] [--shutdown]
 *           [--watch[=MS]] [--watch-count=N]
 *
 * Options:
 *   --socket=PATH     daemon socket (default dsserve.sock)
 *   --watch[=MS]      poll op = metrics every MS milliseconds
 *                     (default 500) on a side connection while the
 *                     bench runs, printing a one-line live dashboard
 *                     to stderr; always polls at least once
 *   --watch-count=N   stop watching after N polls (0 = until done)
 *   --spawn=DSSERVE   fork/exec this dsserve binary on --socket,
 *                     bench it, then shut it down and reap it
 *   --requests=N      total requests across all connections
 *                     (default 1000)
 *   --connections=N   concurrent client connections (default 16)
 *   --max-insts=N     per-request instruction budget (default 10000)
 *   --smoke           small preset for CI: 56 requests over 4
 *                     connections at a 2000-instruction budget
 *   --shutdown        just ask the daemon on --socket to shut down
 */

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/kv.hh"
#include "core/sim_config.hh"
#include "driver/run_request.hh"
#include "serve/client.hh"

using namespace dscalar;

namespace {

int
usage()
{
    std::fprintf(
        stderr,
        "usage: dsbench [--socket=PATH] [--spawn=DSSERVE] [--requests=N]"
        "\n               [--connections=N] [--max-insts=N]"
        "\n               [--smoke] [--shutdown]"
        "\n               [--watch[=MS]] [--watch-count=N]\n");
    return 2;
}

/** The mixed request table: every entry is a complete RunRequest the
 *  bench cycles through round-robin. Four cheap workloads × three
 *  system families × two node counts, plus a ring variant per
 *  workload; one shared budget so the server's trace cache sees one
 *  capture per workload and hits for everything else. */
std::vector<driver::RunRequest>
buildMix(InstSeq budget)
{
    static const char *const kWorkloads[] = {"go_s", "compress_s",
                                             "li_s", "perl_s"};
    static const driver::SystemKind kSystems[] = {
        driver::SystemKind::DataScalar,
        driver::SystemKind::Traditional,
        driver::SystemKind::Perfect,
    };

    std::vector<driver::RunRequest> mix;
    for (const char *workload : kWorkloads) {
        for (driver::SystemKind system : kSystems) {
            for (unsigned nodes : {2u, 4u}) {
                driver::RunRequest req;
                req.workload = workload;
                req.system = system;
                req.config.numNodes = nodes;
                req.config.maxInsts = budget;
                mix.push_back(req);
            }
        }
        driver::RunRequest ring;
        ring.workload = workload;
        ring.system = driver::SystemKind::DataScalar;
        ring.config.numNodes = 4;
        ring.config.interconnect = core::InterconnectKind::Ring;
        ring.config.maxInsts = budget;
        mix.push_back(ring);
    }
    return mix;
}

/** Pull one counter value out of a stats JSON document: the first
 *  `"name":{"value":N` after the first occurrence of `"group"`.
 *  Narrow by design — dsbench only reads documents it just requested
 *  from a matching server. */
bool
extractCounter(const std::string &json, const std::string &group,
               const std::string &name, std::uint64_t &out)
{
    std::size_t g = json.find("\"" + group + "\"");
    if (g == std::string::npos)
        return false;
    std::string needle = "\"" + name + "\":{\"value\":";
    std::size_t n = json.find(needle, g);
    if (n == std::string::npos)
        return false;
    std::size_t digits = n + needle.size();
    std::size_t end = digits;
    while (end < json.size() && json[end] >= '0' && json[end] <= '9')
        ++end;
    if (end == digits)
        return false;
    return common::kv::parseU64(json.substr(digits, end - digits), out);
}

struct BenchResult
{
    std::vector<double> latenciesMs;
    std::uint64_t failures = 0;
    std::uint64_t clientCacheHits = 0;
    double wallSeconds = 0.0;
};

BenchResult
runBench(const std::string &socket_path,
         const std::vector<driver::RunRequest> &mix,
         std::uint64_t total_requests, unsigned connections)
{
    BenchResult result;
    std::atomic<std::size_t> next{0};
    std::atomic<std::uint64_t> failures{0};
    std::atomic<std::uint64_t> hits{0};
    std::vector<std::vector<double>> lanes(connections);
    std::vector<std::thread> workers;

    auto start = std::chrono::steady_clock::now();
    for (unsigned c = 0; c < connections; ++c) {
        workers.emplace_back([&, c] {
            serve::Client client;
            std::string error;
            if (!client.connect(socket_path, error)) {
                // Count every request this lane would have served as
                // failed rather than silently shrinking the load.
                std::size_t i;
                while ((i = next.fetch_add(1)) < total_requests)
                    failures.fetch_add(1);
                return;
            }
            std::size_t i;
            while ((i = next.fetch_add(1)) < total_requests) {
                const driver::RunRequest &req = mix[i % mix.size()];
                auto t0 = std::chrono::steady_clock::now();
                serve::Reply reply = client.run(req);
                auto t1 = std::chrono::steady_clock::now();
                lanes[c].push_back(
                    std::chrono::duration<double, std::milli>(t1 - t0)
                        .count());
                if (!reply.ok || reply.json.empty())
                    failures.fetch_add(1);
                else if (reply.field("cache_hit") == "1")
                    hits.fetch_add(1);
            }
        });
    }
    for (std::thread &t : workers)
        t.join();
    auto stop = std::chrono::steady_clock::now();

    result.wallSeconds =
        std::chrono::duration<double>(stop - start).count();
    result.failures = failures.load();
    result.clientCacheHits = hits.load();
    for (std::vector<double> &lane : lanes)
        result.latenciesMs.insert(result.latenciesMs.end(),
                                  lane.begin(), lane.end());
    std::sort(result.latenciesMs.begin(), result.latenciesMs.end());
    return result;
}

double
percentile(const std::vector<double> &sorted, double q)
{
    if (sorted.empty())
        return 0.0;
    std::size_t idx = static_cast<std::size_t>(q * sorted.size());
    if (idx >= sorted.size())
        idx = sorted.size() - 1;
    return sorted[idx];
}

/** One parsed snapshot of the daemon's Prometheus text exposition
 *  (op = metrics): the headline counters plus the request-latency
 *  histogram's cumulative buckets, enough for percentiles. */
struct MetricsSample
{
    std::uint64_t requests = 0;
    std::uint64_t completed = 0;
    std::uint64_t failed = 0;
    std::uint64_t queueDepth = 0;
    std::uint64_t latencyCount = 0;
    /** (upper bound in us, cumulative count), ascending, +Inf elided. */
    std::vector<std::pair<double, std::uint64_t>> latencyBuckets;
};

bool
parseMetrics(const std::string &text, MetricsSample &out)
{
    static const char *const kBucketPrefix =
        "dsserve_request_latency_us_bucket{le=\"";
    bool any = false;
    std::size_t pos = 0;
    while (pos < text.size()) {
        std::size_t eol = text.find('\n', pos);
        if (eol == std::string::npos)
            eol = text.size();
        std::string line = text.substr(pos, eol - pos);
        pos = eol + 1;
        if (line.empty() || line[0] == '#')
            continue;
        std::size_t sp = line.find_last_of(' ');
        if (sp == std::string::npos)
            continue;
        std::string name = line.substr(0, sp);
        std::string value = line.substr(sp + 1);
        std::uint64_t v = 0;
        if (name == "dsserve_requests_total" &&
            common::kv::parseU64(value, v)) {
            out.requests = v;
            any = true;
        } else if (name == "dsserve_completed_total" &&
                   common::kv::parseU64(value, v)) {
            out.completed = v;
            any = true;
        } else if (name == "dsserve_failed_total" &&
                   common::kv::parseU64(value, v)) {
            out.failed = v;
            any = true;
        } else if (name == "dsserve_queue_depth" &&
                   common::kv::parseU64(value, v)) {
            out.queueDepth = v;
        } else if (name == "dsserve_request_latency_us_count" &&
                   common::kv::parseU64(value, v)) {
            out.latencyCount = v;
            any = true;
        } else if (name.rfind(kBucketPrefix, 0) == 0) {
            std::string le = name.substr(std::strlen(kBucketPrefix));
            std::size_t quote = le.find('"');
            if (quote == std::string::npos || le[0] == '+')
                continue; // +Inf duplicates _count
            if (!common::kv::parseU64(value, v))
                continue;
            out.latencyBuckets.emplace_back(
                std::strtod(le.substr(0, quote).c_str(), nullptr), v);
        }
    }
    return any;
}

/** Percentile in milliseconds from cumulative histogram buckets: the
 *  upper bound of the first bucket holding the target rank (so an
 *  over-estimate by at most one bucket width). */
double
histPercentileMs(const MetricsSample &m, double q)
{
    if (m.latencyCount == 0 || m.latencyBuckets.empty())
        return 0.0;
    std::uint64_t target = static_cast<std::uint64_t>(
        q * static_cast<double>(m.latencyCount));
    if (target == 0)
        target = 1;
    for (const auto &bucket : m.latencyBuckets)
        if (bucket.second >= target)
            return bucket.first / 1000.0;
    // Rank lives in the +Inf overflow bucket; the last finite bound
    // is the best (under-)estimate available.
    return m.latencyBuckets.back().first / 1000.0;
}

/** One op = metrics poll on a fresh connection. */
bool
pollMetrics(const std::string &socket_path, MetricsSample &out)
{
    serve::Client client;
    std::string error;
    if (!client.connect(socket_path, error))
        return false;
    serve::Reply reply = client.metrics();
    return reply.ok && parseMetrics(reply.json, out);
}

/** Re-run @p req cold in-process (fresh trace, no cache, the same
 *  flight-recorder arming dsserve applies) and compare the stats
 *  JSON byte-for-byte with the warm server reply. */
bool
spotCheck(const std::string &socket_path, driver::RunRequest req)
{
    serve::Client client;
    std::string error;
    if (!client.connect(socket_path, error)) {
        std::fprintf(stderr, "dsbench: spot check connect: %s\n",
                     error.c_str());
        return false;
    }
    serve::Reply warm = client.run(req);
    if (!warm.ok) {
        std::fprintf(stderr, "dsbench: spot check request: %s\n",
                     warm.error.c_str());
        return false;
    }

    req.flightRecorder = true;
    driver::RunResponse cold = driver::runOne(req);
    if (!cold.ok()) {
        std::fprintf(stderr, "dsbench: spot check local run: %s\n",
                     cold.error.c_str());
        return false;
    }
    if (warm.json != cold.statsJson()) {
        std::fprintf(stderr,
                     "dsbench: SPOT CHECK MISMATCH: warm server JSON "
                     "(%zu bytes) != cold local JSON (%zu bytes)\n",
                     warm.json.size(), cold.statsJson().size());
        return false;
    }
    return true;
}

bool
flagValue(const std::string &arg, const char *name, std::string &value)
{
    std::string prefix = std::string(name) + "=";
    if (arg.rfind(prefix, 0) != 0)
        return false;
    value = arg.substr(prefix.size());
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string socket_path = "dsserve.sock";
    std::string spawn_path;
    std::uint64_t total_requests = 1000;
    std::uint64_t connections = 16;
    std::uint64_t budget = 10000;
    bool shutdown_only = false;
    bool watch = false;
    std::uint64_t watch_interval_ms = 500;
    std::uint64_t watch_count = 0;

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        std::string value;
        if (arg == "--smoke") {
            total_requests = 56;
            connections = 4;
            budget = 2000;
        } else if (arg == "--shutdown") {
            shutdown_only = true;
        } else if (arg == "--watch") {
            watch = true;
        } else if (flagValue(arg, "--watch", value)) {
            watch = true;
            if (!common::kv::parseU64(value, watch_interval_ms) ||
                watch_interval_ms == 0)
                return usage();
        } else if (flagValue(arg, "--watch-count", value)) {
            if (!common::kv::parseU64(value, watch_count))
                return usage();
        } else if (flagValue(arg, "--socket", value)) {
            socket_path = value;
        } else if (flagValue(arg, "--spawn", value)) {
            spawn_path = value;
        } else if (flagValue(arg, "--requests", value)) {
            if (!common::kv::parseU64(value, total_requests))
                return usage();
        } else if (flagValue(arg, "--connections", value)) {
            if (!common::kv::parseU64(value, connections) ||
                connections == 0)
                return usage();
        } else if (flagValue(arg, "--max-insts", value)) {
            if (!common::kv::parseU64(value, budget) || budget == 0)
                return usage();
        } else {
            return usage();
        }
    }

    if (shutdown_only) {
        serve::Client client;
        std::string error;
        if (!client.connect(socket_path, error)) {
            std::fprintf(stderr, "dsbench: %s\n", error.c_str());
            return 1;
        }
        serve::Reply reply = client.shutdown();
        if (!reply.ok) {
            std::fprintf(stderr, "dsbench: %s\n", reply.error.c_str());
            return 1;
        }
        return 0;
    }

    pid_t daemon = -1;
    if (!spawn_path.empty()) {
        daemon = fork();
        if (daemon < 0) {
            std::perror("dsbench: fork");
            return 1;
        }
        if (daemon == 0) {
            std::string socket_arg = "--socket=" + socket_path;
            execl(spawn_path.c_str(), spawn_path.c_str(),
                  socket_arg.c_str(), (char *)nullptr);
            std::perror("dsbench: exec dsserve");
            _exit(127);
        }
        // Wait for the daemon's socket to come up.
        bool up = false;
        for (int attempt = 0; attempt < 250 && !up; ++attempt) {
            serve::Client probe;
            std::string error;
            if (probe.connect(socket_path, error) && probe.ping().ok)
                up = true;
            else
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(20));
        }
        if (!up) {
            std::fprintf(stderr,
                         "dsbench: spawned dsserve never came up on "
                         "%s\n", socket_path.c_str());
            kill(daemon, SIGKILL);
            waitpid(daemon, nullptr, 0);
            return 1;
        }
    }

    std::vector<driver::RunRequest> mix = buildMix(budget);

    // The live dashboard: a side thread polling op = metrics while
    // the bench runs. Guaranteed at least one poll (do/while) so a
    // fast bench still exercises the wire path.
    std::atomic<bool> bench_done{false};
    std::thread watcher;
    if (watch) {
        watcher = std::thread([&] {
            std::uint64_t polls = 0;
            do {
                MetricsSample m;
                if (pollMetrics(socket_path, m)) {
                    ++polls;
                    std::fprintf(
                        stderr,
                        "dsbench watch: completed %llu/%llu failed "
                        "%llu queue %llu p50 %.1f ms p99 %.1f ms\n",
                        (unsigned long long)m.completed,
                        (unsigned long long)total_requests,
                        (unsigned long long)m.failed,
                        (unsigned long long)m.queueDepth,
                        histPercentileMs(m, 0.50),
                        histPercentileMs(m, 0.99));
                }
                if (watch_count && polls >= watch_count)
                    break;
                for (std::uint64_t slept = 0;
                     slept < watch_interval_ms && !bench_done.load();
                     slept += 20)
                    std::this_thread::sleep_for(
                        std::chrono::milliseconds(20));
            } while (!bench_done.load());
        });
    }

    BenchResult bench = runBench(socket_path, mix, total_requests,
                                 static_cast<unsigned>(connections));
    bench_done.store(true);
    if (watcher.joinable())
        watcher.join();

    // Fetch the metrics exposition BEFORE the spot check: at this
    // point the latency histogram has sampled exactly the bench's
    // completed runs, so its _count must equal the client-observed
    // completed count (the spot check would add one more).
    MetricsSample metrics;
    bool have_metrics = pollMetrics(socket_path, metrics);

    bool spot_ok = spotCheck(socket_path, mix[0]);

    std::uint64_t server_hits = 0, server_captures = 0;
    std::uint64_t server_requests = 0, server_completed = 0;
    {
        serve::Client client;
        std::string error;
        if (client.connect(socket_path, error)) {
            serve::Reply stats = client.serverStats();
            if (stats.ok) {
                extractCounter(stats.json, "trace_cache", "hits",
                               server_hits);
                extractCounter(stats.json, "trace_cache", "captures",
                               server_captures);
                extractCounter(stats.json, "server", "requests",
                               server_requests);
                extractCounter(stats.json, "server", "completed",
                               server_completed);
            }
        }
    }

    if (daemon > 0) {
        serve::Client client;
        std::string error;
        if (client.connect(socket_path, error))
            client.shutdown();
        waitpid(daemon, nullptr, 0);
    }

    double thrpt = bench.wallSeconds > 0
                       ? total_requests / bench.wallSeconds
                       : 0.0;
    std::printf("dsbench: %llu requests over %llu connections "
                "(%zu-entry mix, %llu-inst budget)\n",
                (unsigned long long)total_requests,
                (unsigned long long)connections, mix.size(),
                (unsigned long long)budget);
    std::printf("  wall %.2f s, %.1f req/s, failures %llu\n",
                bench.wallSeconds, thrpt,
                (unsigned long long)bench.failures);
    std::printf("  latency ms: p50 %.2f  p90 %.2f  p99 %.2f  max %.2f\n",
                percentile(bench.latenciesMs, 0.50),
                percentile(bench.latenciesMs, 0.90),
                percentile(bench.latenciesMs, 0.99),
                percentile(bench.latenciesMs, 1.0));
    if (have_metrics)
        std::printf("  server latency ms: p50 %.2f  p90 %.2f  "
                    "p99 %.2f  (histogram n=%llu)\n",
                    histPercentileMs(metrics, 0.50),
                    histPercentileMs(metrics, 0.90),
                    histPercentileMs(metrics, 0.99),
                    (unsigned long long)metrics.latencyCount);
    std::printf("  trace cache: client-observed hits %llu, server "
                "hits %llu / captures %llu\n",
                (unsigned long long)bench.clientCacheHits,
                (unsigned long long)server_hits,
                (unsigned long long)server_captures);
    std::printf("  server: requests %llu, completed %llu\n",
                (unsigned long long)server_requests,
                (unsigned long long)server_completed);
    std::printf("  warm-vs-cold spot check: %s\n",
                spot_ok ? "byte-identical" : "MISMATCH");

    if (bench.failures != 0) {
        std::fprintf(stderr, "dsbench: FAIL: %llu failed requests\n",
                     (unsigned long long)bench.failures);
        return 1;
    }
    if (server_hits == 0) {
        std::fprintf(stderr,
                     "dsbench: FAIL: server reported no trace-cache "
                     "hits\n");
        return 1;
    }
    std::uint64_t client_completed = total_requests - bench.failures;
    if (!have_metrics || metrics.latencyCount != client_completed) {
        std::fprintf(stderr,
                     "dsbench: FAIL: server latency histogram count "
                     "%llu != client-observed completed %llu\n",
                     (unsigned long long)metrics.latencyCount,
                     (unsigned long long)client_completed);
        return 1;
    }
    if (!spot_ok)
        return 1;
    return 0;
}
