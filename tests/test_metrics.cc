/**
 * @file
 * Live-metrics tests: the Prometheus text exposition (golden text
 * against a hand-built ServerStats), the ServerStats coherence
 * contract under concurrent load (completed + failed <= requests and
 * latency-histogram count == completed in EVERY snapshot), the
 * `op = metrics` wire path and its process-memory gauges, the span_*
 * reply-header keys, and
 * Snapshot::addHistogram's deep-copy semantics.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "driver/run_request.hh"
#include "serve/client.hh"
#include "serve/server.hh"
#include "stats/snapshot.hh"
#include "stats/stats.hh"

namespace dscalar {
namespace {

TEST(MetricsText, GoldenExposition)
{
    serve::ServerStats s;
    s.connections = 3;
    s.requests = 7;
    s.completed = 5;
    s.failed = 1;
    s.rejectedParse = 1;
    s.queuePeak = 2;
    s.traceHits = 4;
    s.traceCaptures = 1;
    s.traceBytes = 4096;
    s.residentBytes = 7 << 20;
    s.residentPeakBytes = 9 << 20;
    s.phaseUs["build"] = 42;
    s.phaseUs["sim_run"] = 9001;
    // 1 ms buckets: 500 -> le=1000, 1500 -> le=2000, 250000 ->
    // overflow (range ends at 200000), visible only in +Inf/_count.
    s.latencyUs.sample(500);
    s.latencyUs.sample(1500);
    s.latencyUs.sample(250000);

    const std::string expected =
        "# HELP dsserve_connections_total Accepted connections.\n"
        "# TYPE dsserve_connections_total counter\n"
        "dsserve_connections_total 3\n"
        "# HELP dsserve_requests_total Request blocks received.\n"
        "# TYPE dsserve_requests_total counter\n"
        "dsserve_requests_total 7\n"
        "# HELP dsserve_completed_total Runs finished successfully.\n"
        "# TYPE dsserve_completed_total counter\n"
        "dsserve_completed_total 5\n"
        "# HELP dsserve_failed_total Admitted runs that errored.\n"
        "# TYPE dsserve_failed_total counter\n"
        "dsserve_failed_total 1\n"
        "# HELP dsserve_rejected_total Requests rejected before "
        "admission, by reason.\n"
        "# TYPE dsserve_rejected_total counter\n"
        "dsserve_rejected_total{reason=\"parse\"} 1\n"
        "dsserve_rejected_total{reason=\"budget\"} 0\n"
        "dsserve_rejected_total{reason=\"overload\"} 0\n"
        "dsserve_rejected_total{reason=\"oversize\"} 0\n"
        "# HELP dsserve_queue_depth Runs in flight now.\n"
        "# TYPE dsserve_queue_depth gauge\n"
        "dsserve_queue_depth 0\n"
        "# HELP dsserve_queue_peak Max runs ever in flight.\n"
        "# TYPE dsserve_queue_peak gauge\n"
        "dsserve_queue_peak 2\n"
        "# HELP dsserve_trace_captures_total Functional captures "
        "executed.\n"
        "# TYPE dsserve_trace_captures_total counter\n"
        "dsserve_trace_captures_total 1\n"
        "# HELP dsserve_trace_hits_total Trace acquires served from "
        "cache.\n"
        "# TYPE dsserve_trace_hits_total counter\n"
        "dsserve_trace_hits_total 4\n"
        "# HELP dsserve_trace_bytes Bytes held across cached traces.\n"
        "# TYPE dsserve_trace_bytes gauge\n"
        "dsserve_trace_bytes 4096\n"
        "# HELP dsserve_resident_bytes Process resident memory now "
        "(VmRSS).\n"
        "# TYPE dsserve_resident_bytes gauge\n"
        "dsserve_resident_bytes 7340032\n"
        "# HELP dsserve_resident_peak_bytes Process resident memory at "
        "peak (VmHWM).\n"
        "# TYPE dsserve_resident_peak_bytes gauge\n"
        "dsserve_resident_peak_bytes 9437184\n"
        "# HELP dsserve_phase_us_total Cumulative wall microseconds "
        "by request phase.\n"
        "# TYPE dsserve_phase_us_total counter\n"
        "dsserve_phase_us_total{phase=\"build\"} 42\n"
        "dsserve_phase_us_total{phase=\"sim_run\"} 9001\n"
        "# HELP dsserve_request_latency_us End-to-end request latency "
        "(completed runs), microseconds.\n"
        "# TYPE dsserve_request_latency_us histogram\n"
        "dsserve_request_latency_us_bucket{le=\"1000\"} 1\n"
        "dsserve_request_latency_us_bucket{le=\"2000\"} 2\n"
        "dsserve_request_latency_us_bucket{le=\"+Inf\"} 3\n"
        "dsserve_request_latency_us_sum 252000\n"
        "dsserve_request_latency_us_count 3\n"
        "# HELP dsserve_queue_wait_us Pool queue wait (completed "
        "runs), microseconds.\n"
        "# TYPE dsserve_queue_wait_us histogram\n"
        "dsserve_queue_wait_us_bucket{le=\"+Inf\"} 0\n"
        "dsserve_queue_wait_us_sum 0\n"
        "dsserve_queue_wait_us_count 0\n"
        "# HELP dsserve_run_us Timing-run wall time (completed runs), "
        "microseconds.\n"
        "# TYPE dsserve_run_us histogram\n"
        "dsserve_run_us_bucket{le=\"+Inf\"} 0\n"
        "dsserve_run_us_sum 0\n"
        "dsserve_run_us_count 0\n";

    EXPECT_EQ(serve::renderMetricsText(s), expected);
}

TEST(MetricsText, EmptyPhasesElideThePhaseFamily)
{
    serve::ServerStats s;
    std::string text = serve::renderMetricsText(s);
    EXPECT_EQ(text.find("dsserve_phase_us_total"), std::string::npos);
    // Zero histograms still emit the +Inf/sum/count frame.
    EXPECT_NE(text.find("dsserve_request_latency_us_count 0"),
              std::string::npos);
}

TEST(SnapshotHistogram, AddHistogramDeepCopies)
{
    stats::Histogram live(nullptr, "h", "live", 10, 4);
    live.sample(5);
    live.sample(15);

    stats::Snapshot snap;
    stats::Snapshot::GroupEntry &g = snap.addGroup("g", "g:");
    stats::Histogram &copy = snap.addHistogram(g, "h", live, "copied");
    EXPECT_EQ(copy.count(), 2u);
    EXPECT_EQ(copy.bucket(0), 1u);
    EXPECT_EQ(copy.bucket(1), 1u);

    live.sample(25); // must not bleed into the snapshot
    EXPECT_EQ(copy.count(), 2u);
    EXPECT_EQ(live.count(), 3u);
}

// --- server-side ---------------------------------------------------

serve::ServerConfig
testConfig(const std::string &socket)
{
    serve::ServerConfig cfg;
    cfg.socketPath = socket;
    cfg.jobs = 2;
    return cfg;
}

driver::RunRequest
smallRequest()
{
    driver::RunRequest req;
    req.workload = "go_s";
    req.config.maxInsts = 2000;
    return req;
}

/** The value of the unlabelled sample @p name in exposition @p text
 *  (0 when absent). */
std::uint64_t
metricValue(const std::string &text, const std::string &name)
{
    std::size_t at = text.find("\n" + name + " ");
    if (at == std::string::npos)
        return 0;
    return std::strtoull(text.c_str() + at + name.size() + 2, nullptr,
                         10);
}

TEST(MetricsOp, WirePathAndSpanHeaderKeys)
{
    serve::Server server(testConfig("t_met_wire.sock"));
    std::string error;
    ASSERT_TRUE(server.start(error)) << error;

    serve::Client client;
    ASSERT_TRUE(client.connect("t_met_wire.sock", error)) << error;

    serve::Reply run = client.run(smallRequest());
    ASSERT_TRUE(run.ok) << run.error;
    // Every run reply carries its span tree in the header.
    EXPECT_FALSE(run.field("span_total_us").empty());
    EXPECT_FALSE(run.field("span_sim_run_us").empty());
    EXPECT_FALSE(run.field("span_queue_wait_us").empty());
    // Spans never leak into the byte-compared JSON body.
    EXPECT_EQ(run.json.find("span_"), std::string::npos);

    serve::Reply metrics = client.metrics();
    ASSERT_TRUE(metrics.ok) << metrics.error;
    EXPECT_NE(metrics.json.find(
                  "# TYPE dsserve_requests_total counter"),
              std::string::npos)
        << metrics.json;
    EXPECT_NE(metrics.json.find("dsserve_completed_total 1"),
              std::string::npos)
        << metrics.json;
    EXPECT_NE(metrics.json.find(
                  "dsserve_request_latency_us_count 1"),
              std::string::npos)
        << metrics.json;
    // The process's own memory, read when the request was served.
    std::uint64_t rss = metricValue(metrics.json, "dsserve_resident_bytes");
    std::uint64_t peak =
        metricValue(metrics.json, "dsserve_resident_peak_bytes");
    EXPECT_GT(rss, 0u) << metrics.json;
    EXPECT_GE(peak, rss) << metrics.json;

    server.stop();
}

TEST(MetricsText, ProcessMemoryIsReadFromProc)
{
    serve::ServerStats s;
    serve::readProcessMemory(s);
    // This test process holds at least its code and gtest's state.
    EXPECT_GT(s.residentBytes, 64u * 1024);
    EXPECT_GE(s.residentPeakBytes, s.residentBytes);
    EXPECT_EQ(s.residentBytes % 1024, 0u);
}

TEST(MetricsCoherence, SnapshotsNeverTearUnderLoad)
{
    serve::Server server(testConfig("t_met_coh.sock"));
    std::string error;
    ASSERT_TRUE(server.start(error)) << error;

    constexpr unsigned kClients = 3;
    constexpr unsigned kPerClient = 6;
    std::atomic<bool> done{false};
    std::atomic<std::uint64_t> violations{0};

    // Poll snapshots as fast as possible while runs flow; every one
    // must satisfy the coherence contract.
    std::thread poller([&] {
        while (!done.load()) {
            serve::ServerStats s = server.stats();
            if (s.completed + s.failed > s.requests)
                violations.fetch_add(1);
            if (s.latencyUs.count() != s.completed)
                violations.fetch_add(1);
            if (s.queueWaitUs.count() != s.completed ||
                s.runUs.count() != s.completed)
                violations.fetch_add(1);
        }
    });

    std::vector<std::thread> clients;
    for (unsigned c = 0; c < kClients; ++c) {
        clients.emplace_back([&] {
            serve::Client client;
            std::string err;
            ASSERT_TRUE(client.connect("t_met_coh.sock", err)) << err;
            for (unsigned i = 0; i < kPerClient; ++i) {
                serve::Reply reply = client.run(smallRequest());
                EXPECT_TRUE(reply.ok) << reply.error;
            }
        });
    }
    for (std::thread &t : clients)
        t.join();
    done.store(true);
    poller.join();

    EXPECT_EQ(violations.load(), 0u);
    serve::ServerStats s = server.stats();
    EXPECT_EQ(s.completed, kClients * kPerClient);
    EXPECT_EQ(s.failed, 0u);
    EXPECT_EQ(s.latencyUs.count(), s.completed);
    // Phase totals accumulated for every top-level span plus the
    // reply writes the connection thread accounts.
    EXPECT_NE(s.phaseUs.find("sim_run"), s.phaseUs.end());
    EXPECT_NE(s.phaseUs.find("reply_write"), s.phaseUs.end());

    server.stop();
}

} // namespace
} // namespace dscalar
