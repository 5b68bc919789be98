/**
 * @file
 * The dsserve daemon core: a Unix-domain socket server executing
 * driver::RunRequests on a shared common::ThreadPool with one
 * process-wide driver::TraceCache.
 *
 * Threading model: one accept thread; one lightweight thread per
 * connection that frames requests and writes replies; a fixed
 * ThreadPool (ServerConfig::jobs workers) that runs the actual
 * simulations. Admission control bounds the work outstanding on the
 * pool (maxQueueDepth) and optionally the per-request instruction
 * budget (maxInstBudget); rejected requests get `status = error`
 * replies and never touch the pool.
 *
 * Responses are byte-identical to a cold one-shot dsrun of the same
 * request: both go through driver::runOne + RunResponse::statsJson,
 * and the trace cache only changes wall-clock (SPSD replay,
 * PR 3/PR 6). Locked by tests/test_dsserve.cc.
 *
 * stop() drains: the listener closes, every connection's read side
 * shuts down, in-flight simulations finish and their replies are
 * written before the connection threads join.
 */

#ifndef DSCALAR_SERVE_SERVER_HH
#define DSCALAR_SERVE_SERVER_HH

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "common/thread_pool.hh"
#include "common/types.hh"
#include "driver/run_request.hh"
#include "driver/trace_cache.hh"
#include "stats/stats.hh"

namespace dscalar {
namespace serve {

/** Deployment knobs (documented in docs/SERVING.md). */
struct ServerConfig
{
    /** Socket filesystem path. Keep it short and relative: sun_path
     *  holds ~107 bytes. An existing file is unlinked on start. */
    std::string socketPath = "dsserve.sock";
    /** Simulation worker threads (0 = hardware concurrency).
     *  Connection threads are extra but only frame and wait. */
    unsigned jobs = 0;
    /** Admission: max simulations queued or running; requests beyond
     *  it are rejected, not delayed. */
    unsigned maxQueueDepth = 256;
    /** Admission: per-request instruction budget. When nonzero,
     *  requests must set max_insts in (0, budget]. 0 = unlimited. */
    InstSeq maxInstBudget = 0;
    /** Max bytes of one request block; larger ones are rejected and
     *  the connection closed (framing is lost past this point). */
    std::size_t maxRequestBytes = 16 * 1024;
    /** Directory for server-side Perfetto trace files; requests with
     *  a `perfetto` key are rejected when empty. The requested path's
     *  basename lands in this directory (no traversal). */
    std::string outputDir;
    /** Test-only: hold each simulation this long before it runs, so
     *  overload/drain tests can pin requests in flight. */
    unsigned testHoldMillis = 0;
};

/**
 * One snapshot of the server counters (op = stats renders these as a
 * stats JSON document, op = metrics as Prometheus text exposition).
 *
 * Coherence contract: every live field mutates, and stats() copies
 * the whole struct, under one mutex (Server::statsMutex_) — a
 * snapshot can never show a request as both in flight and finished,
 * so `completed + failed <= requests` and the latency histogram's
 * count equals `completed` in every snapshot (locked by
 * tests/test_metrics.cc).
 */
struct ServerStats
{
    std::uint64_t connections = 0;     ///< accepted connections
    std::uint64_t requests = 0;        ///< request blocks received
    std::uint64_t completed = 0;       ///< runs finished successfully
    std::uint64_t failed = 0;          ///< admitted runs that errored
    std::uint64_t rejectedParse = 0;   ///< malformed request blocks
    std::uint64_t rejectedBudget = 0;  ///< instruction budget exceeded
    std::uint64_t rejectedOverload = 0;///< queue-depth admission
    std::uint64_t rejectedOversize = 0;///< oversized request blocks
    std::uint64_t queueDepth = 0;      ///< runs in flight now
    std::uint64_t queuePeak = 0;       ///< max queueDepth ever
    std::uint64_t traceCaptures = 0;   ///< TraceCache::captures()
    std::uint64_t traceHits = 0;       ///< TraceCache::hits()
    std::uint64_t traceBytes = 0;      ///< TraceCache::memoryBytes()
    /** Process resident bytes now and at peak (VmRSS, VmHWM); read
     *  only when an op = metrics request is served, else 0. */
    std::uint64_t residentBytes = 0;
    std::uint64_t residentPeakBytes = 0;

    /** Wall-microsecond distributions over *completed* runs, sampled
     *  from each request's span recorder (1 ms buckets, 0..200 ms +
     *  overflow). latencyUs covers admission through reply render;
     *  queueWaitUs the pool wait (including any test hold); runUs the
     *  sim_run span alone. */
    stats::Histogram latencyUs{nullptr, "request_latency_us",
                               "end-to-end request latency", 1000, 200};
    stats::Histogram queueWaitUs{nullptr, "queue_wait_us",
                                 "pool queue wait", 1000, 200};
    stats::Histogram runUs{nullptr, "run_us",
                           "timing-run wall time", 1000, 200};
    /** Cumulative wall microseconds by request phase: one entry per
     *  top-level span name (admission, queue_wait, build, trace_*,
     *  sim_run, render) plus reply_write, accounted by the
     *  connection thread after each reply flush. */
    std::map<std::string, std::uint64_t> phaseUs;
};

/** Render @p s as Prometheus text exposition — the `op = metrics`
 *  reply body. Counters end in `_total`, gauges are bare, the three
 *  histograms emit cumulative `_bucket{le="..."}` lines (microsecond
 *  upper bounds, zero-increment buckets elided) plus `_sum` and
 *  `_count`. Pure function of the snapshot, so golden-text testable
 *  without a socket (tests/test_metrics.cc). */
std::string renderMetricsText(const ServerStats &s);

/** Fill @p s's residentBytes and residentPeakBytes from this
 *  process's /proc/self/status; a field it cannot read stays 0. */
void readProcessMemory(ServerStats &s);

class Server
{
  public:
    explicit Server(ServerConfig cfg);
    /** Stops (and drains) if still running. */
    ~Server();

    Server(const Server &) = delete;
    Server &operator=(const Server &) = delete;

    /** Bind the socket and start serving.
     *  @return false with @p error set on socket setup failure. */
    bool start(std::string &error);

    /** Drain and shut down: no new connections or requests, every
     *  in-flight run completes and its reply is written (idempotent). */
    void stop();

    bool running() const { return running_; }

    /** True once a client sent `op = shutdown`. */
    bool shutdownRequested() const { return shutdownRequested_; }

    /** Block until a client requests shutdown (or stop() is called);
     *  the caller then invokes stop(). */
    void waitShutdownRequest();

    const ServerConfig &config() const { return cfg_; }
    driver::TraceCache &traceCache() { return cache_; }

    ServerStats stats() const;
    /** The op = stats reply body: counters as a stats JSON document
     *  (run_meta carries service/socket), including the latency
     *  histograms and per-phase wall totals. */
    std::string statsJson() const;
    /** The op = metrics reply body: renderMetricsText(stats()),
     *  with the process's memory read at this moment. */
    std::string metricsText() const;

  private:
    struct Connection
    {
        int fd = -1;
        std::thread thread;
        std::atomic<bool> done{false};
    };

    void acceptLoop();
    void handleConnection(Connection *conn);
    /** @return the reply for one request block. @p close_after is
     *  set when framing was lost and the connection must drop. */
    std::string handleBlock(const std::string &block,
                            bool &close_after);
    std::string handleRun(std::istream &in);
    /** Run on the pool behind admission control. */
    std::string admitAndRun(driver::RunRequest req);

    /** Join connection threads that already finished. */
    void reapConnections();

    ServerConfig cfg_;
    driver::TraceCache cache_;
    std::unique_ptr<common::ThreadPool> pool_;

    int listenFd_ = -1;
    std::thread acceptThread_;
    std::atomic<bool> running_{false};
    std::atomic<bool> stopping_{false};

    std::mutex connMutex_;
    std::list<Connection> connections_;

    mutable std::mutex statsMutex_;
    ServerStats counters_; ///< trace* fields filled on read

    std::atomic<bool> shutdownRequested_{false};
    std::mutex shutdownMutex_;
    std::condition_variable shutdownCv_;
};

} // namespace serve
} // namespace dscalar

#endif // DSCALAR_SERVE_SERVER_HH
