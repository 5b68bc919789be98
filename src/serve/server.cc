#include "serve/server.hh"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <future>
#include <sstream>

#include "common/kv.hh"
#include "obs/span.hh"
#include "serve/protocol.hh"
#include "stats/json_writer.hh"
#include "stats/snapshot.hh"

namespace dscalar {
namespace serve {

namespace kv = common::kv;

Server::Server(ServerConfig cfg) : cfg_(std::move(cfg)) {}

Server::~Server()
{
    stop();
}

bool
Server::start(std::string &error)
{
    if (running_) {
        error = "already running";
        return false;
    }

    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (cfg_.socketPath.empty() ||
        cfg_.socketPath.size() >= sizeof(addr.sun_path)) {
        error = "socket path must be 1.." +
                std::to_string(sizeof(addr.sun_path) - 1) +
                " bytes (use a short relative path)";
        return false;
    }
    std::memcpy(addr.sun_path, cfg_.socketPath.c_str(),
                cfg_.socketPath.size() + 1);

    listenFd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (listenFd_ < 0) {
        error = std::string("socket: ") + std::strerror(errno);
        return false;
    }
    ::unlink(cfg_.socketPath.c_str());
    if (::bind(listenFd_, reinterpret_cast<sockaddr *>(&addr),
               sizeof(addr)) < 0 ||
        ::listen(listenFd_, 128) < 0) {
        error = std::string("bind/listen '") + cfg_.socketPath +
                "': " + std::strerror(errno);
        ::close(listenFd_);
        listenFd_ = -1;
        return false;
    }

    pool_ = std::make_unique<common::ThreadPool>(cfg_.jobs);
    stopping_ = false;
    running_ = true;
    acceptThread_ = std::thread([this] { acceptLoop(); });
    return true;
}

void
Server::acceptLoop()
{
    for (;;) {
        int fd = ::accept(listenFd_, nullptr, nullptr);
        if (fd < 0) {
            if (errno == EINTR)
                continue;
            break; // listener closed by stop()
        }
        if (stopping_) {
            ::close(fd);
            break;
        }
        std::lock_guard<std::mutex> lock(connMutex_);
        reapConnections();
        {
            std::lock_guard<std::mutex> slock(statsMutex_);
            ++counters_.connections;
        }
        Connection &conn = connections_.emplace_back();
        conn.fd = fd;
        conn.thread =
            std::thread([this, &conn] { handleConnection(&conn); });
    }
}

void
Server::reapConnections()
{
    // Caller holds connMutex_. The fd closes here, after the join,
    // so its number cannot be recycled under a live thread.
    for (auto it = connections_.begin(); it != connections_.end();) {
        if (it->done) {
            it->thread.join();
            ::close(it->fd);
            it = connections_.erase(it);
        } else {
            ++it;
        }
    }
}

void
Server::handleConnection(Connection *conn)
{
    BlockReader reader(conn->fd);
    for (;;) {
        std::string block;
        BlockReader::Status st =
            reader.readBlock(block, cfg_.maxRequestBytes);
        if (st == BlockReader::Status::Oversize) {
            {
                std::lock_guard<std::mutex> lock(statsMutex_);
                ++counters_.requests;
                ++counters_.rejectedOversize;
            }
            // Framing is lost mid-block; reply and drop the
            // connection.
            writeAll(conn->fd,
                     formatErrorReply(
                         "oversized request (max " +
                         std::to_string(cfg_.maxRequestBytes) +
                         " bytes)"));
            break;
        }
        if (st != BlockReader::Status::Block)
            break;
        {
            std::lock_guard<std::mutex> lock(statsMutex_);
            ++counters_.requests;
        }
        bool close_after = false;
        std::string reply = handleBlock(block, close_after);
        // The reply flush happens after the header is serialized, so
        // its cost can only be accounted in the server-wide phase
        // totals, never in the reply's own span keys.
        auto write_start = std::chrono::steady_clock::now();
        bool write_ok = writeAll(conn->fd, reply);
        std::uint64_t write_us =
            std::chrono::duration_cast<std::chrono::microseconds>(
                std::chrono::steady_clock::now() - write_start)
                .count();
        {
            std::lock_guard<std::mutex> lock(statsMutex_);
            counters_.phaseUs["reply_write"] += write_us;
        }
        if (!write_ok || close_after)
            break;
    }
    // The fd itself closes after the join (reap/stop), so signal EOF
    // to the peer now; buffered replies still flush first.
    ::shutdown(conn->fd, SHUT_RDWR);
    conn->done = true;
}

std::string
Server::handleBlock(const std::string &block, bool &close_after)
{
    // Split off the op line; everything else stays a RunRequest
    // block.
    std::string op = "run";
    std::string rest;
    std::istringstream in(block);
    std::string line;
    while (std::getline(in, line)) {
        std::string key, value;
        if (kv::splitLine(kv::trim(line), key, value) && key == "op")
            op = value;
        else
            rest += line + "\n";
    }

    if (op == "ping")
        return "status = ok\n\n";
    if (op == "shutdown") {
        {
            std::lock_guard<std::mutex> lock(shutdownMutex_);
            shutdownRequested_ = true;
        }
        shutdownCv_.notify_all();
        close_after = true;
        return "status = ok\n\n";
    }
    if (op == "stats" || op == "metrics") {
        // Same framing either way: json_bytes is the body byte
        // count, whatever the body's format.
        std::string body = op == "stats" ? statsJson() : metricsText();
        std::ostringstream os;
        kv::emit(os, "status", "ok");
        kv::emit(os, "json_bytes", std::uint64_t(body.size()));
        os << "\n" << body;
        return os.str();
    }
    if (op != "run") {
        std::lock_guard<std::mutex> lock(statsMutex_);
        ++counters_.rejectedParse;
        return formatErrorReply("unknown op '" + op + "'");
    }
    std::istringstream req_in(rest);
    return handleRun(req_in);
}

std::string
Server::handleRun(std::istream &in)
{
    auto reject = [this](std::uint64_t ServerStats::*counter,
                         const std::string &message) {
        {
            std::lock_guard<std::mutex> lock(statsMutex_);
            ++(counters_.*counter);
        }
        return formatErrorReply(message);
    };

    driver::RunRequest req;
    std::string error;
    if (!driver::parseRunRequest(in, req, error))
        return reject(&ServerStats::rejectedParse, error);

    // The wire cannot carry local attachments; scrub anything a
    // parse could never set and match dsrun's always-on recorder.
    req.program = nullptr;
    req.trace = nullptr;
    req.spans = nullptr; // admitAndRun attaches the per-request one
    req.traceToStderr = false;
    req.flightRecorder = true;

    if (!req.perfettoPath.empty()) {
        if (cfg_.outputDir.empty())
            return reject(&ServerStats::rejectedParse,
                          "perfetto output disabled on this server");
        // Server-side file: basename only, under outputDir.
        std::size_t slash = req.perfettoPath.find_last_of('/');
        std::string base = slash == std::string::npos
                               ? req.perfettoPath
                               : req.perfettoPath.substr(slash + 1);
        req.perfettoPath = cfg_.outputDir + "/" + base;
    }

    if (cfg_.maxInstBudget &&
        (req.config.maxInsts == 0 ||
         req.config.maxInsts > cfg_.maxInstBudget))
        return reject(&ServerStats::rejectedBudget,
                      "instruction budget exceeded (request "
                      "max_insts in 1.." +
                          std::to_string(cfg_.maxInstBudget) + ")");

    return admitAndRun(std::move(req));
}

std::string
Server::admitAndRun(driver::RunRequest req)
{
    // Per-request span recorder: single-writer, handed from this
    // connection thread to the pool worker and back — the worker is
    // done with it before future.get() returns. Its closed top-level
    // spans become the reply's span_<name>_us keys, the latency
    // histogram samples, and the server's per-phase wall totals.
    obs::SpanRecorder rec;

    std::size_t admission = rec.begin("admission");
    {
        std::lock_guard<std::mutex> lock(statsMutex_);
        if (counters_.queueDepth >= cfg_.maxQueueDepth) {
            ++counters_.rejectedOverload;
            return formatErrorReply(
                "server overloaded (" +
                std::to_string(counters_.queueDepth) +
                " requests in flight)");
        }
        ++counters_.queueDepth;
        if (counters_.queueDepth > counters_.queuePeak)
            counters_.queuePeak = counters_.queueDepth;
    }
    rec.end(admission);

    req.spans = &rec;

    // shared_ptrs because ThreadPool tasks are copyable
    // std::functions.
    auto preq =
        std::make_shared<driver::RunRequest>(std::move(req));
    auto promise =
        std::make_shared<std::promise<driver::RunResponse>>();
    std::future<driver::RunResponse> future = promise->get_future();
    unsigned hold = cfg_.testHoldMillis;
    driver::TraceCache *cache = &cache_;
    std::size_t queue_wait = rec.begin("queue_wait");
    pool_->submit([preq, promise, hold, cache, &rec, queue_wait] {
        // The test hold counts as queue wait: it exists to pin
        // requests "in flight", exactly what the wait measures.
        if (hold)
            std::this_thread::sleep_for(
                std::chrono::milliseconds(hold));
        rec.end(queue_wait);
        promise->set_value(driver::runOne(*preq, cache));
    });
    driver::RunResponse resp = future.get();

    std::string body;
    if (resp.ok()) {
        obs::SpanScope span(&rec, "render");
        body = resp.statsJson();
    }

    {
        std::lock_guard<std::mutex> lock(statsMutex_);
        --counters_.queueDepth;
        if (resp.ok()) {
            ++counters_.completed;
            counters_.latencyUs.sample(rec.elapsedUs());
            counters_.queueWaitUs.sample(rec.spanUs("queue_wait"));
            counters_.runUs.sample(rec.spanUs("sim_run"));
            for (const auto &span : rec.spans())
                if (!span.open && span.depth == 0)
                    counters_.phaseUs[span.name] += span.durNs / 1000;
        } else {
            ++counters_.failed;
        }
    }

    if (!resp.ok())
        return formatErrorReply(resp.error);

    std::ostringstream os;
    kv::emit(os, "status", "ok");
    kv::emit(os, "cycles", resp.result.cycles);
    kv::emit(os, "instructions", resp.result.instructions);
    kv::emit(os, "ipc", resp.result.ipc);
    kv::emit(os, "drained", std::uint64_t(resp.drained ? 1 : 0));
    kv::emit(os, "cache_hit", std::uint64_t(resp.cacheHit ? 1 : 0));
    rec.emitHeaderKeys(os);
    kv::emit(os, "span_total_us", rec.elapsedUs());
    kv::emit(os, "json_bytes", std::uint64_t(body.size()));
    os << "\n" << body;
    return os.str();
}

namespace {

void
emitMetric(std::ostream &os, const char *name, const char *type,
           const char *help, std::uint64_t value)
{
    os << "# HELP " << name << ' ' << help << '\n'
       << "# TYPE " << name << ' ' << type << '\n'
       << name << ' ' << value << '\n';
}

void
emitHistogramMetric(std::ostream &os, const std::string &name,
                    const char *help, const stats::Histogram &h)
{
    os << "# HELP " << name << ' ' << help << '\n'
       << "# TYPE " << name << " histogram\n";
    std::uint64_t cum = 0;
    for (std::size_t i = 0; i < h.bucketCount(); ++i) {
        if (h.bucket(i) == 0)
            continue; // cumulative buckets: elide flat spans
        cum += h.bucket(i);
        os << name << "_bucket{le=\"" << (i + 1) * h.bucketWidth()
           << "\"} " << cum << '\n';
    }
    os << name << "_bucket{le=\"+Inf\"} " << h.count() << '\n'
       << name << "_sum " << stats::formatDouble(h.sum()) << '\n'
       << name << "_count " << h.count() << '\n';
}

} // namespace

std::string
renderMetricsText(const ServerStats &s)
{
    std::ostringstream os;
    emitMetric(os, "dsserve_connections_total", "counter",
               "Accepted connections.", s.connections);
    emitMetric(os, "dsserve_requests_total", "counter",
               "Request blocks received.", s.requests);
    emitMetric(os, "dsserve_completed_total", "counter",
               "Runs finished successfully.", s.completed);
    emitMetric(os, "dsserve_failed_total", "counter",
               "Admitted runs that errored.", s.failed);
    os << "# HELP dsserve_rejected_total Requests rejected before "
          "admission, by reason.\n"
          "# TYPE dsserve_rejected_total counter\n"
       << "dsserve_rejected_total{reason=\"parse\"} "
       << s.rejectedParse << '\n'
       << "dsserve_rejected_total{reason=\"budget\"} "
       << s.rejectedBudget << '\n'
       << "dsserve_rejected_total{reason=\"overload\"} "
       << s.rejectedOverload << '\n'
       << "dsserve_rejected_total{reason=\"oversize\"} "
       << s.rejectedOversize << '\n';
    emitMetric(os, "dsserve_queue_depth", "gauge",
               "Runs in flight now.", s.queueDepth);
    emitMetric(os, "dsserve_queue_peak", "gauge",
               "Max runs ever in flight.", s.queuePeak);
    emitMetric(os, "dsserve_trace_captures_total", "counter",
               "Functional captures executed.", s.traceCaptures);
    emitMetric(os, "dsserve_trace_hits_total", "counter",
               "Trace acquires served from cache.", s.traceHits);
    emitMetric(os, "dsserve_trace_bytes", "gauge",
               "Bytes held across cached traces.", s.traceBytes);
    emitMetric(os, "dsserve_resident_bytes", "gauge",
               "Process resident memory now (VmRSS).", s.residentBytes);
    emitMetric(os, "dsserve_resident_peak_bytes", "gauge",
               "Process resident memory at peak (VmHWM).",
               s.residentPeakBytes);
    if (!s.phaseUs.empty()) {
        os << "# HELP dsserve_phase_us_total Cumulative wall "
              "microseconds by request phase.\n"
              "# TYPE dsserve_phase_us_total counter\n";
        for (const auto &entry : s.phaseUs)
            os << "dsserve_phase_us_total{phase=\"" << entry.first
               << "\"} " << entry.second << '\n';
    }
    emitHistogramMetric(os, "dsserve_request_latency_us",
                        "End-to-end request latency (completed "
                        "runs), microseconds.",
                        s.latencyUs);
    emitHistogramMetric(os, "dsserve_queue_wait_us",
                        "Pool queue wait (completed runs), "
                        "microseconds.",
                        s.queueWaitUs);
    emitHistogramMetric(os, "dsserve_run_us",
                        "Timing-run wall time (completed runs), "
                        "microseconds.",
                        s.runUs);
    return os.str();
}

void
readProcessMemory(ServerStats &s)
{
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line)) {
        // "VmRSS:\t    7548 kB"
        std::uint64_t *field = nullptr;
        if (line.rfind("VmRSS:", 0) == 0)
            field = &s.residentBytes;
        else if (line.rfind("VmHWM:", 0) == 0)
            field = &s.residentPeakBytes;
        if (field)
            *field = std::strtoull(line.c_str() + 6, nullptr, 10) * 1024;
    }
}

std::string
Server::metricsText() const
{
    ServerStats s = stats();
    readProcessMemory(s);
    return renderMetricsText(s);
}

ServerStats
Server::stats() const
{
    ServerStats out;
    {
        std::lock_guard<std::mutex> lock(statsMutex_);
        out = counters_;
    }
    out.traceCaptures = cache_.captures();
    out.traceHits = cache_.hits();
    out.traceBytes = cache_.memoryBytes();
    return out;
}

std::string
Server::statsJson() const
{
    ServerStats s = stats();
    stats::Snapshot snap;
    auto &server = snap.addGroup("server", "---- dsserve ----");
    snap.addCounter(server, "connections", s.connections,
                    "accepted connections");
    snap.addCounter(server, "requests", s.requests,
                    "request blocks received");
    snap.addCounter(server, "completed", s.completed,
                    "runs finished successfully");
    snap.addCounter(server, "failed", s.failed,
                    "admitted runs that errored");
    snap.addCounter(server, "rejected_parse", s.rejectedParse,
                    "malformed request blocks");
    snap.addCounter(server, "rejected_budget", s.rejectedBudget,
                    "instruction budget rejections");
    snap.addCounter(server, "rejected_overload", s.rejectedOverload,
                    "queue-depth admission rejections");
    snap.addCounter(server, "rejected_oversize", s.rejectedOversize,
                    "oversized request blocks");
    snap.addCounter(server, "queue_depth", s.queueDepth,
                    "runs in flight now");
    snap.addCounter(server, "queue_peak", s.queuePeak,
                    "max runs ever in flight");
    auto &cache = snap.addGroup("trace_cache", "trace cache:");
    snap.addCounter(cache, "captures", s.traceCaptures,
                    "functional captures executed");
    snap.addCounter(cache, "hits", s.traceHits,
                    "acquires served from cache");
    snap.addCounter(cache, "bytes", s.traceBytes,
                    "bytes held across cached traces");
    auto &latency = snap.addGroup("latency", "latency:");
    snap.addHistogram(latency, "request_latency_us", s.latencyUs,
                      "end-to-end request latency (completed runs)");
    snap.addHistogram(latency, "queue_wait_us", s.queueWaitUs,
                      "pool queue wait (completed runs)");
    snap.addHistogram(latency, "run_us", s.runUs,
                      "timing-run wall time (completed runs)");
    auto &phases = snap.addGroup("phases", "request phases:");
    for (const auto &entry : s.phaseUs)
        snap.addCounter(phases, entry.first + "_us", entry.second,
                        "cumulative wall microseconds in this phase");

    stats::RunMeta meta;
    meta.add("service", "dsserve");
    meta.add("socket", cfg_.socketPath);
    std::ostringstream os;
    stats::JsonWriter::write(os, meta, snap);
    return os.str();
}

void
Server::waitShutdownRequest()
{
    std::unique_lock<std::mutex> lock(shutdownMutex_);
    shutdownCv_.wait(lock, [this] {
        return shutdownRequested_.load() || stopping_.load();
    });
}

void
Server::stop()
{
    if (!running_)
        return;
    {
        std::lock_guard<std::mutex> lock(shutdownMutex_);
        stopping_ = true;
    }
    shutdownCv_.notify_all();

    // Unblock the accept loop, then the connection readers. Write
    // sides stay open: in-flight runs finish and reply before their
    // threads join.
    ::shutdown(listenFd_, SHUT_RDWR);
    ::close(listenFd_);
    if (acceptThread_.joinable())
        acceptThread_.join();
    listenFd_ = -1;

    {
        std::lock_guard<std::mutex> lock(connMutex_);
        for (Connection &conn : connections_)
            if (!conn.done)
                ::shutdown(conn.fd, SHUT_RD);
        for (Connection &conn : connections_) {
            conn.thread.join();
            ::close(conn.fd);
        }
        connections_.clear();
    }

    pool_.reset(); // drains remaining tasks
    ::unlink(cfg_.socketPath.c_str());
    running_ = false;
}

} // namespace serve
} // namespace dscalar
