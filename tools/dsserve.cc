/**
 * @file
 * dsserve — persistent simulation-as-a-service daemon.
 *
 * Listens on a Unix-domain socket for newline-delimited `key = value`
 * run requests (the same keys as dsrun flags and dsfuzz repro files),
 * executes them on a shared thread pool with one process-wide trace
 * cache, and streams back stats JSON byte-identical to a cold
 * one-shot dsrun of the same request. Protocol and deployment notes:
 * docs/SERVING.md.
 *
 * Usage:
 *   dsserve [--socket=PATH] [--jobs=N] [--max-queue=N]
 *           [--max-insts=N] [--max-request-bytes=N]
 *           [--output-dir=DIR]
 *
 * Options:
 *   --socket=PATH          socket path (default dsserve.sock; keep it
 *                          short — sun_path holds ~107 bytes)
 *   --jobs=N               simulation worker threads (default 0 = all
 *                          cores)
 *   --max-queue=N          admission: max runs queued or running
 *                          (default 256)
 *   --max-insts=N          admission: per-request instruction budget;
 *                          requests must set max_insts in (0, N]
 *                          (default 0 = unlimited)
 *   --max-request-bytes=N  reject larger request blocks (default 16384)
 *   --output-dir=DIR       directory for server-side Perfetto files;
 *                          requests with a perfetto key are rejected
 *                          when unset
 *
 * Stop it with a client `op = shutdown` request (e.g.
 * `dsbench --shutdown`): the daemon drains in-flight runs, replies,
 * and exits. A stale socket file from a killed daemon is unlinked on
 * the next start.
 */

#include <cstdio>
#include <string>

#include "common/kv.hh"
#include "serve/server.hh"

using namespace dscalar;

namespace {

int
usage()
{
    std::fprintf(
        stderr,
        "usage: dsserve [--socket=PATH] [--jobs=N] [--max-queue=N]"
        "\n               [--max-insts=N] [--max-request-bytes=N]"
        "\n               [--output-dir=DIR]\n");
    return 2;
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

bool
flagU64(const std::string &arg, const char *name, std::uint64_t &out,
        bool &bad)
{
    std::string value;
    if (!flagValue(arg, name, value))
        return false;
    if (!common::kv::parseU64(value, out))
        bad = true;
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    serve::ServerConfig cfg;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        std::string value;
        std::uint64_t v = 0;
        bool bad = false;
        if (flagValue(arg, "--socket", value)) {
            cfg.socketPath = value;
        } else if (flagValue(arg, "--output-dir", value)) {
            cfg.outputDir = value;
        } else if (flagU64(arg, "--jobs", v, bad)) {
            cfg.jobs = static_cast<unsigned>(v);
        } else if (flagU64(arg, "--max-queue", v, bad)) {
            cfg.maxQueueDepth = static_cast<unsigned>(v);
        } else if (flagU64(arg, "--max-insts", v, bad)) {
            cfg.maxInstBudget = v;
        } else if (flagU64(arg, "--max-request-bytes", v, bad)) {
            cfg.maxRequestBytes = v;
        } else {
            return usage();
        }
        if (bad)
            return usage();
    }

    serve::Server server(cfg);
    std::string error;
    if (!server.start(error)) {
        std::fprintf(stderr, "dsserve: %s\n", error.c_str());
        return 1;
    }
    std::fprintf(stderr, "dsserve: listening on %s\n",
                 cfg.socketPath.c_str());

    server.waitShutdownRequest();
    server.stop();

    serve::ServerStats s = server.stats();
    std::fprintf(stderr,
                 "dsserve: shut down after %llu requests "
                 "(%llu completed, %llu rejected, trace cache "
                 "%llu hits / %llu captures)\n",
                 (unsigned long long)s.requests,
                 (unsigned long long)s.completed,
                 (unsigned long long)(s.rejectedParse +
                                      s.rejectedBudget +
                                      s.rejectedOverload +
                                      s.rejectedOversize),
                 (unsigned long long)s.traceHits,
                 (unsigned long long)s.traceCaptures);
    return 0;
}
