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
 * Each flag is a row of kFlags below, `--key-name=value` over one
 * ServerConfig field with its range; the usage text lists the rows.
 * A malformed or out-of-range value prints usage and exits 2.
 *
 * Stop it with a client `op = shutdown` request (e.g.
 * `dsbench --shutdown`): the daemon drains in-flight runs, replies,
 * and exits. A stale socket file from a killed daemon is unlinked on
 * the next start.
 */

#include <cstdio>
#include <iostream>
#include <string>

#include "common/kv.hh"
#include "common/thread_pool.hh"
#include "serve/server.hh"

using namespace dscalar;

namespace {

namespace kv = common::kv;

#define F(m)                                                           \
    [](void *o) { return kv::Ref(static_cast<serve::ServerConfig *>(o)->m); }

constexpr kv::Key kFlags[] = {
    {"socket", F(socketPath),
     "socket path (default dsserve.sock; sun_path holds ~107 bytes)",
     {.min = 1, .noun = "socket path"}},
    {"jobs", F(jobs), "simulation worker threads (default 0 = all cores)",
     common::kWorkerCountRange},
    {"max_queue", F(maxQueueDepth),
     "admission: max runs queued or running (default 256)",
     {.min = 1, .noun = "queue depth"}},
    {"max_insts", F(maxInstBudget),
     "admission: requests must set max_insts in (0, N] (default 0 = "
     "unlimited)"},
    {"max_request_bytes", F(maxRequestBytes),
     "reject larger request blocks (default 16384)",
     {.min = 1, .noun = "byte count"}},
    {"output_dir", F(outputDir),
     "directory for server-side Perfetto files (unset: refused)"},
};

#undef F

int
usage()
{
    std::fprintf(stderr, "usage: dsserve [--flag=value ...]\n");
    kv::printFlags(std::cerr, kFlags);
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    serve::ServerConfig cfg;
    for (int i = 1; i < argc; ++i) {
        std::string key, value, error;
        if (!kv::argToKey(argv[i], key, value))
            return usage();
        if (!kv::applyKey(kFlags, &cfg, key, value, error)) {
            std::fprintf(stderr, "dsserve: %s\n", error.c_str());
            return usage();
        }
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
