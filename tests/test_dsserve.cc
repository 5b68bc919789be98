/**
 * @file
 * dsserve subsystem tests: in-process serve::Server + serve::Client
 * over real Unix-domain sockets. Covers the protocol ops, concurrent
 * clients sharing one trace cache, every rejection path (malformed,
 * oversized, instruction budget, overload), and shutdown draining
 * in-flight requests. The dsserve contract, cold and warm replies
 * byte-identical to in-process runs, is checked by
 * tests/test_identity.cc.
 *
 * Socket paths are short and relative (sun_path holds ~107 bytes);
 * ctest runs these from the build tree.
 */

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cstring>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "driver/run_request.hh"
#include "serve/client.hh"
#include "serve/protocol.hh"
#include "serve/server.hh"

namespace dscalar {
namespace {

serve::ServerConfig
testConfig(const std::string &socket)
{
    serve::ServerConfig cfg;
    cfg.socketPath = socket;
    cfg.jobs = 2;
    return cfg;
}

driver::RunRequest
smallRequest(const std::string &workload = "go_s",
             InstSeq budget = 2000)
{
    driver::RunRequest req;
    req.workload = workload;
    req.config.maxInsts = budget;
    return req;
}

serve::Client
connectTo(const std::string &socket)
{
    serve::Client client;
    std::string error;
    EXPECT_TRUE(client.connect(socket, error)) << error;
    return client;
}

TEST(DsServe, StartStopUnlinksSocket)
{
    serve::Server server(testConfig("t_dss_start.sock"));
    std::string error;
    ASSERT_TRUE(server.start(error)) << error;
    EXPECT_TRUE(server.running());

    serve::Client client = connectTo("t_dss_start.sock");
    EXPECT_TRUE(client.ping().ok);

    server.stop();
    EXPECT_FALSE(server.running());
    server.stop(); // idempotent

    serve::Client again;
    EXPECT_FALSE(again.connect("t_dss_start.sock", error));
}

TEST(DsServe, RejectsOverlongSocketPath)
{
    serve::Server server(testConfig(std::string(200, 'x')));
    std::string error;
    EXPECT_FALSE(server.start(error));
    EXPECT_NE(error.find("socket path"), std::string::npos) << error;
}

TEST(DsServe, PingStatsAndUnknownOp)
{
    serve::Server server(testConfig("t_dss_ops.sock"));
    std::string error;
    ASSERT_TRUE(server.start(error)) << error;

    serve::Client client = connectTo("t_dss_ops.sock");
    EXPECT_TRUE(client.ping().ok);

    serve::Reply stats = client.serverStats();
    ASSERT_TRUE(stats.ok);
    EXPECT_NE(stats.json.find("\"service\":\"dsserve\""),
              std::string::npos)
        << stats.json;
    EXPECT_NE(stats.json.find("\"connections\""), std::string::npos);

    // Unknown op over raw bytes: error reply, connection survives.
    int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strcpy(addr.sun_path, "t_dss_ops.sock");
    ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                        sizeof(addr)),
              0);
    ASSERT_TRUE(serve::writeAll(fd, "op = teleport\n\n"));
    serve::BlockReader reader(fd);
    std::string block;
    ASSERT_EQ(reader.readBlock(block, 4096),
              serve::BlockReader::Status::Block);
    serve::Reply bad;
    ASSERT_TRUE(serve::parseReplyHeader(block, bad));
    EXPECT_FALSE(bad.ok);
    EXPECT_NE(bad.error.find("unknown op"), std::string::npos)
        << bad.error;

    // `trace_dir` named the removed persistent trace store: a run
    // request carrying it is refused as an unknown key.
    ASSERT_TRUE(serve::writeAll(
        fd, "workload = go_s\nmax_insts = 2000\ntrace_dir = x\n\n"));
    ASSERT_EQ(reader.readBlock(block, 4096),
              serve::BlockReader::Status::Block);
    ASSERT_TRUE(serve::parseReplyHeader(block, bad));
    EXPECT_FALSE(bad.ok);
    EXPECT_NE(bad.error.find("unknown key 'trace_dir'"),
              std::string::npos)
        << bad.error;

    ASSERT_TRUE(serve::writeAll(fd, "op = ping\n\n"));
    ASSERT_EQ(reader.readBlock(block, 4096),
              serve::BlockReader::Status::Block);
    ASSERT_TRUE(serve::parseReplyHeader(block, bad));
    EXPECT_TRUE(bad.ok);
    ::close(fd);

    server.stop();
}

TEST(DsServe, MalformedRequestRejectedConnectionSurvives)
{
    serve::Server server(testConfig("t_dss_bad.sock"));
    std::string error;
    ASSERT_TRUE(server.start(error)) << error;

    serve::Client client = connectTo("t_dss_bad.sock");

    driver::RunRequest bogus = smallRequest();
    bogus.workload = "no_such_workload";
    serve::Reply reply = client.run(bogus);
    EXPECT_FALSE(reply.ok);
    EXPECT_NE(reply.error.find("unknown workload"), std::string::npos)
        << reply.error;

    // Framing intact: the same connection still serves.
    EXPECT_TRUE(client.ping().ok);
    EXPECT_TRUE(client.run(smallRequest()).ok);

    serve::ServerStats s = server.stats();
    EXPECT_EQ(s.failed, 1u);
    server.stop();
}

TEST(DsServe, HardBshrWithoutRecoveryRejectedServerSurvives)
{
    serve::Server server(testConfig("t_dss_bshr.sock"));
    std::string error;
    ASSERT_TRUE(server.start(error)) << error;

    serve::Client client = connectTo("t_dss_bshr.sock");

    // DataScalarSystem's constructor refuses this block with fatal();
    // the daemon must answer it as an error and keep serving.
    driver::RunRequest req = smallRequest("go_s", 1000);
    req.config.numNodes = 4;
    req.config.bshrHardCapacity = true;
    req.config.rerequestTimeout = 0;
    req.rerequestTimeoutSet = true;
    serve::Reply reply = client.run(req);
    EXPECT_FALSE(reply.ok);
    EXPECT_NE(reply.error.find("rerequest_timeout"), std::string::npos)
        << reply.error;

    EXPECT_TRUE(client.ping().ok);
    server.stop();
}

TEST(DsServe, FaultDelayPastWatchdogRejectedServerSurvives)
{
    serve::Server server(testConfig("t_dss_delay.sock"));
    std::string error;
    ASSERT_TRUE(server.start(error)) << error;
    serve::Client client = connectTo("t_dss_delay.sock");

    // A delivery jittered past the 5M-cycle watchdog window used to
    // abort the run, and with it the daemon. On the bus one delay
    // past the window did it; on a 4-node ring three hops of 4M each.
    const char *blocks[] = {
        "workload = go_s\nsystem = datascalar\nnodes = 2\n"
        "fault_delay = 1\nfault_max_delay = 100000000\n"
        "max_insts = 2000\n\n",
        "workload = go_s\nsystem = datascalar\nnodes = 4\n"
        "interconnect = ring\nfault_delay = 1\n"
        "fault_max_delay = 4000000\nmax_insts = 2000\n\n"};
    for (const char *block : blocks) {
        std::istringstream in(block);
        driver::RunRequest req;
        ASSERT_TRUE(driver::parseRunRequest(in, req, error)) << error;
        serve::Reply reply = client.run(req);
        EXPECT_FALSE(reply.ok) << block;
        EXPECT_NE(reply.error.find("fault_max_delay"), std::string::npos)
            << reply.error;
        EXPECT_TRUE(client.ping().ok) << block;
    }
    server.stop();
}

/** Send @p block to a fresh daemon: the reply is an error containing
 *  @p expected, and the daemon still answers a ping afterwards. */
void
expectRunErrorServerSurvives(const std::string &socket,
                             const std::string &block,
                             const std::string &expected)
{
    serve::Server server(testConfig(socket));
    std::string error;
    ASSERT_TRUE(server.start(error)) << error;
    serve::Client client = connectTo(socket);

    std::istringstream in(block);
    driver::RunRequest req;
    ASSERT_TRUE(driver::parseRunRequest(in, req, error)) << error;
    serve::Reply reply = client.run(req);
    EXPECT_FALSE(reply.ok);
    EXPECT_NE(reply.error.find(expected), std::string::npos)
        << reply.error;

    EXPECT_TRUE(client.ping().ok);
    EXPECT_EQ(server.stats().failed, 1u);
    server.stop();
}

TEST(DsServe, EveryTransmissionLostErrorsServerSurvives)
{
    expectRunErrorServerSurvives(
        "t_dss_drop.sock",
        "workload = go_s\nsystem = datascalar\nnodes = 4\n"
        "fault_drop = 1\nmax_insts = 2000\n\n",
        "owner unreachable");
}

TEST(DsServe, ShortTimeoutUnderHardBshrErrorsServerSurvives)
{
    expectRunErrorServerSurvives(
        "t_dss_hard.sock",
        "workload = go_s\nsystem = datascalar\nnodes = 4\n"
        "bshr_hard = 1\nrerequest_timeout = 100\n"
        "max_insts = 50000\n\n",
        "owner unreachable");
}

TEST(DsServe, DeadlockErrorsServerSurvives)
{
    // Lost broadcasts with recovery explicitly off strand a waiter
    // for good: the watchdog ends the run, not the daemon, and the
    // reply carries the error's diagnostics excerpt.
    expectRunErrorServerSurvives(
        "t_dss_dead2.sock",
        "workload = go_s\nsystem = datascalar\nnodes = 2\n"
        "fault_drop = 1\nrerequest_timeout = 0\n"
        "max_insts = 2000\n\n",
        "-- deadlock\n==== watchdog diagnostics @ cycle 5000046");
    expectRunErrorServerSurvives(
        "t_dss_dead4.sock",
        "workload = go_s\nsystem = datascalar\nnodes = 4\n"
        "fault_drop = 0.05\nrerequest_timeout = 0\n"
        "max_insts = 2000\n\n",
        "watchdog: no commit progress");
}

TEST(DsServe, OversizedRequestDropsConnection)
{
    serve::ServerConfig cfg = testConfig("t_dss_big.sock");
    cfg.maxRequestBytes = 128;
    serve::Server server(cfg);
    std::string error;
    ASSERT_TRUE(server.start(error)) << error;

    serve::Client client = connectTo("t_dss_big.sock");
    driver::RunRequest req = smallRequest();
    req.perfettoPath = std::string(512, 'p'); // inflates one line
    serve::Reply reply = client.run(req);
    EXPECT_FALSE(reply.ok);
    EXPECT_NE(reply.error.find("oversized"), std::string::npos)
        << reply.error;

    // Framing is lost past the limit, so the server dropped us.
    EXPECT_FALSE(client.ping().ok);

    serve::ServerStats s = server.stats();
    EXPECT_EQ(s.rejectedOversize, 1u);
    server.stop();
}

TEST(DsServe, PerfettoRejectedWithoutOutputDir)
{
    serve::Server server(testConfig("t_dss_pft.sock"));
    std::string error;
    ASSERT_TRUE(server.start(error)) << error;

    serve::Client client = connectTo("t_dss_pft.sock");
    driver::RunRequest req = smallRequest();
    req.perfettoPath = "trace.json";
    serve::Reply reply = client.run(req);
    EXPECT_FALSE(reply.ok);
    EXPECT_NE(reply.error.find("perfetto"), std::string::npos)
        << reply.error;
    server.stop();
}

TEST(DsServe, InstructionBudgetEnforced)
{
    serve::ServerConfig cfg = testConfig("t_dss_budget.sock");
    cfg.maxInstBudget = 5000;
    serve::Server server(cfg);
    std::string error;
    ASSERT_TRUE(server.start(error)) << error;

    serve::Client client = connectTo("t_dss_budget.sock");

    serve::Reply over = client.run(smallRequest("go_s", 20000));
    EXPECT_FALSE(over.ok);
    EXPECT_NE(over.error.find("budget"), std::string::npos)
        << over.error;

    // An unbounded run (max_insts = 0) is over any finite budget.
    serve::Reply unbounded = client.run(smallRequest("go_s", 0));
    EXPECT_FALSE(unbounded.ok);

    serve::Reply within = client.run(smallRequest("go_s", 5000));
    EXPECT_TRUE(within.ok) << within.error;

    serve::ServerStats s = server.stats();
    EXPECT_EQ(s.rejectedBudget, 2u);
    EXPECT_EQ(s.completed, 1u);
    server.stop();
}

TEST(DsServe, OverloadRejectsBeyondQueueDepth)
{
    serve::ServerConfig cfg = testConfig("t_dss_load.sock");
    cfg.maxQueueDepth = 1;
    cfg.jobs = 1;
    cfg.testHoldMillis = 400; // pins the admitted run in flight
    serve::Server server(cfg);
    std::string error;
    ASSERT_TRUE(server.start(error)) << error;

    serve::Reply slow_reply;
    std::thread slow([&] {
        serve::Client client = connectTo("t_dss_load.sock");
        slow_reply = client.run(smallRequest());
    });

    // Wait until the slow request occupies the queue slot.
    for (int i = 0; i < 100; ++i) {
        if (server.stats().queueDepth > 0)
            break;
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    ASSERT_GT(server.stats().queueDepth, 0u);

    serve::Client client = connectTo("t_dss_load.sock");
    serve::Reply rejected = client.run(smallRequest());
    EXPECT_FALSE(rejected.ok);
    EXPECT_NE(rejected.error.find("overloaded"), std::string::npos)
        << rejected.error;

    slow.join();
    EXPECT_TRUE(slow_reply.ok) << slow_reply.error;

    serve::ServerStats s = server.stats();
    EXPECT_EQ(s.rejectedOverload, 1u);
    EXPECT_EQ(s.queuePeak, 1u);
    server.stop();
}

TEST(DsServe, ConcurrentClientsShareOneCache)
{
    serve::Server server(testConfig("t_dss_conc.sock"));
    std::string error;
    ASSERT_TRUE(server.start(error)) << error;

    constexpr unsigned kClients = 4;
    constexpr unsigned kPerClient = 5;
    std::vector<unsigned> failures(kClients, 0);
    std::vector<std::thread> threads;
    for (unsigned c = 0; c < kClients; ++c) {
        threads.emplace_back([c, &failures] {
            serve::Client client = connectTo("t_dss_conc.sock");
            for (unsigned i = 0; i < kPerClient; ++i) {
                driver::RunRequest req = smallRequest(
                    (c + i) % 2 ? "go_s" : "compress_s");
                req.system = i % 2 ? driver::SystemKind::Traditional
                                   : driver::SystemKind::DataScalar;
                if (!client.run(req).ok)
                    ++failures[c];
            }
        });
    }
    for (std::thread &t : threads)
        t.join();
    for (unsigned c = 0; c < kClients; ++c)
        EXPECT_EQ(failures[c], 0u) << "client " << c;

    serve::ServerStats s = server.stats();
    EXPECT_EQ(s.completed, kClients * kPerClient);
    EXPECT_EQ(s.connections, kClients);
    // Two distinct workloads at one budget: exactly two captures,
    // everything else replays from the shared cache.
    EXPECT_EQ(s.traceCaptures, 2u);
    EXPECT_EQ(s.traceHits, kClients * kPerClient - 2u);
    server.stop();
}

TEST(DsServe, ShutdownDrainsInFlightRequests)
{
    serve::ServerConfig cfg = testConfig("t_dss_drain.sock");
    cfg.testHoldMillis = 300;
    serve::Server server(cfg);
    std::string error;
    ASSERT_TRUE(server.start(error)) << error;

    serve::Reply slow_reply;
    std::thread slow([&] {
        serve::Client client = connectTo("t_dss_drain.sock");
        slow_reply = client.run(smallRequest());
    });
    for (int i = 0; i < 100; ++i) {
        if (server.stats().queueDepth > 0)
            break;
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    ASSERT_GT(server.stats().queueDepth, 0u);

    serve::Client client = connectTo("t_dss_drain.sock");
    serve::Reply ack = client.shutdown();
    EXPECT_TRUE(ack.ok) << ack.error;
    EXPECT_TRUE(server.shutdownRequested());

    server.waitShutdownRequest(); // satisfied, returns immediately
    server.stop();                // must drain the held run

    slow.join();
    EXPECT_TRUE(slow_reply.ok) << slow_reply.error;
    EXPECT_FALSE(slow_reply.json.empty());
}

TEST(DsServeProtocol, BlockReaderAndReplyHeader)
{
    serve::Reply reply;
    ASSERT_TRUE(serve::parseReplyHeader(
        "status = ok\ncycles = 42\njson_bytes = 3\n", reply));
    EXPECT_TRUE(reply.ok);
    EXPECT_EQ(reply.field("cycles"), "42");
    EXPECT_EQ(reply.field("missing"), "");

    ASSERT_TRUE(
        serve::parseReplyHeader("status = error\nerror = nope\n", reply));
    EXPECT_FALSE(reply.ok);
    EXPECT_EQ(reply.error, "nope");

    EXPECT_FALSE(serve::parseReplyHeader("cycles = 42\n", reply));

    EXPECT_EQ(serve::formatErrorReply("boom"),
              "status = error\nerror = boom\n\n");
}

} // namespace
} // namespace dscalar
