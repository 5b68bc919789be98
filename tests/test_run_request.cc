/**
 * @file
 * RunRequest API tests: kv helper semantics, parse/format exactness
 * (format ∘ parse ∘ format is the identity on the serializable
 * subset), key-level error reporting, the recovery-default finalize
 * rule, the optional-returning name parsers, runOne's errors, and
 * the Figure 7 table's use of its base request. That a warm cache
 * replays byte-identical stats is checked by tests/test_identity.cc.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <utility>

#include "common/kv.hh"
#include "driver/driver.hh"

namespace dscalar {
namespace {

namespace kv = common::kv;

TEST(Kv, TrimStripsNewlines)
{
    // Protocol code trims raw lines that still carry their
    // terminator; repro parsing trims getline output without one.
    EXPECT_EQ(kv::trim("op = ping\n"), "op = ping");
    EXPECT_EQ(kv::trim(" \t x \r\n"), "x");
    EXPECT_EQ(kv::trim("\n"), "");
    EXPECT_EQ(kv::trim(""), "");
}

TEST(Kv, ParseU64Strict)
{
    std::uint64_t v = 0;
    EXPECT_TRUE(kv::parseU64("0", v));
    EXPECT_EQ(v, 0u);
    EXPECT_TRUE(kv::parseU64("18446744073709551615", v));
    EXPECT_EQ(v, UINT64_MAX);
    EXPECT_FALSE(kv::parseU64("", v));
    EXPECT_FALSE(kv::parseU64("12x", v));
    EXPECT_FALSE(kv::parseU64("-1", v));
    EXPECT_FALSE(kv::parseU64("18446744073709551616", v)); // overflow
    EXPECT_FALSE(kv::parseU64("30000000000000000000", v)); // wraps above
}

TEST(Kv, FormatF64RoundTrips)
{
    for (double v : {0.0, 0.05, 1.0 / 3.0, 2000.0, 1e-9, 123.456}) {
        double back = 0.0;
        ASSERT_TRUE(kv::parseF64(kv::formatF64(v), back));
        EXPECT_EQ(back, v) << kv::formatF64(v);
    }
}

driver::RunRequest
nonDefaultRequest()
{
    driver::RunRequest req;
    req.workload = "go_s";
    req.scale = 2;
    req.system = driver::SystemKind::Traditional;
    req.config.numNodes = 4;
    req.config.interconnect = core::InterconnectKind::Ring;
    req.config.maxInsts = 5000;
    req.config.eventDriven = false;
    req.config.fault.dropProb = 0.05;
    req.config.fault.dupProb = 0.25;
    req.config.fault.delayProb = 0.125;
    req.config.fault.maxDelay = 7;
    req.config.fault.seed = 99;
    req.config.rerequestTimeout = 1234;
    req.rerequestTimeoutSet = true;
    req.config.bshrHardCapacity = true;
    req.config.bshrCapacity = 16;
    req.blockPages = 2;
    req.sampleInterval = 500;
    req.profile = true;
    req.perfettoPath = "trace.json";
    return req;
}

TEST(RunRequestFormat, ParseIsExactInverse)
{
    driver::RunRequest req = nonDefaultRequest();
    std::string text = driver::formatRunRequest(req);

    std::istringstream in(text);
    driver::RunRequest parsed;
    std::string error;
    ASSERT_TRUE(driver::parseRunRequest(in, parsed, error)) << error;
    EXPECT_EQ(driver::formatRunRequest(parsed), text);

    EXPECT_EQ(parsed.workload, "go_s");
    EXPECT_EQ(parsed.scale, 2u);
    EXPECT_EQ(parsed.system, driver::SystemKind::Traditional);
    EXPECT_EQ(parsed.config.numNodes, 4u);
    EXPECT_EQ(parsed.config.interconnect, core::InterconnectKind::Ring);
    EXPECT_EQ(parsed.config.maxInsts, 5000u);
    EXPECT_FALSE(parsed.config.eventDriven);
    EXPECT_EQ(parsed.config.fault.dropProb, 0.05);
    EXPECT_EQ(parsed.config.fault.maxDelay, 7u);
    EXPECT_EQ(parsed.config.rerequestTimeout, 1234u);
    EXPECT_TRUE(parsed.config.bshrHardCapacity);
    EXPECT_EQ(parsed.config.bshrCapacity, 16u);
    EXPECT_EQ(parsed.blockPages, 2u);
    EXPECT_EQ(parsed.sampleInterval, 500u);
    EXPECT_TRUE(parsed.profile);
    EXPECT_EQ(parsed.perfettoPath, "trace.json");
}

TEST(RunRequestFormat, PathValuesRideTheQuotingLayer)
{
    // Paths that plain `key = value` trimming would mangle — leading
    // or trailing blanks, a leading '#' or '"', quotes, backslashes,
    // tabs and line breaks — must survive the round trip via kv
    // quoting.
    for (const char *path :
         {" out dir/trace.json ", "#a \"b\" c\\d\te\r\nf"}) {
        driver::RunRequest req;
        req.workload = "go_s";
        req.perfettoPath = path;
        std::string text = driver::formatRunRequest(req);

        std::istringstream in(text);
        driver::RunRequest parsed;
        std::string error;
        ASSERT_TRUE(driver::parseRunRequest(in, parsed, error)) << error;
        EXPECT_EQ(parsed.perfettoPath, path);
        EXPECT_EQ(driver::formatRunRequest(parsed), text);
    }
}

TEST(RunRequestFormat, DefaultRequestRoundTrips)
{
    driver::RunRequest req;
    req.workload = "compress_s";
    std::string text = driver::formatRunRequest(req);

    std::istringstream in(text);
    driver::RunRequest parsed;
    std::string error;
    ASSERT_TRUE(driver::parseRunRequest(in, parsed, error)) << error;
    EXPECT_EQ(driver::formatRunRequest(parsed), text);
}

TEST(RunRequestParse, CommentsAndBlankPrefix)
{
    std::istringstream in(
        "\n# a comment\n\nworkload = go_s\nmax_insts = 100\n\n"
        "this text is in the next block and never read\n");
    driver::RunRequest req;
    std::string error;
    ASSERT_TRUE(driver::parseRunRequest(in, req, error)) << error;
    EXPECT_EQ(req.workload, "go_s");
    EXPECT_EQ(req.config.maxInsts, 100u);
}

TEST(RunRequestParse, Errors)
{
    // Each block and a piece of the error it must give. `tick_threads`
    // named the removed per-node parallel loop, `trace_dir` the
    // removed persistent trace store, and `trace_reuse` the removed
    // switch that made a run with a cache execute live.
    const std::pair<const char *, const char *> cases[] = {
        {"\n\n", "empty request"},
        {"workload = go_s\nbogus = 1\n\n", "line 2: unknown key 'bogus'"},
        {"workload = go_s\ntick_threads = 1\n\n",
         "unknown key 'tick_threads'"},
        {"workload = go_s\ntrace_dir = 1\n\n", "unknown key 'trace_dir'"},
        {"workload = go_s\ntrace_reuse = 0\n\n",
         "unknown key 'trace_reuse'"},
        {"system = vector\n\n", "unknown system 'vector'"},
        {"nodes = 0\n\n", "bad value '0' for 'nodes'"},
        {"fault_drop = 1.5\n\n", "bad value '1.5' for 'fault_drop'"},
        {"workload =\n\n",
         "bad value '' for 'workload' (expected a workload name)"},
        {"interconnect = mesh\n\n", "unknown interconnect 'mesh'"},
        {"max_insts = lots\n\n",
         "bad value 'lots' for 'max_insts' (expected an unsigned "
         "integer)"},
        {"scale = 0\n\n",
         "bad value '0' for 'scale' (expected a scale in 1..4096)"},
        {"scale = 4097\n\n", "bad value '4097' for 'scale'"},
        {"block_pages = 0\n\n",
         "bad value '0' for 'block_pages' (expected a positive page "
         "count)"},
        {"bshr_capacity = 0\n\n",
         "bad value '0' for 'bshr_capacity' (expected a positive "
         "entry count)"},
        {"workload = go_s\nnodes 4\n\n", "line 2: missing '='"},
        {"fault_drop =\n\n", "bad value '' for 'fault_drop'"},
        {"fault_drop = nan\n\n", "bad value 'nan' for 'fault_drop'"},
        // Once truncated to 0, which no system can be built with.
        {"block_pages = 4294967296\n\n",
         "bad value '4294967296' for 'block_pages'"},
        // Malformed quoting: unterminated, junk after the closing
        // quote, an unknown escape, a dangling escape.
        {"perfetto = \"abc\n\n", "line 1: missing '=' or malformed value"},
        {"perfetto = \"a\"b\n\n", "line 1: missing '=' or malformed value"},
        {"perfetto = \"a\\q\"\n\n",
         "line 1: missing '=' or malformed value"},
        {"perfetto = \"a\\\n\n", "line 1: missing '=' or malformed value"},
    };
    for (const auto &[block, expected] : cases) {
        std::istringstream in(block);
        driver::RunRequest req;
        std::string error;
        EXPECT_FALSE(driver::parseRunRequest(in, req, error)) << block;
        EXPECT_NE(error.find(expected), std::string::npos)
            << block << "-> " << error;
    }
}

TEST(RunRequestParse, KeyErrorLeavesRequestUnchanged)
{
    driver::RunRequest req;
    std::string error;
    EXPECT_FALSE(
        driver::applyRunRequestKey(req, "nodes", "4096", error));
    EXPECT_EQ(req.config.numNodes, driver::paperConfig().numNodes);
}

TEST(RunRequestParse, FinalizeArmsRecoveryDefault)
{
    // Drop faults without an explicit rerequest_timeout arm the
    // 2000-cycle recovery default; an explicit value is kept.
    std::istringstream in("workload = go_s\nfault_drop = 0.5\n\n");
    driver::RunRequest req;
    std::string error;
    ASSERT_TRUE(driver::parseRunRequest(in, req, error)) << error;
    EXPECT_EQ(req.config.rerequestTimeout, 2000u);

    std::istringstream in2(
        "workload = go_s\nfault_drop = 0.5\n"
        "rerequest_timeout = 77\n\n");
    driver::RunRequest req2;
    ASSERT_TRUE(driver::parseRunRequest(in2, req2, error)) << error;
    EXPECT_EQ(req2.config.rerequestTimeout, 77u);
}

TEST(KindParsers, OptionalOverloads)
{
    auto sys = driver::parseSystemKind("perfect");
    ASSERT_TRUE(sys.has_value());
    EXPECT_EQ(*sys, driver::SystemKind::Perfect);
    EXPECT_FALSE(driver::parseSystemKind("vector").has_value());

    auto net = driver::parseInterconnectKind("ring");
    ASSERT_TRUE(net.has_value());
    EXPECT_EQ(*net, core::InterconnectKind::Ring);
    EXPECT_FALSE(driver::parseInterconnectKind("mesh").has_value());
}

TEST(RunOne, UnknownWorkloadIsAnError)
{
    driver::RunRequest req;
    req.workload = "no_such_workload";
    driver::RunResponse resp = driver::runOne(req);
    EXPECT_FALSE(resp.ok());
    EXPECT_NE(resp.error.find("unknown workload"), std::string::npos)
        << resp.error;
}

TEST(RunOne, UnwritablePerfettoPathIsAnError)
{
    driver::RunRequest req;
    req.workload = "go_s";
    req.config.maxInsts = 1000;
    req.perfettoPath = ::testing::TempDir() + "no_such_dir/trace.json";
    driver::RunResponse resp = driver::runOne(req);
    EXPECT_FALSE(resp.ok());
    EXPECT_EQ(resp.error,
              "cannot write perfetto file '" + req.perfettoPath + "'");
}

TEST(RunOne, HardBshrWithoutRecoveryIsAnError)
{
    // A hard BSHR with recovery explicitly off is a config the
    // DataScalar constructor refuses; runOne returns it as a value.
    std::istringstream in("workload = go_s\nsystem = datascalar\n"
                          "bshr_hard = 1\nrerequest_timeout = 0\n"
                          "max_insts = 1000\n\n");
    driver::RunRequest req;
    std::string error;
    ASSERT_TRUE(driver::parseRunRequest(in, req, error)) << error;
    ASSERT_EQ(req.config.rerequestTimeout, 0u);
    driver::RunResponse resp = driver::runOne(req);
    EXPECT_FALSE(resp.ok());
    EXPECT_NE(resp.error.find("rerequest_timeout"), std::string::npos)
        << resp.error;
}

/** Parse one request block; the test fails on a parse error. */
driver::RunRequest
parsedRequest(const std::string &block)
{
    std::istringstream in(block);
    driver::RunRequest req;
    std::string error;
    EXPECT_TRUE(driver::parseRunRequest(in, req, error)) << error;
    return req;
}

/** A run whose owner stays unreachable through every re-request ends
 *  as an error naming the node, the line and the attempt count, with
 *  the watchdog diagnostics excerpt; it is no deadlock. */
void
expectUnreachableOwner(const std::string &block)
{
    driver::RunResponse resp = driver::runOne(parsedRequest(block));
    EXPECT_FALSE(resp.ok());
    EXPECT_NE(resp.error.find("owner unreachable"), std::string::npos)
        << resp.error;
    EXPECT_NE(resp.error.find("node "), std::string::npos) << resp.error;
    EXPECT_NE(resp.error.find("line 0x"), std::string::npos)
        << resp.error;
    EXPECT_NE(resp.error.find("after 16 re-requests"), std::string::npos)
        << resp.error;
    EXPECT_NE(resp.error.find("\n==== watchdog diagnostics @ cycle "),
              std::string::npos)
        << resp.error;
    EXPECT_FALSE(resp.result.deadlock);
}

TEST(RunOne, EveryTransmissionLostIsAnError)
{
    // fault_drop = 1 arms the default 2000-cycle recovery, and every
    // re-request and answer is lost too.
    expectUnreachableOwner("workload = go_s\nsystem = datascalar\n"
                           "nodes = 4\nfault_drop = 1\n"
                           "max_insts = 2000\n\n");
}

TEST(RunOne, ShortTimeoutUnderHardBshrIsAnError)
{
    // Fault-free: a 100-cycle timeout under hard-BSHR flow control
    // keeps re-requesting lines whose answers a full bank drops.
    expectUnreachableOwner("workload = go_s\nsystem = datascalar\n"
                           "nodes = 4\nbshr_hard = 1\n"
                           "rerequest_timeout = 100\n"
                           "max_insts = 50000\n\n");
}

/** The Figure 7 table takes every run flag from its base request:
 *  a ring base gives the rows runOne gives on the same ring
 *  requests, not the paper's bus rows. */
TEST(Fig7Table, RingBaseMatchesRunOne)
{
    driver::RunRequest base;
    base.config.maxInsts = 3000;
    base.config.interconnect = core::InterconnectKind::Ring;

    std::vector<std::string> cells{"go_s"};
    std::vector<double> ipc;
    for (auto [system, nodes] :
         {std::pair{driver::SystemKind::Perfect, 2u},
          {driver::SystemKind::DataScalar, 2u},
          {driver::SystemKind::DataScalar, 4u},
          {driver::SystemKind::Traditional, 2u},
          {driver::SystemKind::Traditional, 4u}}) {
        driver::RunRequest req = base;
        req.workload = "go_s";
        req.system = system;
        req.config.numNodes = nodes;
        driver::RunResponse resp = driver::runOne(req);
        ASSERT_TRUE(resp.ok()) << resp.error;
        ipc.push_back(resp.result.ipc);
        cells.push_back(stats::Table::num(resp.result.ipc, 3));
    }
    cells.push_back(stats::Table::num(ipc[1] / ipc[3], 2));
    cells.push_back(stats::Table::num(ipc[2] / ipc[4], 2));
    stats::Table expected({"benchmark", "perfect", "DS-2", "DS-4",
                           "trad-1/2", "trad-1/4", "DS2/trad2",
                           "DS4/trad4"});
    expected.addRow(cells);

    auto render = [](const stats::Table &t) {
        std::ostringstream os;
        t.print(os);
        return os.str();
    };
    std::string ring = render(driver::fig7IpcTable({"go_s"}, base, 2));
    EXPECT_EQ(ring, render(expected));

    driver::RunRequest bus = base;
    bus.config.interconnect = core::InterconnectKind::Bus;
    EXPECT_NE(ring, render(driver::fig7IpcTable({"go_s"}, bus, 2)));
}

TEST(Fig7Table, FailedPointIsReturned)
{
    driver::RunRequest base;
    base.config.maxInsts = 2000;
    base.config.bshrHardCapacity = true; // no recovery: refused
    std::string error;
    driver::fig7IpcTable({"go_s"}, base, 1, &error);
    EXPECT_NE(error.find("go_s datascalar-2: bshr_hard"),
              std::string::npos)
        << error;
}

} // namespace
} // namespace dscalar
