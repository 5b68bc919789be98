/**
 * @file
 * The identity matrix. SPSD (paper §2) makes cycle skipping, trace
 * replay, sampling, profiling, parallel runs and serving host-side
 * mechanisms that may not move a simulated byte. Each point's
 * reference run is a cache-less live runOne with skipping on;
 * tests/golden/identity.txt holds, in perfbench/golden.txt's format,
 * the FNV-1a-64 digest of its stats JSON and, when the program prints
 * anything, of its output under `<key>/output`. Each variant is one
 * test case, so a failure names its axis, and may change only the
 * bytes that describe it: the run_meta keys `event_driven`,
 * `sample_interval` and `profile`, the `timeline` and the `profile`
 * group. normalise() rewrites exactly those, so a reference digest is
 * dsperf's digest(stripProfile(json)). Ring bytes are no stat, but
 * equal ring_messages * (header + line) - line * rerequests_sent.
 * When a reference digest moves, the Reference case writes
 * identity.actual.txt and prints the `cp` line that adopts it.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "driver/driver.hh"
#include "driver/trace_cache.hh"
#include "func/inst_trace.hh"
#include "prog/asm_parser.hh"
#include "prog/assembler.hh"
#include "serve/client.hh"
#include "serve/server.hh"
#include "workloads/workloads.hh"

namespace dscalar {
namespace {

using driver::RunRequest;
using driver::RunResponse;
using driver::SystemKind;

struct Point
{
    std::string key;
    RunRequest req;
};

RunRequest
request(const std::string &workload, SystemKind system, unsigned nodes,
        InstSeq budget, bool ring = false)
{
    RunRequest req;
    req.workload = workload;
    req.system = system;
    req.config.numNodes = nodes;
    req.config.maxInsts = budget;
    if (ring)
        req.config.interconnect = core::InterconnectKind::Ring;
    return req;
}

/** perfbench's point tag: `<system>-<nodes>[-ring]`. */
std::string
systemTag(const RunRequest &req)
{
    std::string tag = std::string(driver::systemKindName(req.system)) +
                      "-" + std::to_string(req.config.numNodes);
    if (req.config.interconnect == core::InterconnectKind::Ring)
        tag += "-ring";
    return tag;
}

/** Strided loads over six pages, then their sum: built in place. */
std::shared_ptr<const prog::Program>
assemblerProgram()
{
    using namespace prog::reg;
    constexpr unsigned kBytes = 6 * prog::pageSize;
    auto p = std::make_shared<prog::Program>();
    Addr g = p->allocGlobal(kBytes);
    for (Addr off = 0; off < kBytes; off += 8)
        p->poke64(g + off, off);
    prog::Assembler a(*p);
    a.la(s1, g);
    a.li(s0, kBytes / 64);
    a.li(s2, 0);
    a.label("loop");
    a.ld(t0, s1, 0);
    a.add(s2, s2, t0);
    a.addi(s1, s1, 64);
    a.addi(s0, s0, -1);
    a.bne(s0, zero, "loop");
    a.addi(a0, s2, 0);
    a.syscall(isa::Syscall::PrintInt);
    a.halt();
    a.finalize();
    return p;
}

/** Stores and loads over four pages, printing as it goes: parsed
 *  from assembly text. */
std::shared_ptr<const prog::Program>
textProgram()
{
    return std::make_shared<const prog::Program>(prog::assembleSource(R"(
        .global buf, 16384
        la    s1, buf
        li    s0, 256
loop:   sw    s0, 0(s1)
        lw    t0, 0(s1)
        add   a0, a0, t0
        addi  s1, s1, 64
        addi  s0, s0, -1
        andi  t1, s0, 63
        bne   t1, zero, skip
        syscall 1
skip:   bne   s0, zero, loop
        halt
    )"));
}

/** Every point of the matrix. */
const std::vector<Point> &
points()
{
    static const std::vector<Point> all = [] {
        std::vector<Point> pts;
        auto add = [&](const std::string &key, RunRequest req) {
            driver::finalizeRunRequest(req);
            pts.push_back({key + systemTag(req), std::move(req)});
        };
        using P = std::pair<SystemKind, unsigned>;

        // System shapes on two memory personalities; DataScalar clean,
        // with faults plus recovery, and with an 8-entry hard BSHR plus
        // recovery, on bus and ring.
        for (std::string w : {"compress_s", "go_s"}) {
            for (auto [system, nodes] :
                 {P{SystemKind::Perfect, 2}, P{SystemKind::Traditional, 1},
                  P{SystemKind::Traditional, 2},
                  P{SystemKind::Traditional, 4}})
                add("shape/" + w + "/", request(w, system, nodes, 8192));
            for (bool ring : {false, true}) {
                add("shape/" + w + "/",
                    request(w, SystemKind::DataScalar, 1, 8192, ring));
                for (unsigned nodes : {2u, 4u, 8u}) {
                    RunRequest req =
                        request(w, SystemKind::DataScalar, nodes, 8192, ring);
                    add("shape/" + w + "/", req);
                    RunRequest fault = req;
                    fault.config.fault = {.dropProb = 0.05, .dupProb = 0.02,
                                          .delayProb = 0.1, .maxDelay = 16,
                                          .seed = 42};
                    add("shape/" + w + "/fault/", fault);
                    RunRequest hard = req;
                    hard.config.bshrHardCapacity = true;
                    hard.config.bshrCapacity = 8;
                    add("shape/" + w + "/hard-bshr/", hard);
                }
            }
        }
        // Every registered workload on the four smoke shapes.
        for (const workloads::Workload &w : workloads::allWorkloads())
            for (RunRequest req :
                 {request(w.name, SystemKind::Perfect, 2, 15000),
                  request(w.name, SystemKind::Traditional, 4, 15000),
                  request(w.name, SystemKind::DataScalar, 4, 15000),
                  request(w.name, SystemKind::DataScalar, 4, 15000, true)})
                add(std::string("smoke/") + w.name + "/", req);
        // Budgets around the 4096-record capture chunk.
        for (InstSeq budget : {1, 4095, 4096, 4097, 8192})
            for (auto [system, nodes] :
                 {P{SystemKind::Perfect, 2}, P{SystemKind::DataScalar, 4}})
                add("budget/li_s/" + std::to_string(budget) + "/",
                    request("li_s", system, nodes, budget));
        // Programs built in place, run to completion.
        for (auto [name, program] : {std::pair{"asm", assemblerProgram()},
                                     std::pair{"text", textProgram()}})
            for (RunRequest req : {request("", SystemKind::Perfect, 2, 0),
                                   request("", SystemKind::Traditional, 4, 0),
                                   request("", SystemKind::DataScalar, 4, 0),
                                   request("", SystemKind::DataScalar, 4, 0,
                                           true)}) {
                req.program = program;
                add(std::string("program/") + name + "/", req);
            }
        // Figure 7 at perfbench's budget and under its keys.
        for (const std::string &w : workloads::timingWorkloadNames())
            for (auto [system, nodes] :
                 {P{SystemKind::Perfect, 2}, P{SystemKind::DataScalar, 2},
                  P{SystemKind::DataScalar, 4}, P{SystemKind::Traditional, 2},
                  P{SystemKind::Traditional, 4}})
                add("fig7/" + w + "/", request(w, system, nodes, 100000));
        return pts;
    }();
    return all;
}

/** FNV-1a 64 of @p s as 16 hex digits (dsperf's digest). */
std::string
digest(const std::string &s)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (unsigned char c : s) {
        h ^= c;
        h *= 0x100000001b3ULL;
    }
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx", (unsigned long long)h);
    return buf;
}

/** Erase every `,"<key>":<value>` member whose value is a number or
 *  a brace-balanced object. */
void
eraseMembers(std::string &json, const std::string &key)
{
    const std::string opener = ",\"" + key + "\":";
    for (std::size_t at; (at = json.find(opener)) != std::string::npos;) {
        std::size_t end = at + opener.size();
        for (int depth = 0; end < json.size(); ++end) {
            char c = json[end];
            depth += (c == '{') - (c == '}');
            if (depth < 0 || (depth == 0 && (c == ',' || c == '}'))) {
                end += c == '}' && depth == 0;
                break;
            }
        }
        json.erase(at, end - at);
    }
}

/** @p json with the bytes that describe a variant rewritten to the
 *  reference's; the identity on a reference run. */
std::string
normalise(std::string json)
{
    const std::string stepped = "\"event_driven\":0";
    if (std::size_t at = json.find(stepped); at != std::string::npos)
        json[at + stepped.size() - 1] = '1';
    for (const char *key : {"sample_interval", "profile", "timeline"})
        eraseMembers(json, key);
    return json;
}

std::map<std::string, std::string>
loadDigests(const char *path)
{
    std::map<std::string, std::string> digests;
    std::ifstream in(path);
    for (std::string key, value; in >> key >> value;)
        digests[key] = value;
    return digests;
}

const std::map<std::string, std::string> &
golden()
{
    static const auto digests = loadDigests(IDENTITY_GOLDEN);
    return digests;
}

/** What a variant is running, printed if a run panics: the abort
 *  comes before any Mismatches can report. */
std::string g_running;

const std::uint64_t kPanicHook = addPanicHook([] {
    std::fprintf(stderr, "identity: panicked while running %s\n",
                 g_running.c_str());
});

/** The points whose run under one variant differs from the golden
 *  digests, reported as one failure that names the axis. */
class Mismatches
{
  public:
    explicit Mismatches(std::string axis) : axis_(std::move(axis)) {}

    ~Mismatches()
    {
        g_running.clear();
        std::ostringstream os;
        for (std::size_t i = 0; i < lines_.size() && i < 20; ++i)
            os << "  " << lines_[i] << '\n';
        EXPECT_TRUE(lines_.empty()) << "identity broken under " << axis_
                                    << ": " << lines_.size()
                                    << " mismatches\n" << os.str();
    }

    /** Name @p p as the run in flight; nullptr names every point. */
    void running(const Point *p)
    {
        g_running = (p ? p->key : "every point") + " [" + axis_ + "]";
    }

    void add(const Point &p, const std::string &what)
    {
        lines_.push_back(p.key + " [" + axis_ + "]: " + what);
    }

    void statsMatch(const Point &p, const std::string &json)
    {
        auto it = golden().find(p.key);
        std::string actual = digest(normalise(json));
        if (it == golden().end() || it->second != actual)
            add(p, "stats JSON digest " + actual + ", golden " +
                       (it == golden().end() ? "missing" : it->second));
    }

    void responseMatches(const Point &p, const RunResponse &resp)
    {
        if (!resp.ok())
            return add(p, "run failed: " + resp.error);
        statsMatch(p, resp.statsJson());
        auto it = golden().find(p.key + "/output");
        if (digest(resp.output) !=
            (it == golden().end() ? digest("") : it->second))
            add(p, "program output differs");
    }

  private:
    std::string axis_;
    std::vector<std::string> lines_;
};

/** Run every point with @p vary applied, one runOne at a time. */
template <typename Vary>
void
runVariant(const char *axis, Vary vary)
{
    Mismatches bad(axis);
    for (const Point &p : points()) {
        RunRequest req = p.req;
        vary(req);
        bad.running(&p);
        bad.responseMatches(p, driver::runOne(req));
    }
}

TEST(Identity, Reference)
{
    std::map<std::string, std::string> actual;
    for (const Point &p : points()) {
        g_running = p.key + " [reference]";
        RunResponse resp = driver::runOne(p.req);
        ASSERT_TRUE(resp.ok()) << p.key << ": " << resp.error;
        std::string json = resp.statsJson();
        EXPECT_TRUE(normalise(json) == json) << p.key;
        actual[p.key] = digest(json);
        if (!resp.output.empty())
            actual[p.key + "/output"] = digest(resp.output);

        const core::SimConfig &cfg = p.req.config;
        if (!p.req.program) {
            EXPECT_EQ(resp.result.instructions, cfg.maxInsts) << p.key;
            EXPECT_GT(resp.result.ipc, 0.0) << p.key;
        }
        if (p.req.system == SystemKind::DataScalar &&
            cfg.rerequestTimeout == 0) {
            EXPECT_TRUE(resp.drained) << p.key;
        }
        if (cfg.fault.dropProb > 0) {
            const std::string drops = "\"fault_drops\":{\"value\":";
            std::size_t at = json.find(drops);
            EXPECT_TRUE(at != std::string::npos &&
                        json[at + drops.size()] != '0')
                << p.key << ": the faults must fire";
        }
    }
    g_running.clear();

    std::ostringstream diff;
    for (const auto &[key, value] : golden())
        if (!actual.count(key) || actual.at(key) != value)
            diff << "  " << key << ' ' << value << " -> "
                 << (actual.count(key) ? actual.at(key) : "gone") << '\n';
    for (const auto &[key, value] : actual)
        if (!golden().count(key))
            diff << "  " << key << " missing -> " << value << '\n';
    if (!diff.str().empty()) {
        auto out = std::filesystem::absolute("identity.actual.txt");
        std::ofstream os(out);
        for (const auto &[key, value] : actual)
            os << key << ' ' << value << '\n';
        ADD_FAILURE() << "reference digests differ from the golden file:\n"
                      << diff.str() << "If the change is meant, adopt it and "
                      << "name every moved key in CHANGES.md:\n  cp "
                      << out.string() << ' ' << IDENTITY_GOLDEN;
    }
}

TEST(Identity, AgreesWithPerfbenchGolden)
{
    unsigned shared = 0;
    for (const auto &[key, value] : loadDigests(PERFBENCH_GOLDEN)) {
        shared += golden().count(key);
        EXPECT_EQ(golden().count(key) ? golden().at(key) : value, value)
            << key;
    }
    EXPECT_EQ(shared, 30u) << "the 30 fig7 points";
}

TEST(Identity, NoSkip)
{
    runVariant("no-skip",
               [](RunRequest &req) { req.config.eventDriven = false; });
}

TEST(Identity, Replay)
{
    // Registered workloads replay a warm TraceCache; programs built in
    // place replay a trace captured for the request. The stream is
    // consumed differently when cycles are skipped, so the shapes and
    // the programs also replay cycle-stepped.
    driver::TraceCache cache;
    for (const Point &p : points())
        if (!p.req.program)
            cache.acquire(p.req.workload, p.req.scale, p.req.config.maxInsts);
    for (bool skip : {true, false}) {
        Mismatches bad(skip ? "replay" : "replay, no-skip");
        for (const Point &p : points()) {
            if (!skip && p.key.rfind("shape/", 0) != 0 && !p.req.program)
                continue;
            RunRequest req = p.req;
            req.config.eventDriven = skip;
            if (p.req.program)
                req.trace = func::InstTrace::capture(*req.program,
                                                     req.config.maxInsts);
            bad.running(&p);
            RunResponse resp = driver::runOne(req, &cache);
            if (!p.req.program && !resp.cacheHit)
                bad.add(p, "trace cache was cold");
            bad.responseMatches(p, resp);
        }
    }
}

TEST(Identity, Sampling)
{
    // Skipped cycles are no-ops, so a sample inside a skip window reads
    // the cycle-stepped values: the timelines match byte for byte. The
    // skipping runs go through runMany on four workers, so concurrent
    // samplers are checked too. Every request carries its built
    // program, so every run executes live (a request with a program
    // never replays the cache) and run_meta still names the workload.
    driver::TraceCache programs;
    std::vector<RunRequest> reqs;
    for (const Point &p : points()) {
        reqs.push_back(p.req);
        reqs.back().sampleInterval = 100;
        if (!p.req.program)
            reqs.back().program =
                programs.program(p.req.workload, p.req.scale);
    }
    Mismatches bad("sampling"), stepped_bad("sampling, no-skip");
    bad.running(nullptr);
    std::vector<RunResponse> skipped = driver::runMany(reqs, programs, 4);
    for (std::size_t i = 0; i < points().size(); ++i) {
        const Point &p = points()[i];
        bad.responseMatches(p, skipped[i]);
        if (skipped[i].timelineJson.empty())
            bad.add(p, "no timeline");
        reqs[i].config.eventDriven = false;
        stepped_bad.running(&p);
        RunResponse stepped = driver::runOne(reqs[i]);
        stepped_bad.responseMatches(p, stepped);
        if (stepped.timelineJson != skipped[i].timelineJson)
            stepped_bad.add(p, "timeline differs from the skipping run's");
    }
}

TEST(Identity, Profile)
{
    runVariant("profile", [](RunRequest &req) { req.profile = true; });
}

TEST(Identity, RunMany)
{
    std::vector<RunRequest> reqs;
    for (const Point &p : points())
        reqs.push_back(p.req);
    Mismatches bad("runMany jobs=4");
    driver::TraceCache cache;
    bad.running(nullptr);
    std::vector<RunResponse> resps = driver::runMany(reqs, cache, 4);
    for (std::size_t i = 0; i < resps.size(); ++i)
        bad.responseMatches(points()[i], resps[i]);
}

TEST(Identity, Server)
{
    // The server threads its own span and flight recorders through
    // every request; neither may show in the reply.
    serve::ServerConfig cfg;
    cfg.socketPath = "t_identity.sock";
    cfg.jobs = 2;
    serve::Server server(cfg);
    serve::Client client;
    std::string error;
    ASSERT_TRUE(server.start(error)) << error;
    ASSERT_TRUE(client.connect(cfg.socketPath, error)) << error;

    std::set<std::string> captured;
    std::uint64_t runs = 0;
    for (const char *axis : {"server, cold", "server, warm"}) {
        Mismatches bad(axis);
        for (const Point &p : points()) {
            if (p.req.program)
                continue;
            ++runs;
            bad.running(&p);
            serve::Reply reply = client.run(p.req);
            if (!reply.ok) {
                bad.add(p, "reply failed: " + reply.error);
                continue;
            }
            bad.statsMatch(p, reply.json);
            std::string key = p.req.workload + "@" +
                              std::to_string(p.req.config.maxInsts);
            bool first = captured.insert(key).second;
            if (reply.field("cache_hit") != (first ? "0" : "1"))
                bad.add(p, "cache_hit " + reply.field("cache_hit"));
            if (reply.field("cycles").empty() || reply.field("ipc").empty())
                bad.add(p, "reply header lacks cycles or ipc");
            if (p.req.system == SystemKind::DataScalar &&
                p.req.config.rerequestTimeout == 0 &&
                reply.field("drained") != "1")
                bad.add(p, "drained " + reply.field("drained"));
        }
    }
    serve::ServerStats s = server.stats();
    EXPECT_EQ(s.completed, runs);
    EXPECT_EQ(s.traceCaptures, captured.size());
    EXPECT_EQ(s.traceHits, runs - captured.size());
    server.stop();
}

} // namespace
} // namespace dscalar
