/**
 * @file
 * SpanRecorder tests: the span tree, the lap-pattern phase
 * accumulators, the `profile` stats group, and the contract that a
 * disabled recorder costs nothing (proven by counting operator new
 * calls). That an armed recorder or a profiled run never perturbs a
 * simulated number is checked by tests/test_identity.cc.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <sstream>
#include <string>

#include "driver/run_request.hh"
#include "mini_json.hh"
#include "obs/span.hh"
#include "stats/snapshot.hh"

// --- allocation counting ------------------------------------------
// Replace the global allocator with a counting passthrough so tests
// can assert a code path allocates nothing. Counts every new/new[]
// in the whole binary; tests sample the counter around the region
// under test.

static std::atomic<std::uint64_t> g_new_calls{0};

void *
operator new(std::size_t size)
{
    g_new_calls.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(size ? size : 1))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t size)
{
    return ::operator new(size);
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

namespace dscalar {
namespace {

TEST(SpanRecorder, TreeNestingAndLookup)
{
    obs::SpanRecorder rec;
    ASSERT_TRUE(rec.enabled());

    std::size_t outer = rec.begin("request");
    std::size_t inner = rec.begin("build");
    rec.end(inner);
    std::size_t inner2 = rec.begin("run");
    rec.end(inner2);
    rec.end(outer);

    ASSERT_EQ(rec.spans().size(), 3u);
    EXPECT_STREQ(rec.spans()[0].name, "request");
    EXPECT_EQ(rec.spans()[0].depth, 0u);
    EXPECT_EQ(rec.spans()[1].depth, 1u);
    EXPECT_EQ(rec.spans()[2].depth, 1u);
    for (const auto &span : rec.spans()) {
        EXPECT_FALSE(span.open);
    }
    // The outer span brackets both inner ones.
    EXPECT_GE(rec.spans()[0].durNs,
              rec.spans()[1].durNs + rec.spans()[2].durNs);
    // spanUs finds the first closed span by name (us granularity, so
    // just check it doesn't exceed the elapsed clock).
    EXPECT_LE(rec.spanUs("request"), rec.elapsedUs() + 1);
    EXPECT_EQ(rec.spanUs("no_such_span"), 0u);
}

TEST(SpanRecorder, RenameOpenSpan)
{
    obs::SpanRecorder rec;
    std::size_t h = rec.begin("trace_capture");
    rec.setName(h, "trace_cache_hit");
    rec.end(h);
    ASSERT_EQ(rec.spans().size(), 1u);
    EXPECT_STREQ(rec.spans()[0].name, "trace_cache_hit");
}

TEST(SpanRecorder, HeaderKeysClosedTopLevelOnly)
{
    obs::SpanRecorder rec;
    std::size_t a = rec.begin("build");
    std::size_t nested = rec.begin("inner");
    rec.end(nested);
    rec.end(a);
    std::size_t b = rec.begin("sim_run");
    rec.end(b);
    rec.begin("still_open");

    std::ostringstream os;
    rec.emitHeaderKeys(os);
    std::string out = os.str();
    EXPECT_NE(out.find("span_build_us = "), std::string::npos) << out;
    EXPECT_NE(out.find("span_sim_run_us = "), std::string::npos);
    EXPECT_EQ(out.find("span_inner_us"), std::string::npos)
        << "nested spans must not reach the reply header";
    EXPECT_EQ(out.find("still_open"), std::string::npos);
}

TEST(SpanRecorder, PhaseLapAccumulation)
{
    obs::SpanRecorder rec;
    unsigned tick = rec.addPhase("tick");
    unsigned barrier = rec.addPhase("barrier");
    ASSERT_EQ(rec.phaseCount(), 2u);

    rec.lapStart();
    rec.lap(tick);
    rec.lap(barrier);
    rec.lap(tick);

    EXPECT_STREQ(rec.phaseName(tick), "tick");
    EXPECT_STREQ(rec.phaseName(barrier), "barrier");
    EXPECT_EQ(rec.phaseTotalNs(),
              rec.phaseNs(tick) + rec.phaseNs(barrier));
    // Laps are contiguous: the sum can't exceed the recorder's
    // lifetime.
    EXPECT_LE(rec.phaseTotalNs(), rec.elapsedNs());
}

TEST(SpanRecorder, DisabledIsInert)
{
    obs::SpanRecorder rec(false);
    EXPECT_FALSE(rec.enabled());
    std::size_t h = rec.begin("x");
    rec.setName(h, "y");
    rec.end(h);
    EXPECT_TRUE(rec.spans().empty());
    EXPECT_EQ(rec.addPhase("tick"), 0u);
    rec.lapStart();
    rec.lap(0);
    EXPECT_EQ(rec.phaseCount(), 0u);
    EXPECT_EQ(rec.phaseTotalNs(), 0u);
    EXPECT_EQ(rec.elapsedNs(), 0u);

    std::ostringstream os;
    rec.emitHeaderKeys(os);
    EXPECT_TRUE(os.str().empty());
}

TEST(SpanRecorder, DisabledAllocatesNothing)
{
    obs::SpanRecorder rec(false);
    std::uint64_t before = g_new_calls.load();
    std::size_t h = rec.begin("x");
    rec.setName(h, "y");
    rec.end(h);
    unsigned p = rec.addPhase("tick");
    rec.lapStart();
    rec.lap(p);
    (void)rec.elapsedNs();
    (void)rec.phaseTotalNs();
    std::uint64_t after = g_new_calls.load();
    EXPECT_EQ(after - before, 0u)
        << "a disabled recorder must not allocate";
}

TEST(SpanRecorder, EnabledLapHotPathAllocatesNothing)
{
    obs::SpanRecorder rec;
    unsigned p = rec.addPhase("tick"); // allocates, outside the loop
    rec.lapStart();
    std::uint64_t before = g_new_calls.load();
    for (int i = 0; i < 1000; ++i)
        rec.lap(p);
    std::uint64_t after = g_new_calls.load();
    EXPECT_EQ(after - before, 0u)
        << "lap() is the run-loop hot path; it must not allocate";
}

TEST(SpanScope, NullRecorderIsSafe)
{
    obs::SpanScope scope(nullptr, "anything");
    scope.setName("renamed");
    // Destructor must be a no-op too; reaching here is the test.
}

TEST(ProfileGroup, SchemaAndValues)
{
    obs::SpanRecorder rec;
    unsigned tick = rec.addPhase("tick");
    rec.lapStart();
    rec.lap(tick);

    stats::Snapshot snap;
    obs::addProfileGroup(snap, rec, 5'000'000); // 5 ms
    ASSERT_EQ(snap.groups().size(), 1u);
    const stats::Snapshot::GroupEntry &g = snap.groups().front();
    EXPECT_EQ(g.name, "profile");
    ASSERT_EQ(g.group.statList().size(), 2u);
    EXPECT_EQ(g.group.statList()[0]->name(), "phase_tick_us");
    EXPECT_EQ(g.group.statList()[1]->name(), "total_us");

    std::ostringstream os;
    snap.dump(os);
    EXPECT_NE(os.str().find("total_us"), std::string::npos);
    EXPECT_NE(os.str().find("5000"), std::string::npos);
}

// --- phase attribution on timing runs ----------------------------

driver::RunRequest
timingRequest()
{
    driver::RunRequest req;
    req.workload = "go_s";
    req.system = driver::SystemKind::DataScalar;
    req.config.maxInsts = 2000;
    req.flightRecorder = true;
    return req;
}

/** Pull groups.profile out of a stats JSON and check that the
 *  phase_* counters sum to total_us within 5% (plus a small absolute
 *  slack for very fast runs where single microseconds matter). */
void
checkPhaseSum(const std::string &json, const char *what)
{
    std::string err;
    mini_json::Value doc = mini_json::parse(json, err);
    ASSERT_TRUE(err.empty()) << err;
    const mini_json::Value *groups = doc.find("groups");
    ASSERT_NE(groups, nullptr);
    const mini_json::Value *profile = groups->find("profile");
    ASSERT_NE(profile, nullptr) << what;

    double phase_sum = 0.0;
    double total = -1.0;
    for (const auto &kv : profile->object) {
        const mini_json::Value *value = kv.second.find("value");
        ASSERT_NE(value, nullptr) << kv.first;
        if (kv.first == "total_us")
            total = value->number;
        else if (kv.first.rfind("phase_", 0) == 0)
            phase_sum += value->number;
    }
    ASSERT_GE(total, 0.0) << what << ": no total_us";
    double slack = total * 0.05 + 200.0;
    EXPECT_NEAR(phase_sum, total, slack)
        << what << ": phases must contiguously partition the loop";
}

TEST(PhaseProfile, SerialPhasesSumToTotal)
{
    driver::RunRequest req = timingRequest();
    req.profile = true;
    req.config.maxInsts = 5000;
    driver::RunResponse resp = driver::runOne(req);
    ASSERT_TRUE(resp.ok()) << resp.error;
    checkPhaseSum(resp.statsJson(), "serial datascalar");
    // Serial loop phase names.
    EXPECT_NE(resp.statsJson().find("phase_tick_us"),
              std::string::npos);
    EXPECT_NE(resp.statsJson().find("phase_delivery_us"),
              std::string::npos);
}

TEST(PhaseProfile, BaselinePhasesSumToTotal)
{
    driver::RunRequest req = timingRequest();
    req.system = driver::SystemKind::Traditional;
    req.profile = true;
    req.config.maxInsts = 5000;
    driver::RunResponse resp = driver::runOne(req);
    ASSERT_TRUE(resp.ok()) << resp.error;
    checkPhaseSum(resp.statsJson(), "traditional baseline");
}

} // namespace
} // namespace dscalar
