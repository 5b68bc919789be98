/**
 * @file
 * Tests of the shared trace cache under concurrent sweeps: one
 * functional capture per (workload, scale, maxInsts) no matter how
 * many worker threads ask, results matching per-point re-execution
 * (full stats byte identity is checked by tests/test_identity.cc),
 * and clean teardown. Carries the sanitize-smoke
 * label so the race-sensitive paths also run under the sanitizer
 * presets (ASan/UBSan, and -DDSCALAR_TSAN for ThreadSanitizer).
 */

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "driver/driver.hh"
#include "driver/trace_cache.hh"

namespace dscalar {
namespace driver {
namespace {

constexpr InstSeq kBudget = 4000;

std::vector<RunRequest>
dcacheSweepRequests()
{
    // A fig8-shaped sub-sweep: one workload, several dcache sizes,
    // two systems per size — 12 points sharing a single stream.
    std::vector<RunRequest> requests;
    RunRequest req;
    req.workload = "compress_s";
    req.config.maxInsts = kBudget;
    req.config.numNodes = 2;
    for (unsigned kb : {4, 8, 16, 32, 64, 128}) {
        req.config.core.dcache.sizeBytes = kb * 1024;
        for (SystemKind system :
             {SystemKind::DataScalar, SystemKind::Traditional}) {
            req.system = system;
            requests.push_back(req);
        }
    }
    return requests;
}

TEST(TraceCache, ConcurrentSweepCapturesOnceAndMatchesFresh)
{
    std::vector<RunRequest> requests = dcacheSweepRequests();

    TraceCache cache;
    std::vector<RunResponse> reused = runMany(requests, cache, 4);
    EXPECT_EQ(cache.captures(), 1u);
    EXPECT_EQ(cache.hits(), requests.size() - 1);

    // Replayed results must match per-point execution (the SPSD
    // guarantee the cache rests on).
    for (std::size_t i = 0; i < requests.size(); ++i) {
        SCOPED_TRACE("point " + std::to_string(i));
        RunResponse fresh = runOne(requests[i]);
        ASSERT_TRUE(reused[i].ok()) << reused[i].error;
        ASSERT_TRUE(fresh.ok()) << fresh.error;
        EXPECT_EQ(reused[i].result.cycles, fresh.result.cycles);
        EXPECT_EQ(reused[i].result.instructions,
                  fresh.result.instructions);
        EXPECT_EQ(reused[i].result.ipc, fresh.result.ipc);
    }
}

TEST(TraceCache, ConcurrentAcquireSingleCapture)
{
    TraceCache cache;
    constexpr unsigned kThreads = 8;
    std::vector<std::shared_ptr<const func::InstTrace>> got(kThreads);
    std::vector<std::thread> workers;
    for (unsigned i = 0; i < kThreads; ++i) {
        workers.emplace_back([&cache, &got, i] {
            got[i] = cache.acquire("compress_s", 1, kBudget);
        });
    }
    for (auto &w : workers)
        w.join();

    for (unsigned i = 0; i < kThreads; ++i) {
        ASSERT_NE(got[i], nullptr);
        EXPECT_EQ(got[i], got[0]); // one shared capture
    }
    EXPECT_EQ(cache.captures(), 1u);
    EXPECT_EQ(cache.hits(), kThreads - 1);
    EXPECT_EQ(got[0]->length(), kBudget);
}

TEST(TraceCache, DistinctKeysCaptureSeparately)
{
    TraceCache cache;
    auto a = cache.acquire("compress_s", 1, 2000);
    auto b = cache.acquire("compress_s", 1, 3000);
    auto c = cache.acquire("compress_s", 1, 2000);
    EXPECT_EQ(cache.captures(), 2u);
    EXPECT_EQ(cache.hits(), 1u);
    EXPECT_EQ(a, c);
    EXPECT_NE(a, b);
    EXPECT_EQ(a->length(), 2000u);
    EXPECT_EQ(b->length(), 3000u);
}

TEST(TraceCache, ProgramBuiltOnce)
{
    TraceCache cache;
    auto a = cache.program("compress_s", 1);
    auto b = cache.program("compress_s", 1);
    ASSERT_NE(a, nullptr);
    EXPECT_EQ(a, b);
}

TEST(TraceCache, MemoryBytesAndClear)
{
    TraceCache cache;
    EXPECT_EQ(cache.memoryBytes(), 0u);
    cache.acquire("compress_s", 1, kBudget);
    EXPECT_GT(cache.memoryBytes(), 0u);

    cache.clear();
    EXPECT_EQ(cache.memoryBytes(), 0u);
    // A cleared cache re-captures on the next ask.
    cache.acquire("compress_s", 1, kBudget);
    EXPECT_EQ(cache.captures(), 2u);
}

} // namespace
} // namespace driver
} // namespace dscalar
