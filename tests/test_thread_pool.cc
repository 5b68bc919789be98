/** @file
 * Tests of the fixed-size thread pool and parallelFor. That a
 * parallel runMany is byte-identical to serial runs is checked by
 * tests/test_identity.cc.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <mutex>
#include <numeric>
#include <set>
#include <thread>
#include <vector>

#include "common/thread_pool.hh"

namespace dscalar {
namespace {

TEST(ThreadPool, RunsEverySubmittedTask)
{
    std::atomic<int> count{0};
    {
        common::ThreadPool pool(4);
        EXPECT_EQ(pool.numThreads(), 4u);
        for (int i = 0; i < 100; ++i)
            pool.submit([&count] { ++count; });
        pool.wait();
        EXPECT_EQ(count.load(), 100);
        // Reusable after wait().
        pool.submit([&count] { ++count; });
        pool.wait();
    }
    EXPECT_EQ(count.load(), 101);
}

TEST(ThreadPool, DestructorDrainsQueue)
{
    std::atomic<int> count{0};
    {
        common::ThreadPool pool(2);
        for (int i = 0; i < 50; ++i)
            pool.submit([&count] { ++count; });
        // No wait(): the destructor must still run everything.
    }
    EXPECT_EQ(count.load(), 50);
}

TEST(ParallelFor, CoversEveryIndexExactlyOnce)
{
    for (unsigned jobs : {1u, 3u, 8u}) {
        std::vector<int> hits(257, 0);
        common::parallelFor(jobs, hits.size(),
                            [&](std::size_t i) { ++hits[i]; });
        EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0), 257)
            << "jobs=" << jobs;
        for (std::size_t i = 0; i < hits.size(); ++i)
            ASSERT_EQ(hits[i], 1) << "jobs=" << jobs << " i=" << i;
    }
}

TEST(ParallelFor, ZeroJobsMeansHardwareConcurrency)
{
    // Each task waits until a second thread has shown up, so one
    // thread cannot run them all before another starts. The wait
    // shares one deadline: a serial run costs at most that long.
    std::mutex mutex;
    std::condition_variable seen;
    std::set<std::thread::id> threads;
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    std::vector<int> hits(16, 0);
    common::parallelFor(0, hits.size(), [&](std::size_t i) {
        ++hits[i];
        std::unique_lock<std::mutex> lock(mutex);
        threads.insert(std::this_thread::get_id());
        seen.notify_all();
        seen.wait_until(lock, deadline,
                        [&] { return threads.size() >= 2; });
    });
    for (int h : hits)
        EXPECT_EQ(h, 1);
    if (std::thread::hardware_concurrency() >= 2) {
        EXPECT_GE(threads.size(), 2u);
    }
}

} // namespace
} // namespace dscalar
