/** @file
 * Tests of the fixed-size thread pool and of the determinism
 * guarantee the parallel experiment sweeps rely on: a sweep's output
 * is a pure function of its points, independent of job count and
 * scheduling.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <numeric>
#include <sstream>
#include <vector>

#include "common/thread_pool.hh"
#include "driver/driver.hh"

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
    std::vector<int> hits(16, 0);
    common::parallelFor(0, hits.size(),
                        [&](std::size_t i) { ++hits[i]; });
    for (int h : hits)
        EXPECT_EQ(h, 1);
}

/** The satellite requirement: a parallel Figure 7 sweep must be
 *  byte-identical to the serial one, run after run. */
TEST(SweepDeterminism, ParallelMatchesSerialByteForByte)
{
    const std::vector<std::string> names{"compress_s", "go_s"};
    constexpr InstSeq kBudget = 8000;

    driver::RunRequest base;
    base.config.maxInsts = kBudget;

    auto render = [&](unsigned jobs) {
        std::ostringstream ss;
        driver::fig7IpcTable(names, base, jobs).print(ss);
        return ss.str();
    };

    std::string serial = render(1);
    EXPECT_FALSE(serial.empty());
    for (int rep = 0; rep < 3; ++rep)
        EXPECT_EQ(render(4), serial) << "repeat " << rep;
}

} // namespace
} // namespace dscalar
