/**
 * @file
 * Fixed-size worker pool draining one shared FIFO task queue (no
 * work stealing). Built for the experiment drivers: independent
 * (workload × nodes × config) simulation points are submitted as
 * tasks and results are written into pre-assigned slots, so output
 * order never depends on scheduling order.
 *
 * Tasks must not throw: the simulators report fatal conditions via
 * panic()/fatal(), which abort the process, and an exception leaving
 * a worker thread would std::terminate anyway.
 */

#ifndef DSCALAR_COMMON_THREAD_POOL_HH
#define DSCALAR_COMMON_THREAD_POOL_HH

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

#include "common/kv.hh"

namespace dscalar {
namespace common {

/** Worker counts the tools accept for a pool (0 = hardware
 *  concurrency). A thread per worker: the ceiling keeps a typo from
 *  asking the host for millions of threads. */
inline constexpr kv::Range kWorkerCountRange = {0, 256, "worker count"};

/** Fixed pool of worker threads executing queued tasks FIFO. */
class ThreadPool
{
  public:
    /** @param threads worker count; 0 = hardware concurrency. */
    explicit ThreadPool(unsigned threads);

    /** Drains outstanding tasks, then joins the workers. */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Enqueue @p task for execution on some worker. */
    void submit(std::function<void()> task);

    /** Block until every submitted task has run to completion. */
    void wait();

    unsigned
    numThreads() const
    {
        return static_cast<unsigned>(workers_.size());
    }

  private:
    void workerLoop();

    std::mutex mutex_;
    std::condition_variable taskReady_;
    std::condition_variable allDone_;
    std::queue<std::function<void()>> tasks_;
    std::vector<std::thread> workers_;
    std::size_t inFlight_ = 0; ///< queued + currently executing
    bool stop_ = false;
};

/**
 * Run f(0), ..., f(n-1) across up to @p jobs workers (0 = the
 * hardware concurrency) and block until all complete. One job runs
 * inline in index order, making the serial case the bit-exact
 * reference for the parallel one (each f(i) must touch only its own
 * slot of any shared output).
 */
void parallelFor(unsigned jobs, std::size_t n,
                 const std::function<void(std::size_t)> &f);

} // namespace common
} // namespace dscalar

#endif // DSCALAR_COMMON_THREAD_POOL_HH
