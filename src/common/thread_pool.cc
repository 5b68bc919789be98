#include "common/thread_pool.hh"

#include <algorithm>

#include "common/logging.hh"

namespace dscalar {
namespace common {

ThreadPool::ThreadPool(unsigned threads)
{
    if (threads == 0) {
        threads = std::thread::hardware_concurrency();
        if (threads == 0)
            threads = 1;
    }
    workers_.reserve(threads);
    for (unsigned i = 0; i < threads; ++i)
        workers_.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool()
{
    {
        std::unique_lock<std::mutex> lock(mutex_);
        stop_ = true;
    }
    taskReady_.notify_all();
    for (std::thread &w : workers_)
        w.join();
}

void
ThreadPool::submit(std::function<void()> task)
{
    panic_if(!task, "ThreadPool::submit with empty task");
    {
        std::unique_lock<std::mutex> lock(mutex_);
        panic_if(stop_, "ThreadPool::submit after shutdown");
        tasks_.push(std::move(task));
        ++inFlight_;
    }
    taskReady_.notify_one();
}

void
ThreadPool::wait()
{
    std::unique_lock<std::mutex> lock(mutex_);
    allDone_.wait(lock, [this] { return inFlight_ == 0; });
}

void
ThreadPool::workerLoop()
{
    for (;;) {
        std::function<void()> task;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            taskReady_.wait(
                lock, [this] { return stop_ || !tasks_.empty(); });
            if (tasks_.empty())
                return; // stop_ set and queue drained
            task = std::move(tasks_.front());
            tasks_.pop();
        }
        task();
        {
            std::unique_lock<std::mutex> lock(mutex_);
            --inFlight_;
        }
        allDone_.notify_all();
    }
}

void
parallelFor(unsigned jobs, std::size_t n,
            const std::function<void(std::size_t)> &f)
{
    if (jobs == 0)
        jobs = std::thread::hardware_concurrency();
    if (jobs <= 1 || n <= 1) {
        for (std::size_t i = 0; i < n; ++i)
            f(i);
        return;
    }
    ThreadPool pool(
        static_cast<unsigned>(std::min<std::size_t>(jobs, n)));
    for (std::size_t i = 0; i < n; ++i)
        pool.submit([&f, i] { f(i); });
    pool.wait();
}

} // namespace common
} // namespace dscalar
