#include "driver/trace_cache.hh"

#include <chrono>

#include "workloads/workloads.hh"

namespace dscalar {
namespace driver {

std::shared_ptr<const prog::Program>
TraceCache::program(const std::string &workload, unsigned scale)
{
    std::promise<std::shared_ptr<const prog::Program>> promise;
    std::shared_future<std::shared_ptr<const prog::Program>> future;
    bool build_here = false;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        auto [it, inserted] = programs_.try_emplace(
            ProgramKey{workload, scale});
        if (inserted) {
            it->second = promise.get_future().share();
            build_here = true;
        }
        future = it->second;
    }
    // Build — and wait — outside the lock: waiters that get() while
    // holding the mutex would deadlock with a builder needing it,
    // and would serialize unrelated keys behind this one.
    if (build_here) {
        try {
            promise.set_value(std::make_shared<const prog::Program>(
                workloads::findWorkload(workload).build(scale)));
        } catch (...) {
            // Drop the entry so later calls retry instead of seeing
            // a broken promise forever; threads already waiting get
            // the original error through the future.
            {
                std::lock_guard<std::mutex> lock(mutex_);
                programs_.erase(ProgramKey{workload, scale});
            }
            promise.set_exception(std::current_exception());
            throw;
        }
    }
    return future.get();
}

std::shared_ptr<const func::InstTrace>
TraceCache::acquire(const std::string &workload, unsigned scale,
                    InstSeq max_insts)
{
    bool hit = false;
    return acquire(workload, scale, max_insts, hit);
}

std::shared_ptr<const func::InstTrace>
TraceCache::acquire(const std::string &workload, unsigned scale,
                    InstSeq max_insts, bool &hit)
{
    std::promise<std::shared_ptr<const func::InstTrace>> promise;
    std::shared_future<std::shared_ptr<const func::InstTrace>> future;
    bool capture_here = false;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        auto [it, inserted] = traces_.try_emplace(
            TraceKey{workload, scale, max_insts});
        if (inserted) {
            it->second = promise.get_future().share();
            capture_here = true;
        } else {
            ++hits_;
        }
        hit = !inserted;
        future = it->second;
    }
    // Capture — and wait — outside the lock. The capturing thread
    // re-enters the mutex via program(), so a waiter that held it
    // across get() would deadlock the sweep.
    if (capture_here) {
        try {
            std::shared_ptr<const prog::Program> prog =
                program(workload, scale);
            std::shared_ptr<const func::InstTrace> trace =
                func::InstTrace::capture(*prog, max_insts);
            {
                std::lock_guard<std::mutex> lock(mutex_);
                ++captures_;
            }
            promise.set_value(std::move(trace));
        } catch (...) {
            {
                std::lock_guard<std::mutex> lock(mutex_);
                traces_.erase(TraceKey{workload, scale, max_insts});
            }
            promise.set_exception(std::current_exception());
            throw;
        }
    }
    return future.get();
}

std::uint64_t
TraceCache::captures() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return captures_;
}

std::uint64_t
TraceCache::hits() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return hits_;
}

std::size_t
TraceCache::memoryBytes() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::size_t total = 0;
    for (const auto &[key, future] : traces_) {
        // Only settled entries are counted; an in-flight capture's
        // size is unknown and waiting here would deadlock with it.
        if (future.valid() &&
            future.wait_for(std::chrono::seconds(0)) ==
                std::future_status::ready) {
            if (auto trace = future.get())
                total += trace->memoryBytes();
        }
    }
    return total;
}

void
TraceCache::clear()
{
    std::lock_guard<std::mutex> lock(mutex_);
    traces_.clear();
    programs_.clear();
}

} // namespace driver
} // namespace dscalar
