#include "common/logging.hh"

#include <cstdarg>
#include <mutex>
#include <utility>
#include <vector>

namespace dscalar {

namespace {

std::mutex &
panicHookMutex()
{
    static std::mutex m;
    return m;
}

struct PanicHook
{
    std::uint64_t id;
    std::function<void()> fn;
};

std::vector<PanicHook> &
panicHooks()
{
    static std::vector<PanicHook> hooks;
    return hooks;
}

/** True while hooks run, so a panic inside a hook skips them. */
thread_local bool in_panic_hooks = false;

void
runPanicHooks()
{
    if (in_panic_hooks)
        return;
    in_panic_hooks = true;
    // Copy under the lock so a hook may (un)register without
    // deadlocking; run outside it.
    std::vector<PanicHook> hooks;
    {
        std::lock_guard<std::mutex> lock(panicHookMutex());
        hooks = panicHooks();
    }
    for (const PanicHook &hook : hooks)
        hook.fn();
    in_panic_hooks = false;
}

} // namespace

std::uint64_t
addPanicHook(std::function<void()> hook)
{
    static std::uint64_t next_id = 1;
    std::lock_guard<std::mutex> lock(panicHookMutex());
    std::uint64_t id = next_id++;
    panicHooks().push_back({id, std::move(hook)});
    return id;
}

void
removePanicHook(std::uint64_t id)
{
    std::lock_guard<std::mutex> lock(panicHookMutex());
    auto &hooks = panicHooks();
    for (auto it = hooks.begin(); it != hooks.end(); ++it) {
        if (it->id == id) {
            hooks.erase(it);
            return;
        }
    }
}

std::string
csprintf(const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    va_list args_copy;
    va_copy(args_copy, args);
    int needed = std::vsnprintf(nullptr, 0, fmt, args);
    va_end(args);
    std::string out;
    if (needed > 0) {
        out.resize(static_cast<std::size_t>(needed));
        std::vsnprintf(out.data(), out.size() + 1, fmt, args_copy);
    }
    va_end(args_copy);
    return out;
}

[[noreturn]] void
panicImpl(const char *file, int line, const std::string &msg)
{
    std::fprintf(stderr, "panic: %s\n  @ %s:%d\n", msg.c_str(), file, line);
    runPanicHooks();
    std::abort();
}

[[noreturn]] void
fatalImpl(const char *file, int line, const std::string &msg)
{
    std::fprintf(stderr, "fatal: %s\n  @ %s:%d\n", msg.c_str(), file, line);
    std::exit(1);
}

} // namespace dscalar
