/**
 * @file
 * Error-reporting helpers in the gem5 idiom.
 *
 * panic() - an internal simulator invariant broke (a bug); aborts.
 * fatal() - the user supplied an impossible configuration; exits(1).
 */

#ifndef DSCALAR_COMMON_LOGGING_HH
#define DSCALAR_COMMON_LOGGING_HH

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>

namespace dscalar {

/**
 * Register a hook run by panicImpl after printing the panic message
 * and before abort(). Used by diagnostic dumpers (the obs flight
 * recorder) to flush context when an invariant breaks. Hooks run in
 * registration order; a panic raised while hooks are running skips
 * them (no recursion). @return an id for removePanicHook.
 */
std::uint64_t addPanicHook(std::function<void()> hook);

/** Unregister a hook returned by addPanicHook (no-op if unknown). */
void removePanicHook(std::uint64_t id);

[[noreturn]] void panicImpl(const char *file, int line,
                            const std::string &msg);
[[noreturn]] void fatalImpl(const char *file, int line,
                            const std::string &msg);

/** printf-style formatting into a std::string. */
std::string csprintf(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

} // namespace dscalar

#define panic(...) \
    ::dscalar::panicImpl(__FILE__, __LINE__, ::dscalar::csprintf(__VA_ARGS__))

#define fatal(...) \
    ::dscalar::fatalImpl(__FILE__, __LINE__, ::dscalar::csprintf(__VA_ARGS__))

/** panic() unless an invariant holds. */
#define panic_if(cond, ...)           \
    do {                              \
        if (cond) {                   \
            panic(__VA_ARGS__);       \
        }                             \
    } while (0)

/** fatal() unless a user-facing precondition holds. */
#define fatal_if(cond, ...)           \
    do {                              \
        if (cond) {                   \
            fatal(__VA_ARGS__);       \
        }                             \
    } while (0)

#endif // DSCALAR_COMMON_LOGGING_HH
