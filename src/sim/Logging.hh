/**
 * @file
 * gem5-style status and error reporting helpers.
 *
 * panic()  - an internal simulator invariant was violated (a bug).
 * fatal()  - the simulation cannot continue due to a user error
 *            (bad configuration, invalid arguments).
 * warn()   - something works well enough but deserves attention.
 * inform() - plain status output.
 */

#ifndef SPMCOH_SIM_LOGGING_HH
#define SPMCOH_SIM_LOGGING_HH

#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <stdexcept>
#include <string>

namespace spmcoh
{

/** Thrown by panic(); tests can assert on protocol invariants. */
class PanicError : public std::logic_error
{
  public:
    explicit PanicError(const std::string &msg)
        : std::logic_error(msg) {}
};

/** Thrown by fatal(); configuration/user errors. */
class FatalError : public std::runtime_error
{
  public:
    explicit FatalError(const std::string &msg)
        : std::runtime_error(msg) {}
};

/**
 * Report an internal invariant violation and abort the simulation.
 * Throws PanicError so unit tests can exercise invariants.
 */
[[noreturn]] inline void
panic(const std::string &msg)
{
    throw PanicError("panic: " + msg);
}

/** Report a user/configuration error. Throws FatalError. */
[[noreturn]] inline void
fatal(const std::string &msg)
{
    throw FatalError("fatal: " + msg);
}

/**
 * Serializes warn()/inform() lines. Each helper formats its whole
 * line in a single stdio call (which glibc already serializes), but
 * the explicit lock makes the no-interleaving guarantee independent
 * of the C library — --jobs workers may warn concurrently.
 */
inline std::mutex &
loggingMutex()
{
    static std::mutex m;
    return m;
}

/** Warn about suspicious but survivable conditions. */
inline void
warn(const std::string &msg)
{
    std::lock_guard<std::mutex> lock(loggingMutex());
    std::fprintf(stderr, "warn: %s\n", msg.c_str());
}

/** Informational status message. */
inline void
inform(const std::string &msg)
{
    std::lock_guard<std::mutex> lock(loggingMutex());
    std::fprintf(stdout, "info: %s\n", msg.c_str());
}

} // namespace spmcoh

#endif // SPMCOH_SIM_LOGGING_HH
