/**
 * @file
 * Deterministic fault injection. Library code declares named *sites*
 * at the points where real failures can happen (a store write, a trace
 * build, a sweep job); a parsed NOREBA_FAULTS plan arms some of those
 * sites so tests and CI can provoke every failure path on demand, in a
 * reproducible order, without mocking the filesystem.
 *
 * Grammar (one or more ';'-separated clauses):
 *
 *   NOREBA_FAULTS ::= clause (';' clause)*
 *   clause        ::= site '=' kind ['@' trigger] ['x' (count | '*')]
 *   kind          ::= 'throw' | 'short-write' | 'eio' | 'delay'
 *
 *   site     one of FAULT_SITES below, e.g. trace_store.write; any
 *            other name is fatal, like a malformed clause
 *   trigger  1-based hit index at which the fault starts firing
 *            (default 1: the first hit)
 *   count    number of consecutive hits faulted from the trigger on
 *            (default 1); 'x*' faults every hit from the trigger on
 *
 * Examples:
 *   trace_store.rename=eio              first rename fails
 *   result_cache.sim=throw@3x2          3rd and 4th simulations throw
 *   sweep.job=throw@1x*                 every job attempt throws
 *   trace_store.write=short-write;trace_store.fsync=eio
 *
 * Kinds:
 *   throw        the site throws InjectedFault (common/error.h)
 *   short-write  I/O sites emit a partial write then fail with ENOSPC
 *   eio          I/O sites fail with errno = EIO
 *   delay        the site sleeps ~2 ms (scheduling perturbation)
 *
 * Non-I/O sites reached with short-write/eio treat the fault as
 * `throw` — every armed clause is guaranteed to be able to fire.
 *
 * Hit counts are per site, process-global, and counted under a mutex,
 * so trigger indices are exact in single-threaded runs; with parallel
 * sweep jobs the *order* in which jobs observe hits depends on
 * scheduling — pin NOREBA_JOBS=1 when a plan must target one specific
 * job.
 *
 * Zero-cost when unarmed: NOREBA_FAULT_SITE compiles to one relaxed
 * atomic load on the hot path; counters, mutexes and plan matching are
 * only touched once a plan is armed.
 */

#ifndef NOREBA_COMMON_FAULT_H
#define NOREBA_COMMON_FAULT_H

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace noreba {

/**
 * Every fault site the library declares. A NOREBA_FAULTS clause naming
 * any other site could never fire, so arm() rejects it.
 */
inline constexpr const char *FAULT_SITES[] = {
    "bundle_cache.build", //!< a trace-bundle build (sim/sweep.cc)
    "result_cache.sim",   //!< a simulation the result cache runs
    "sweep.job",          //!< every sweep job attempt
    "trace_store.read",   //!< trace-bundle store I/O (sim/blob_store.h)
    "trace_store.write",
    "trace_store.fsync",
    "trace_store.rename",
    "result_store.read",  //!< result store I/O (sim/blob_store.h)
    "result_store.write",
    "result_store.fsync",
    "result_store.rename",
};

enum class FaultKind { Throw, ShortWrite, Eio, Delay };

/** What an armed site should do for the current hit. */
struct FaultAction
{
    bool fire = false;
    FaultKind kind = FaultKind::Throw;

    explicit operator bool() const { return fire; }
};

class FaultRegistry
{
  public:
    /**
     * The process-wide registry. The first access parses NOREBA_FAULTS
     * (when set); a malformed plan, or one naming a site outside
     * FAULT_SITES, is fatal() — it is a user error and silently
     * ignoring it would make a CI fault run vacuously green.
     */
    static FaultRegistry &instance();

    /**
     * Replace the armed plan with @p plan (tests). An empty string
     * disarms. Malformed plans and unknown sites are fatal(); see the
     * file header for the grammar.
     */
    void arm(const std::string &plan);

    /** Drop every clause and reset all hit counters. */
    void disarm();

    /** Whether any clause is armed (the hot-path gate). */
    bool
    armed() const
    {
        return armed_.load(std::memory_order_acquire);
    }

    /**
     * Count one hit of @p site and return the action its clauses
     * select, executing nothing. Callers normally use the macros
     * below instead, which execute throw/delay kinds in place.
     */
    FaultAction onHit(const char *site);

    /** Hits recorded for @p site since the last arm()/disarm(). */
    uint64_t hitCount(const std::string &site) const;

    /**
     * Execute @p action at @p site: Throw raises InjectedFault, Delay
     * sleeps briefly; ShortWrite/Eio (for callers that cannot simulate
     * them) degrade to Throw. No-op when the action does not fire.
     */
    static void execute(const char *site, const FaultAction &action);

  private:
    FaultRegistry();

    struct Clause
    {
        std::string site;
        FaultKind kind = FaultKind::Throw;
        uint64_t trigger = 1; //!< first faulted hit (1-based)
        uint64_t count = 1;   //!< consecutive faulted hits
        bool forever = false; //!< 'x*': every hit from trigger on
    };

    mutable std::mutex mutex_;
    std::vector<Clause> clauses_;
    std::map<std::string, uint64_t> hits_;
    std::atomic<bool> armed_{false};
};

/**
 * I/O-site shim: count one hit of @p site and, when a clause selects
 * an I/O kind, store the errno to fail the syscall with (`eio` ->
 * EIO, `short-write` -> ENOSPC) and return true. `throw` and `delay`
 * clauses execute in place (InjectedFault propagates to the caller of
 * the I/O path). Returns false — without touching @p errnoOut — when
 * the site is unarmed or no clause fires.
 */
bool ioFaultAt(const char *site, int *errnoOut);

} // namespace noreba

/**
 * Declare a fault site that executes its fault in place: `throw`
 * raises InjectedFault, `delay` sleeps, and the I/O kinds degrade to
 * throw. Use ioFaultAt() instead where the caller simulates short
 * writes / EIO itself.
 */
#define NOREBA_FAULT_SITE(site)                                           \
    do {                                                                  \
        if (::noreba::FaultRegistry::instance().armed())                  \
            ::noreba::FaultRegistry::execute(                             \
                site, ::noreba::FaultRegistry::instance().onHit(site));   \
    } while (0)

#endif // NOREBA_COMMON_FAULT_H
