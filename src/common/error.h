/**
 * @file
 * Structured error hierarchy for library code paths.
 *
 * The repo's error-handling contract (DESIGN.md §14) splits failures
 * three ways:
 *
 *   - panic()   — internal invariant violations (simulator bugs);
 *                 aborts, never caught.
 *   - fatal()   — process-level user errors hit before any sweep runs
 *                 (malformed env knobs, bad CLI flags); exits.
 *   - SimError  — per-job / per-resource failures inside library code
 *                 that a batched caller may want to survive: a trace
 *                 build that dies, an injected test fault. These
 *                 *throw* so SweepRunner can isolate the failing job,
 *                 retry it, and record the outcome instead of the
 *                 whole sweep dying with it.
 *
 * Every SimError carries a `site` — the failing component in the same
 * dotted naming scheme the fault-injection registry uses (e.g.
 * "trace_store.write", "bundle_cache.quarantine") — so failure records
 * in BENCH_*.json name where a job died, not just why.
 */

#ifndef NOREBA_COMMON_ERROR_H
#define NOREBA_COMMON_ERROR_H

#include <stdexcept>
#include <string>
#include <utility>

namespace noreba {

/** Base of all recoverable simulator errors. */
class SimError : public std::runtime_error
{
  public:
    SimError(std::string site, const std::string &what)
        : std::runtime_error(what), site_(std::move(site))
    {
    }

    /** The failing component, dotted (e.g. "trace_store.rename"). */
    const std::string &site() const { return site_; }

  private:
    std::string site_;
};

/**
 * A key refused service because repeated failures quarantined it: the
 * poisoned resource stops consuming retry budget while other keys
 * proceed (see BundleCache).
 */
class QuarantineError : public SimError
{
  public:
    using SimError::SimError;
};

/** A deterministic fault fired by the NOREBA_FAULTS plan. */
class InjectedFault : public SimError
{
  public:
    using SimError::SimError;
};

/** The site of @p e when it is a SimError, else @p fallback. */
inline std::string
errorSite(const std::exception &e, const char *fallback)
{
    if (const auto *sim = dynamic_cast<const SimError *>(&e))
        return sim->site();
    return fallback;
}

} // namespace noreba

#endif // NOREBA_COMMON_ERROR_H
