#include "sim/sweep.h"

#include <atomic>
#include <cerrno>
#include <cstdlib>
#include <exception>
#include <thread>

#include "common/error.h"
#include "common/fault.h"
#include "common/logging.h"
#include "common/thread_pool.h"
#include "sim/blob_store.h"
#include "sim/result_store.h"
#include "sim/trace_store.h"

namespace noreba {

BundleCache::BundleCache(size_t capacity, Builder builder,
                         int quarantineAfter)
    : capacity_(capacity), builder_(std::move(builder)),
      quarantineAfter_(quarantineAfter)
{
}

size_t
BundleCache::capacityFromEnv()
{
    const char *env = std::getenv("NOREBA_BUNDLE_CACHE_CAP");
    if (!env || !*env)
        return 0;
    errno = 0;
    char *end = nullptr;
    long parsed = std::strtol(env, &end, 10);
    fatal_if(errno != 0 || end == env || *end != '\0' || parsed < 0,
             "NOREBA_BUNDLE_CACHE_CAP=\"%s\" is not a non-negative "
             "integer", env);
    return static_cast<size_t>(parsed);
}

int
BundleCache::quarantineAfterFromEnv()
{
    const char *env = std::getenv("NOREBA_QUARANTINE_AFTER");
    if (!env || !*env)
        return 2;
    errno = 0;
    char *end = nullptr;
    long parsed = std::strtol(env, &end, 10);
    fatal_if(errno != 0 || end == env || *end != '\0' || parsed < 0,
             "NOREBA_QUARANTINE_AFTER=\"%s\" is not a non-negative "
             "integer", env);
    return static_cast<int>(parsed);
}

std::shared_ptr<const TraceBundle>
BundleCache::get(const std::string &workload, const TraceOptions &opts)
{
    return lookup(workload, opts, true);
}

std::shared_ptr<const TraceBundle>
BundleCache::lookup(const std::string &workload, const TraceOptions &opts,
                    bool countHit)
{
    Key key{workload,     opts.params.seed, opts.params.scale,
            opts.maxDynInsts, opts.annotate,    opts.stripSetups};
    std::shared_ptr<Entry> entry;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (quarantineAfter_) {
            auto streak = failStreak_.find(key);
            if (streak != failStreak_.end() &&
                streak->second >= quarantineAfter_)
                throw QuarantineError(
                    "bundle_cache.quarantine",
                    strfmt("workload %s quarantined after %d consecutive "
                           "trace build failures",
                           workload.c_str(), streak->second));
        }
        auto it = entries_.find(key);
        if (it != entries_.end()) {
            entry = it->second;
            // A resident bundle is a hit; an entry another thread is
            // still materializing is not — this caller blocks on the
            // call_once below and shares the one build.
            if (!entry->bundle)
                ++stats_.sharedBuilds;
            else if (countHit)
                ++stats_.memHits;
        } else {
            entry = std::make_shared<Entry>();
            entry->key = key;
            entries_.emplace(key, entry);
        }
        touchLocked(entry.get());
    }
    // Materialize outside the map lock so unrelated bundles prepare in
    // parallel; call_once blocks only the threads that want this one.
    // A callable that throws leaves the once_flag unset (waiters retry
    // the build); the catch below unpins the entry so a permanently
    // failing key cannot occupy the cache forever.
    try {
        std::call_once(entry->once, [&] {
            // Injected builders produce synthetic bundles: never read
            // or publish the on-disk store for them.
            const std::string storeKey = traceKey(workload, opts);
            const std::string path =
                builder_ ? std::string()
                         : traceBlobStore().path(workload, storeKey);
            if (!path.empty()) {
                if (auto mapped = MappedTraceBundle::open(path, storeKey)) {
                    auto bundle = std::make_shared<TraceBundle>();
                    bundle->workload = workload;
                    bundle->misp = mapped->misp();
                    bundle->pass = mapped->pass();
                    bundle->checksum = mapped->archChecksum();
                    bundle->mapped = std::move(mapped);
                    std::lock_guard<std::mutex> lock(mutex_);
                    ++stats_.diskHits;
                    entry->bundle = std::move(bundle);
                    stats_.bytesMapped +=
                        entry->bundle->mapped->fileBytes();
                    failStreak_.erase(key);
                    return;
                }
            }
            NOREBA_FAULT_SITE("bundle_cache.build");
            std::shared_ptr<TraceBundle> bundle;
            if (builder_) {
                bundle = std::make_shared<TraceBundle>(
                    builder_(workload, opts));
            } else if (opts.stripSetups) {
                // The setup-stripped variant is a pure function of the
                // annotated bundle: derive it instead of building,
                // annotating and interpreting the program again.
                TraceOptions full = opts;
                full.stripSetups = false;
                bundle = std::make_shared<TraceBundle>(
                    stripSetupsFrom(*lookup(workload, full, false)));
            } else {
                bundle = std::make_shared<TraceBundle>(
                    prepareTrace(workload, opts));
            }
            const size_t published =
                path.empty() ? 0 : saveTraceBundle(path, storeKey, *bundle);
            std::lock_guard<std::mutex> lock(mutex_);
            ++stats_.builds;
            stats_.bytesWritten += published;
            entry->bundle = std::move(bundle);
            failStreak_.erase(key);
        });
    } catch (...) {
        std::lock_guard<std::mutex> lock(mutex_);
        // Each increment is one real failed build attempt: only the
        // thread that ran the throwing callable lands here; blocked
        // joiners re-run the build and count their own failure.
        if (quarantineAfter_)
            ++failStreak_[key];
        removeFailedLocked(entry);
        throw;
    }
    std::shared_ptr<const TraceBundle> bundle = entry->bundle;
    if (capacity_) {
        std::lock_guard<std::mutex> lock(mutex_);
        evictLocked(entry.get());
    }
    return bundle;
}

void
BundleCache::touchLocked(Entry *entry)
{
    if (entry->lastUse)
        lru_.erase(entry->lastUse);
    entry->lastUse = ++useClock_;
    // The shared_ptr lives in entries_; look it up once to share
    // ownership rather than aliasing raw.
    auto it = entries_.find(entry->key);
    if (it != entries_.end())
        lru_.emplace(entry->lastUse, it->second);
}

void
BundleCache::evictLocked(const Entry *keep)
{
    // lru_ orders entries by recency, so each eviction pops (near) the
    // front: O(log n) plus a skip over the handful of pinned entries —
    // in-flight builds and the requester's own — instead of the old
    // full scan of entries_.
    while (entries_.size() > capacity_) {
        auto victim = lru_.end();
        for (auto it = lru_.begin(); it != lru_.end(); ++it) {
            if (it->second.get() == keep || !it->second->bundle)
                continue;
            victim = it;
            break;
        }
        if (victim == lru_.end())
            break;
        entries_.erase(victim->second->key);
        lru_.erase(victim);
        ++stats_.evictions;
    }
}

void
BundleCache::removeFailedLocked(const std::shared_ptr<Entry> &entry)
{
    // Only drop the exact entry we failed to build, and only while it
    // is still bundle-less: a concurrent retry that succeeded (or a
    // fresh entry under the same key) must stay.
    auto it = entries_.find(entry->key);
    if (it != entries_.end() && it->second == entry && !entry->bundle) {
        entries_.erase(it);
        if (entry->lastUse) {
            lru_.erase(entry->lastUse);
            entry->lastUse = 0;
        }
    }
}

size_t
BundleCache::size() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return entries_.size();
}

BundleCacheStats
BundleCache::stats() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return stats_;
}

BundleCache &
globalBundleCache()
{
    static BundleCache cache;
    return cache;
}

CoreStats
ResultCache::get(const SweepJob &job, const Simulate &sim)
{
    const std::string key = resultKey(job.workload, job.cfg, job.trace);
    std::shared_ptr<Entry> entry;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        auto it = entries_.find(key);
        if (it != entries_.end()) {
            entry = it->second;
            // A completed result is a hit; an entry another thread is
            // still simulating is not — this caller blocks on the
            // call_once below and shares the one simulation.
            if (entry->done) {
                ++stats_.memHits;
                return entry->stats;
            }
            ++stats_.sharedSims;
        } else {
            entry = std::make_shared<Entry>();
            entries_.emplace(key, entry);
        }
    }
    // Simulate outside the map lock so unrelated jobs run in parallel;
    // call_once blocks only the threads that want this one. A callable
    // that throws leaves the once_flag unset (waiters retry); the catch
    // below drops the entry so a failing key cannot poison the cache.
    try {
        std::call_once(entry->once, [&] {
            const std::string path =
                resultStoreEligible(job.cfg)
                    ? resultBlobStore().path(job.workload, key)
                    : std::string();
            CoreStats stats;
            if (!path.empty() && loadResult(path, key, stats)) {
                std::lock_guard<std::mutex> lock(mutex_);
                ++stats_.diskHits;
                entry->stats = std::move(stats);
                entry->done = true;
                return;
            }
            NOREBA_FAULT_SITE("result_cache.sim");
            stats = sim();
            const size_t published =
                path.empty() ? 0 : saveResult(path, key, stats);
            std::lock_guard<std::mutex> lock(mutex_);
            ++stats_.simBuilds;
            if (published) {
                ++stats_.stored;
                stats_.bytesWritten += published;
            }
            entry->stats = std::move(stats);
            entry->done = true;
        });
    } catch (...) {
        std::lock_guard<std::mutex> lock(mutex_);
        removeFailedLocked(key, entry);
        throw;
    }
    std::lock_guard<std::mutex> lock(mutex_);
    return entry->stats;
}

void
ResultCache::recordExternalSim()
{
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.simBuilds;
}

void
ResultCache::removeFailedLocked(const std::string &key,
                                const std::shared_ptr<Entry> &entry)
{
    // Only drop the exact entry we failed to simulate, and only while
    // it is still incomplete: a concurrent retry that succeeded (or a
    // fresh entry under the same key) must stay.
    auto it = entries_.find(key);
    if (it != entries_.end() && it->second == entry && !entry->done)
        entries_.erase(it);
}

size_t
ResultCache::size() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return entries_.size();
}

SimCacheStats
ResultCache::stats() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return stats_;
}

ResultCache &
globalResultCache()
{
    static ResultCache cache;
    return cache;
}

SweepRunner::SweepRunner(unsigned numThreads, BundleCache *cache,
                         ResultCache *results)
    : numThreads_(numThreads ? numThreads : jobsFromEnv()), cache_(cache),
      results_(results ? results
               : cache == &globalBundleCache() ? &globalResultCache()
                                               : nullptr)
{
}

unsigned
SweepRunner::jobsFromEnv()
{
    const char *env = std::getenv("NOREBA_JOBS");
    if (!env || !*env) {
        unsigned hw = std::thread::hardware_concurrency();
        return hw ? hw : 1;
    }
    errno = 0;
    char *end = nullptr;
    long parsed = std::strtol(env, &end, 10);
    fatal_if(errno != 0 || end == env || *end != '\0' || parsed < 1,
             "NOREBA_JOBS=\"%s\" is not a positive integer", env);
    return static_cast<unsigned>(parsed);
}

int
SweepRunner::retriesFromEnv()
{
    const char *env = std::getenv("NOREBA_SWEEP_RETRIES");
    if (!env || !*env)
        return 1;
    errno = 0;
    char *end = nullptr;
    long parsed = std::strtol(env, &end, 10);
    fatal_if(errno != 0 || end == env || *end != '\0' || parsed < 0,
             "NOREBA_SWEEP_RETRIES=\"%s\" is not a non-negative integer",
             env);
    return static_cast<int>(parsed);
}

std::vector<SweepResult>
SweepRunner::run(const std::vector<SweepJob> &jobs, FailurePolicy policy)
{
    return run(jobs, nullptr, policy);
}

std::vector<SweepResult>
SweepRunner::run(const std::vector<SweepJob> &jobs,
                 EventLog *firstJobEvents, FailurePolicy policy)
{
    std::vector<SweepResult> results(jobs.size());
    // Saved per job for FailurePolicy::Propagate: rethrowing the
    // original exception (not a copy reconstructed from what()) in
    // submission order keeps the propagated failure deterministic no
    // matter which worker thread lost the race.
    std::vector<std::exception_ptr> errors(jobs.size());

    auto attemptJob = [&](size_t i) {
        const SweepJob &job = jobs[i];
        if (i == 0 && firstJobEvents) {
            // Event capture needs a live log, so this simulation runs
            // for real regardless of what the result cache holds.
            std::shared_ptr<const TraceBundle> bundle =
                cache_->get(job.workload, job.trace);
            results[i].stats =
                simulate(job.cfg, *bundle, firstJobEvents);
            if (results_)
                results_->recordExternalSim();
            return;
        }
        if (results_) {
            // The bundle is fetched lazily inside the callback: a
            // disk-served result never materializes its trace at all.
            results[i].stats = results_->get(job, [&] {
                std::shared_ptr<const TraceBundle> bundle =
                    cache_->get(job.workload, job.trace);
                return simulate(job.cfg, *bundle);
            });
            return;
        }
        // Shared ownership keeps the bundle alive across simulate()
        // even if the cache's LRU tier evicts it mid-sweep.
        std::shared_ptr<const TraceBundle> bundle =
            cache_->get(job.workload, job.trace);
        results[i].stats = simulate(job.cfg, *bundle);
    };

    const int attempts = 1 + retriesFromEnv();
    auto runJob = [&](size_t i) {
        results[i].job = jobs[i];
        for (int attempt = 1;; ++attempt) {
            try {
                NOREBA_FAULT_SITE("sweep.job");
                attemptJob(i);
                return;
            } catch (const QuarantineError &e) {
                // Retrying a quarantined key just throws again;
                // fail the job immediately.
                results[i].ok = false;
                results[i].failure = {e.site(), e.what(), attempt};
                errors[i] = std::current_exception();
                return;
            } catch (const std::exception &e) {
                if (attempt >= attempts) {
                    results[i].ok = false;
                    results[i].failure = {errorSite(e, "sweep.job"),
                                          e.what(), attempt};
                    errors[i] = std::current_exception();
                    return;
                }
                storeBackoff(attempt, jobs[i].workload + "#" +
                                          std::to_string(i));
            }
        }
    };

    if (numThreads_ <= 1 || jobs.size() <= 1) {
        for (size_t i = 0; i < jobs.size(); ++i)
            runJob(i);
    } else {
        ThreadPool pool(numThreads_);
        for (size_t i = 0; i < jobs.size(); ++i)
            pool.submit([&runJob, i] { runJob(i); });
        pool.wait();
    }

    if (policy == FailurePolicy::Propagate) {
        for (size_t i = 0; i < results.size(); ++i)
            if (!results[i].ok)
                std::rethrow_exception(errors[i]);
    }
    return results;
}

JsonValue
configToJson(const CoreConfig &cfg)
{
    JsonValue srob = JsonValue::object();
    srob.set("numBrCqs", cfg.srob.numBrCqs)
        .set("brCqEntries", cfg.srob.brCqEntries)
        .set("prCqEntries", cfg.srob.prCqEntries)
        .set("bitEntries", cfg.srob.bitEntries)
        .set("cqtEntries", cfg.srob.cqtEntries)
        .set("citEntries", cfg.srob.citEntries)
        .set("enforceInstanceOrder", cfg.srob.enforceInstanceOrder);

    JsonValue out = JsonValue::object();
    out.set("name", cfg.name)
        .set("commitMode", commitModeName(cfg.commitMode))
        .set("fetchWidth", cfg.fetchWidth)
        .set("decodeWidth", cfg.decodeWidth)
        .set("dispatchWidth", cfg.dispatchWidth)
        .set("issueWidth", cfg.issueWidth)
        .set("commitWidth", cfg.commitWidth)
        .set("steerWidth", cfg.steerWidth)
        .set("robEntries", cfg.robEntries)
        .set("iqEntries", cfg.iqEntries)
        .set("lqEntries", cfg.lqEntries)
        .set("sqEntries", cfg.sqEntries)
        .set("rfEntries", cfg.rfEntries)
        .set("dramLatency", cfg.dramLatency)
        .set("prefetcher", cfg.prefetcher)
        .set("earlyCommitLoads", cfg.earlyCommitLoads)
        .set("srob", std::move(srob));
    return out;
}

JsonValue
statsToJson(const CoreStats &s)
{
    JsonValue out = JsonValue::object();
    for (const CoreStatsField &f : CORE_STATS_FIELDS) {
        if (f.counter)
            out.set(f.name, s.*f.counter);
        else
            out.set(f.name, f.derived(s));
    }
    return out;
}

JsonValue
bundleCacheStatsToJson(const BundleCacheStats &s)
{
    JsonValue out = JsonValue::object();
    out.set("memHits", s.memHits)
        .set("sharedBuilds", s.sharedBuilds)
        .set("diskHits", s.diskHits)
        .set("builds", s.builds)
        .set("bytesMapped", s.bytesMapped)
        .set("bytesWritten", s.bytesWritten)
        .set("evictions", s.evictions);
    return out;
}

JsonValue
simCacheStatsToJson(const SimCacheStats &s)
{
    JsonValue out = JsonValue::object();
    out.set("memHits", s.memHits)
        .set("sharedSims", s.sharedSims)
        .set("diskHits", s.diskHits)
        .set("simBuilds", s.simBuilds)
        .set("stored", s.stored)
        .set("bytesWritten", s.bytesWritten);
    return out;
}

JsonValue
sweepResultToJson(const SweepResult &r)
{
    JsonValue out = JsonValue::object();
    out.set("workload", r.job.workload)
        .set("traceLen", r.job.trace.maxDynInsts)
        .set("annotate", r.job.trace.annotate)
        .set("stripSetups", r.job.trace.stripSetups)
        .set("config", configToJson(r.job.cfg));
    if (r.ok) {
        out.set("stats", statsToJson(r.stats));
    } else {
        // No "stats" key: the zeroed CoreStats would serialize derived
        // ratios of 0/0. The extra keys appear only on failed records,
        // so a clean run's JSON stays byte-identical.
        JsonValue failure = JsonValue::object();
        failure.set("site", r.failure.site)
            .set("what", r.failure.what)
            .set("attempts", r.failure.attempts);
        out.set("failed", true).set("failure", std::move(failure));
    }
    return out;
}

JsonValue
sweepToJson(const std::vector<SweepResult> &results)
{
    JsonValue arr = JsonValue::array();
    for (const auto &r : results)
        arr.push(sweepResultToJson(r));
    return arr;
}

} // namespace noreba
