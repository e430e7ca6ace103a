/**
 * @file
 * Content-addressed persistent store for simulation results, so a full
 * reproduction run pays for each distinct (workload, trace options,
 * core config) simulation once per *machine*: a cold `noreba-bench
 * --run all` publishes every CoreStats under NOREBA_RESULT_DIR and a
 * warm rerun replays the whole figure set from disk without simulating
 * (simBuilds == 0). Each result is published the moment its job
 * finishes, so rerunning a killed run with the same directory resumes
 * it: finished jobs load, only the rest simulate.
 *
 * A thin codec over the common blob format and publish policy
 * (sim/blob_store.h). The blob key is resultKey(): the trace key plus
 * the canonical CoreConfig serialization (uarch/config.h field
 * table), so any knob that shapes the simulation is part of the
 * identity; a load compares it, so a file-name hash collision misses.
 * The payload is every CoreStats counter in declaration order, then
 * the per-branch stall map as (pc, stallCycles, instances, dependents)
 * records sorted by pc.
 */

#ifndef NOREBA_SIM_RESULT_STORE_H
#define NOREBA_SIM_RESULT_STORE_H

#include <cstdint>
#include <string>

#include "sim/blob_store.h"
#include "sim/runner.h"
#include "uarch/config.h"
#include "uarch/stats.h"

namespace noreba {

/** Bump on any change to the result payload layout. */
constexpr uint32_t RESULT_STORE_FORMAT_VERSION = 2;

/**
 * Fingerprint of the simulation semantics: bump whenever Core, a
 * commit policy, the cache/predictor/prefetcher models, or anything
 * else that shapes CoreStats changes behaviour, so stale results miss
 * instead of silently reporting an old simulator's numbers. (Trace
 * semantics are covered separately by TRACE_STORE_PASS_FINGERPRINT,
 * which is folded into the key.)
 */
constexpr uint64_t RESULT_STORE_MODEL_VERSION = 1;

/**
 * Fingerprint of the CoreStats counter set (names, in declaration
 * order). Changes whenever NOREBA_CORE_STATS_FIELDS gains, loses, or
 * reorders a counter, so results written with a different stats schema
 * are rejected.
 */
uint64_t coreStatsLayoutFingerprint();

/** The NOREBA_RESULT_DIR result store. */
BlobStore &resultBlobStore();

/**
 * The content-addressed identity of one simulation: workload, trace
 * options, and the full canonical config serialization. Equal keys
 * mean bit-identical CoreStats (the simulator is deterministic).
 */
std::string resultKey(const std::string &workload, const CoreConfig &cfg,
                      const TraceOptions &opts);

/**
 * Full path of the result file for one key, or empty when the store
 * is disabled. `<workload>-<key hash>.v<format version>.nrs`.
 */
std::string resultPath(const std::string &workload, const CoreConfig &cfg,
                       const TraceOptions &opts);

/**
 * Whether results for @p cfg may be served from / published to the
 * disk store. Event-traced runs need a live EventLog and the
 * verification modes (shadowIndexCheck, shadowSchedulerCheck) exist
 * to *run* their checks, so caching them would defeat the point; all
 * are simulated for real. attributeStalls runs are eligible — the
 * per-branch stall map is serialized alongside the counters.
 */
bool resultStoreEligible(const CoreConfig &cfg);

/**
 * Load the result at @p path, validating it against the expected
 * @p key text. Returns false on any mismatch or corruption — the
 * caller re-simulates.
 */
bool loadResult(const std::string &path, const std::string &key,
                CoreStats &out);

/**
 * Publish @p stats at @p path under @p key through the result store
 * (sim/blob_store.h: atomic, retried, degrading). Returns the bytes
 * written, or 0 on failure — the store is a cache, losing it costs a
 * re-simulation.
 */
size_t saveResult(const std::string &path, const std::string &key,
                  const CoreStats &stats);

} // namespace noreba

#endif // NOREBA_SIM_RESULT_STORE_H
