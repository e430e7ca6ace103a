/**
 * @file
 * Unified experiment driver. One binary (bench/noreba_bench.cc) runs
 * any registered experiment:
 *
 *   noreba-bench --list
 *   noreba-bench --run fig06_main --run fig09_cq_sweep_perf
 *   noreba-bench --run all --json-dir out --jobs 4
 *
 * Experiments executed in one process share the global trace-bundle
 * and simulation-result caches, so `--run all` simulates each distinct
 * (workload, trace options, config) exactly once — and, with
 * NOREBA_RESULT_DIR set, a warm rerun simulates nothing at all
 * (simBuilds == 0 in every BENCH_<name>.json).
 */

#ifndef NOREBA_EXP_DRIVER_H
#define NOREBA_EXP_DRIVER_H

#include <cstddef>
#include <string>

#include "exp/experiment.h"

namespace noreba::bench {

/** Driver-level resilience knobs (the --keep-going CLI). */
struct RunOptions
{
    /**
     * Isolate per-job failures: a failed job becomes a `failures`
     * record in BENCH_<name>.json instead of aborting the experiment,
     * the remaining jobs (and experiments) still run, and benchMain
     * exits 3. Off: the first failure throws out of runExperiment
     * (exit 1), the historical behaviour.
     */
    bool keepGoing = false;
};

/**
 * Execute one experiment end to end: print its header, run the
 * planned sweep (capturing the first job's EventLog when
 * NOREBA_EVENT_TRACE is on), invoke its report, and, when
 * NOREBA_JSON_DIR is set, write BENCH_<name>.json (and the
 * TRACE_<name>.json Chrome trace, exported from the captured log
 * without re-simulating).
 *
 * Returns the number of failed jobs (always 0 unless
 * opts.keepGoing: without it the first failure propagates as an
 * exception). When any job failed, the report callback is skipped —
 * its tables would divide by a failed job's zeroed stats — and the
 * failures are recorded in the JSON instead.
 */
size_t runExperiment(const ExperimentSpec &spec, const RunOptions &opts);

/** runExperiment with default options (tests, embedding callers). */
void runExperiment(const ExperimentSpec &spec);

/**
 * The noreba-bench CLI: --list, --run <name|all|comma-list>
 * (repeatable), --json-dir <dir> (sets NOREBA_JSON_DIR), --jobs <n>
 * (sets NOREBA_JOBS), --keep-going. The json directory and the store
 * directories (NOREBA_TRACE_DIR, NOREBA_RESULT_DIR) are created and
 * checked for writability up front; failure is a fast exit 2 before
 * any simulation. Rerunning with the same NOREBA_RESULT_DIR resumes a
 * killed run: every result it published loads, only the rest
 * simulate. Exit codes: 0 all experiments clean, 1 an experiment
 * failed (no --keep-going), 2 usage/setup error, 3 partial failure
 * under --keep-going.
 */
int benchMain(int argc, char **argv);

} // namespace noreba::bench

#endif // NOREBA_EXP_DRIVER_H
