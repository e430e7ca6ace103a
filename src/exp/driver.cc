#include "exp/driver.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <vector>

#include "common/fs.h"
#include "common/json.h"
#include "common/logging.h"
#include "exp/env.h"
#include "trace/chrome_trace.h"
#include "trace/event_log.h"

namespace noreba::bench {

namespace {

/**
 * If NOREBA_JSON_DIR is set, dump the experiment's machine-readable
 * record as <dir>/BENCH_<name>.json: {"bench", "traceLen",
 * "traceCache", "simCache", "perf", "results": [...]} with one entry
 * per job in sweep order (see sweepResultToJson). "traceCache" and
 * "simCache" snapshot the global cache counters — a warm
 * NOREBA_RESULT_DIR run shows simBuilds == 0 (nothing simulated).
 * "perf" records wall seconds since this experiment started, total
 * simulated kilocycles across its results, and their ratio (the CI
 * perf-smoke metric).
 *
 * With event tracing on, @p events is the first job's live log from
 * the sweep itself, exported as TRACE_<name>.json — the old
 * standalone benches re-simulated the first job here just to fill a
 * log the sweep had already earned.
 */
void
maybeWriteJson(const ExperimentSpec &spec,
               const std::vector<SweepResult> &results,
               const EventLog *events, double wallSeconds)
{
    const char *dir = std::getenv("NOREBA_JSON_DIR");
    if (!dir || !*dir)
        return;
    // Table-only experiments (an empty plan) have no records worth a
    // file, and a zero-record JSON would trip
    // `noreba-stats-diff --expect-equal` in CI.
    if (results.empty())
        return;
    uint64_t simCycles = 0;
    for (const SweepResult &r : results)
        simCycles += r.stats.cycles;
    const double simKilocycles = static_cast<double>(simCycles) / 1e3;
    JsonValue perf = JsonValue::object();
    perf.set("wallSeconds", wallSeconds)
        .set("simKilocycles", simKilocycles)
        .set("simKCyclesPerWallSec",
             wallSeconds > 0.0 ? simKilocycles / wallSeconds : 0.0);
    JsonValue doc = JsonValue::object();
    doc.set("bench", spec.name)
        .set("traceLen", benchutil::traceLen())
        .set("traceCache",
             bundleCacheStatsToJson(globalBundleCache().stats()))
        .set("simCache", simCacheStatsToJson(globalResultCache().stats()))
        .set("perf", std::move(perf))
        .set("results", sweepToJson(results));
    // The extra key appears only on runs that had failures, so a clean
    // run's JSON stays byte-identical to what it was before this
    // machinery existed.
    size_t numFailed = 0;
    for (const SweepResult &r : results)
        if (!r.ok)
            ++numFailed;
    if (numFailed) {
        JsonValue failures = JsonValue::array();
        for (const SweepResult &r : results) {
            if (r.ok)
                continue;
            JsonValue f = JsonValue::object();
            f.set("workload", r.job.workload)
                .set("config", r.job.cfg.name)
                .set("site", r.failure.site)
                .set("what", r.failure.what)
                .set("attempts", r.failure.attempts);
            failures.push(std::move(f));
        }
        doc.set("failures", std::move(failures));
    }
    std::string path = std::string(dir) + "/BENCH_" + spec.name + ".json";
    writeJsonFile(path, doc);
    std::printf("wrote %s (%zu records)\n", path.c_str(), results.size());
    std::printf("perf: %.2f s wall, %.0f simulated kilocycles, "
                "%.1f kcycles/s\n",
                wallSeconds, simKilocycles,
                wallSeconds > 0.0 ? simKilocycles / wallSeconds : 0.0);

    if (events && !results.empty()) {
        const SweepJob &first = results.front().job;
        std::string label = first.workload + "/" +
                            commitModeName(first.cfg.commitMode);
        std::string tracePath =
            std::string(dir) + "/TRACE_" + spec.name + ".json";
        writeChromeTrace(tracePath, *events, label);
        std::printf("wrote %s (%zu events, %llu dropped)\n",
                    tracePath.c_str(), events->size(),
                    static_cast<unsigned long long>(events->dropped()));
    }
}

/** Header printed before every experiment (old bench_util format). */
void
printHeader(const ExperimentSpec &spec)
{
    std::printf("==============================================================\n");
    std::printf("NOREBA reproduction — %s\n", spec.title.c_str());
    std::printf("%s\n", spec.description.c_str());
    std::printf("trace length: %llu dynamic instructions per workload\n",
                static_cast<unsigned long long>(benchutil::traceLen()));
    std::printf("==============================================================\n");
}

int
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s --list | --run <name|all>[,<name>...] "
                 "[--run ...] [--json-dir <dir>] [--jobs <n>] "
                 "[--keep-going]\n",
                 argv0);
    return 2;
}

int
unknownExperiment(const std::string &name)
{
    std::fprintf(stderr, "unknown experiment \"%s\"; known experiments:\n",
                 name.c_str());
    for (const ExperimentSpec &spec : experimentRegistry())
        std::fprintf(stderr, "  %s\n", spec.name.c_str());
    return 2;
}

std::vector<std::string>
splitCommas(const std::string &arg)
{
    std::vector<std::string> out;
    std::string cur;
    for (size_t i = 0; i <= arg.size(); ++i) {
        if (i == arg.size() || arg[i] == ',') {
            if (!cur.empty())
                out.push_back(cur);
            cur.clear();
        } else {
            cur.push_back(arg[i]);
        }
    }
    return out;
}

} // namespace

size_t
runExperiment(const ExperimentSpec &spec, const RunOptions &opts)
{
    const auto start = std::chrono::steady_clock::now();
    printHeader(spec);

    ExperimentPlan plan;
    if (spec.plan)
        spec.plan(plan);
    std::vector<SweepJob> jobs;
    jobs.reserve(plan.planned().size());
    for (const PlannedJob &p : plan.planned())
        jobs.push_back(p.job);

    EventLog log;
    const bool capture = benchutil::eventTraceEnabled() && !jobs.empty();
    SweepRunner runner;
    const std::vector<SweepResult> results =
        runner.run(jobs, capture ? &log : nullptr,
                   opts.keepGoing ? FailurePolicy::Isolate
                                  : FailurePolicy::Propagate);

    size_t numFailed = 0;
    for (const SweepResult &r : results)
        if (!r.ok)
            ++numFailed;

    if (numFailed) {
        // A failed job's stats are zeroed; reports divide by them
        // (speedup panics on zero baseline cycles), so the tables are
        // skipped and the failures land in the JSON record instead.
        warn("%s: %zu of %zu jobs failed; skipping report tables",
             spec.name.c_str(), numFailed, results.size());
    } else if (spec.report) {
        ExperimentResults expResults(plan.planned(), results);
        spec.report(expResults);
    }

    const double wallSeconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count();
    maybeWriteJson(spec, results, capture ? &log : nullptr, wallSeconds);
    return numFailed;
}

void
runExperiment(const ExperimentSpec &spec)
{
    runExperiment(spec, RunOptions{});
}

int
benchMain(int argc, char **argv)
{
    bool list = false;
    RunOptions opts;
    std::vector<std::string> names;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--list") {
            list = true;
        } else if (arg == "--run") {
            if (++i >= argc)
                return usage(argv[0]);
            for (const std::string &name : splitCommas(argv[i]))
                names.push_back(name);
        } else if (arg == "--json-dir") {
            if (++i >= argc)
                return usage(argv[0]);
            ::setenv("NOREBA_JSON_DIR", argv[i], 1);
        } else if (arg == "--jobs") {
            if (++i >= argc)
                return usage(argv[0]);
            ::setenv("NOREBA_JOBS", argv[i], 1);
        } else if (arg == "--keep-going") {
            opts.keepGoing = true;
        } else {
            std::fprintf(stderr, "unknown option \"%s\"\n", arg.c_str());
            return usage(argv[0]);
        }
    }

    if (list) {
        for (const ExperimentSpec &spec : experimentRegistry())
            std::printf("%-24s %s\n", spec.name.c_str(),
                        spec.title.c_str());
        return 0;
    }
    if (names.empty())
        return usage(argv[0]);

    // Create the output and store directories before any simulation: a
    // mistyped or read-only path must fail in milliseconds, not after
    // the sweep, nor as a store that quietly degrades to bypass.
    for (const char *var :
         {"NOREBA_JSON_DIR", "NOREBA_TRACE_DIR", "NOREBA_RESULT_DIR"}) {
        const char *dir = std::getenv(var);
        if (dir && *dir && !(ensureDir(dir) && dirWritable(dir))) {
            std::fprintf(stderr, "cannot create or write %s \"%s\"\n", var,
                         dir);
            return 2;
        }
    }

    // Validate every name before running anything: a typo at position
    // N must not cost N-1 experiments of simulation first.
    std::vector<const ExperimentSpec *> selected;
    for (const std::string &name : names) {
        if (name == "all") {
            for (const ExperimentSpec &spec : experimentRegistry())
                selected.push_back(&spec);
            continue;
        }
        const ExperimentSpec *spec = findExperiment(name);
        if (!spec)
            return unknownExperiment(name);
        selected.push_back(spec);
    }

    size_t totalFailed = 0;
    for (const ExperimentSpec *spec : selected) {
        try {
            totalFailed += runExperiment(*spec, opts);
        } catch (const std::exception &e) {
            std::fprintf(stderr, "experiment %s failed: %s\n",
                         spec->name.c_str(), e.what());
            if (!opts.keepGoing)
                return 1;
            // The whole experiment is one failure; keep running the
            // rest of the selection.
            ++totalFailed;
        }
    }
    if (totalFailed) {
        std::fprintf(stderr, "%zu job(s) failed; see the failures "
                     "records in the BENCH_*.json output\n", totalFailed);
        return 3;
    }
    return 0;
}

} // namespace noreba::bench
