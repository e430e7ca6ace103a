/**
 * @file
 * noreba-perfbench: one process of the repository benchmark. run.py
 * starts it once per set-up and once per timed pass, so every pass
 * begins with fresh process-wide caches, as a new `noreba-bench` run
 * does (see README.md in this directory).
 *
 *   noreba-perfbench setup --workload W --seed S --work DIR --out FILE
 *   noreba-perfbench pass  --workload W --seed S --work DIR --setup DIR
 *                          --out FILE [--traced] [--check]
 *
 * Workloads:
 *   cold_sweep   every registry experiment's jobs through SweepRunner
 *                into empty trace and result stores
 *   warm_replay  the same jobs served from stores the set-up populated
 *
 * The library is driven only through its public functions. An
 * untraced pass measures the end-to-end numbers. A --traced pass
 * replays the same operations on the same thread count, with a span
 * around each public call (span_log.h), and writes the spans to
 * DIR/spans.tsv at exit. A --check pass of warm_replay also
 * re-simulates fig06 from the store's bundles (see verifyFromStore).
 * Every pass
 * writes one JSON record to --out; run.py turns the records into
 * metrics.
 */

#include <sys/resource.h>
#include <sys/vfs.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/fs.h"
#include "common/hash.h"
#include "common/json.h"
#include "common/stats.h"
#include "common/thread_pool.h"
#include "experiments.h"
#include "interp/interpreter.h"
#include "sim/result_store.h"
#include "sim/sweep.h"
#include "sim/trace_store.h"
#include "span_log.h"
#include "uarch/branch_predictor.h"

namespace noreba::perfbench {

namespace {

using bench::ExperimentSpec;
using bench::PlannedJob;

enum class Workload { ColdSweep, WarmReplay };

/** Dynamic instructions per trace. */
constexpr uint64_t TRACE_LEN = 20000;

/** Width of the untimed work (references, checks, set-up). */
unsigned
allCores()
{
    return std::max(1u, std::thread::hardware_concurrency());
}

/**
 * Worker threads of the timed phase. cold_sweep leaves one core to the
 * harness, the kernel's journal and writeback work, and the host's
 * stalls of a virtual CPU: on a 4-vCPU virtual machine, interleaved
 * passes on 3 workers spread 0.11 (wall) and 0.14 (job p50) between
 * quartiles, against 0.18 and 0.28 on 4. warm_replay's 600 store reads
 * take about 15 us each; spread over several workers, their wall time
 * measures how fast the host wakes idle threads (15-70 ms for the same
 * work), so it runs on one, as `noreba-bench --jobs 1`.
 */
unsigned
timedThreads(Workload w)
{
    return w == Workload::WarmReplay ? 1 : std::max(1u, allCores() - 1);
}

struct Options
{
    std::string mode;
    std::string workloadName;
    Workload workload = Workload::ColdSweep;
    std::string work;     //!< this process's work directory
    std::string setupDir; //!< the set-up's work directory (pass only)
    std::string out;      //!< JSON record path
    uint64_t seed = 0;
    unsigned threads = 1; //!< timedThreads(workload)
    bool traced = false;
    bool check = false;   //!< re-simulate fig06 after the timed phase
};

double
seconds(int64_t ns)
{
    return static_cast<double>(ns) * 1e-9;
}

double
processCpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    auto tv = [](const timeval &t) {
        return static_cast<double>(t.tv_sec) + t.tv_usec * 1e-6;
    };
    return tv(ru.ru_utime) + tv(ru.ru_stime);
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

std::string
hex(uint64_t v)
{
    return strfmt("%016llx", static_cast<unsigned long long>(v));
}

/** Name of the filesystem holding @p path (statfs magic). */
std::string
filesystemType(const std::string &path)
{
    struct statfs sf{};
    if (statfs(path.c_str(), &sf) != 0)
        return "unknown";
    switch (static_cast<unsigned long>(sf.f_type)) {
      case 0x01021994: return "tmpfs";
      case 0xEF53: return "ext2/3/4";
      case 0x794c7630: return "overlayfs";
      case 0x58465342: return "xfs";
      case 0x9123683E: return "btrfs";
      case 0x6969: return "nfs";
      default:
        return strfmt("0x%lx", static_cast<unsigned long>(sf.f_type));
    }
}

void
setEnv(const char *name, const std::string &value)
{
    // Only ever called while no worker thread is alive: the library
    // reads these variables with getenv() from its workers.
    ::setenv(name, value.c_str(), 1);
}

/**
 * Run f(0..n-1) as SweepRunner::run runs jobs: in order on the calling
 * thread for one thread, else on a fresh FIFO pool.
 */
template <class F>
void
parallelFor(size_t n, unsigned threads, F f)
{
    if (threads <= 1 || n <= 1) {
        for (size_t i = 0; i < n; ++i)
            f(i);
        return;
    }
    ThreadPool pool(threads);
    for (size_t i = 0; i < n; ++i)
        pool.submit([&f, i] { f(i); });
    pool.wait();
}

/** Span name of one commit mode's simulations. */
const char *
coreSpanName(CommitMode mode)
{
    switch (mode) {
      case CommitMode::InOrder: return "core.inorder";
      case CommitMode::NonSpecOoO: return "core.nonspec_ooo";
      case CommitMode::Noreba: return "core.noreba";
      case CommitMode::IdealReconv: return "core.ideal_reconv";
      case CommitMode::SpeculativeBR: return "core.spec_br";
      case CommitMode::SpeculativeFull: return "core.spec_full";
      case CommitMode::ValidationBuffer: return "core.validation_buffer";
    }
    return "core.unknown";
}

/** The metric suffix of a commit mode (core.<mode>). */
std::string
modeKey(CommitMode mode)
{
    return std::string(coreSpanName(mode)).substr(5);
}

/** Identity of one program run: what the reference interpreter sees. */
std::string
programKey(const std::string &workload, const TraceOptions &opts)
{
    return strfmt("%s|%llu|%.17g|%llu", workload.c_str(),
                  static_cast<unsigned long long>(opts.params.seed),
                  opts.params.scale,
                  static_cast<unsigned long long>(opts.maxDynInsts));
}

/** Identity of one trace bundle. */
std::string
bundleKey(const std::string &workload, const TraceOptions &opts)
{
    return programKey(workload, opts) + (opts.annotate ? "|a" : "|-") +
           (opts.stripSetups ? "s" : "-");
}

/** Exact digest of every CoreStats counter and the stall map. */
uint64_t
statsDigest(const CoreStats &s)
{
    uint64_t h = fnv1a("", 0);
    for (const CoreStatsField &f : CORE_STATS_FIELDS) {
        if (!f.counter)
            continue;
        const uint64_t v = s.*f.counter;
        h = fnv1a(&v, sizeof(v), h);
    }
    std::vector<std::pair<uint64_t, BranchStall>> stalls(
        s.branchStalls.begin(), s.branchStalls.end());
    std::sort(stalls.begin(), stalls.end(),
              [](const auto &a, const auto &b) { return a.first < b.first; });
    for (const auto &[pc, b] : stalls) {
        const uint64_t v[4] = {pc, b.stallCycles, b.instances, b.dependents};
        h = fnv1a(v, sizeof(v), h);
    }
    return h;
}

/** The un-annotated interpreter's view of one program run. */
struct Reference
{
    uint64_t dynInsts = 0;
    uint64_t checksum = 0;
};

using ReferenceMap = std::map<std::string, Reference>;

/** One experiment's jobs with the benchmark seed written in. */
std::vector<PlannedJob>
planFor(const ExperimentSpec &spec, uint64_t seed)
{
    std::vector<PlannedJob> planned;
    if (!spec.plan)
        return planned;
    bench::ExperimentPlan plan;
    spec.plan(plan);
    planned = plan.planned();
    for (PlannedJob &p : planned)
        p.job.trace.params.seed = seed;
    return planned;
}

/** One distinct (workload, trace options) the registry needs. */
struct BundleSpec
{
    std::string workload;
    TraceOptions opts;
};

/** Every distinct bundle the registry's jobs need at @p seed. */
std::vector<BundleSpec>
registryBundles(uint64_t seed)
{
    std::vector<BundleSpec> out;
    std::set<std::string> seen;
    for (const ExperimentSpec &spec : bench::experimentRegistry())
        for (const PlannedJob &p : planFor(spec, seed))
            if (seen.insert(bundleKey(p.job.workload, p.job.trace)).second)
                out.push_back({p.job.workload, p.job.trace});
    return out;
}

/** Outcome record of one process, written as JSON to --out. */
struct Record
{
    uint64_t attempted = 0;
    uint64_t failed = 0;
    std::vector<std::string> problems;
    std::vector<double> opMs;
    std::vector<double> walls; //!< wall seconds of each timed phase
    std::vector<double> cpus;  //!< CPU seconds of each timed phase
    /** resultKey hash -> stats digest, over distinct results. */
    std::map<uint64_t, uint64_t> digests;
    JsonValue doc = JsonValue::object();

    /** Count one operation; a failed check makes it a failed one. */
    void
    op(bool ok, const std::string &what)
    {
        ++attempted;
        if (ok)
            return;
        ++failed;
        if (problems.size() < 20)
            problems.push_back(what);
    }

    void
    write(const std::string &path)
    {
        JsonValue probs = JsonValue::array();
        for (const std::string &p : problems)
            probs.push(p);
        auto array = [](const std::vector<double> &values) {
            JsonValue out = JsonValue::array();
            for (double v : values)
                out.push(v);
            return out;
        };
        JsonValue dig = JsonValue::object();
        for (const auto &[k, v] : digests)
            dig.set(hex(k), hex(v));
        doc.set("attempted", attempted)
            .set("failed", failed)
            .set("problems", std::move(probs))
            .set("op_ms", array(opMs))
            .set("wall_s", array(walls))
            .set("cpu_s", array(cpus))
            .set("digests", std::move(dig));
        writeJsonFile(path, doc);
    }
};

/** Check every job against the reference and record its digest. */
void
checkJobs(const std::vector<PlannedJob> &planned,
          const std::vector<SweepResult> &results, const ReferenceMap &refs,
          Record &rec)
{
    for (size_t i = 0; i < results.size(); ++i) {
        const SweepResult &r = results[i];
        const SweepJob &job = planned[i].job;
        if (!r.ok) {
            rec.op(false, strfmt("%s/%s failed: %s", job.workload.c_str(),
                                 job.cfg.name.c_str(),
                                 r.failure.what.c_str()));
            continue;
        }
        auto ref = refs.find(programKey(job.workload, job.trace));
        const bool known = ref != refs.end();
        const bool insts =
            known && r.stats.committedInsts == ref->second.dynInsts;
        const uint64_t key =
            fnv1a(resultKey(job.workload, job.cfg, job.trace));
        const uint64_t digest = statsDigest(r.stats);
        auto [it, fresh] = rec.digests.emplace(key, digest);
        const bool same = fresh || it->second == digest;
        rec.op(insts && same,
               strfmt("%s/%s: committedInsts %llu vs reference %llu%s",
                      job.workload.c_str(), job.cfg.name.c_str(),
                      static_cast<unsigned long long>(r.stats.committedInsts),
                      static_cast<unsigned long long>(
                          known ? ref->second.dynInsts : 0),
                      same ? "" : ", differs from an identical job"));
    }
}

/** Check a prepared or published bundle against the reference. */
bool
bundleMatches(const TraceView &view, uint64_t checksum,
              const BundleSpec &b, const ReferenceMap &refs)
{
    auto ref = refs.find(programKey(b.workload, b.opts));
    return ref != refs.end() && checksum == ref->second.checksum &&
           view.summary().dynInsts == ref->second.dynInsts &&
           (!b.opts.stripSetups || view.summary().setupInsts == 0);
}

/** fig06 geomeans of cycles(InO)/cycles(Noreba), cycles(SpecBR)/(Noreba). */
void
recordGeomeans(const std::vector<PlannedJob> &planned,
               const std::vector<CoreStats> &stats, Record &rec)
{
    std::map<std::string, std::map<std::string, const CoreStats *>> rows;
    for (size_t i = 0; i < planned.size(); ++i)
        rows[planned[i].row][planned[i].series] = &stats[i];
    Geomean speedup, ofSpecbr;
    for (const auto &[row, series] : rows) {
        auto ino = series.find("InO-C");
        auto nor = series.find("Noreba");
        auto sbr = series.find("SpeculativeBR-OoO-C");
        if (ino == series.end() || nor == series.end() ||
            sbr == series.end() || nor->second->cycles == 0)
            continue;
        speedup.sample(static_cast<double>(ino->second->cycles) /
                       static_cast<double>(nor->second->cycles));
        ofSpecbr.sample(static_cast<double>(sbr->second->cycles) /
                        static_cast<double>(nor->second->cycles));
    }
    rec.doc.set("noreba_speedup_geomean", speedup.value())
        .set("noreba_of_specbr", ofSpecbr.value());
}

/** fig06's jobs at @p seed. */
std::vector<PlannedJob>
fig06Jobs(uint64_t seed)
{
    const ExperimentSpec *spec = bench::findExperiment("fig06_main");
    fatal_if(!spec, "the registry has no fig06_main experiment");
    return planFor(*spec, seed);
}

JsonValue
cacheDelta(const BundleCacheStats &a, const BundleCacheStats &b)
{
    BundleCacheStats d;
    d.memHits = b.memHits - a.memHits;
    d.sharedBuilds = b.sharedBuilds - a.sharedBuilds;
    d.diskHits = b.diskHits - a.diskHits;
    d.builds = b.builds - a.builds;
    d.bytesMapped = b.bytesMapped - a.bytesMapped;
    d.bytesWritten = b.bytesWritten - a.bytesWritten;
    d.evictions = b.evictions - a.evictions;
    return bundleCacheStatsToJson(d);
}

JsonValue
cacheDelta(const SimCacheStats &a, const SimCacheStats &b)
{
    SimCacheStats d;
    d.memHits = b.memHits - a.memHits;
    d.sharedSims = b.sharedSims - a.sharedSims;
    d.diskHits = b.diskHits - a.diskHits;
    d.simBuilds = b.simBuilds - a.simBuilds;
    d.stored = b.stored - a.stored;
    d.bytesWritten = b.bytesWritten - a.bytesWritten;
    return simCacheStatsToJson(d);
}

/** One experiment's executed jobs. */
struct ExperimentRun
{
    const ExperimentSpec *spec = nullptr;
    std::vector<PlannedJob> planned;
    std::vector<SweepResult> results;
};

/** Print the experiment's tables, as noreba-bench does after a sweep. */
void
report(const ExperimentRun &run)
{
    if (!run.spec->report)
        return;
    for (const SweepResult &r : run.results)
        if (!r.ok)
            return;
    run.spec->report(bench::ExperimentResults(run.planned, run.results));
}

/**
 * The untraced sweep: each experiment in registry order is planned,
 * swept and reported, as `noreba-bench --run all` does. Every job
 * goes through SweepRunner::run on its own, from a FIFO pool of
 * o.threads workers, which is what SweepRunner::run does with the
 * whole list; the benchmark does the fan-out so it can time each job.
 */
std::vector<ExperimentRun>
sweepRegistry(const Options &o, BundleCache &bundles, ResultCache &results,
              std::vector<double> &opMs)
{
    std::vector<ExperimentRun> runs;
    for (const ExperimentSpec &spec : bench::experimentRegistry()) {
        ExperimentRun run{&spec, planFor(spec, o.seed), {}};
        const size_t n = run.planned.size();
        run.results.resize(n);
        std::vector<double> ms(n);
        parallelFor(n, o.threads, [&](size_t i) {
            const int64_t t0 = clockNs(CLOCK_MONOTONIC);
            std::vector<SweepResult> one =
                SweepRunner(1, &bundles, &results)
                    .run({run.planned[i].job}, FailurePolicy::Isolate);
            run.results[i] = std::move(one.front());
            ms[i] = seconds(clockNs(CLOCK_MONOTONIC) - t0) * 1e3;
        });
        opMs.insert(opMs.end(), ms.begin(), ms.end());
        report(run);
        runs.push_back(std::move(run));
    }
    return runs;
}

/** State shared by the traced pass's workers. */
struct TracedState
{
    std::atomic<uint64_t> retries{0};
    std::atomic<uint64_t> simulated{0};
    std::mutex mutex;
    std::set<std::string> opened; //!< bundles served by the store
    std::set<std::string> used;   //!< bundles whose records replayed
};

/** prepareTrace, one span per part. */
TraceBundle
prepareTraced(const std::string &workload, const TraceOptions &opts)
{
    TraceBundle bundle;
    bundle.workload = workload;
    Program prog = [&] {
        Span s("workloads.build");
        return buildWorkload(workload, opts.params);
    }();
    if (opts.annotate) {
        Span s("compiler.pass");
        bundle.pass = runBranchDependencePass(prog);
        s.count(static_cast<uint64_t>(bundle.pass.numSetupInsts));
    }
    std::unique_ptr<Interpreter> interp;
    {
        Span s("interp.setup");
        interp = std::make_unique<Interpreter>(prog);
    }
    {
        Span s("interp.run");
        InterpOptions io;
        io.maxDynInsts = opts.maxDynInsts;
        bundle.trace = interp->run(io);
        bundle.checksum = interp->regChecksum();
        s.count(bundle.trace.records.size());
    }
    if (opts.stripSetups) {
        Span s("runner.strip_setups");
        bundle.trace = stripSetupRecords(bundle.trace);
    }
    {
        Span s("uarch.predict");
        bundle.misp = precomputeMispredictions(bundle.trace);
    }
    return bundle;
}

/**
 * The traced bundle materializer: open from the store, else prepare
 * and publish — the steps BundleCache takes for an untraced run.
 */
TraceBundle
buildTraced(TracedState &state, const std::string &workload,
            const TraceOptions &opts)
{
    const std::string path = traceBundlePath(workload, opts);
    if (!path.empty()) {
        std::shared_ptr<const MappedTraceBundle> mapped;
        {
            Span s("trace_store.open");
            mapped = MappedTraceBundle::open(path);
            s.count(mapped ? mapped->fileBytes() : 0);
        }
        if (mapped) {
            {
                std::lock_guard<std::mutex> lock(state.mutex);
                state.opened.insert(bundleKey(workload, opts));
            }
            TraceBundle bundle;
            bundle.workload = workload;
            bundle.misp = mapped->misp();
            bundle.pass = mapped->pass();
            bundle.checksum = mapped->archChecksum();
            bundle.mapped = std::move(mapped);
            return bundle;
        }
    }
    TraceBundle bundle = prepareTraced(workload, opts);
    if (!path.empty()) {
        Span s("trace_store.publish");
        s.count(saveTraceBundle(path, bundle));
    }
    return bundle;
}

/** Where one job's result lives in the store ("" = not stored). */
struct StoreSlot
{
    std::string key;
    std::string path;
};

/** The simulate step of a result-cache miss, one span per call. */
CoreStats
simulateTraced(TracedState &state, BundleCache &bundles,
               const SweepJob &job, const StoreSlot &slot)
{
    CoreStats stats;
    if (!slot.path.empty()) {
        Span s("result_store.load");
        const bool hit = loadResult(slot.path, slot.key, stats);
        s.count(hit ? 1 : 0);
        if (hit)
            return stats;
    }
    std::shared_ptr<const TraceBundle> bundle;
    {
        Span s("bundle_cache.get");
        bundle = bundles.get(job.workload, job.trace);
    }
    {
        Span s(coreSpanName(job.cfg.commitMode));
        stats = simulate(job.cfg, *bundle);
        s.count(stats.cycles);
    }
    ++state.simulated;
    {
        std::lock_guard<std::mutex> lock(state.mutex);
        state.used.insert(bundleKey(job.workload, job.trace));
    }
    if (!slot.path.empty()) {
        Span s("result_store.save");
        s.count(saveResult(slot.path, slot.key, stats));
    }
    return stats;
}

/**
 * Fetch the bundles fig11's report reads through the process-wide cache
 * (bundleFor at registry defaults), one span each, just before the
 * report runs: the traced pass then times the store opens the report
 * does inside exp.report in an untraced warm pass, and the report
 * itself finds them in memory.
 */
void
fetchReportBundlesTraced(TracedState &state)
{
    for (const std::string &name : benchutil::selectedWorkloads()) {
        Span s("trace_store.open");
        const BundleCacheStats before = globalBundleCache().stats();
        benchutil::bundleFor(name);
        const BundleCacheStats after = globalBundleCache().stats();
        s.count(after.bytesMapped - before.bytesMapped);
        if (after.diskHits > before.diskHits) {
            std::lock_guard<std::mutex> lock(state.mutex);
            state.opened.insert(bundleKey(name, benchutil::traceOptions()));
        }
    }
}

/**
 * The traced sweep: the untraced sweep's experiments and jobs on the
 * same thread count, with SweepRunner's per-job steps spelled out so
 * each public call gets a span. The ResultCache keeps its in-memory
 * deduplication; the store is read and written here, which is why
 * NOREBA_RESULT_DIR is unset while the workers run.
 */
std::vector<ExperimentRun>
sweepRegistryTraced(const Options &o, TracedState &state,
                    BundleCache &bundles, ResultCache &results,
                    const std::string &resultDir)
{
    std::vector<ExperimentRun> runs;
    const int attempts = 1 + SweepRunner::retriesFromEnv();
    int64_t nextOp = 0;
    for (const ExperimentSpec &spec : bench::experimentRegistry()) {
        ExperimentRun run{&spec, {}, {}};
        {
            Span s("exp.plan");
            run.planned = planFor(spec, o.seed);
        }
        const size_t n = run.planned.size();
        run.results.resize(n);
        std::vector<StoreSlot> slots(n);
        {
            Span s("result_store.key");
            setEnv("NOREBA_RESULT_DIR", resultDir);
            for (size_t i = 0; i < n; ++i) {
                const SweepJob &job = run.planned[i].job;
                if (resultStoreEligible(job.cfg))
                    slots[i] = {
                        resultKey(job.workload, job.cfg, job.trace),
                        resultPath(job.workload, job.cfg, job.trace)};
            }
            ::unsetenv("NOREBA_RESULT_DIR");
        }
        {
            Span dispatch("sweep.dispatch");
            const uint64_t parent = dispatch.id();
            const int64_t firstOp = nextOp;
            parallelFor(n, o.threads, [&](size_t i) {
                Span jobSpan("sweep.job", parent,
                             firstOp + static_cast<int64_t>(i));
                const SweepJob &job = run.planned[i].job;
                SweepResult &r = run.results[i];
                r.job = job;
                for (int attempt = 1;; ++attempt) {
                    try {
                        r.stats = results.get(job, [&] {
                            return simulateTraced(state, bundles, job,
                                                  slots[i]);
                        });
                        return;
                    } catch (const std::exception &e) {
                        if (attempt >= attempts) {
                            r.ok = false;
                            r.failure = {"perfbench.traced", e.what(),
                                         attempt};
                            return;
                        }
                        ++state.retries;
                    }
                }
            });
            nextOp += static_cast<int64_t>(n);
        }
        {
            Span s("exp.report");
            if (spec.name == "fig11_setup_overhead")
                fetchReportBundlesTraced(state);
            report(run);
        }
        runs.push_back(std::move(run));
    }
    return runs;
}

/** Per-mode sums over distinct results, for the design.* metrics. */
JsonValue
designCounters(const std::vector<ExperimentRun> &runs)
{
    struct Sums
    {
        uint64_t cycles = 0, insts = 0, empty = 0, headBranch = 0,
                 headMem = 0, headExec = 0, fence = 0, structural = 0;
    };
    std::map<std::string, Sums> modes;
    std::set<std::string> seen;
    for (const ExperimentRun &run : runs)
        for (const SweepResult &r : run.results) {
            if (!r.ok || !seen.insert(resultKey(r.job.workload, r.job.cfg,
                                                r.job.trace))
                              .second)
                continue;
            Sums &m = modes[modeKey(r.job.cfg.commitMode)];
            const CoreStats &s = r.stats;
            m.cycles += s.cycles;
            m.insts += s.committedInsts;
            m.empty += s.stallEmptyCycles;
            m.headBranch += s.stallHeadBranchCycles;
            m.headMem += s.stallHeadMemCycles;
            m.headExec += s.stallHeadExecCycles;
            m.fence += s.stallFenceCycles;
            m.structural += s.stallStructuralCycles;
        }
    JsonValue out = JsonValue::object();
    for (const auto &[mode, m] : modes) {
        JsonValue v = JsonValue::object();
        v.set("cycles", m.cycles)
            .set("insts", m.insts)
            .set("stall_empty", m.empty)
            .set("stall_head_branch", m.headBranch)
            .set("stall_head_mem", m.headMem)
            .set("stall_head_exec", m.headExec)
            .set("stall_fence", m.fence)
            .set("stall_structural", m.structural);
        out.set(mode, std::move(v));
    }
    return out;
}

ReferenceMap
loadReferences(const std::string &path)
{
    std::ifstream in(path);
    std::stringstream text;
    text << in.rdbuf();
    std::string err;
    JsonValue doc = JsonValue::parse(text.str(), &err);
    fatal_if(!doc.isObject(), "cannot read references %s: %s",
             path.c_str(), err.c_str());
    ReferenceMap refs;
    for (size_t i = 0; i < doc.size(); ++i) {
        const JsonValue &v = doc.at(i);
        refs[doc.keyAt(i)] = {
            std::stoull(v.at(0).asString(), nullptr, 16),
            std::stoull(v.at(1).asString(), nullptr, 16)};
    }
    return refs;
}

/** Run the un-annotated program of every bundle the workload needs. */
void
writeReferences(const Options &o, const std::string &path)
{
    std::vector<BundleSpec> programs;
    std::set<std::string> seen;
    for (const BundleSpec &b : registryBundles(o.seed))
        if (seen.insert(programKey(b.workload, b.opts)).second)
            programs.push_back(b);
    std::vector<Reference> refs(programs.size());
    parallelFor(programs.size(), allCores(), [&](size_t i) {
        Program prog = buildWorkload(programs[i].workload,
                                     programs[i].opts.params);
        Interpreter interp(prog);
        InterpOptions io;
        io.maxDynInsts = programs[i].opts.maxDynInsts;
        io.emitTrace = false;
        refs[i].dynInsts = interp.run(io).dynInsts;
        refs[i].checksum = interp.regChecksum();
    });
    JsonValue doc = JsonValue::object();
    for (size_t i = 0; i < programs.size(); ++i) {
        JsonValue pair = JsonValue::array();
        pair.push(hex(refs[i].dynInsts)).push(hex(refs[i].checksum));
        doc.set(programKey(programs[i].workload, programs[i].opts),
                std::move(pair));
    }
    writeJsonFile(path, doc);
}

/**
 * Load the bundles fig11's report reads through the process-wide cache
 * (registry defaults, seed 42) from @p store, publishing them there
 * first when the store lacks them.
 */
void
loadReportBundles(const std::string &store)
{
    setEnv("NOREBA_TRACE_DIR", store);
    const std::vector<std::string> names = benchutil::selectedWorkloads();
    parallelFor(names.size(), allCores(),
                [&](size_t i) { benchutil::bundleFor(names[i]); });
}

int
runSetup(const Options &o)
{
    Record rec;
    writeReferences(o, o.work + "/reference.json");
    if (o.workload == Workload::ColdSweep)
        loadReportBundles(o.work + "/report_store");
    if (o.workload == Workload::WarmReplay) {
        // Populate the stores the replay passes read: the bundles
        // fig11's report reads, then one cold sweep.
        loadReportBundles(o.work + "/store/traces");
        const ReferenceMap refs = loadReferences(o.work + "/reference.json");
        setEnv("NOREBA_RESULT_DIR", o.work + "/store/results");
        BundleCache bundles;
        ResultCache results;
        std::vector<double> ms;
        Options populate = o;
        populate.threads = allCores();
        for (const ExperimentRun &run :
             sweepRegistry(populate, bundles, results, ms))
            checkJobs(run.planned, run.results, refs, rec);
    }
    rec.write(o.out);
    return 0;
}

/** Open every bundle the sweep published and check it. */
void
checkPublishedBundles(const Options &o, const ReferenceMap &refs,
                      Record &rec)
{
    for (const BundleSpec &b : registryBundles(o.seed)) {
        auto mapped =
            MappedTraceBundle::open(traceBundlePath(b.workload, b.opts));
        rec.op(mapped && bundleMatches(mapped->view(),
                                       mapped->archChecksum(), b, refs),
               strfmt("published bundle %s is missing or differs from "
                      "the reference",
                      bundleKey(b.workload, b.opts).c_str()));
    }
}

/**
 * Re-simulate fig06's 120 jobs from the store's bundles on every core.
 * Gives warm_replay, which simulates nothing in its timed phase, a
 * simulator throughput (kilocycles per process CPU-second), and checks
 * what the store serves: every result must match @p served and the
 * reference.
 * On every core, not one, because one thread's throughput followed the
 * host's contention more closely: over 14 interleaved pairs of checks
 * its coefficient of variation was 0.16, against 0.10 on four threads.
 */
void
verifyFromStore(const Options &o, const ReferenceMap &refs,
                const std::map<std::string, CoreStats> &served, Record &rec)
{
    const std::vector<PlannedJob> jobs = fig06Jobs(o.seed);
    std::map<std::string, std::shared_ptr<TraceBundle>> bundles;
    for (const PlannedJob &p : jobs) {
        const std::string key = bundleKey(p.job.workload, p.job.trace);
        if (bundles.count(key))
            continue;
        auto mapped = MappedTraceBundle::open(
            traceBundlePath(p.job.workload, p.job.trace));
        if (!mapped) {
            rec.op(false, "store lacks bundle " + key);
            return;
        }
        auto bundle = std::make_shared<TraceBundle>();
        bundle->workload = p.job.workload;
        bundle->misp = mapped->misp();
        bundle->pass = mapped->pass();
        bundle->checksum = mapped->archChecksum();
        bundle->mapped = std::move(mapped);
        bundles[key] = std::move(bundle);
    }
    std::vector<SweepResult> results(jobs.size());
    const double cpu0 = processCpuSeconds();
    parallelFor(jobs.size(), allCores(), [&](size_t i) {
        const SweepJob &job = jobs[i].job;
        results[i].job = job;
        results[i].stats = simulate(
            job.cfg, *bundles.at(bundleKey(job.workload, job.trace)));
    });
    const double cpu = processCpuSeconds() - cpu0;
    uint64_t cycles = 0;
    for (const SweepResult &r : results)
        cycles += r.stats.cycles;
    JsonValue rates = JsonValue::array();
    rates.push(static_cast<double>(cycles) / 1e3 / cpu);
    rec.doc.set("sim_rates", std::move(rates));
    for (size_t i = 0; i < jobs.size(); ++i) {
        const SweepJob &job = jobs[i].job;
        auto it = served.find(resultKey(job.workload, job.cfg, job.trace));
        rec.op(it != served.end() &&
                   statsDigest(it->second) == statsDigest(results[i].stats),
               strfmt("%s/%s: the store serves a result that differs from "
                      "a fresh simulation",
                      job.workload.c_str(), job.cfg.name.c_str()));
    }
    checkJobs(jobs, results, refs, rec);
}

/** Append one timed phase's wall and CPU seconds to the record. */
void
recordPhase(Record &rec, int64_t t0, double cpu0)
{
    rec.walls.push_back(seconds(clockNs(CLOCK_MONOTONIC) - t0));
    rec.cpus.push_back(processCpuSeconds() - cpu0);
    rec.doc.set("peak_rss_mb", peakRssMb());
}

/**
 * cold_sweep: one sweep into empty stores. warm_replay: one sweep with
 * fresh caches over the stores the set-up filled; the process starts
 * with an empty process-wide cache, so fig11's report opens its
 * bundles from the store inside the timed phase, as a warm
 * `noreba-bench --run all` does.
 */
void
sweepPass(const Options &o, const ReferenceMap &refs, Record &rec)
{
    const bool cold = o.workload == Workload::ColdSweep;
    const std::string store =
        cold ? o.work + "/store" : o.setupDir + "/store";
    setEnv("NOREBA_TRACE_DIR", store + "/traces");
    setEnv("NOREBA_RESULT_DIR", store + "/results");

    std::vector<ExperimentRun> runs;
    TracedState state;
    BundleCache bundles(
        BundleCache::capacityFromEnv(),
        o.traced ? BundleCache::Builder([&](const std::string &w,
                                            const TraceOptions &opts) {
            return buildTraced(state, w, opts);
        })
                 : BundleCache::Builder(),
        BundleCache::quarantineAfterFromEnv());
    ResultCache results;
    const BundleCacheStats globalB0 = globalBundleCache().stats();
    const SimCacheStats globalR0 = globalResultCache().stats();

    const double cpu0 = processCpuSeconds();
    const int64_t t0 = clockNs(CLOCK_MONOTONIC);
    rec.doc.set("phase_start_s", seconds(t0));
    if (o.traced)
        runs = sweepRegistryTraced(o, state, bundles, results,
                                   store + "/results");
    else
        runs = sweepRegistry(o, bundles, results, rec.opMs);
    recordPhase(rec, t0, cpu0);
    setEnv("NOREBA_RESULT_DIR", store + "/results");

    const BundleCacheStats globalB = globalBundleCache().stats();
    JsonValue caches = JsonValue::object();
    caches.set("bundle", bundleCacheStatsToJson(bundles.stats()))
        .set("result", simCacheStatsToJson(results.stats()))
        .set("global_bundle", cacheDelta(globalB0, globalB))
        .set("global_result",
             cacheDelta(globalR0, globalResultCache().stats()));
    rec.doc.set("caches", std::move(caches));

    std::map<std::string, CoreStats> served;
    uint64_t simCycles = 0;
    const ExperimentRun *fig06 = nullptr;
    for (const ExperimentRun &run : runs) {
        checkJobs(run.planned, run.results, refs, rec);
        for (const SweepResult &r : run.results) {
            const std::string key =
                resultKey(r.job.workload, r.job.cfg, r.job.trace);
            if (r.ok && served.emplace(key, r.stats).second)
                simCycles += r.stats.cycles;
        }
        if (run.spec->name == "fig06_main")
            fig06 = &run;
    }
    fatal_if(!fig06, "the registry has no fig06_main experiment");
    std::vector<CoreStats> fig06Stats;
    for (const SweepResult &r : fig06->results)
        fig06Stats.push_back(r.stats);
    recordGeomeans(fig06->planned, fig06Stats, rec);

    // Simulations run: the result cache's count, or for a traced pass
    // (whose cache never sees the store) the traced ones.
    const uint64_t simulated =
        o.traced ? state.simulated.load() : results.stats().simBuilds;
    if (cold) {
        // Every distinct job simulated exactly once, none from disk.
        rec.op(simulated == served.size() && results.stats().diskHits == 0,
               strfmt("cold pass simulated %llu of %zu distinct jobs",
                      static_cast<unsigned long long>(simulated),
                      served.size()));
        checkPublishedBundles(o, refs, rec);
        JsonValue rates = JsonValue::array();
        rates.push(static_cast<double>(simCycles) / 1e3 / rec.cpus.back());
        rec.doc.set("sim_rates", std::move(rates));
    } else {
        // Nothing may be simulated or prepared: the stores serve all,
        // the report's bundles included.
        const uint64_t built = bundles.stats().builds + globalB.builds -
                               globalB0.builds;
        rec.op(simulated == 0 && built == 0 &&
                   globalB.diskHits > globalB0.diskHits,
               strfmt("warm pass simulated %llu jobs, built %llu bundles "
                      "and opened %llu",
                      static_cast<unsigned long long>(simulated),
                      static_cast<unsigned long long>(built),
                      static_cast<unsigned long long>(globalB.diskHits -
                                                      globalB0.diskHits)));
        if (o.check)
            verifyFromStore(o, refs, served, rec);
    }
    if (o.traced) {
        // The traced callback reads the result store itself: only the
        // calls that reached simulate() were simulations.
        SimCacheStats resultStats = results.stats();
        resultStats.diskHits += resultStats.simBuilds - simulated;
        resultStats.simBuilds = simulated;
        JsonValue counters = JsonValue::object();
        counters.set("design", designCounters(runs))
            .set("retries", state.retries.load())
            .set("bundle_cache", bundleCacheStatsToJson(bundles.stats()))
            .set("result_cache", simCacheStatsToJson(resultStats))
            .set("bundles_opened", static_cast<uint64_t>(state.opened.size()))
            .set("bundles_opened_used",
                 static_cast<uint64_t>(std::count_if(
                     state.opened.begin(), state.opened.end(),
                     [&](const std::string &k) {
                         return state.used.count(k) != 0;
                     })));
        rec.doc.set("counters", std::move(counters));
    }
}

int
runPass(const Options &o)
{
    Record rec;
    const ReferenceMap refs = loadReferences(o.setupDir + "/reference.json");
    // A cold `noreba-bench --run all` at seed 42 holds these in memory
    // from its own sweep; every seed starts from that state.
    if (o.workload == Workload::ColdSweep)
        loadReportBundles(o.setupDir + "/report_store");
    sweepPass(o, refs, rec);
    rec.doc.set("trace_len", TRACE_LEN)
        .set("threads", static_cast<uint64_t>(o.threads))
        .set("store_fs", filesystemType(o.work))
        .set("compiler", PERFBENCH_COMPILER)
        .set("build_type", PERFBENCH_BUILD_TYPE);
    if (o.traced && !SpanLog::instance().write(o.work + "/spans.tsv")) {
        std::fprintf(stderr, "cannot write %s/spans.tsv\n", o.work.c_str());
        return 1;
    }
    rec.write(o.out);
    return 0;
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: noreba-perfbench setup|pass --workload "
                 "cold_sweep|warm_replay --seed N --work DIR "
                 "--out FILE [--setup DIR] [--traced] [--check]\n");
    return 2;
}

bool
parseUint(const char *text, uint64_t &out)
{
    char *end = nullptr;
    errno = 0;
    const unsigned long long v = std::strtoull(text, &end, 10);
    if (errno != 0 || end == text || *end != '\0' || text[0] == '-')
        return false;
    out = v;
    return true;
}

bool
parseArgs(int argc, char **argv, Options &o)
{
    if (argc < 2)
        return false;
    o.mode = argv[1];
    if (o.mode != "setup" && o.mode != "pass")
        return false;
    bool haveSeed = false;
    for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--traced" || arg == "--check") {
            (arg == "--traced" ? o.traced : o.check) = true;
            continue;
        }
        if (i + 1 >= argc)
            return false;
        const char *val = argv[++i];
        uint64_t n = 0;
        if (arg == "--workload")
            o.workloadName = val;
        else if (arg == "--work")
            o.work = val;
        else if (arg == "--setup")
            o.setupDir = val;
        else if (arg == "--out")
            o.out = val;
        else if (arg == "--seed" && parseUint(val, n))
            o.seed = n, haveSeed = true;
        else
            return false;
    }
    if (o.workloadName == "cold_sweep")
        o.workload = Workload::ColdSweep;
    else if (o.workloadName == "warm_replay")
        o.workload = Workload::WarmReplay;
    else
        return false;
    o.threads = timedThreads(o.workload);
    return haveSeed && !o.work.empty() && !o.out.empty() &&
           (o.mode == "setup" || !o.setupDir.empty());
}

} // namespace

} // namespace noreba::perfbench

int
main(int argc, char **argv)
{
    using namespace noreba::perfbench;
    Options o;
    if (!parseArgs(argc, argv, o))
        return usage();
    if (!noreba::ensureDir(o.work)) {
        std::fprintf(stderr, "cannot create %s\n", o.work.c_str());
        return 1;
    }
    ::setenv("NOREBA_TRACE_LEN", std::to_string(TRACE_LEN).c_str(), 1);
    noreba::bench::registerAllExperiments();
    return o.mode == "setup" ? runSetup(o) : runPass(o);
}
