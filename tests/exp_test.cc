/**
 * @file
 * Tests for the declarative experiment layer: plan handle uniqueness,
 * result lookup by (row, series), the registry's ordering and
 * duplicate-name guard, the driver's run/report wiring (including the
 * first-job event capture that replaced the old re-simulation), and
 * the environment knobs shared by every experiment — in particular
 * that an unknown NOREBA_WORKLOADS entry fails fast listing *every*
 * unknown name.
 */

#include <dirent.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/fault.h"
#include "exp/driver.h"
#include "exp/env.h"
#include "exp/experiment.h"
#include "experiments.h"
#include "sim/result_store.h"
#include "sim/runner.h"
#include "sim/sweep.h"
#include "uarch/config.h"

using namespace noreba;
using namespace noreba::bench;

namespace {

constexpr uint64_t TEST_TRACE_LEN = 20000;

SweepJob
testJob(const std::string &workload, CommitMode mode)
{
    CoreConfig cfg = skylakeConfig();
    cfg.commitMode = mode;
    TraceOptions opts;
    opts.maxDynInsts = TEST_TRACE_LEN;
    return SweepJob{workload, cfg, opts};
}

TEST(ExperimentPlan, KeepsSubmissionOrderAndRejectsDuplicateHandles)
{
    ExperimentPlan plan;
    plan.add("mcf", "InO-C", testJob("mcf", CommitMode::InOrder));
    plan.add("mcf", "Noreba", testJob("mcf", CommitMode::Noreba));
    plan.add("CRC32", "InO-C", testJob("CRC32", CommitMode::InOrder));

    ASSERT_EQ(plan.planned().size(), 3u);
    EXPECT_EQ(plan.planned()[0].row, "mcf");
    EXPECT_EQ(plan.planned()[0].series, "InO-C");
    EXPECT_EQ(plan.planned()[2].row, "CRC32");
    EXPECT_EQ(plan.planned()[2].job.workload, "CRC32");

    EXPECT_DEATH(plan.add("mcf", "InO-C",
                          testJob("mcf", CommitMode::InOrder)),
                 "duplicate");
}

TEST(ExperimentResults, LooksUpByHandleAndDiesOnUnknownOnes)
{
    ExperimentPlan plan;
    plan.add("mcf", "InO-C", testJob("mcf", CommitMode::InOrder));
    plan.add("mcf", "Noreba", testJob("mcf", CommitMode::Noreba));

    std::vector<SweepResult> sweep(2);
    sweep[0].job = plan.planned()[0].job;
    sweep[0].stats.cycles = 100;
    sweep[1].job = plan.planned()[1].job;
    sweep[1].stats.cycles = 60;

    ExperimentResults r(plan.planned(), sweep);
    EXPECT_EQ(r.at("mcf", "InO-C").cycles, 100u);
    EXPECT_EQ(r.at("mcf", "Noreba").cycles, 60u);
    EXPECT_EQ(r.jobAt("mcf", "Noreba").cfg.commitMode,
              CommitMode::Noreba);
    EXPECT_TRUE(r.has("mcf", "InO-C"));
    EXPECT_FALSE(r.has("mcf", "SpeculativeFull"));
    EXPECT_EQ(r.raw().size(), 2u);

    EXPECT_DEATH(r.at("mcf", "SpeculativeFull"), "mcf");
    EXPECT_DEATH(r.jobAt("bzip2", "InO-C"), "bzip2");
}

TEST(ExperimentResults, RejectsPlanResultSizeMismatch)
{
    ExperimentPlan plan;
    plan.add("mcf", "InO-C", testJob("mcf", CommitMode::InOrder));
    std::vector<SweepResult> sweep; // empty: one job planned, none run
    EXPECT_DEATH(ExperimentResults(plan.planned(), sweep), "");
}

TEST(ExperimentRegistry, RegistersInOrderAndRejectsDuplicateNames)
{
    // The registry is process-global; use names no real experiment
    // claims. (gtest death tests fork, so the EXPECT_DEATH below does
    // not pollute this process's registry.)
    const size_t before = experimentRegistry().size();

    ExperimentSpec a;
    a.name = "exp_test_alpha";
    a.title = "Alpha";
    registerExperiment(a);
    ExperimentSpec b;
    b.name = "exp_test_beta";
    b.title = "Beta";
    registerExperiment(b);

    ASSERT_EQ(experimentRegistry().size(), before + 2);
    EXPECT_EQ(experimentRegistry()[before].name, "exp_test_alpha");
    EXPECT_EQ(experimentRegistry()[before + 1].name, "exp_test_beta");

    const ExperimentSpec *found = findExperiment("exp_test_beta");
    ASSERT_NE(found, nullptr);
    EXPECT_EQ(found->title, "Beta");
    EXPECT_EQ(findExperiment("exp_test_nope"), nullptr);

    ExperimentSpec dup;
    dup.name = "exp_test_alpha";
    EXPECT_DEATH(registerExperiment(dup), "exp_test_alpha");
}

TEST(Driver, RunExperimentExecutesPlanAndHandsResultsToReport)
{
    setenv("NOREBA_TRACE_LEN", "20000", 1);
    unsetenv("NOREBA_JSON_DIR");
    unsetenv("NOREBA_EVENT_TRACE");

    ExperimentSpec spec;
    spec.name = "exp_test_driver";
    spec.title = "Driver wiring";
    spec.description = "two modes on one workload";
    spec.plan = [](ExperimentPlan &plan) {
        plan.add("CRC32", "InO-C", testJob("CRC32", CommitMode::InOrder));
        plan.add("CRC32", "Noreba", testJob("CRC32", CommitMode::Noreba));
    };
    int reported = 0;
    spec.report = [&](const ExperimentResults &r) {
        ++reported;
        EXPECT_GT(r.at("CRC32", "InO-C").cycles, 0u);
        EXPECT_GT(r.at("CRC32", "Noreba").committedInsts, 0u);
        // Real simulations, not placeholders: Noreba commits OoO.
        EXPECT_GT(r.at("CRC32", "Noreba").committedOoO, 0u);
        EXPECT_EQ(r.at("CRC32", "InO-C").committedOoO, 0u);
    };
    runExperiment(spec);
    EXPECT_EQ(reported, 1);
    unsetenv("NOREBA_TRACE_LEN");
}

TEST(Env, TraceLenDefaultsAndRejectsGarbage)
{
    unsetenv("NOREBA_TRACE_LEN");
    EXPECT_EQ(benchutil::traceLen(), 250000u);
    setenv("NOREBA_TRACE_LEN", "12345", 1);
    EXPECT_EQ(benchutil::traceLen(), 12345u);
    setenv("NOREBA_TRACE_LEN", "lots", 1);
    EXPECT_EXIT(benchutil::traceLen(), ::testing::ExitedWithCode(1), "");
    setenv("NOREBA_TRACE_LEN", "0", 1);
    EXPECT_EXIT(benchutil::traceLen(), ::testing::ExitedWithCode(1), "");
    unsetenv("NOREBA_TRACE_LEN");
}

TEST(Env, SelectedWorkloadsHonoursSubsetAndListsAllUnknownNames)
{
    unsetenv("NOREBA_WORKLOADS");
    const std::vector<std::string> all = benchutil::selectedWorkloads();
    EXPECT_GT(all.size(), 8u);

    setenv("NOREBA_WORKLOADS", "mcf,CRC32", 1);
    const std::vector<std::string> subset =
        benchutil::selectedWorkloads();
    ASSERT_EQ(subset.size(), 2u);
    EXPECT_EQ(subset[0], "mcf");
    EXPECT_EQ(subset[1], "CRC32");

    // Every unknown name appears in one fatal message — a long
    // hand-typed list is fixed in one round trip.
    setenv("NOREBA_WORKLOADS", "mcf,mfc,crc32,CRC32", 1);
    EXPECT_EXIT(benchutil::selectedWorkloads(),
                ::testing::ExitedWithCode(1), "mfc.*crc32");
    unsetenv("NOREBA_WORKLOADS");
}

TEST(Env, JobCarriesTraceLenAndEventTraceKnobs)
{
    setenv("NOREBA_TRACE_LEN", "20000", 1);
    unsetenv("NOREBA_EVENT_TRACE");
    SweepJob off = benchutil::job("CRC32", skylakeConfig());
    EXPECT_EQ(off.workload, "CRC32");
    EXPECT_EQ(off.trace.maxDynInsts, 20000u);
    EXPECT_TRUE(off.trace.annotate);
    EXPECT_FALSE(off.cfg.eventTrace);

    setenv("NOREBA_EVENT_TRACE", "1", 1);
    EXPECT_TRUE(benchutil::job("CRC32", skylakeConfig()).cfg.eventTrace);
    setenv("NOREBA_EVENT_TRACE", "0", 1);
    EXPECT_FALSE(
        benchutil::job("CRC32", skylakeConfig()).cfg.eventTrace);
    unsetenv("NOREBA_EVENT_TRACE");

    SweepJob stripped = benchutil::job("mcf", skylakeConfig(), true, true);
    EXPECT_TRUE(stripped.trace.stripSetups);
    unsetenv("NOREBA_TRACE_LEN");
}

// Driver resilience: resuming from the result store, --keep-going, and
// up-front validation of the output and store directories.

/** mkdtemp'd scratch directory, removed recursively on scope exit. */
struct TempDir
{
    TempDir()
    {
        char tmpl[] = "/tmp/noreba_exp_test_XXXXXX";
        path = mkdtemp(tmpl);
    }

    ~TempDir()
    {
        std::string cmd = "rm -rf '" + path + "'";
        if (std::system(cmd.c_str()) != 0)
            std::fprintf(stderr, "cleanup of %s failed\n", path.c_str());
    }

    std::string path;
};

/** Disarm the fault registry on scope exit, pass or fail. */
struct FaultGuard
{
    ~FaultGuard() { FaultRegistry::instance().disarm(); }
};

std::string
slurp(const std::string &path)
{
    std::ifstream in(path);
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
}

/** Number of published result files (`*.nrs`) in @p dir. */
int
resultFilesIn(const std::string &dir)
{
    int n = 0;
    if (DIR *d = opendir(dir.c_str())) {
        while (dirent *e = readdir(d)) {
            const std::string name = e->d_name;
            if (name.size() > 4 &&
                name.compare(name.size() - 4, 4, ".nrs") == 0)
                ++n;
        }
        closedir(d);
    }
    return n;
}

TEST(Driver, ResumesFromTheResultStoreSimulatingOnlyUnfinishedJobs)
{
    setenv("NOREBA_TRACE_LEN", "20000", 1);
    unsetenv("NOREBA_JSON_DIR");
    unsetenv("NOREBA_EVENT_TRACE");
    TempDir dir;
    setenv("NOREBA_RESULT_DIR", dir.path.c_str(), 1);

    ExperimentSpec spec;
    spec.name = "exp_test_resume";
    spec.title = "Result-store resume";
    spec.description = "one workload, two modes";
    // A trace length of its own keeps other tests' results in this
    // process's memory tier from serving these jobs.
    SweepJob finished = testJob("CRC32", CommitMode::InOrder);
    SweepJob unfinished = testJob("CRC32", CommitMode::Noreba);
    finished.trace.maxDynInsts = unfinished.trace.maxDynInsts =
        TEST_TRACE_LEN + 1;
    spec.plan = [&](ExperimentPlan &plan) {
        plan.add("CRC32", "InO-C", finished);
        plan.add("CRC32", "Noreba", unfinished);
    };

    // A run killed after its first job: that job's result is published,
    // the second never ran. A private result cache stands in for the
    // dead process, so nothing of it survives in this one's memory.
    ResultCache killed;
    const std::vector<SweepResult> before =
        SweepRunner(1, &globalBundleCache(), &killed).run({finished});
    ASSERT_EQ(resultFilesIn(dir.path), 1);

    const SimCacheStats s0 = globalResultCache().stats();
    int reported = 0;
    spec.report = [&](const ExperimentResults &r) {
        ++reported;
        EXPECT_EQ(r.at("CRC32", "InO-C").cycles, before[0].stats.cycles);
        EXPECT_GT(r.at("CRC32", "Noreba").cycles, 0u);
    };
    EXPECT_EQ(runExperiment(spec, RunOptions{}), 0u);
    EXPECT_EQ(reported, 1);
    const SimCacheStats s1 = globalResultCache().stats();
    EXPECT_EQ(s1.diskHits - s0.diskHits, 1u); // the finished job loaded
    EXPECT_EQ(s1.simBuilds - s0.simBuilds, 1u); // only the rest ran
    EXPECT_EQ(resultFilesIn(dir.path), 2);
    unsetenv("NOREBA_RESULT_DIR");
    unsetenv("NOREBA_TRACE_LEN");
}

/** benchMain over @p args, returning its exit code and stderr. */
int
runBenchMain(std::vector<std::string> args, std::string &err)
{
    args.insert(args.begin(), "noreba-bench");
    std::vector<char *> argv;
    for (std::string &a : args)
        argv.push_back(a.data());
    ::testing::internal::CaptureStderr();
    const int rc = benchMain(static_cast<int>(argv.size()), argv.data());
    err = ::testing::internal::GetCapturedStderr();
    return rc;
}

TEST(Driver, StoreDirectoriesAreCreatedAndCheckedUpFront)
{
    TempDir dir;
    const std::string file = dir.path + "/not_a_dir";
    std::ofstream(file) << "x";
    std::string err;

    // A store directory that cannot be created fails before anything
    // runs — even before the experiment names are checked.
    for (const char *var : {"NOREBA_TRACE_DIR", "NOREBA_RESULT_DIR"}) {
        setenv(var, (file + "/store").c_str(), 1);
        EXPECT_EQ(runBenchMain({"--run", "exp_test_no_such"}, err), 2);
        EXPECT_NE(err.find(var), std::string::npos) << err;
        EXPECT_EQ(err.find("unknown experiment"), std::string::npos);
        unsetenv(var);
    }

    // Creatable ones are created (mkdir -p) before the name check.
    setenv("NOREBA_TRACE_DIR", (dir.path + "/a/traces").c_str(), 1);
    setenv("NOREBA_RESULT_DIR", (dir.path + "/b/results").c_str(), 1);
    EXPECT_EQ(runBenchMain({"--run", "exp_test_no_such"}, err), 2);
    EXPECT_NE(err.find("unknown experiment"), std::string::npos) << err;
    struct stat st;
    EXPECT_EQ(::stat((dir.path + "/a/traces").c_str(), &st), 0);
    EXPECT_EQ(::stat((dir.path + "/b/results").c_str(), &st), 0);
    unsetenv("NOREBA_TRACE_DIR");
    unsetenv("NOREBA_RESULT_DIR");

    // The retired journal option is an unknown option now.
    EXPECT_EQ(runBenchMain({"--checkpoint", dir.path, "--run", "all"}, err),
              2);
    EXPECT_NE(err.find("unknown option"), std::string::npos) << err;
}

TEST(Driver, KeepGoingRecordsFailuresAndSkipsReport)
{
    setenv("NOREBA_TRACE_LEN", "20000", 1);
    unsetenv("NOREBA_EVENT_TRACE");
    TempDir dir;
    setenv("NOREBA_JSON_DIR", dir.path.c_str(), 1);
    FaultGuard guard;

    ExperimentSpec spec;
    spec.name = "exp_test_keepgoing";
    spec.title = "Failure isolation";
    spec.description = "every job dies, the run survives";
    spec.plan = [](ExperimentPlan &plan) {
        plan.add("CRC32", "InO-C", testJob("CRC32", CommitMode::InOrder));
        plan.add("CRC32", "Noreba", testJob("CRC32", CommitMode::Noreba));
    };
    int reported = 0;
    spec.report = [&](const ExperimentResults &) { ++reported; };

    FaultRegistry::instance().arm("sweep.job=throw@1x*");
    RunOptions opts;
    opts.keepGoing = true;
    EXPECT_EQ(runExperiment(spec, opts), 2u);
    // Reports divide by failed jobs' zeroed stats; they must not run.
    EXPECT_EQ(reported, 0);

    const std::string json =
        slurp(dir.path + "/BENCH_exp_test_keepgoing.json");
    EXPECT_NE(json.find("\"failures\":"), std::string::npos);
    EXPECT_NE(json.find("\"site\": \"sweep.job\""), std::string::npos);
    EXPECT_NE(json.find("\"failed\": true"), std::string::npos);

    // Without --keep-going the same failure propagates (exit-1 path).
    EXPECT_THROW(runExperiment(spec, RunOptions{}), std::exception);
    unsetenv("NOREBA_JSON_DIR");
    unsetenv("NOREBA_TRACE_LEN");
}

TEST(Registrants, AllFifteenPaperExperimentsRegisterUniquely)
{
    // experimentRegistry() already holds whatever earlier tests added;
    // the real registrants must all be present exactly once after
    // registerAllExperiments() — which benchMain() runs via the bench
    // binary. Here we only check the names the CLI contract promises.
    // (Registration itself is covered by the driver smoke in CI.)
    const char *expected[] = {
        "fig01_motivation",      "tab01_events",
        "tab02_03_configs",      "fig06_main",
        "fig07_critical_branches", "fig08_ooo_fraction",
        "fig09_cq_sweep_perf",   "fig10_cq_sweep_power",
        "fig11_setup_overhead",  "fig12_core_sizes",
        "fig13_prefetching",     "fig14_ecl",
        "fig15_commit_width",    "fig16_power_area",
        "ablation_design",
    };
    registerAllExperiments();
    size_t at = 0;
    for (const ExperimentSpec &spec : experimentRegistry()) {
        if (at < std::size(expected) && spec.name == expected[at])
            ++at;
    }
    EXPECT_EQ(at, std::size(expected))
        << "paper experiments missing or out of order";
    for (const char *name : expected) {
        const ExperimentSpec *spec = findExperiment(name);
        ASSERT_NE(spec, nullptr) << name;
        EXPECT_FALSE(spec->title.empty()) << name;
        EXPECT_FALSE(spec->description.empty()) << name;
    }
}

} // namespace
