/**
 * @file
 * Tests for the canonical CoreConfig serialization (the X-macro field
 * table in uarch/config.h) and the content-addressed simulation-result
 * store: per-field round-trips and fingerprint sensitivity, strict
 * deserialization, key coverage of every simulation-shaping knob,
 * save/load round-trips including branch-stall attribution, rejection
 * of truncated / bit-flipped / version-mismatched / wrong-key files,
 * and the in-process ResultCache + SweepRunner integration that the
 * warm `noreba-bench --run all` acceptance check rests on.
 */

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include <dirent.h>
#include <sys/stat.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include "common/error.h"
#include "sim/result_store.h"
#include "sim/sweep.h"
#include "uarch/config.h"
#include "uarch/stats.h"

using namespace noreba;

namespace {

constexpr uint64_t TEST_TRACE_LEN = 20000;

TraceOptions
shortTrace()
{
    TraceOptions opts;
    opts.maxDynInsts = TEST_TRACE_LEN;
    return opts;
}

/**
 * A result-store directory under the build tree, exported as
 * NOREBA_RESULT_DIR for the test's duration.
 */
struct TempResultDir
{
    std::string path;

    TempResultDir()
    {
        char tmpl[] = "noreba_result_test_XXXXXX";
        char *made = mkdtemp(tmpl);
        EXPECT_NE(made, nullptr);
        path = made ? made : "";
        setenv("NOREBA_RESULT_DIR", path.c_str(), 1);
    }

    ~TempResultDir()
    {
        unsetenv("NOREBA_RESULT_DIR");
        if (path.empty())
            return;
        if (DIR *d = opendir(path.c_str())) {
            while (dirent *e = readdir(d)) {
                std::string name = e->d_name;
                if (name != "." && name != "..")
                    unlink((path + "/" + name).c_str());
            }
            closedir(d);
        }
        rmdir(path.c_str());
    }
};

std::vector<uint8_t>
readFile(const std::string &path)
{
    std::vector<uint8_t> bytes;
    FILE *f = std::fopen(path.c_str(), "rb");
    EXPECT_NE(f, nullptr);
    if (!f)
        return bytes;
    std::fseek(f, 0, SEEK_END);
    bytes.resize(static_cast<size_t>(std::ftell(f)));
    std::fseek(f, 0, SEEK_SET);
    EXPECT_EQ(std::fread(bytes.data(), 1, bytes.size(), f), bytes.size());
    std::fclose(f);
    return bytes;
}

void
writeFile(const std::string &path, const std::vector<uint8_t> &bytes)
{
    FILE *f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f),
              bytes.size());
    std::fclose(f);
}

/** Mutate one field through its table entry; returns a description. */
std::string
mutateField(const ConfigFieldRef &ref)
{
    switch (ref.kind) {
    case ConfigFieldRef::Kind::Str:
        *ref.str += "-mutated";
        return "string";
    case ConfigFieldRef::Kind::Int:
        *ref.i += 1;
        return "int";
    case ConfigFieldRef::Kind::Bool:
        *ref.b = !*ref.b;
        return "bool";
    case ConfigFieldRef::Kind::U64:
        *ref.u += 1;
        return "u64";
    case ConfigFieldRef::Kind::Mode:
        *ref.mode = *ref.mode == CommitMode::InOrder
                        ? CommitMode::Noreba
                        : CommitMode::InOrder;
        return "mode";
    }
    return "?";
}

bool
configsEqual(const CoreConfig &a, const CoreConfig &b)
{
    return serializeConfig(a) == serializeConfig(b);
}

/** A synthetic CoreStats with every counter distinct and non-zero. */
CoreStats
syntheticStats()
{
    CoreStats stats;
    uint64_t next = 1;
    for (const CoreStatsField &f : CORE_STATS_FIELDS)
        if (f.counter)
            stats.*(f.counter) = next++ * 7919;
    stats.branchStalls[0x400100] = BranchStall{123, 45, 6};
    stats.branchStalls[0x400200] = BranchStall{7, 8, 9};
    return stats;
}

bool
statsEqual(const CoreStats &a, const CoreStats &b)
{
    for (const CoreStatsField &f : CORE_STATS_FIELDS)
        if (f.counter && a.*(f.counter) != b.*(f.counter))
            return false;
    if (a.branchStalls.size() != b.branchStalls.size())
        return false;
    for (const auto &kv : a.branchStalls) {
        auto it = b.branchStalls.find(kv.first);
        if (it == b.branchStalls.end() ||
            it->second.stallCycles != kv.second.stallCycles ||
            it->second.instances != kv.second.instances ||
            it->second.dependents != kv.second.dependents)
            return false;
    }
    return true;
}

TEST(ConfigSerialization, RoundTripsEveryFactoryAndCommitMode)
{
    const CommitMode modes[] = {
        CommitMode::InOrder,       CommitMode::NonSpecOoO,
        CommitMode::Noreba,        CommitMode::IdealReconv,
        CommitMode::SpeculativeBR, CommitMode::SpeculativeFull,
        CommitMode::ValidationBuffer,
    };
    CoreConfig factories[] = {skylakeConfig(), haswellConfig(),
                              nehalemConfig()};
    for (CoreConfig &base : factories) {
        for (CommitMode mode : modes) {
            CoreConfig cfg = base;
            cfg.commitMode = mode;
            const std::string text = serializeConfig(cfg);
            CoreConfig parsed;
            ASSERT_TRUE(deserializeConfig(text, parsed)) << text;
            EXPECT_TRUE(configsEqual(cfg, parsed))
                << cfg.name << "/" << commitModeName(mode);
            EXPECT_EQ(configFingerprint(cfg), configFingerprint(parsed));
        }
    }
}

TEST(ConfigSerialization, EveryTableFieldAppearsExactlyOnce)
{
    CoreConfig cfg = skylakeConfig();
    const std::string text = serializeConfig(cfg);
    for (const ConfigFieldRef &ref : configFieldRefs(cfg)) {
        const std::string line = std::string(ref.name) + "=";
        size_t first = text.find(line);
        ASSERT_NE(first, std::string::npos) << ref.name;
        // Anchored at the start of a line.
        EXPECT_TRUE(first == 0 || text[first - 1] == '\n') << ref.name;
    }
    // Line count matches the table size — nothing extra, nothing
    // repeated.
    size_t lines = 0;
    for (char c : text)
        lines += c == '\n';
    EXPECT_EQ(lines, configFieldRefs(cfg).size());
}

TEST(ConfigSerialization, MutatingAnyFieldChangesTheFingerprint)
{
    CoreConfig base = skylakeConfig();
    const uint64_t baseFp = configFingerprint(base);
    const size_t numFields = configFieldRefs(base).size();
    ASSERT_GT(numFields, 50u);

    for (size_t i = 0; i < numFields; ++i) {
        CoreConfig cfg = skylakeConfig();
        auto refs = configFieldRefs(cfg);
        const std::string kind = mutateField(refs[i]);
        EXPECT_NE(configFingerprint(cfg), baseFp)
            << refs[i].name << " (" << kind
            << ") not covered by the fingerprint";

        // And the mutated config still round-trips.
        CoreConfig parsed;
        ASSERT_TRUE(deserializeConfig(serializeConfig(cfg), parsed))
            << refs[i].name;
        EXPECT_TRUE(configsEqual(cfg, parsed)) << refs[i].name;
    }
}

TEST(ConfigSerialization, DeserializeIsStrict)
{
    CoreConfig cfg = skylakeConfig();
    const std::string good = serializeConfig(cfg);
    CoreConfig out;
    ASSERT_TRUE(deserializeConfig(good, out));

    // A missing field (drop the first line).
    std::string bad = good.substr(good.find('\n') + 1);
    EXPECT_FALSE(deserializeConfig(bad, out));

    // A duplicated field.
    bad = good + good.substr(0, good.find('\n') + 1);
    EXPECT_FALSE(deserializeConfig(bad, out));

    // An unknown field.
    bad = good + "noSuchKnob=1\n";
    EXPECT_FALSE(deserializeConfig(bad, out));

    // A garbage integer value.
    bad = good;
    size_t pos = bad.find("fetchWidth=");
    ASSERT_NE(pos, std::string::npos);
    bad.replace(pos, bad.find('\n', pos) - pos, "fetchWidth=wide");
    EXPECT_FALSE(deserializeConfig(bad, out));

    // An unknown commit-mode name.
    bad = good;
    pos = bad.find("commitMode=");
    ASSERT_NE(pos, std::string::npos);
    bad.replace(pos, bad.find('\n', pos) - pos, "commitMode=Turbo");
    EXPECT_FALSE(deserializeConfig(bad, out));
}

TEST(ConfigSerialization, CommitModeNamesRoundTrip)
{
    const CommitMode modes[] = {
        CommitMode::InOrder,       CommitMode::NonSpecOoO,
        CommitMode::Noreba,        CommitMode::IdealReconv,
        CommitMode::SpeculativeBR, CommitMode::SpeculativeFull,
        CommitMode::ValidationBuffer,
    };
    for (CommitMode mode : modes) {
        CommitMode parsed;
        ASSERT_TRUE(commitModeFromName(commitModeName(mode), parsed));
        EXPECT_EQ(parsed, mode);
    }
    CommitMode parsed;
    EXPECT_FALSE(commitModeFromName("NotACommitMode", parsed));
}

TEST(ResultStore, KeyCoversEverySimulationShapingKnob)
{
    CoreConfig cfg = skylakeConfig();
    const TraceOptions opts = shortTrace();
    const std::string base = resultKey("CRC32", cfg, opts);

    EXPECT_NE(resultKey("mcf", cfg, opts), base);

    CoreConfig widened = cfg;
    widened.commitWidth += 1;
    EXPECT_NE(resultKey("CRC32", widened, opts), base);

    TraceOptions longer = opts;
    longer.maxDynInsts += 1;
    EXPECT_NE(resultKey("CRC32", cfg, longer), base);

    TraceOptions plain = opts;
    plain.annotate = false;
    EXPECT_NE(resultKey("CRC32", cfg, plain), base);

    TraceOptions stripped = opts;
    stripped.stripSetups = true;
    EXPECT_NE(resultKey("CRC32", cfg, stripped), base);

    // The full canonical config serialization is embedded in the key,
    // so every table field is covered by construction.
    EXPECT_NE(base.find(serializeConfig(cfg)), std::string::npos);
}

TEST(ResultStore, PathIsEmptyWhenTheStoreIsDisabled)
{
    unsetenv("NOREBA_RESULT_DIR");
    EXPECT_TRUE(resultBlobStore().dir().empty());
    EXPECT_TRUE(
        resultPath("CRC32", skylakeConfig(), shortTrace()).empty());

    TempResultDir dir;
    EXPECT_EQ(resultBlobStore().dir(), dir.path);
    EXPECT_FALSE(
        resultPath("CRC32", skylakeConfig(), shortTrace()).empty());
}

TEST(ResultStore, EligibilityExcludesVerificationAndEventTraceRuns)
{
    CoreConfig cfg = skylakeConfig();
    EXPECT_TRUE(resultStoreEligible(cfg));

    CoreConfig stalls = cfg;
    stalls.attributeStalls = true;
    EXPECT_TRUE(resultStoreEligible(stalls));

    CoreConfig events = cfg;
    events.eventTrace = true;
    EXPECT_FALSE(resultStoreEligible(events));

    CoreConfig scheduler = cfg;
    scheduler.shadowSchedulerCheck = true;
    EXPECT_FALSE(resultStoreEligible(scheduler));

    CoreConfig shadow = cfg;
    shadow.shadowIndexCheck = true;
    EXPECT_FALSE(resultStoreEligible(shadow));
}

TEST(ResultStore, RoundTripsEveryCounterAndBranchStalls)
{
    TempResultDir dir;
    CoreConfig cfg = skylakeConfig();
    cfg.attributeStalls = true;
    const std::string key = resultKey("CRC32", cfg, shortTrace());
    const std::string path = resultPath("CRC32", cfg, shortTrace());
    ASSERT_FALSE(path.empty());

    const CoreStats written = syntheticStats();
    ASSERT_GT(saveResult(path, key, written), 0u);

    CoreStats loaded;
    ASSERT_TRUE(loadResult(path, key, loaded));
    EXPECT_TRUE(statsEqual(written, loaded));

    // The wrong key text must miss even at the right path — this is
    // the hash-collision guard.
    CoreStats miss;
    EXPECT_FALSE(
        loadResult(path, resultKey("mcf", cfg, shortTrace()), miss));
}

TEST(ResultStore, RejectsTruncatedBitFlippedAndVersionMismatchedFiles)
{
    TempResultDir dir;
    CoreConfig cfg = skylakeConfig();
    const std::string key = resultKey("CRC32", cfg, shortTrace());
    const std::string path = resultPath("CRC32", cfg, shortTrace());
    ASSERT_GT(saveResult(path, key, syntheticStats()), 0u);

    const std::vector<uint8_t> good = readFile(path);
    CoreStats out;
    ASSERT_TRUE(loadResult(path, key, out));

    // Truncated: the trailing bytes are gone.
    std::vector<uint8_t> bad(good.begin(), good.end() - 5);
    writeFile(path, bad);
    EXPECT_FALSE(loadResult(path, key, out));

    // Truncated below even the header.
    bad.assign(good.begin(), good.begin() + 16);
    writeFile(path, bad);
    EXPECT_FALSE(loadResult(path, key, out));

    // A single flipped payload bit must fail the checksum.
    bad = good;
    bad[good.size() - 3] ^= 0x08;
    writeFile(path, bad);
    EXPECT_FALSE(loadResult(path, key, out));

    // A format-version bump (byte 8, right after the magic) must be
    // rejected, not half-read with the old layout.
    bad = good;
    bad[8] ^= 0xff;
    writeFile(path, bad);
    EXPECT_FALSE(loadResult(path, key, out));

    // A missing file is a miss, not a crash.
    EXPECT_FALSE(loadResult(path + ".nope", key, out));

    // Pristine bytes restore a loadable result.
    writeFile(path, good);
    EXPECT_TRUE(loadResult(path, key, out));
}

TEST(ResultCache, DedupsInProcessAndCountsMemoryHits)
{
    unsetenv("NOREBA_RESULT_DIR");
    ResultCache cache;
    SweepJob job{"CRC32", skylakeConfig(), shortTrace()};

    int simulations = 0;
    auto sim = [&] {
        ++simulations;
        CoreStats s;
        s.cycles = 42;
        s.committedInsts = 21;
        return s;
    };

    CoreStats first = cache.get(job, sim);
    CoreStats second = cache.get(job, sim);
    EXPECT_EQ(simulations, 1);
    EXPECT_EQ(first.cycles, 42u);
    EXPECT_EQ(second.cycles, 42u);
    EXPECT_EQ(cache.size(), 1u);

    SimCacheStats stats = cache.stats();
    EXPECT_EQ(stats.simBuilds, 1u);
    EXPECT_EQ(stats.memHits, 1u);
    EXPECT_EQ(stats.diskHits, 0u);
    EXPECT_EQ(stats.stored, 0u); // store disabled

    // A different config is a different entry.
    SweepJob other = job;
    other.cfg.commitMode = CommitMode::Noreba;
    cache.get(other, sim);
    EXPECT_EQ(simulations, 2);
    EXPECT_EQ(cache.size(), 2u);
}

TEST(ResultCache, ServesDiskHitsAcrossCacheInstances)
{
    TempResultDir dir;
    SweepJob job{"CRC32", skylakeConfig(), shortTrace()};

    int simulations = 0;
    auto sim = [&] {
        ++simulations;
        return syntheticStats();
    };

    ResultCache cold;
    CoreStats built = cold.get(job, sim);
    EXPECT_EQ(simulations, 1);
    SimCacheStats coldStats = cold.stats();
    EXPECT_EQ(coldStats.simBuilds, 1u);
    EXPECT_EQ(coldStats.stored, 1u);
    EXPECT_GT(coldStats.bytesWritten, 0u);

    // A fresh cache (standing in for a new process) replays from disk
    // without invoking the simulation at all.
    ResultCache warm;
    CoreStats replayed = warm.get(job, sim);
    EXPECT_EQ(simulations, 1);
    SimCacheStats warmStats = warm.stats();
    EXPECT_EQ(warmStats.simBuilds, 0u);
    EXPECT_EQ(warmStats.diskHits, 1u);
    EXPECT_TRUE(statsEqual(built, replayed));

    // Ineligible configs bypass the disk store entirely.
    SweepJob traced = job;
    traced.cfg.eventTrace = true;
    ResultCache bypass;
    bypass.get(traced, sim);
    EXPECT_EQ(simulations, 2);
    ResultCache bypass2;
    bypass2.get(traced, sim);
    EXPECT_EQ(simulations, 3);
    EXPECT_EQ(bypass2.stats().diskHits, 0u);
}

TEST(ResultCache, SimulationFailuresAreNotCached)
{
    unsetenv("NOREBA_RESULT_DIR");
    ResultCache cache;
    SweepJob job{"CRC32", skylakeConfig(), shortTrace()};

    int attempts = 0;
    EXPECT_THROW(cache.get(job,
                           [&]() -> CoreStats {
                               ++attempts;
                               throw std::runtime_error("boom");
                           }),
                 std::runtime_error);

    // The failed entry was removed; a retry simulates again and
    // succeeds.
    CoreStats ok = cache.get(job, [&] {
        ++attempts;
        CoreStats s;
        s.cycles = 7;
        return s;
    });
    EXPECT_EQ(attempts, 2);
    EXPECT_EQ(ok.cycles, 7u);
}

TEST(SweepRunner, WarmRunReplaysBitIdenticalResultsWithoutSimulating)
{
    TempResultDir dir;
    const CommitMode modes[] = {CommitMode::InOrder, CommitMode::Noreba,
                                CommitMode::NonSpecOoO};
    std::vector<SweepJob> jobs;
    for (CommitMode mode : modes) {
        CoreConfig cfg = skylakeConfig();
        cfg.commitMode = mode;
        jobs.push_back(SweepJob{"CRC32", cfg, shortTrace()});
    }
    // Duplicate the first job: in-process dedup must simulate it once.
    jobs.push_back(jobs.front());

    BundleCache coldBundles;
    ResultCache cold;
    auto coldResults = SweepRunner(2, &coldBundles, &cold).run(jobs);
    SimCacheStats coldStats = cold.stats();
    EXPECT_EQ(coldStats.simBuilds, 3u);
    EXPECT_EQ(coldStats.memHits + coldStats.sharedSims, 1u);
    EXPECT_EQ(coldStats.stored, 3u);

    BundleCache warmBundles;
    ResultCache warm;
    auto warmResults = SweepRunner(2, &warmBundles, &warm).run(jobs);
    SimCacheStats warmStats = warm.stats();
    EXPECT_EQ(warmStats.simBuilds, 0u);
    EXPECT_EQ(warmStats.diskHits, 3u);

    // Disk hits never materialize a trace bundle.
    EXPECT_EQ(warmBundles.stats().builds, 0u);
    EXPECT_EQ(warmBundles.stats().diskHits, 0u);

    ASSERT_EQ(coldResults.size(), jobs.size());
    ASSERT_EQ(warmResults.size(), jobs.size());
    for (size_t i = 0; i < jobs.size(); ++i) {
        EXPECT_TRUE(statsEqual(coldResults[i].stats,
                               warmResults[i].stats))
            << commitModeName(jobs[i].cfg.commitMode);
        EXPECT_EQ(warmResults[i].job.workload, jobs[i].workload);
    }
}

TEST(SweepRunner, CustomBundleCacheAloneDisablesResultCaching)
{
    TempResultDir dir;
    CoreConfig cfg = skylakeConfig();
    std::vector<SweepJob> jobs{SweepJob{"CRC32", cfg, shortTrace()}};

    // A synthetic/custom BundleCache without an explicit ResultCache
    // must not publish to (or read from) the global result store.
    BundleCache own;
    SweepRunner(1, &own).run(jobs);

    int files = 0;
    if (DIR *d = opendir(dir.path.c_str())) {
        while (dirent *e = readdir(d)) {
            std::string name = e->d_name;
            if (name != "." && name != "..")
                ++files;
        }
        closedir(d);
    }
    EXPECT_EQ(files, 0);
}

} // namespace
