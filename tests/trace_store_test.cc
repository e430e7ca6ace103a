/**
 * @file
 * Tests for the on-disk trace-bundle store and the two-tier bundle
 * cache: full serialize/deserialize round-trips, rejection of
 * truncated / bit-flipped / version-mismatched files, atomic publish
 * under concurrent same-key writers, mmap-vs-in-memory replay
 * bit-identity across every commit mode, LRU bounding of the memory
 * tier, and the fail-fast guards on TraceIdx overflow and zero-cycle
 * speedups. The store's failure paths are driven for both codecs by
 * blob_store_test.cc.
 */

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include <dirent.h>
#include <sys/stat.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include "common/error.h"
#include "common/thread_pool.h"
#include "sim/sweep.h"
#include "sim/trace_store.h"

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

/** Every scalar field of CoreStats, for bit-identity comparisons. */
std::vector<uint64_t>
statsFingerprint(const CoreStats &s)
{
    return {s.cycles,         s.committedInsts,  s.committedOoO,
            s.committedAhead, s.fetched,         s.setupFetched,
            s.citDrops,       s.icacheStallCycles, s.branches,
            s.mispredicts,    s.squashes,        s.squashedInsts,
            s.dispatched,     s.issued,          s.windowFullCycles,
            s.commitHeadBranchStall, s.commitHeadLoadStall,
            s.steerStallCycles, s.steerStallTlb, s.steerStallCqt,
            s.steerStallCqFull, s.citFullStalls, s.rfReads,
            s.rfWrites,       s.iqWrites,        s.iqWakeups,
            s.robWrites,      s.robReads,        s.lsqOps,
            s.bpredLookups,   s.icacheAccesses,  s.dcacheAccesses,
            s.l2Accesses,     s.l3Accesses,      s.intAluOps,
            s.fpAluOps,       s.cmplxAluOps,     s.renameOps,
            s.cdbBroadcasts,  s.bitOps,          s.dctOps,
            s.cqtOps,         s.citOps,          s.cqOps};
}

/**
 * A store directory under the build tree (tests must not litter /tmp),
 * exported as NOREBA_TRACE_DIR for the test's duration.
 */
struct TempStoreDir
{
    std::string path;

    TempStoreDir()
    {
        char tmpl[] = "noreba_store_test_XXXXXX";
        char *made = mkdtemp(tmpl);
        EXPECT_NE(made, nullptr);
        path = made ? made : "";
        setenv("NOREBA_TRACE_DIR", path.c_str(), 1);
    }

    ~TempStoreDir()
    {
        unsetenv("NOREBA_TRACE_DIR");
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

bool
recordsEqual(const TraceRecord &a, const TraceRecord &b)
{
    return a.pc == b.pc && a.nextPc == b.nextPc &&
           a.addrOrImm == b.addrOrImm && a.op == b.op &&
           a.memSize == b.memSize && a.taken == b.taken &&
           a.markedBranch == b.markedBranch &&
           a.orderSensitive == b.orderSensitive &&
           a.orderStrict == b.orderStrict && a.rd == b.rd &&
           a.rs1 == b.rs1 && a.rs2 == b.rs2 && a.rs3 == b.rs3 &&
           a.guardIdx == b.guardIdx;
}

TEST(TraceStore, RoundTripsEveryBundleField)
{
    TempStoreDir dir;
    TraceBundle bundle = prepareTrace("CRC32", shortTrace());
    const std::string path = traceBundlePath("CRC32", shortTrace());
    const std::string key = traceKey("CRC32", shortTrace());
    ASSERT_FALSE(path.empty());
    ASSERT_GT(saveTraceBundle(path, key, bundle), 0u);

    auto mapped = MappedTraceBundle::open(path, key);
    ASSERT_NE(mapped, nullptr);
    EXPECT_EQ(mapped->key(), key);
    EXPECT_EQ(mapped->archChecksum(), bundle.checksum);

    TraceView disk = mapped->view();
    TraceView mem = bundle.view();
    ASSERT_EQ(disk.size(), mem.size());
    EXPECT_EQ(disk.name(), mem.name());
    for (size_t i = 0; i < mem.size(); ++i)
        ASSERT_TRUE(recordsEqual(disk[i], mem[i])) << "record " << i;

    const TraceSummary &ds = disk.summary();
    const TraceSummary &ms = mem.summary();
    EXPECT_EQ(ds.dynInsts, ms.dynInsts);
    EXPECT_EQ(ds.setupInsts, ms.setupInsts);
    EXPECT_EQ(ds.branches, ms.branches);
    EXPECT_EQ(ds.takenBranches, ms.takenBranches);
    EXPECT_EQ(ds.loads, ms.loads);
    EXPECT_EQ(ds.stores, ms.stores);
    EXPECT_EQ(ds.truncated, ms.truncated);

    EXPECT_EQ(mapped->misp(), bundle.misp);

    const PassResult &dp = mapped->pass();
    const PassResult &mp = bundle.pass;
    EXPECT_EQ(dp.numMarkedBranches, mp.numMarkedBranches);
    EXPECT_EQ(dp.numRegions, mp.numRegions);
    EXPECT_EQ(dp.numSetupInsts, mp.numSetupInsts);
    EXPECT_EQ(dp.instsBefore, mp.instsBefore);
    EXPECT_EQ(dp.instsAfter, mp.instsAfter);
    EXPECT_EQ(dp.numChainMerges, mp.numChainMerges);
    EXPECT_EQ(dp.numStrictRegions, mp.numStrictRegions);
    EXPECT_EQ(dp.guardOfInst, mp.guardOfInst);
    ASSERT_EQ(dp.branches.size(), mp.branches.size());
    for (size_t i = 0; i < mp.branches.size(); ++i) {
        const BranchSite &a = dp.branches[i];
        const BranchSite &b = mp.branches[i];
        EXPECT_EQ(a.bb, b.bb);
        EXPECT_EQ(a.instIdx, b.instIdx);
        EXPECT_EQ(a.globalIdx, b.globalIdx);
        EXPECT_EQ(a.compilerId, b.compilerId);
        EXPECT_EQ(a.reconvBlock, b.reconvBlock);
        EXPECT_EQ(a.guard, b.guard);
        EXPECT_EQ(a.numControlDeps, b.numControlDeps);
        EXPECT_EQ(a.numDataDeps, b.numDataDeps);
        EXPECT_EQ(a.controlBlocks, b.controlBlocks);
    }
}

TEST(TraceStore, UnkeyedBundlesAreServedByNameAlone)
{
    // The two-argument saveTraceBundle cannot know the options the
    // bundle was prepared with; its files carry no key and a keyed open
    // serves them by file name, as every bundle was served before keys.
    TempStoreDir dir;
    TraceOptions opts = shortTrace();
    opts.maxDynInsts = 2000;
    const TraceBundle bundle = prepareTrace("CRC32", opts);
    const std::string path = traceBundlePath("CRC32", opts);
    ASSERT_GT(saveTraceBundle(path, bundle), 0u);
    auto mapped = MappedTraceBundle::open(path, traceKey("CRC32", opts));
    ASSERT_NE(mapped, nullptr);
    EXPECT_TRUE(mapped->key().empty());
    EXPECT_EQ(mapped->archChecksum(), bundle.checksum);
}

TEST(TraceStore, RejectsTruncatedBitFlippedAndVersionMismatchedFiles)
{
    TempStoreDir dir;
    TraceBundle bundle = prepareTrace("CRC32", shortTrace());
    const std::string path = traceBundlePath("CRC32", shortTrace());
    ASSERT_GT(saveTraceBundle(path, bundle), 0u);
    const std::vector<uint8_t> good = readFile(path);
    ASSERT_NE(MappedTraceBundle::open(path), nullptr);

    // Truncated: the trailing bytes are gone.
    std::vector<uint8_t> bad(good.begin(), good.end() - 7);
    writeFile(path, bad);
    EXPECT_EQ(MappedTraceBundle::open(path), nullptr);

    // Truncated below even the header.
    bad.assign(good.begin(), good.begin() + 16);
    writeFile(path, bad);
    EXPECT_EQ(MappedTraceBundle::open(path), nullptr);

    // A single flipped payload bit must fail the checksum.
    bad = good;
    bad[good.size() / 2] ^= 0x10;
    writeFile(path, bad);
    EXPECT_EQ(MappedTraceBundle::open(path), nullptr);

    // A version bump (byte 8, right after the magic) must be rejected,
    // not half-read with the old layout.
    bad = good;
    bad[8] ^= 0xff;
    writeFile(path, bad);
    EXPECT_EQ(MappedTraceBundle::open(path), nullptr);

    // Pristine bytes restore a loadable bundle.
    writeFile(path, good);
    EXPECT_NE(MappedTraceBundle::open(path), nullptr);
}

TEST(TraceStore, ConcurrentSameKeyWritersPublishAtomically)
{
    TempStoreDir dir;
    TraceBundle bundle = prepareTrace("CRC32", shortTrace());
    const std::string path = traceBundlePath("CRC32", shortTrace());

    // Many writers race on one key; readers poll throughout. A reader
    // must only ever observe "no file yet" or a fully valid bundle.
    std::atomic<bool> sawInvalid{false};
    std::atomic<int> published{0};
    ThreadPool pool(8);
    for (int i = 0; i < 8; ++i) {
        pool.submit([&] {
            if (saveTraceBundle(path, bundle) > 0)
                ++published;
            struct stat st;
            if (::stat(path.c_str(), &st) == 0 &&
                MappedTraceBundle::open(path) == nullptr)
                sawInvalid = true;
        });
    }
    pool.wait();
    EXPECT_FALSE(sawInvalid.load());
    EXPECT_EQ(published.load(), 8);
    auto mapped = MappedTraceBundle::open(path);
    ASSERT_NE(mapped, nullptr);
    EXPECT_EQ(mapped->view().size(), bundle.view().size());

    // No temp files left behind by the racing writers.
    int leftover = 0;
    if (DIR *d = opendir(dir.path.c_str())) {
        while (dirent *e = readdir(d))
            if (std::strstr(e->d_name, ".tmp."))
                ++leftover;
        closedir(d);
    }
    EXPECT_EQ(leftover, 0);
}

TEST(TraceStore, MmapReplayBitIdenticalForEveryCommitMode)
{
    const CommitMode modes[] = {
        CommitMode::InOrder,       CommitMode::NonSpecOoO,
        CommitMode::Noreba,        CommitMode::IdealReconv,
        CommitMode::SpeculativeBR, CommitMode::SpeculativeFull,
        CommitMode::ValidationBuffer,
    };
    std::vector<SweepJob> jobs;
    for (CommitMode mode : modes) {
        CoreConfig cfg = skylakeConfig();
        cfg.commitMode = mode;
        jobs.push_back(SweepJob{"CRC32", cfg, shortTrace()});
    }

    // Reference: in-memory replay with the store disabled.
    unsetenv("NOREBA_TRACE_DIR");
    BundleCache memCache;
    auto memResults = SweepRunner(2, &memCache).run(jobs);
    EXPECT_EQ(memCache.stats().diskHits, 0u);

    TempStoreDir dir;

    // Cold: builds and publishes the bundle.
    BundleCache coldCache;
    auto coldResults = SweepRunner(2, &coldCache).run(jobs);
    BundleCacheStats cold = coldCache.stats();
    EXPECT_EQ(cold.builds, 1u);
    EXPECT_EQ(cold.diskHits, 0u);
    EXPECT_GT(cold.bytesWritten, 0u);

    // Warm: a fresh cache (standing in for a new process) mmaps it.
    BundleCache warmCache;
    auto warmResults = SweepRunner(2, &warmCache).run(jobs);
    BundleCacheStats warm = warmCache.stats();
    EXPECT_EQ(warm.builds, 0u);
    EXPECT_EQ(warm.diskHits, 1u);
    EXPECT_GT(warm.bytesMapped, 0u);

    ASSERT_EQ(memResults.size(), jobs.size());
    ASSERT_EQ(coldResults.size(), jobs.size());
    ASSERT_EQ(warmResults.size(), jobs.size());
    for (size_t i = 0; i < jobs.size(); ++i) {
        EXPECT_EQ(statsFingerprint(memResults[i].stats),
                  statsFingerprint(coldResults[i].stats))
            << commitModeName(jobs[i].cfg.commitMode) << " (cold)";
        EXPECT_EQ(statsFingerprint(memResults[i].stats),
                  statsFingerprint(warmResults[i].stats))
            << commitModeName(jobs[i].cfg.commitMode) << " (mmap)";
    }
}

TEST(TraceStore, StrippedBundlesRoundTripThroughTheStore)
{
    TempStoreDir dir;
    TraceOptions stripped = shortTrace();
    stripped.stripSetups = true;

    BundleCache coldCache;
    auto cold = coldCache.get("mcf", stripped);
    BundleCache warmCache;
    auto warm = warmCache.get("mcf", stripped);
    EXPECT_EQ(warmCache.stats().diskHits, 1u);

    TraceView a = cold->view(), b = warm->view();
    ASSERT_EQ(a.size(), b.size());
    EXPECT_EQ(a.summary().setupInsts, 0u);
    EXPECT_EQ(b.summary().setupInsts, 0u);
    for (size_t i = 0; i < a.size(); ++i)
        ASSERT_TRUE(recordsEqual(a[i], b[i])) << "record " << i;
}

TEST(BundleCache, LruTierEvictsButSharedOwnersKeepBundlesAlive)
{
    TraceOptions tiny;
    tiny.maxDynInsts = 2000;
    BundleCache cache(1);
    auto first = cache.get("CRC32", tiny);
    auto second = cache.get("mcf", tiny);
    EXPECT_LE(cache.size(), 1u);
    EXPECT_GE(cache.stats().evictions, 1u);
    // The evicted bundle is still fully usable through its shared_ptr.
    EXPECT_GT(first->view().size(), 0u);
    EXPECT_GT(second->view().size(), 0u);

    // Re-requesting the evicted key rebuilds rather than crashing.
    auto again = cache.get("CRC32", tiny);
    EXPECT_EQ(again->view().size(), first->view().size());
}

TEST(BundleCache, CapacityFromEnvRejectsGarbage)
{
    ASSERT_EQ(setenv("NOREBA_BUNDLE_CACHE_CAP", "many", 1), 0);
    EXPECT_EXIT(BundleCache::capacityFromEnv(),
                ::testing::ExitedWithCode(1), "not a non-negative");
    ASSERT_EQ(setenv("NOREBA_BUNDLE_CACHE_CAP", "4", 1), 0);
    EXPECT_EQ(BundleCache::capacityFromEnv(), 4u);
    ASSERT_EQ(unsetenv("NOREBA_BUNDLE_CACHE_CAP"), 0);
}

// Satellite guards: overlong traces and zero-cycle speedups fail fast
// instead of silently corrupting TraceIdx arithmetic or geomeans.

TEST(TraceLimits, InterpreterThrowsSimErrorBeyondTraceIdxRange)
{
    TraceOptions opts;
    opts.maxDynInsts = MAX_TRACE_RECORDS + 1;
    // Thrown (not fatal()): an overlong workload must fail its own
    // sweep job, not the whole bench process (DESIGN.md §14).
    try {
        prepareTrace("CRC32", opts);
        FAIL() << "expected SimError";
    } catch (const SimError &e) {
        EXPECT_EQ(e.site(), "interp.trace_limit");
        EXPECT_NE(std::string(e.what()).find("TraceIdx limit"),
                  std::string::npos);
    }
}

TEST(TraceLimits, SpeedupPanicsOnZeroCycleRuns)
{
    CoreStats baseline, candidate;
    baseline.cycles = 100;
    candidate.cycles = 0;
    EXPECT_DEATH(speedup(baseline, candidate), "zero-cycle");
    EXPECT_DEATH(speedup(candidate, baseline), "zero-cycle");
}

} // namespace
