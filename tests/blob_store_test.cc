/**
 * @file
 * One parameterized suite over the common blob store (sim/blob_store.h),
 * run once per payload codec: the trace-bundle store and the result
 * store. Each case checks that a failed publish or an unreadable,
 * corrupt, stale or foreign file is a clean cache miss — never a torn
 * file, a leftover temp file, a crash or a misread entry:
 *
 *   - injected short writes, failed fsyncs and renames, transient write
 *     faults, read-back EIO, repeated failures degrading to bypass,
 *     and injected throws at a store site;
 *   - truncation at every length, a flip of every bit of the header,
 *     flips in sampled key and payload bytes, a stale schema, a key
 *     mismatch, and a file in the previous (v1) on-disk layout.
 *
 * The cases are registered as TraceStoreFaults.* and
 * ResultStoreFaults.*, one suite name per codec.
 */

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include "common/error.h"
#include "common/fault.h"
#include "common/hash.h"
#include "sim/blob_store.h"
#include "sim/result_store.h"
#include "sim/trace_store.h"

using namespace noreba;

namespace {

TraceOptions
tinyTrace()
{
    TraceOptions opts;
    opts.maxDynInsts = 256;
    return opts;
}

const TraceBundle &
tinyBundle()
{
    static const TraceBundle bundle = prepareTrace("CRC32", tinyTrace());
    return bundle;
}

/** A CoreStats with every counter distinct and a two-entry stall map. */
CoreStats
sampleStats()
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
    for (const auto &[pc, s] : a.branchStalls) {
        auto it = b.branchStalls.find(pc);
        if (it == b.branchStalls.end() ||
            it->second.stallCycles != s.stallCycles ||
            it->second.instances != s.instances ||
            it->second.dependents != s.dependents)
            return false;
    }
    return true;
}

void
putU64(std::vector<uint8_t> &out, uint64_t v)
{
    uint8_t raw[8];
    std::memcpy(raw, &v, 8);
    out.insert(out.end(), raw, raw + 8);
}

/**
 * Seal a file in the v1 layout: @p header (whose first 8 bytes are the
 * magic) followed by @p body, with the v1 header checksum at
 * @p checksumOff, payload checksum and file length after it.
 */
std::vector<uint8_t>
sealV1(std::vector<uint8_t> header, const std::vector<uint8_t> &body,
       size_t checksumOff)
{
    const uint64_t fileBytes = header.size() + body.size();
    const uint64_t payload = fnv1a(body.data(), body.size());
    std::memcpy(header.data() + checksumOff + 8, &payload, 8);
    std::memcpy(header.data() + checksumOff + 16, &fileBytes, 8);
    const uint64_t sum = fnv1a(header.data(), header.size());
    std::memcpy(header.data() + checksumOff, &sum, 8);
    header.insert(header.end(), body.begin(), body.end());
    return header;
}

/** tinyBundle() in the v1 trace-bundle layout, checksums valid. */
std::vector<uint8_t>
v1TraceFile(const std::string &)
{
    const TraceBundle &bundle = tinyBundle();
    const TraceView view = bundle.view();
    const TraceSummary &sum = view.summary();
    std::vector<uint8_t> body(bundle.workload.begin(),
                              bundle.workload.end());
    body.insert(body.end(), view.name().begin(), view.name().end());
    std::vector<uint8_t> header(8, 0);
    std::memcpy(header.data(), "NORBTRC", 8);
    const uint32_t version = 1, recordBytes = sizeof(TraceRecord);
    header.insert(header.end(), reinterpret_cast<const uint8_t *>(&version),
                  reinterpret_cast<const uint8_t *>(&version) + 4);
    header.insert(header.end(),
                  reinterpret_cast<const uint8_t *>(&recordBytes),
                  reinterpret_cast<const uint8_t *>(&recordBytes) + 4);
    putU64(header, traceRecordLayoutFingerprint());
    putU64(header, TRACE_STORE_PASS_FINGERPRINT);
    const size_t checksumOff = header.size();
    for (int i = 0; i < 3; ++i) // checksums and file length, sealed below
        putU64(header, 0);
    const uint64_t passBytes = 9 * 8; // an empty PassResult
    for (uint64_t v :
         {bundle.checksum, uint64_t{view.size()},
          uint64_t{bundle.workload.size()}, uint64_t{view.name().size()},
          uint64_t{(view.size() + 7) / 8}, passBytes, sum.dynInsts,
          sum.setupInsts, sum.branches, sum.takenBranches, sum.loads,
          sum.stores, uint64_t{sum.truncated}})
        putU64(header, v);
    // The v1 record section is aligned to the file start.
    body.resize(pad8(header.size() + body.size()) - header.size(), 0);
    const uint8_t *records = reinterpret_cast<const uint8_t *>(view.data());
    body.insert(body.end(), records,
                records + view.size() * sizeof(TraceRecord));
    body.resize(body.size() + (view.size() + 7) / 8 + passBytes, 0);
    return sealV1(std::move(header), body, checksumOff);
}

/** sampleStats() under @p key in the v1 result layout. */
std::vector<uint8_t>
v1ResultFile(const std::string &key)
{
    const CoreStats stats = sampleStats();
    std::vector<uint8_t> header(8, 0);
    std::memcpy(header.data(), "NORBRES", 8);
    uint32_t counters = 0;
    for (const CoreStatsField &f : CORE_STATS_FIELDS)
        counters += f.counter ? 1 : 0;
    const uint32_t version = 1;
    header.insert(header.end(), reinterpret_cast<const uint8_t *>(&version),
                  reinterpret_cast<const uint8_t *>(&version) + 4);
    header.insert(header.end(), reinterpret_cast<const uint8_t *>(&counters),
                  reinterpret_cast<const uint8_t *>(&counters) + 4);
    putU64(header, RESULT_STORE_MODEL_VERSION);
    putU64(header, TRACE_STORE_PASS_FINGERPRINT);
    putU64(header, coreStatsLayoutFingerprint());
    const size_t checksumOff = header.size();
    for (int i = 0; i < 3; ++i)
        putU64(header, 0);
    putU64(header, key.size());
    putU64(header, stats.branchStalls.size());
    std::vector<uint8_t> body(key.begin(), key.end());
    body.resize(pad8(body.size()), 0);
    for (const CoreStatsField &f : CORE_STATS_FIELDS)
        if (f.counter)
            putU64(body, stats.*(f.counter));
    for (const auto &[pc, s] : stats.branchStalls)
        for (uint64_t v : {pc, s.stallCycles, s.instances, s.dependents})
            putU64(body, v);
    return sealV1(std::move(header), body, checksumOff);
}

/** One payload codec over the blob store, as the suite drives it. */
struct Codec
{
    const char *suite;  //!< test suite name
    const char *site;   //!< fault-site prefix
    const char *dirEnv; //!< store directory variable
    BlobStore &(*store)();
    std::string (*key)(const std::string &workload);
    size_t (*save)(const std::string &path, const std::string &key);
    /** Load under @p key; true only when it serves what save wrote. */
    bool (*load)(const std::string &path, const std::string &key);
    std::vector<uint8_t> (*v1File)(const std::string &key);
};

const Codec CODECS[] = {
    {"TraceStoreFaults", "trace_store", "NOREBA_TRACE_DIR", traceBlobStore,
     [](const std::string &w) { return traceKey(w, tinyTrace()); },
     [](const std::string &path, const std::string &key) {
         return saveTraceBundle(path, key, tinyBundle());
     },
     [](const std::string &path, const std::string &key) {
         auto mapped = MappedTraceBundle::open(path, key);
         if (!mapped)
             return false;
         const TraceView disk = mapped->view();
         const TraceView mem = tinyBundle().view();
         return mapped->key() == key &&
                mapped->archChecksum() == tinyBundle().checksum &&
                mapped->misp() == tinyBundle().misp &&
                disk.size() == mem.size() &&
                std::memcmp(disk.data(), mem.data(),
                            mem.size() * sizeof(TraceRecord)) == 0;
     },
     v1TraceFile},
    {"ResultStoreFaults", "result_store", "NOREBA_RESULT_DIR",
     resultBlobStore,
     [](const std::string &w) {
         return resultKey(w, skylakeConfig(), tinyTrace());
     },
     [](const std::string &path, const std::string &key) {
         return saveResult(path, key, sampleStats());
     },
     [](const std::string &path, const std::string &key) {
         CoreStats loaded;
         return loadResult(path, key, loaded) &&
                statsEqual(loaded, sampleStats());
     },
     v1ResultFile},
};

std::vector<uint8_t>
readFile(const std::string &path)
{
    std::vector<uint8_t> bytes;
    FILE *f = std::fopen(path.c_str(), "rb");
    if (!f)
        return bytes;
    std::fseek(f, 0, SEEK_END);
    bytes.resize(static_cast<size_t>(std::ftell(f)));
    std::fseek(f, 0, SEEK_SET);
    if (std::fread(bytes.data(), 1, bytes.size(), f) != bytes.size())
        bytes.clear();
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

/** Overwrite one byte of @p path in place. */
void
pokeByte(const std::string &path, size_t off, uint8_t value)
{
    const int fd = ::open(path.c_str(), O_WRONLY);
    ASSERT_GE(fd, 0);
    ASSERT_EQ(::pwrite(fd, &value, 1, static_cast<off_t>(off)), 1);
    ::close(fd);
}

bool
fileExists(const std::string &path)
{
    struct stat st;
    return ::stat(path.c_str(), &st) == 0;
}

int
tmpFilesIn(const std::string &dir)
{
    int n = 0;
    if (DIR *d = opendir(dir.c_str())) {
        while (dirent *e = readdir(d))
            if (std::strstr(e->d_name, ".tmp."))
                ++n;
        closedir(d);
    }
    return n;
}

/** The suite's fixture: one codec, one case, a fresh store directory. */
class BlobStoreFaults : public ::testing::Test
{
  public:
    using Body = void (BlobStoreFaults::*)();

    BlobStoreFaults(const Codec &codec, Body body)
        : codec_(codec), body_(body)
    {
    }

    void
    SetUp() override
    {
        char tmpl[] = "noreba_blob_test_XXXXXX";
        const char *made = mkdtemp(tmpl);
        ASSERT_NE(made, nullptr);
        dir_ = made;
        setenv(codec_.dirEnv, dir_.c_str(), 1);
        codec_.store().resetHealth();
        key_ = codec_.key("CRC32");
        path_ = codec_.store().path("CRC32", key_);
        ASSERT_FALSE(path_.empty());
    }

    void
    TearDown() override
    {
        FaultRegistry::instance().disarm();
        codec_.store().resetHealth();
        unsetenv(codec_.dirEnv);
        const std::string cmd = "rm -rf '" + dir_ + "'";
        if (!dir_.empty() && std::system(cmd.c_str()) != 0)
            ADD_FAILURE() << "cleanup of " << dir_ << " failed";
    }

    void TestBody() override { (this->*body_)(); }

    /** @name Cases @{ */

    void shortWrite() { failThenPublish("write=short-write@1x3"); }
    void failedFsync() { failThenPublish("fsync=eio@1x3"); }
    void failedRename() { failThenPublish("rename=eio@1x3"); }

    void
    transientWrite()
    {
        // Only the first attempt's write fails; the bounded retry must
        // publish a complete file on attempt two.
        arm("write=eio@1");
        EXPECT_GT(save(), 0u);
        EXPECT_GE(FaultRegistry::instance().hitCount(site("write")), 2u);
        EXPECT_EQ(tmpFilesIn(dir_), 0);
        EXPECT_TRUE(load());
    }

    void
    readBackEio()
    {
        ASSERT_GT(save(), 0u);
        arm("read=eio@1");
        EXPECT_FALSE(load());
        // The fault was one-shot: the intact file serves the next load.
        EXPECT_TRUE(load());
    }

    void
    degradeToBypass()
    {
        arm("write=eio@1x*");
        for (int i = 0; i < STORE_DEGRADE_STREAK; ++i)
            EXPECT_EQ(save(), 0u);
        EXPECT_TRUE(codec_.store().bypassed());

        // Degraded: no disk activity even with the fault gone.
        FaultRegistry::instance().disarm();
        EXPECT_EQ(save(), 0u);
        EXPECT_FALSE(fileExists(path_));

        // Reset re-arms the store.
        codec_.store().resetHealth();
        EXPECT_GT(save(), 0u);
        EXPECT_TRUE(load());
    }

    void
    injectedThrow()
    {
        arm("fsync=throw@1");
        EXPECT_THROW(save(), InjectedFault);
        EXPECT_FALSE(fileExists(path_));
        EXPECT_EQ(tmpFilesIn(dir_), 0);
    }

    void
    truncationAtEveryLength()
    {
        ASSERT_GT(save(), 0u);
        const size_t size = readFile(path_).size();
        ASSERT_GT(size, sizeof(BlobHeader));
        for (size_t len = size; len-- > 0;) {
            ASSERT_EQ(::truncate(path_.c_str(), static_cast<off_t>(len)),
                      0);
            ASSERT_FALSE(load()) << "served a file cut to " << len
                                 << " of " << size << " bytes";
        }
        EXPECT_FALSE(load(path_ + ".missing"));
    }

    void
    headerBitFlips()
    {
        ASSERT_GT(save(), 0u);
        const std::vector<uint8_t> good = readFile(path_);
        for (size_t off = 0; off < sizeof(BlobHeader); ++off) {
            for (int bit = 0; bit < 8; ++bit) {
                pokeByte(path_, off, good[off] ^ (1u << bit));
                ASSERT_FALSE(load())
                    << "header byte " << off << " bit " << bit;
            }
            pokeByte(path_, off, good[off]);
        }
        EXPECT_TRUE(load());
    }

    void
    payloadBitFlips()
    {
        ASSERT_GT(save(), 0u);
        const std::vector<uint8_t> good = readFile(path_);
        const size_t span = good.size() - sizeof(BlobHeader);
        constexpr size_t SAMPLES = 256;
        for (size_t i = 0; i < SAMPLES; ++i) {
            const size_t off = sizeof(BlobHeader) + i * span / SAMPLES;
            pokeByte(path_, off, good[off] ^ (1u << (i % 8)));
            ASSERT_FALSE(load()) << "flipped byte " << off;
            pokeByte(path_, off, good[off]);
        }
        EXPECT_TRUE(load());
    }

    void
    staleSchema()
    {
        ASSERT_GT(save(), 0u);
        std::vector<uint8_t> bytes = readFile(path_);
        BlobHeader h;
        std::memcpy(&h, bytes.data(), sizeof(h));
        // A consistent header of another schema: the checksums pass,
        // the schema check alone must reject it.
        h.schema ^= 1;
        h.headerChecksum = blobHeaderChecksum(h);
        std::memcpy(bytes.data(), &h, sizeof(h));
        writeFile(path_, bytes);
        EXPECT_FALSE(load());
    }

    void
    keyMismatch()
    {
        // Published under another key at this path — a file-name hash
        // collision — must miss, not serve the other entry.
        ASSERT_GT(codec_.save(path_, codec_.key("mcf")), 0u);
        EXPECT_FALSE(load());
        EXPECT_TRUE(codec_.load(path_, codec_.key("mcf")));
    }

    void
    previousLayout()
    {
        writeFile(path_, codec_.v1File(key_));
        EXPECT_FALSE(load());
        ASSERT_GT(save(), 0u);
        EXPECT_TRUE(load());
    }

    /** @} */

  private:
    std::string site(const char *op) const
    {
        return std::string(codec_.site) + "." + op;
    }

    void
    arm(const std::string &clause)
    {
        FaultRegistry::instance().arm(std::string(codec_.site) + "." +
                                      clause);
    }

    size_t save() { return codec_.save(path_, key_); }
    bool load() { return codec_.load(path_, key_); }
    bool load(const std::string &path) { return codec_.load(path, key_); }

    /** Arm @p clause, expect the publish to fail without leaving any
     *  file, then confirm a clean retry publishes a valid one. */
    void
    failThenPublish(const std::string &clause)
    {
        arm(clause); // x3 defeats all three publish attempts
        EXPECT_EQ(save(), 0u);
        EXPECT_FALSE(fileExists(path_)) << "partial file published";
        EXPECT_EQ(tmpFilesIn(dir_), 0) << "temp file left behind";

        FaultRegistry::instance().disarm();
        codec_.store().resetHealth();
        EXPECT_GT(save(), 0u);
        EXPECT_TRUE(load());
    }

    const Codec &codec_;
    Body body_;
    std::string dir_;
    std::string key_;
    std::string path_;
};

const struct
{
    const char *name;
    BlobStoreFaults::Body body;
} CASES[] = {
    {"ShortWriteLeavesNoPartialFile", &BlobStoreFaults::shortWrite},
    {"FailedFsyncLeavesNoPartialFile", &BlobStoreFaults::failedFsync},
    {"FailedRenameLeavesNoPartialFile", &BlobStoreFaults::failedRename},
    {"TransientWriteFaultIsRetriedToSuccess",
     &BlobStoreFaults::transientWrite},
    {"ReadBackEioIsACacheMissNotACrash", &BlobStoreFaults::readBackEio},
    {"RepeatedPublishFailuresDegradeToBypass",
     &BlobStoreFaults::degradeToBypass},
    {"InjectedThrowAtStoreSitePropagatesAndCleansUp",
     &BlobStoreFaults::injectedThrow},
    {"TruncationAtEveryLengthMisses",
     &BlobStoreFaults::truncationAtEveryLength},
    {"HeaderBitFlipsMiss", &BlobStoreFaults::headerBitFlips},
    {"PayloadBitFlipsMiss", &BlobStoreFaults::payloadBitFlips},
    {"StaleSchemaMisses", &BlobStoreFaults::staleSchema},
    {"KeyMismatchMisses", &BlobStoreFaults::keyMismatch},
    {"PreviousLayoutFileMisses", &BlobStoreFaults::previousLayout},
};

const bool registered = [] {
    for (const Codec &codec : CODECS)
        for (const auto &c : CASES)
            ::testing::RegisterTest(
                codec.suite, c.name, nullptr, nullptr, __FILE__, __LINE__,
                [&codec, body = c.body]() -> BlobStoreFaults * {
                    return new BlobStoreFaults(codec, body);
                });
    return true;
}();

} // namespace
