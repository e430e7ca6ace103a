#include "sim/trace_store.h"

#include <atomic>
#include <cctype>
#include <cerrno>
#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <type_traits>

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include "common/fault.h"
#include "common/fs.h"
#include "common/hash.h"
#include "common/logging.h"
#include "sim/store_health.h"

namespace noreba {

namespace {

/** Publish-failure streak / degradation state for this store. */
StoreHealth &
traceHealth()
{
    static StoreHealth health("trace store");
    return health;
}

constexpr char MAGIC[8] = {'N', 'O', 'R', 'B', 'T', 'R', 'C', '\0'};

/**
 * On-disk header. Everything after it is validated against these
 * fields before a single payload byte is interpreted.
 */
struct BundleHeader
{
    char magic[8];
    uint32_t formatVersion;
    uint32_t recordBytes;        //!< sizeof(TraceRecord) at write time
    uint64_t layoutFingerprint;
    uint64_t passFingerprint;
    uint64_t headerChecksum;     //!< FNV over header, this field zeroed
    uint64_t payloadChecksum;    //!< FNV over [sizeof(header), fileBytes)
    uint64_t fileBytes;
    uint64_t archChecksum;
    uint64_t numRecords;
    uint64_t workloadBytes;
    uint64_t nameBytes;
    uint64_t mispBytes;          //!< misprediction bitmap length
    uint64_t passBytes;          //!< PassResult blob length
    /** TraceSummary, widened to fixed-width fields. */
    uint64_t dynInsts;
    uint64_t setupInsts;
    uint64_t branches;
    uint64_t takenBranches;
    uint64_t loads;
    uint64_t stores;
    uint64_t truncated;
};
static_assert(sizeof(BundleHeader) % 8 == 0,
              "record section must stay 8-byte aligned");
static_assert(std::is_trivially_copyable_v<BundleHeader>);

size_t
pad8(size_t n)
{
    return (n + 7) & ~size_t{7};
}

uint64_t
headerChecksumOf(const BundleHeader &h)
{
    BundleHeader copy = h;
    copy.headerChecksum = 0;
    return fnv1a(&copy, sizeof(copy));
}

/** @name PassResult blob (fixed-width, length-prefixed vectors) @{ */

void
putU64(std::vector<uint8_t> &out, uint64_t v)
{
    uint8_t raw[8];
    std::memcpy(raw, &v, 8);
    out.insert(out.end(), raw, raw + 8);
}

void
putI64(std::vector<uint8_t> &out, int64_t v)
{
    putU64(out, static_cast<uint64_t>(v));
}

struct BlobReader
{
    const uint8_t *data;
    size_t size;
    size_t off = 0;
    bool ok = true;

    uint64_t
    u64()
    {
        if (!ok || size - off < 8) {
            ok = false;
            return 0;
        }
        uint64_t v;
        std::memcpy(&v, data + off, 8);
        off += 8;
        return v;
    }

    int64_t i64() { return static_cast<int64_t>(u64()); }

    /** A length prefix that the remaining bytes could actually hold. */
    size_t
    vecLen()
    {
        uint64_t n = u64();
        if (!ok || n > (size - off) / 8) {
            ok = false;
            return 0;
        }
        return static_cast<size_t>(n);
    }
};

std::vector<uint8_t>
serializePass(const PassResult &pass)
{
    std::vector<uint8_t> blob;
    putI64(blob, pass.numMarkedBranches);
    putI64(blob, pass.numRegions);
    putI64(blob, pass.numSetupInsts);
    putU64(blob, pass.instsBefore);
    putU64(blob, pass.instsAfter);
    putI64(blob, pass.numChainMerges);
    putI64(blob, pass.numStrictRegions);
    putU64(blob, pass.guardOfInst.size());
    for (int g : pass.guardOfInst)
        putI64(blob, g);
    putU64(blob, pass.branches.size());
    for (const BranchSite &site : pass.branches) {
        putI64(blob, site.bb);
        putI64(blob, site.instIdx);
        putI64(blob, site.globalIdx);
        putI64(blob, site.compilerId);
        putI64(blob, site.reconvBlock);
        putI64(blob, site.guard);
        putI64(blob, site.numControlDeps);
        putI64(blob, site.numDataDeps);
        putU64(blob, site.controlBlocks.size());
        for (int b : site.controlBlocks)
            putI64(blob, b);
    }
    return blob;
}

bool
deserializePass(const uint8_t *data, size_t size, PassResult &out)
{
    BlobReader r{data, size};
    out = PassResult{};
    out.numMarkedBranches = static_cast<int>(r.i64());
    out.numRegions = static_cast<int>(r.i64());
    out.numSetupInsts = static_cast<int>(r.i64());
    out.instsBefore = static_cast<size_t>(r.u64());
    out.instsAfter = static_cast<size_t>(r.u64());
    out.numChainMerges = static_cast<int>(r.i64());
    out.numStrictRegions = static_cast<int>(r.i64());
    size_t numGuards = r.vecLen();
    out.guardOfInst.reserve(numGuards);
    for (size_t i = 0; r.ok && i < numGuards; ++i)
        out.guardOfInst.push_back(static_cast<int>(r.i64()));
    size_t numBranches = r.vecLen();
    out.branches.reserve(numBranches);
    for (size_t i = 0; r.ok && i < numBranches; ++i) {
        BranchSite site;
        site.bb = static_cast<int>(r.i64());
        site.instIdx = static_cast<int>(r.i64());
        site.globalIdx = static_cast<int>(r.i64());
        site.compilerId = static_cast<int>(r.i64());
        site.reconvBlock = static_cast<int>(r.i64());
        site.guard = static_cast<int>(r.i64());
        site.numControlDeps = static_cast<int>(r.i64());
        site.numDataDeps = static_cast<int>(r.i64());
        size_t numBlocks = r.vecLen();
        site.controlBlocks.reserve(numBlocks);
        for (size_t b = 0; r.ok && b < numBlocks; ++b)
            site.controlBlocks.push_back(static_cast<int>(r.i64()));
        out.branches.push_back(std::move(site));
    }
    return r.ok && r.off == size;
}

/** @} */

} // namespace

bool
traceStoreBypassed()
{
    return traceHealth().bypassed();
}

void
resetTraceStoreHealth()
{
    traceHealth().reset();
}

uint64_t
traceRecordLayoutFingerprint()
{
    static_assert(std::is_trivially_copyable_v<TraceRecord>,
                  "TraceRecord must memory-map verbatim");
    // The final constant doubles as an endianness tag: the values are
    // hashed through their native byte representation, so a
    // different-endian (or differently packed) build produces a
    // different fingerprint and its bundles are rejected.
    const uint64_t layout[] = {
        sizeof(TraceRecord),
        offsetof(TraceRecord, pc),
        offsetof(TraceRecord, nextPc),
        offsetof(TraceRecord, addrOrImm),
        offsetof(TraceRecord, op),
        offsetof(TraceRecord, memSize),
        offsetof(TraceRecord, taken),
        offsetof(TraceRecord, markedBranch),
        offsetof(TraceRecord, orderSensitive),
        offsetof(TraceRecord, orderStrict),
        offsetof(TraceRecord, rd),
        offsetof(TraceRecord, rs1),
        offsetof(TraceRecord, rs2),
        offsetof(TraceRecord, rs3),
        offsetof(TraceRecord, guardIdx),
        sizeof(Opcode),
        sizeof(Reg),
        sizeof(TraceIdx),
        0x0102030405060708ull,
    };
    return fnv1a(layout, sizeof(layout));
}

std::string
traceStoreDir()
{
    const char *env = std::getenv("NOREBA_TRACE_DIR");
    return env && *env ? std::string(env) : std::string();
}

std::string
traceBundlePath(const std::string &workload, const TraceOptions &opts)
{
    std::string dir = traceStoreDir();
    if (dir.empty())
        return {};

    uint64_t h = fnv1a(workload.data(), workload.size());
    uint64_t scaleBits;
    std::memcpy(&scaleBits, &opts.params.scale, sizeof(scaleBits));
    const uint64_t key[] = {
        opts.params.seed,
        scaleBits,
        opts.maxDynInsts,
        static_cast<uint64_t>(opts.annotate),
        static_cast<uint64_t>(opts.stripSetups),
        TRACE_STORE_FORMAT_VERSION,
        TRACE_STORE_PASS_FINGERPRINT,
        traceRecordLayoutFingerprint(),
    };
    h = fnv1a(key, sizeof(key), h);

    std::string base;
    for (char c : workload)
        base.push_back(std::isalnum(static_cast<unsigned char>(c)) ? c
                                                                   : '_');
    char hex[32];
    std::snprintf(hex, sizeof(hex), "%016llx",
                  static_cast<unsigned long long>(h));
    return dir + "/" + base + "-" + hex + ".v" +
           std::to_string(TRACE_STORE_FORMAT_VERSION) + ".ntb";
}

MappedTraceBundle::~MappedTraceBundle()
{
    if (map_)
        ::munmap(const_cast<void *>(map_), mapBytes_);
}

TraceView
MappedTraceBundle::view() const
{
    return TraceView(name_, records_, numRecords_, summary_);
}

std::shared_ptr<const MappedTraceBundle>
MappedTraceBundle::open(const std::string &path)
{
    int faultErrno = 0;
    if (ioFaultAt("trace_store.read", &faultErrno)) {
        errno = faultErrno;
        return nullptr; // read-back failure == cache miss: rebuild
    }
    int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0)
        return nullptr;
    struct stat st;
    if (::fstat(fd, &st) != 0 || st.st_size < 0 ||
        static_cast<size_t>(st.st_size) < sizeof(BundleHeader)) {
        ::close(fd);
        return nullptr;
    }
    const size_t size = static_cast<size_t>(st.st_size);
    void *map = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
    ::close(fd);
    if (map == MAP_FAILED)
        return nullptr;

    // From here on the mapping is owned by the bundle: returning
    // nullptr destroys it and unmaps.
    std::shared_ptr<MappedTraceBundle> b(new MappedTraceBundle);
    b->map_ = map;
    b->mapBytes_ = size;

    BundleHeader h;
    std::memcpy(&h, map, sizeof(h));
    if (std::memcmp(h.magic, MAGIC, sizeof(MAGIC)) != 0 ||
        h.headerChecksum != headerChecksumOf(h) ||
        h.formatVersion != TRACE_STORE_FORMAT_VERSION ||
        h.recordBytes != sizeof(TraceRecord) ||
        h.layoutFingerprint != traceRecordLayoutFingerprint() ||
        h.passFingerprint != TRACE_STORE_PASS_FINGERPRINT ||
        h.fileBytes != size)
        return nullptr;

    // Section sizes: bound each field before doing arithmetic on it so
    // a corrupt header cannot overflow the offset computation.
    if (h.workloadBytes > size || h.nameBytes > size ||
        h.numRecords > size / sizeof(TraceRecord) ||
        h.mispBytes != (h.numRecords + 7) / 8 || h.passBytes > size)
        return nullptr;
    const size_t recordsOff = pad8(sizeof(BundleHeader) +
                                   static_cast<size_t>(h.workloadBytes) +
                                   static_cast<size_t>(h.nameBytes));
    const size_t recordBytes =
        static_cast<size_t>(h.numRecords) * sizeof(TraceRecord);
    if (recordsOff > size || recordBytes > size - recordsOff)
        return nullptr;
    const size_t mispOff = recordsOff + recordBytes;
    if (h.mispBytes > size - mispOff)
        return nullptr;
    const size_t passOff = mispOff + static_cast<size_t>(h.mispBytes);
    if (passOff + static_cast<size_t>(h.passBytes) != size)
        return nullptr;

    const uint8_t *base = static_cast<const uint8_t *>(map);
    if (h.payloadChecksum !=
        fnv1a(base + sizeof(BundleHeader), size - sizeof(BundleHeader)))
        return nullptr;

    b->workload_.assign(
        reinterpret_cast<const char *>(base + sizeof(BundleHeader)),
        static_cast<size_t>(h.workloadBytes));
    b->name_.assign(reinterpret_cast<const char *>(
                        base + sizeof(BundleHeader) + h.workloadBytes),
                    static_cast<size_t>(h.nameBytes));
    b->records_ = reinterpret_cast<const TraceRecord *>(base + recordsOff);
    b->numRecords_ = static_cast<size_t>(h.numRecords);
    b->summary_.dynInsts = h.dynInsts;
    b->summary_.setupInsts = h.setupInsts;
    b->summary_.branches = h.branches;
    b->summary_.takenBranches = h.takenBranches;
    b->summary_.loads = h.loads;
    b->summary_.stores = h.stores;
    b->summary_.truncated = h.truncated != 0;
    b->archChecksum_ = h.archChecksum;

    b->misp_.assign(b->numRecords_, 0);
    const uint8_t *bitmap = base + mispOff;
    for (size_t i = 0; i < b->numRecords_; ++i)
        b->misp_[i] = (bitmap[i / 8] >> (i % 8)) & 1;

    if (!deserializePass(base + passOff, static_cast<size_t>(h.passBytes),
                         b->pass_))
        return nullptr;
    return b;
}

size_t
saveTraceBundle(const std::string &path, const TraceBundle &bundle)
{
    if (traceHealth().bypassed())
        return 0;

    const TraceView view = bundle.view();
    panic_if(bundle.misp.size() != view.size(),
             "bundle misprediction vector does not match its trace");

    const std::string &workload = bundle.workload;
    const std::string &name = view.name();
    const std::vector<uint8_t> passBlob = serializePass(bundle.pass);
    const size_t numRecords = view.size();
    const size_t mispBytes = (numRecords + 7) / 8;
    const size_t recordsOff =
        pad8(sizeof(BundleHeader) + workload.size() + name.size());
    const size_t mispOff = recordsOff + numRecords * sizeof(TraceRecord);
    const size_t passOff = mispOff + mispBytes;
    const size_t fileBytes = passOff + passBlob.size();

    std::vector<uint8_t> buf(fileBytes, 0);
    std::memcpy(buf.data() + sizeof(BundleHeader), workload.data(),
                workload.size());
    std::memcpy(buf.data() + sizeof(BundleHeader) + workload.size(),
                name.data(), name.size());
    if (numRecords)
        std::memcpy(buf.data() + recordsOff, view.data(),
                    numRecords * sizeof(TraceRecord));
    for (size_t i = 0; i < numRecords; ++i)
        if (bundle.misp[i])
            buf[mispOff + i / 8] |=
                static_cast<uint8_t>(1u << (i % 8));
    std::memcpy(buf.data() + passOff, passBlob.data(), passBlob.size());

    BundleHeader h{};
    std::memcpy(h.magic, MAGIC, sizeof(MAGIC));
    h.formatVersion = TRACE_STORE_FORMAT_VERSION;
    h.recordBytes = sizeof(TraceRecord);
    h.layoutFingerprint = traceRecordLayoutFingerprint();
    h.passFingerprint = TRACE_STORE_PASS_FINGERPRINT;
    h.fileBytes = fileBytes;
    h.archChecksum = bundle.checksum;
    h.numRecords = numRecords;
    h.workloadBytes = workload.size();
    h.nameBytes = name.size();
    h.mispBytes = mispBytes;
    h.passBytes = passBlob.size();
    const TraceSummary &sum = view.summary();
    h.dynInsts = sum.dynInsts;
    h.setupInsts = sum.setupInsts;
    h.branches = sum.branches;
    h.takenBranches = sum.takenBranches;
    h.loads = sum.loads;
    h.stores = sum.stores;
    h.truncated = sum.truncated ? 1 : 0;
    h.payloadChecksum = fnv1a(buf.data() + sizeof(BundleHeader),
                              fileBytes - sizeof(BundleHeader));
    h.headerChecksum = headerChecksumOf(h);
    std::memcpy(buf.data(), &h, sizeof(h));

    const size_t slash = path.rfind('/');
    if (slash != std::string::npos &&
        !ensureDir(path.substr(0, slash))) {
        warn("trace store: cannot create directory for %s", path.c_str());
        traceHealth().recordFailure();
        return 0;
    }

    // Unique temp name per writer: concurrent same-key writers each
    // publish a complete file; rename() makes the last one win. A
    // failed attempt always unlinks its temp file (the rename is the
    // only publication point), retries with backoff, and after the
    // attempt budget gives up as a cache miss, feeding the store's
    // degradation streak.
    static std::atomic<uint64_t> seq{0};
    for (int attempt = 1;; ++attempt) {
        const std::string tmp = path + ".tmp." +
                                std::to_string(::getpid()) + "." +
                                std::to_string(seq++);
        int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_EXCL, 0644);
        if (fd < 0) {
            warn("trace store: cannot create %s", tmp.c_str());
            traceHealth().recordFailure();
            return 0;
        }

        const char *failedStep = nullptr;
        int failedErrno = 0;
        try {
            size_t written = 0;
            while (written < fileBytes) {
                ssize_t n;
                int ferr = 0;
                if (ioFaultAt("trace_store.write", &ferr)) {
                    // short-write (ENOSPC): land part of the payload
                    // first so the temp file really is truncated.
                    if (ferr == ENOSPC) {
                        const size_t half = (fileBytes - written) / 2;
                        if (half > 0 &&
                            ::write(fd, buf.data() + written, half) < 0) {
                            // already failing; keep the injected errno
                        }
                    }
                    errno = ferr;
                    n = -1;
                } else {
                    n = ::write(fd, buf.data() + written,
                                fileBytes - written);
                }
                if (n <= 0) {
                    failedStep = "write";
                    failedErrno = errno;
                    break;
                }
                written += static_cast<size_t>(n);
            }
            if (!failedStep) {
                int ferr = 0;
                const int rc = ioFaultAt("trace_store.fsync", &ferr)
                                   ? (errno = ferr, -1)
                                   : ::fsync(fd);
                if (rc != 0 || ::close(fd) != 0) {
                    failedStep = "fsync";
                    failedErrno = errno;
                } else {
                    fd = -1;
                }
            }
            if (!failedStep) {
                int ferr = 0;
                const int rc = ioFaultAt("trace_store.rename", &ferr)
                                   ? (errno = ferr, -1)
                                   : ::rename(tmp.c_str(), path.c_str());
                if (rc != 0) {
                    failedStep = "rename";
                    failedErrno = errno;
                }
            }
        } catch (...) {
            // Injected `throw` at a store site: clean up the temp file
            // and let the job-level failure propagate to the sweep.
            if (fd >= 0)
                ::close(fd);
            ::unlink(tmp.c_str());
            throw;
        }

        if (!failedStep) {
            traceHealth().recordSuccess();
            return fileBytes;
        }
        if (fd >= 0)
            ::close(fd);
        ::unlink(tmp.c_str());
        if (attempt >= STORE_PUBLISH_ATTEMPTS) {
            warn("trace store: %s failed for %s after %d attempts: %s",
                 failedStep, path.c_str(), attempt,
                 std::strerror(failedErrno));
            traceHealth().recordFailure();
            return 0;
        }
        storeBackoff(attempt, path);
    }
}

} // namespace noreba
