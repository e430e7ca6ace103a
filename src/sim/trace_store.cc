#include "sim/trace_store.h"

#include <cstddef>
#include <cstdio>
#include <cstring>
#include <type_traits>

#include <sys/mman.h>
#include <unistd.h>

#include "common/hash.h"
#include "common/logging.h"

namespace noreba {

namespace {

/**
 * Fixed-width head of the bundle payload. Every section after it is
 * bounded against these fields before a byte of it is interpreted;
 * the PassResult blob runs from the end of the bitmap to the end of
 * the file.
 */
struct TraceMeta
{
    uint64_t archChecksum;
    uint64_t numRecords;
    uint64_t nameBytes;
    /** TraceSummary, widened to fixed-width fields. */
    uint64_t dynInsts;
    uint64_t setupInsts;
    uint64_t branches;
    uint64_t takenBranches;
    uint64_t loads;
    uint64_t stores;
    uint64_t truncated;
};
static_assert(sizeof(TraceMeta) % 8 == 0);
static_assert(std::is_trivially_copyable_v<TraceMeta>);

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

BlobStore &
traceBlobStore()
{
    static const uint64_t schema[] = {
        TRACE_STORE_FORMAT_VERSION,
        TRACE_STORE_PASS_FINGERPRINT,
        traceRecordLayoutFingerprint(),
    };
    static BlobStore store("trace_store", "NOREBA_TRACE_DIR", "ntb",
                           TRACE_STORE_FORMAT_VERSION,
                           fnv1a(schema, sizeof(schema),
                                 fnv1a("trace bundle")));
    return store;
}

std::string
traceKey(const std::string &workload, const TraceOptions &opts)
{
    // The scale double is keyed by its bit pattern, printed as hex, so
    // the key text is exact and locale-independent.
    uint64_t scaleBits;
    std::memcpy(&scaleBits, &opts.params.scale, sizeof(scaleBits));
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "seed=%llu\nscaleBits=%016llx\nmaxDynInsts=%llu\n"
                  "annotate=%d\nstripSetups=%d\n",
                  static_cast<unsigned long long>(opts.params.seed),
                  static_cast<unsigned long long>(scaleBits),
                  static_cast<unsigned long long>(opts.maxDynInsts),
                  opts.annotate ? 1 : 0, opts.stripSetups ? 1 : 0);
    return "workload=" + workload + "\n" + buf;
}

std::string
traceBundlePath(const std::string &workload, const TraceOptions &opts)
{
    return traceBlobStore().path(workload, traceKey(workload, opts));
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
MappedTraceBundle::open(const std::string &path, const std::string &key)
{
    auto b = open(path);
    return b && (b->key_.empty() || b->key_ == key) ? b : nullptr;
}

std::shared_ptr<const MappedTraceBundle>
MappedTraceBundle::open(const std::string &path)
{
    const BlobStore &store = traceBlobStore();
    size_t size = 0;
    const int fd = store.openForRead(path, size);
    if (fd < 0)
        return nullptr;
    void *map = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
    ::close(fd);
    if (map == MAP_FAILED)
        return nullptr;

    // From here on the mapping is owned by the bundle: returning
    // nullptr destroys it and unmaps.
    std::shared_ptr<MappedTraceBundle> b(new MappedTraceBundle);
    b->map_ = map;
    b->mapBytes_ = size;

    BlobView blob;
    if (!store.validate(static_cast<const uint8_t *>(map), size, blob) ||
        blob.payloadBytes < sizeof(TraceMeta))
        return nullptr;
    const uint8_t *base = blob.payload;
    const size_t n = blob.payloadBytes;
    TraceMeta m;
    std::memcpy(&m, base, sizeof(m));

    // Section sizes: bound each field before doing arithmetic on it so
    // a corrupt header cannot overflow the offset computation.
    if (m.nameBytes > n || m.numRecords > n / sizeof(TraceRecord))
        return nullptr;
    const size_t recordsOff =
        pad8(sizeof(TraceMeta) + static_cast<size_t>(m.nameBytes));
    const size_t recordBytes =
        static_cast<size_t>(m.numRecords) * sizeof(TraceRecord);
    if (recordsOff > n || recordBytes > n - recordsOff)
        return nullptr;
    const size_t mispOff = recordsOff + recordBytes;
    const size_t mispBytes = (static_cast<size_t>(m.numRecords) + 7) / 8;
    if (mispBytes > n - mispOff)
        return nullptr;
    const size_t passOff = mispOff + mispBytes;
    if (!deserializePass(base + passOff, n - passOff, b->pass_))
        return nullptr;

    b->key_.assign(blob.key);
    b->name_.assign(reinterpret_cast<const char *>(base + sizeof(TraceMeta)),
                    static_cast<size_t>(m.nameBytes));
    b->records_ = reinterpret_cast<const TraceRecord *>(base + recordsOff);
    b->numRecords_ = static_cast<size_t>(m.numRecords);
    b->summary_.dynInsts = m.dynInsts;
    b->summary_.setupInsts = m.setupInsts;
    b->summary_.branches = m.branches;
    b->summary_.takenBranches = m.takenBranches;
    b->summary_.loads = m.loads;
    b->summary_.stores = m.stores;
    b->summary_.truncated = m.truncated != 0;
    b->archChecksum_ = m.archChecksum;

    b->misp_.assign(b->numRecords_, 0);
    const uint8_t *bitmap = base + mispOff;
    for (size_t i = 0; i < b->numRecords_; ++i)
        b->misp_[i] = (bitmap[i / 8] >> (i % 8)) & 1;
    return b;
}

size_t
saveTraceBundle(const std::string &path, const std::string &key,
                const TraceBundle &bundle)
{
    const TraceView view = bundle.view();
    panic_if(bundle.misp.size() != view.size(),
             "bundle misprediction vector does not match its trace");

    const std::string &name = view.name();
    const std::vector<uint8_t> passBlob = serializePass(bundle.pass);
    const size_t numRecords = view.size();
    const size_t recordsOff = pad8(sizeof(TraceMeta) + name.size());
    const size_t mispOff = recordsOff + numRecords * sizeof(TraceRecord);
    const size_t passOff = mispOff + (numRecords + 7) / 8;

    const TraceSummary &sum = view.summary();
    TraceMeta m{};
    m.archChecksum = bundle.checksum;
    m.numRecords = numRecords;
    m.nameBytes = name.size();
    m.dynInsts = sum.dynInsts;
    m.setupInsts = sum.setupInsts;
    m.branches = sum.branches;
    m.takenBranches = sum.takenBranches;
    m.loads = sum.loads;
    m.stores = sum.stores;
    m.truncated = sum.truncated ? 1 : 0;

    return traceBlobStore().publish(
        path, key, passOff + passBlob.size(), [&](uint8_t *p) {
            std::memcpy(p, &m, sizeof(m));
            std::memcpy(p + sizeof(m), name.data(), name.size());
            if (numRecords)
                std::memcpy(p + recordsOff, view.data(),
                            numRecords * sizeof(TraceRecord));
            for (size_t i = 0; i < numRecords; ++i)
                if (bundle.misp[i])
                    p[mispOff + i / 8] |=
                        static_cast<uint8_t>(1u << (i % 8));
            std::memcpy(p + passOff, passBlob.data(), passBlob.size());
        });
}

size_t
saveTraceBundle(const std::string &path, const TraceBundle &bundle)
{
    return saveTraceBundle(path, std::string(), bundle);
}

} // namespace noreba
