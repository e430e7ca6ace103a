#include "sim/result_store.h"

#include <algorithm>
#include <cstring>
#include <vector>

#include <unistd.h>

#include "common/hash.h"
#include "sim/trace_store.h"

namespace noreba {

namespace {

constexpr size_t STALL_RECORD_BYTES = 4 * sizeof(uint64_t);

size_t
numCounters()
{
    static const size_t n = std::count_if(
        std::begin(CORE_STATS_FIELDS), std::end(CORE_STATS_FIELDS),
        [](const CoreStatsField &f) { return f.counter != nullptr; });
    return n;
}

} // namespace

uint64_t
coreStatsLayoutFingerprint()
{
    uint64_t h = fnv1a("CoreStats counters:");
    for (const CoreStatsField &f : CORE_STATS_FIELDS) {
        if (!f.counter)
            continue;
        h = fnv1a(f.name, std::strlen(f.name), h);
        h = fnv1a("\n", 1, h);
    }
    return h;
}

BlobStore &
resultBlobStore()
{
    static const uint64_t schema[] = {
        RESULT_STORE_FORMAT_VERSION,
        RESULT_STORE_MODEL_VERSION,
        TRACE_STORE_PASS_FINGERPRINT,
        coreStatsLayoutFingerprint(),
    };
    static BlobStore store("result_store", "NOREBA_RESULT_DIR", "nrs",
                           RESULT_STORE_FORMAT_VERSION,
                           fnv1a(schema, sizeof(schema),
                                 fnv1a("simulation result")));
    return store;
}

std::string
resultKey(const std::string &workload, const CoreConfig &cfg,
          const TraceOptions &opts)
{
    return traceKey(workload, opts) + serializeConfig(cfg);
}

std::string
resultPath(const std::string &workload, const CoreConfig &cfg,
           const TraceOptions &opts)
{
    return resultBlobStore().path(workload, resultKey(workload, cfg, opts));
}

bool
resultStoreEligible(const CoreConfig &cfg)
{
    return !cfg.eventTrace && !cfg.shadowIndexCheck &&
           !cfg.shadowSchedulerCheck;
}

bool
loadResult(const std::string &path, const std::string &key, CoreStats &out)
{
    const BlobStore &store = resultBlobStore();
    size_t size = 0;
    const int fd = store.openForRead(path, size);
    if (fd < 0)
        return false;
    std::vector<uint8_t> buf(size);
    size_t got = 0;
    while (got < size) {
        const ssize_t n = ::read(fd, buf.data() + got, size - got);
        if (n <= 0)
            break;
        got += static_cast<size_t>(n);
    }
    ::close(fd);

    const size_t counterBytes = numCounters() * sizeof(uint64_t);
    BlobView blob;
    if (got != size || !store.validate(buf.data(), size, blob) ||
        blob.key != key || blob.payloadBytes < counterBytes ||
        (blob.payloadBytes - counterBytes) % STALL_RECORD_BYTES != 0)
        return false;

    out = CoreStats{};
    const uint8_t *p = blob.payload;
    for (const CoreStatsField &f : CORE_STATS_FIELDS) {
        if (!f.counter)
            continue;
        std::memcpy(&(out.*f.counter), p, sizeof(uint64_t));
        p += sizeof(uint64_t);
    }
    for (const uint8_t *end = blob.payload + blob.payloadBytes; p < end;
         p += STALL_RECORD_BYTES) {
        uint64_t rec[4];
        std::memcpy(rec, p, sizeof(rec));
        out.branchStalls[rec[0]] = BranchStall{rec[1], rec[2], rec[3]};
    }
    return true;
}

size_t
saveResult(const std::string &path, const std::string &key,
           const CoreStats &stats)
{
    // Sorted by pc so equal stats always serialize to equal bytes.
    std::vector<std::pair<uint64_t, BranchStall>> stalls(
        stats.branchStalls.begin(), stats.branchStalls.end());
    std::sort(stalls.begin(), stalls.end(),
              [](const auto &a, const auto &b) { return a.first < b.first; });
    const size_t payloadBytes = numCounters() * sizeof(uint64_t) +
                                stalls.size() * STALL_RECORD_BYTES;

    return resultBlobStore().publish(path, key, payloadBytes,
                                     [&](uint8_t *p) {
        for (const CoreStatsField &f : CORE_STATS_FIELDS) {
            if (!f.counter)
                continue;
            std::memcpy(p, &(stats.*f.counter), sizeof(uint64_t));
            p += sizeof(uint64_t);
        }
        for (const auto &[pc, s] : stalls) {
            const uint64_t rec[4] = {pc, s.stallCycles, s.instances,
                                     s.dependents};
            std::memcpy(p, rec, sizeof(rec));
            p += sizeof(rec);
        }
    });
}

} // namespace noreba
