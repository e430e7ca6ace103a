/**
 * @file
 * Persistent store for prepared trace bundles, so the compile ->
 * annotate -> interpret -> predictor-replay pipeline runs once per
 * (workload, options) across *processes*: a cold bench run publishes
 * each bundle under NOREBA_TRACE_DIR and every later bench (or sweep
 * worker) starts from an mmap in milliseconds, with memory bounded by
 * the page cache instead of one heap vector per process.
 *
 * A thin codec over the common blob format and publish policy
 * (sim/blob_store.h). The blob key is traceKey(); the payload is
 *
 *   TraceMeta | trace name | pad8 | TraceRecord[] |
 *   misprediction bitmap | PassResult blob
 *
 * The record section is the in-memory TraceRecord layout verbatim —
 * fixed-width fields, trivially copyable, layout-fingerprinted — so a
 * mapped file serves records zero-copy through a TraceView. Any
 * mismatch — magic, schema, size, checksum, key, section lengths —
 * makes open() return nullptr and the caller rebuild; a corrupted,
 * truncated or stale file is never half-read.
 */

#ifndef NOREBA_SIM_TRACE_STORE_H
#define NOREBA_SIM_TRACE_STORE_H

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "sim/blob_store.h"
#include "sim/runner.h"

namespace noreba {

/** Bump on any change to the bundle payload layout. */
constexpr uint32_t TRACE_STORE_FORMAT_VERSION = 2;

/**
 * Fingerprint of the trace-producing semantics: bump whenever the
 * compiler pass, the interpreter's BIT/DCT replay, a workload
 * generator, or the branch predictor changes behaviour, so stale
 * bundles miss instead of silently replaying old semantics.
 */
constexpr uint64_t TRACE_STORE_PASS_FINGERPRINT = 1;

/**
 * Compile-time fingerprint of the TraceRecord memory layout (size,
 * field offsets, endianness tag). Part of the store's schema, so a
 * bundle written by an ABI-incompatible build is rejected.
 */
uint64_t traceRecordLayoutFingerprint();

/** The NOREBA_TRACE_DIR bundle store. */
BlobStore &traceBlobStore();

/**
 * The identity of one prepared trace: workload and every TraceOptions
 * field, as exact, locale-independent text. The prefix of resultKey().
 */
std::string traceKey(const std::string &workload, const TraceOptions &opts);

/**
 * Full path of the bundle file for one cache key, or empty when the
 * store is disabled. `<workload>-<key hash>.v<format version>.ntb`.
 */
std::string traceBundlePath(const std::string &workload,
                            const TraceOptions &opts);

/**
 * An open, validated, memory-mapped bundle file. Owns the mapping;
 * TraceViews handed out point into it, so keep the shared_ptr alive
 * for as long as any view (TraceBundle::mapped does exactly that).
 */
class MappedTraceBundle
{
  public:
    /**
     * Map and validate `path`. Returns nullptr on any failure — missing
     * file, wrong magic/schema, truncation, checksum mismatch,
     * malformed sections — never a partially valid bundle.
     */
    static std::shared_ptr<const MappedTraceBundle>
    open(const std::string &path);

    /**
     * As open(path), and additionally miss unless the file was
     * published under @p key. A file published without a key (the
     * two-argument saveTraceBundle) is served by its name alone.
     */
    static std::shared_ptr<const MappedTraceBundle>
    open(const std::string &path, const std::string &key);

    ~MappedTraceBundle();
    MappedTraceBundle(const MappedTraceBundle &) = delete;
    MappedTraceBundle &operator=(const MappedTraceBundle &) = delete;

    /** Zero-copy view of the record section. */
    TraceView view() const;

    /** The traceKey() the bundle was published under (may be empty). */
    const std::string &key() const { return key_; }
    /** Misprediction verdicts, expanded from the on-disk bitmap. */
    const std::vector<uint8_t> &misp() const { return misp_; }
    const PassResult &pass() const { return pass_; }
    /** Architectural result checksum (Interpreter::regChecksum). */
    uint64_t archChecksum() const { return archChecksum_; }
    /** Total mapped file size in bytes. */
    size_t fileBytes() const { return mapBytes_; }

  private:
    MappedTraceBundle() = default;

    const void *map_ = nullptr;
    size_t mapBytes_ = 0;
    const TraceRecord *records_ = nullptr;
    size_t numRecords_ = 0;
    TraceSummary summary_;
    std::string name_;
    std::string key_;
    std::vector<uint8_t> misp_;
    PassResult pass_;
    uint64_t archChecksum_ = 0;
};

/**
 * Publish `bundle` at `path` under @p key through the trace store
 * (sim/blob_store.h: atomic, retried, degrading). Returns the bytes
 * written, or 0 on failure — the store is a cache, losing it costs a
 * rebuild.
 */
size_t saveTraceBundle(const std::string &path, const std::string &key,
                       const TraceBundle &bundle);

/** saveTraceBundle without a key: the file is served by name alone. */
size_t saveTraceBundle(const std::string &path, const TraceBundle &bundle);

} // namespace noreba

#endif // NOREBA_SIM_TRACE_STORE_H
