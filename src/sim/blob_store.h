/**
 * @file
 * The one on-disk file format and publish policy under both persistent
 * caches: trace bundles (sim/trace_store.h) and simulation results
 * (sim/result_store.h) are thin payload codecs over a BlobStore.
 *
 * Format (one file per key, little-endian host layout):
 *
 *   BlobHeader | key text | pad8 | payload
 *
 * The header carries a magic, the codec's schema fingerprint (each
 * codec folds its format version and layout fingerprints into it), the
 * header and payload checksums, the file length and the key length.
 * The key text is the full identity the file name hashes; a load
 * compares it, so a name-hash collision misses instead of serving the
 * wrong entry. The payload starts 8-byte aligned, so a mapped file can
 * serve fixed-width records in place.
 *
 * Publishing is atomic and bounded: write a unique temp file, fsync,
 * rename over the final name; a failed step unlinks the temp file and
 * retries with deterministic jittered backoff, STORE_PUBLISH_ATTEMPTS
 * times in all. STORE_DEGRADE_STREAK consecutive failed publishes
 * degrade the store to cache-bypass mode: it warns once, reads keep
 * serving, and nothing more is written this run (a cache that cannot
 * be written costs rebuilds, never results).
 *
 * Fault sites (common/fault.h): `<name>.read` before every open for
 * reading, `<name>.{write,fsync,rename}` on every publish attempt.
 */

#ifndef NOREBA_SIM_BLOB_STORE_H
#define NOREBA_SIM_BLOB_STORE_H

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

namespace noreba {

/** Publish attempts per file (1 initial + bounded retries). */
constexpr int STORE_PUBLISH_ATTEMPTS = 3;

/** Consecutive failed publishes before a store degrades to bypass. */
constexpr int STORE_DEGRADE_STREAK = 3;

/** The common header of every store file. */
struct BlobHeader
{
    char magic[8];
    uint64_t schema;          //!< the writing codec's fingerprint
    uint64_t headerChecksum;  //!< FNV over the header, this field zeroed
    uint64_t payloadChecksum; //!< FNV over [sizeof(BlobHeader), fileBytes)
    uint64_t fileBytes;
    uint64_t keyBytes;
};

/** @p n rounded up to a multiple of 8 (section alignment). */
inline size_t
pad8(size_t n)
{
    return (n + 7) & ~size_t{7};
}

/** The value BlobHeader::headerChecksum must hold for @p h. */
uint64_t blobHeaderChecksum(const BlobHeader &h);

/** A validated blob's key text and payload, pointing into its bytes. */
struct BlobView
{
    std::string_view key;
    const uint8_t *payload = nullptr;
    size_t payloadBytes = 0;
};

/**
 * One store directory of one codec: its file naming, validation,
 * publishing and degradation state. All methods are thread-safe.
 */
class BlobStore
{
  public:
    /**
     * @param name    store label in warnings and fault-site prefix
     *                ("trace_store", "result_store")
     * @param dirEnv  environment variable naming the directory
     * @param ext     file extension, without the dot
     * @param version codec format version, part of every file name
     * @param schema  codec fingerprint every valid file carries
     */
    BlobStore(std::string name, const char *dirEnv, const char *ext,
              uint32_t version, uint64_t schema);

    /** The store directory, or empty when the store is disabled. */
    std::string dir() const;

    /**
     * `<dir>/<workload>-<hash of key and schema>.v<version>.<ext>`, or
     * empty when the store is disabled.
     */
    std::string path(const std::string &workload,
                     const std::string &key) const;

    /**
     * Open @p path for reading after the `<name>.read` fault site.
     * Returns the descriptor and sets @p bytes to the file size, or
     * returns -1 when the file is missing, unreadable or shorter than
     * a header.
     */
    int openForRead(const std::string &path, size_t &bytes) const;

    /**
     * Check that @p data holds one complete, uncorrupted blob of this
     * store's schema and point @p out at its key and payload. Bounds
     * every header field before using it; never reads past @p size.
     */
    bool validate(const uint8_t *data, size_t size, BlobView &out) const;

    /**
     * Publish @p key with a @p payloadBytes payload at @p path: frame
     * the blob, let @p fill write the payload in place (zeroed,
     * 8-byte aligned), then write, fsync and rename with retries.
     * Creates the directory if needed. Returns the file size, or 0 on
     * failure or when the store is degraded (warns, never aborts).
     */
    size_t publish(const std::string &path, const std::string &key,
                   size_t payloadBytes,
                   const std::function<void(uint8_t *)> &fill);

    /** Whether repeated failures degraded the store to bypass mode. */
    bool
    bypassed() const
    {
        return bypassed_.load(std::memory_order_relaxed);
    }

    /** Clear the failure streak and bypass latch (tests). */
    void resetHealth();

  private:
    /** Write all of @p buf to @p fd, fsync and close it (always
     *  closed); returns the failed step's name, or nullptr. */
    const char *writeDurably(int fd, const std::vector<uint8_t> &buf) const;
    void recordFailure();

    std::string name_;
    const char *dirEnv_;
    std::string ext_;
    uint32_t version_;
    uint64_t schema_;
    std::string readSite_, writeSite_, fsyncSite_, renameSite_;
    std::atomic<int> streak_{0};
    std::atomic<bool> bypassed_{false};
};

/**
 * Sleep before retry @p attempt of the work named @p tag: linear
 * backoff plus a deterministic jitter derived from the tag and attempt,
 * so concurrent retries de-synchronize without introducing
 * nondeterminism into any simulated result.
 */
void storeBackoff(int attempt, const std::string &tag);

} // namespace noreba

#endif // NOREBA_SIM_BLOB_STORE_H
