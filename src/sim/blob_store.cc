#include "sim/blob_store.h"

#include <cctype>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <thread>
#include <type_traits>
#include <vector>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include "common/fault.h"
#include "common/fs.h"
#include "common/hash.h"
#include "common/logging.h"

namespace noreba {

namespace {

constexpr char MAGIC[8] = {'N', 'O', 'R', 'B', 'B', 'L', 'O', 'B'};

static_assert(sizeof(BlobHeader) % 8 == 0,
              "key text must start 8-byte aligned");
static_assert(std::is_trivially_copyable_v<BlobHeader>);

/** Run the I/O call @p op, unless a fault armed at @p site fails it
 *  first (returning -1 with the injected errno). */
template <class Op>
int
faultOr(const std::string &site, Op op)
{
    int err = 0;
    if (ioFaultAt(site.c_str(), &err)) {
        errno = err;
        return -1;
    }
    return op();
}

} // namespace

uint64_t
blobHeaderChecksum(const BlobHeader &h)
{
    BlobHeader copy = h;
    copy.headerChecksum = 0;
    return fnv1a(&copy, sizeof(copy));
}

BlobStore::BlobStore(std::string name, const char *dirEnv, const char *ext,
                     uint32_t version, uint64_t schema)
    : name_(std::move(name)), dirEnv_(dirEnv), ext_(ext),
      version_(version), schema_(schema), readSite_(name_ + ".read"),
      writeSite_(name_ + ".write"), fsyncSite_(name_ + ".fsync"),
      renameSite_(name_ + ".rename")
{
}

std::string
BlobStore::dir() const
{
    const char *env = std::getenv(dirEnv_);
    return env && *env ? std::string(env) : std::string();
}

std::string
BlobStore::path(const std::string &workload, const std::string &key) const
{
    std::string d = dir();
    if (d.empty())
        return {};
    const uint64_t h = fnv1a(&schema_, sizeof(schema_), fnv1a(key));
    std::string base;
    for (char c : workload)
        base.push_back(std::isalnum(static_cast<unsigned char>(c)) ? c
                                                                   : '_');
    char hex[32];
    std::snprintf(hex, sizeof(hex), "%016llx",
                  static_cast<unsigned long long>(h));
    return d + "/" + base + "-" + hex + ".v" + std::to_string(version_) +
           "." + ext_;
}

int
BlobStore::openForRead(const std::string &path, size_t &bytes) const
{
    int faultErrno = 0;
    if (ioFaultAt(readSite_.c_str(), &faultErrno)) {
        errno = faultErrno;
        return -1; // read-back failure == cache miss
    }
    const int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0)
        return -1;
    struct stat st;
    if (::fstat(fd, &st) != 0 || st.st_size < 0 ||
        static_cast<size_t>(st.st_size) < sizeof(BlobHeader)) {
        ::close(fd);
        return -1;
    }
    bytes = static_cast<size_t>(st.st_size);
    return fd;
}

bool
BlobStore::validate(const uint8_t *data, size_t size, BlobView &out) const
{
    if (size < sizeof(BlobHeader))
        return false;
    BlobHeader h;
    std::memcpy(&h, data, sizeof(h));
    if (std::memcmp(h.magic, MAGIC, sizeof(MAGIC)) != 0 ||
        h.headerChecksum != blobHeaderChecksum(h) || h.schema != schema_ ||
        h.fileBytes != size || h.keyBytes > size - sizeof(BlobHeader))
        return false;
    const size_t payloadOff =
        pad8(sizeof(BlobHeader) + static_cast<size_t>(h.keyBytes));
    if (payloadOff > size ||
        h.payloadChecksum != fnv1a(data + sizeof(BlobHeader),
                                   size - sizeof(BlobHeader)))
        return false;
    out.key = std::string_view(
        reinterpret_cast<const char *>(data + sizeof(BlobHeader)),
        static_cast<size_t>(h.keyBytes));
    out.payload = data + payloadOff;
    out.payloadBytes = size - payloadOff;
    return true;
}

size_t
BlobStore::publish(const std::string &path, const std::string &key,
                   size_t payloadBytes,
                   const std::function<void(uint8_t *)> &fill)
{
    if (bypassed())
        return 0;

    const size_t payloadOff = pad8(sizeof(BlobHeader) + key.size());
    const size_t fileBytes = payloadOff + payloadBytes;
    std::vector<uint8_t> buf(fileBytes, 0);
    std::memcpy(buf.data() + sizeof(BlobHeader), key.data(), key.size());
    fill(buf.data() + payloadOff);

    BlobHeader h{};
    std::memcpy(h.magic, MAGIC, sizeof(MAGIC));
    h.schema = schema_;
    h.fileBytes = fileBytes;
    h.keyBytes = key.size();
    h.payloadChecksum = fnv1a(buf.data() + sizeof(BlobHeader),
                              fileBytes - sizeof(BlobHeader));
    h.headerChecksum = blobHeaderChecksum(h);
    std::memcpy(buf.data(), &h, sizeof(h));

    const size_t slash = path.rfind('/');
    if (slash != std::string::npos && !ensureDir(path.substr(0, slash))) {
        warn("%s: cannot create directory for %s", name_.c_str(),
             path.c_str());
        recordFailure();
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
        const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_EXCL, 0644);
        if (fd < 0) {
            warn("%s: cannot create %s", name_.c_str(), tmp.c_str());
            recordFailure();
            return 0;
        }
        const char *failed = nullptr;
        try {
            failed = writeDurably(fd, buf);
            if (!failed && faultOr(renameSite_, [&] {
                    return ::rename(tmp.c_str(), path.c_str());
                }) != 0)
                failed = "rename";
        } catch (...) {
            // Injected `throw` at a store site: clean up the temp file
            // and let the job-level failure propagate to the sweep.
            ::unlink(tmp.c_str());
            throw;
        }
        if (!failed) {
            streak_.store(0, std::memory_order_relaxed);
            return fileBytes;
        }
        const int err = errno;
        ::unlink(tmp.c_str());
        if (attempt >= STORE_PUBLISH_ATTEMPTS) {
            warn("%s: %s failed for %s after %d attempts: %s",
                 name_.c_str(), failed, path.c_str(), attempt,
                 std::strerror(err));
            recordFailure();
            return 0;
        }
        storeBackoff(attempt, path);
    }
}

const char *
BlobStore::writeDurably(int fd, const std::vector<uint8_t> &buf) const
{
    const char *failed = nullptr;
    try {
        for (size_t done = 0; done < buf.size();) {
            int err = 0;
            ssize_t n;
            if (ioFaultAt(writeSite_.c_str(), &err)) {
                // short-write (ENOSPC): land half of the rest first so
                // the temp file really is truncated.
                const size_t half = (buf.size() - done) / 2;
                if (err == ENOSPC &&
                    ::write(fd, buf.data() + done, half) < 0) {
                    // already failing; keep the injected errno
                }
                errno = err;
                n = -1;
            } else {
                n = ::write(fd, buf.data() + done, buf.size() - done);
            }
            if (n <= 0) {
                failed = "write";
                break;
            }
            done += static_cast<size_t>(n);
        }
        if (!failed && faultOr(fsyncSite_, [&] { return ::fsync(fd); }) != 0)
            failed = "fsync";
    } catch (...) {
        ::close(fd);
        throw;
    }
    const int err = errno;
    if (::close(fd) != 0 && !failed)
        return "close";
    errno = err;
    return failed;
}

void
BlobStore::recordFailure()
{
    // The streak counts whole publishes, each already past its own
    // retries, so one transient blip never degrades the store.
    const int streak = streak_.fetch_add(1, std::memory_order_relaxed) + 1;
    if (streak >= STORE_DEGRADE_STREAK &&
        !bypassed_.exchange(true, std::memory_order_relaxed)) {
        warn("%s: %d consecutive publish failures; degrading to "
             "cache-bypass mode (simulation continues, nothing more is "
             "written this run)",
             name_.c_str(), streak);
    }
}

void
BlobStore::resetHealth()
{
    streak_.store(0, std::memory_order_relaxed);
    bypassed_.store(false, std::memory_order_relaxed);
}

void
storeBackoff(int attempt, const std::string &tag)
{
    const uint64_t h = fnv1a(&attempt, sizeof(attempt), fnv1a(tag));
    std::this_thread::sleep_for(std::chrono::milliseconds(attempt) +
                                std::chrono::microseconds(h % 1000));
}

} // namespace noreba
