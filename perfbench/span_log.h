/**
 * @file
 * In-memory span recorder for the benchmark's traced pass. A Span
 * times one call into a layer (wall clock and the calling thread's CPU
 * clock), remembers the span that caused it and the operation (job or
 * bundle) it belongs to, and lands in its thread's buffer when it
 * closes. Nothing is written until SpanLog::write() at exit, so the
 * traced pass pays one clock pair and one vector append per span.
 */

#ifndef NOREBA_PERFBENCH_SPAN_LOG_H
#define NOREBA_PERFBENCH_SPAN_LOG_H

#include <time.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace noreba::perfbench {

/** One closed span. Times are nanoseconds. */
struct SpanRec
{
    uint64_t id = 0;
    uint64_t parent = 0; //!< 0 = no parent
    int64_t op = -1;     //!< operation id; -1 = not part of one
    uint32_t thread = 0;
    const char *name = ""; //!< static string
    int64_t wallStart = 0, wallEnd = 0; //!< CLOCK_MONOTONIC
    int64_t cpuStart = 0, cpuEnd = 0;   //!< CLOCK_THREAD_CPUTIME_ID
    uint64_t count = 0; //!< work done inside the span (name-specific)
};

inline int64_t
clockNs(clockid_t clock)
{
    timespec ts{};
    clock_gettime(clock, &ts);
    return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

/** Process-wide span store: one append-only buffer per thread. */
class SpanLog
{
  public:
    static SpanLog &
    instance()
    {
        static SpanLog log;
        return log;
    }

    uint64_t nextId() { return ++lastId_; }

    /** Append a closed span to the calling thread's buffer. */
    void
    add(const SpanRec &rec)
    {
        thread_local std::vector<SpanRec> *buffer = nullptr;
        if (!buffer) {
            std::lock_guard<std::mutex> lock(mutex_);
            buffers_.push_back(std::make_unique<std::vector<SpanRec>>());
            buffer = buffers_.back().get();
        }
        buffer->push_back(rec);
    }

    /** Small dense id of the calling thread. */
    uint32_t
    threadId()
    {
        thread_local uint32_t id = ++lastThread_;
        return id;
    }

    /**
     * Write every span as tab-separated text. Call only once the
     * threads that recorded spans have been joined.
     */
    bool
    write(const std::string &path) const
    {
        std::FILE *f = std::fopen(path.c_str(), "w");
        if (!f)
            return false;
        std::fprintf(f, "id\tparent\top\tthread\tname\twall_start_ns\t"
                        "wall_end_ns\tcpu_start_ns\tcpu_end_ns\tcount\n");
        std::lock_guard<std::mutex> lock(mutex_);
        for (const auto &buffer : buffers_)
            for (const SpanRec &r : *buffer)
                std::fprintf(f, "%llu\t%llu\t%lld\t%u\t%s\t%lld\t%lld\t"
                                "%lld\t%lld\t%llu\n",
                             (unsigned long long)r.id,
                             (unsigned long long)r.parent, (long long)r.op,
                             r.thread, r.name, (long long)r.wallStart,
                             (long long)r.wallEnd, (long long)r.cpuStart,
                             (long long)r.cpuEnd,
                             (unsigned long long)r.count);
        return std::fclose(f) == 0;
    }

  private:
    mutable std::mutex mutex_;
    std::vector<std::unique_ptr<std::vector<SpanRec>>> buffers_;
    std::atomic<uint64_t> lastId_{0};
    std::atomic<uint32_t> lastThread_{0};
};

/**
 * RAII span. Spans opened on one thread nest: a span's parent and
 * operation default to the innermost open span on the same thread. A
 * span whose cause runs on another thread (a job on a pool worker,
 * caused by the dispatch on the main thread) names them explicitly.
 */
class Span
{
  public:
    explicit Span(const char *name) : Span(name, current(), currentOp()) {}

    Span(const char *name, uint64_t parent, int64_t op)
        : savedCurrent_(current()), savedOp_(currentOp())
    {
        SpanLog &log = SpanLog::instance();
        rec_.id = log.nextId();
        rec_.parent = parent;
        rec_.op = op;
        rec_.thread = log.threadId();
        rec_.name = name;
        current() = rec_.id;
        currentOp() = op;
        rec_.cpuStart = clockNs(CLOCK_THREAD_CPUTIME_ID);
        rec_.wallStart = clockNs(CLOCK_MONOTONIC);
    }

    ~Span()
    {
        rec_.wallEnd = clockNs(CLOCK_MONOTONIC);
        rec_.cpuEnd = clockNs(CLOCK_THREAD_CPUTIME_ID);
        current() = savedCurrent_;
        currentOp() = savedOp_;
        SpanLog::instance().add(rec_);
    }

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

    void count(uint64_t n) { rec_.count = n; }
    uint64_t id() const { return rec_.id; }

  private:
    static uint64_t &
    current()
    {
        thread_local uint64_t id = 0;
        return id;
    }

    static int64_t &
    currentOp()
    {
        thread_local int64_t op = -1;
        return op;
    }

    SpanRec rec_;
    uint64_t savedCurrent_;
    int64_t savedOp_;
};

} // namespace noreba::perfbench

#endif // NOREBA_PERFBENCH_SPAN_LOG_H
