/**
 * @file
 * Store-queue address index: in-flight stores bucketed by address
 * chunk. An open-addressing table (linear probing, backward-shift
 * deletion) whose slots keep their bucket vectors when a chunk empties,
 * so once the table has warmed up, indexing a store allocates nothing —
 * the std::unordered_map it replaces allocated a node and a vector for
 * every chunk that became live.
 *
 * Bucket order is part of the model: a load walks its chunk's bucket
 * in order and stops at the first incomplete overlapping store, and
 * CoreStats::sqProbes counts the stores it looked at. Inserts append
 * and erases swap the last store into the hole, exactly as before.
 */

#ifndef NOREBA_UARCH_SQ_CHUNK_INDEX_H
#define NOREBA_UARCH_SQ_CHUNK_INDEX_H

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "uarch/inflight.h"

namespace noreba {

class SqChunkIndex
{
  public:
    using Bucket = std::vector<InFlight *>;

    /** @param expectedChunks live chunks to hold without growing */
    explicit SqChunkIndex(size_t expectedChunks = 16)
    {
        size_t n = 16;
        while (n < 2 * expectedChunks)
            n *= 2;
        slots_.resize(n);
    }

    /** The non-empty bucket of @p chunk, or nullptr. */
    const Bucket *
    find(uint64_t chunk) const
    {
        for (size_t i = home(chunk);; i = next(i)) {
            const Slot &s = slots_[i];
            if (!s.used)
                return nullptr;
            if (s.chunk == chunk)
                return &s.stores;
        }
    }

    void
    insert(uint64_t chunk, InFlight *p)
    {
        if (2 * (used_ + 1) > slots_.size())
            grow();
        size_t i = home(chunk);
        while (slots_[i].used && slots_[i].chunk != chunk)
            i = next(i);
        Slot &s = slots_[i];
        if (!s.used) {
            s.used = true;
            s.chunk = chunk;
            ++used_;
        }
        s.stores.push_back(p);
    }

    /** Remove @p p from @p chunk's bucket (the bucket's last store
     *  takes its place); an emptied chunk leaves the table. */
    void
    erase(uint64_t chunk, InFlight *p)
    {
        size_t i = home(chunk);
        while (slots_[i].used && slots_[i].chunk != chunk)
            i = next(i);
        panic_if(!slots_[i].used,
                 "SQ index lost the bucket for trace idx %d", p->idx);
        Bucket &bucket = slots_[i].stores;
        auto e = std::find(bucket.begin(), bucket.end(), p);
        panic_if(e == bucket.end(),
                 "SQ index lost the entry for trace idx %d", p->idx);
        *e = bucket.back();
        bucket.pop_back();
        if (bucket.empty())
            vacate(i);
    }

    /** Visit every (chunk, non-empty bucket), in table order. */
    template <typename F>
    void
    forEach(F f) const
    {
        for (const Slot &s : slots_)
            if (s.used)
                f(s.chunk, s.stores);
    }

  private:
    struct Slot
    {
        uint64_t chunk = 0;
        bool used = false;
        Bucket stores; //!< empty (capacity kept) while unused
    };

    size_t
    home(uint64_t chunk) const
    {
        return static_cast<size_t>((chunk * 0x9e3779b97f4a7c15ull) >> 32) &
               (slots_.size() - 1);
    }

    size_t next(size_t i) const { return (i + 1) & (slots_.size() - 1); }

    /** Free slot @p i, shifting later members of its probe run back so
     *  every lookup still finds its chunk before an unused slot. */
    void
    vacate(size_t i)
    {
        for (size_t j = next(i); slots_[j].used; j = next(j)) {
            size_t h = home(slots_[j].chunk);
            // Slot j may move to i only if its home is not cyclically
            // within (i, j].
            bool stays = i <= j ? (i < h && h <= j) : (i < h || h <= j);
            if (stays)
                continue;
            std::swap(slots_[i], slots_[j]);
            i = j;
        }
        slots_[i].used = false;
        --used_;
    }

    void
    grow()
    {
        std::vector<Slot> old(2 * slots_.size());
        old.swap(slots_);
        used_ = 0;
        for (Slot &s : old) {
            if (!s.used)
                continue;
            size_t i = home(s.chunk);
            while (slots_[i].used)
                i = next(i);
            slots_[i] = std::move(s);
            ++used_;
        }
    }

    std::vector<Slot> slots_;
    size_t used_ = 0;
};

} // namespace noreba

#endif // NOREBA_UARCH_SQ_CHUNK_INDEX_H
