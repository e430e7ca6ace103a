/**
 * @file
 * Incrementally maintained pipeline-state indices. Every per-cycle
 * query a commit policy issues — oldest unresolved branch, oldest
 * unchecked memory op, per-site unresolved instance counts, the
 * uncommitted frontier — used to be a linear scan of the master ROB;
 * this layer keeps each answer current at dispatch / resolve / TLB
 * completion / commit / squash time instead, so queries are O(1) or
 * O(log n).
 *
 * Only Core mutates the index (via the on*() hooks, one per pipeline
 * event); policies observe it through PipelineView. The invariants —
 * and how squash recovery restores them — are documented in DESIGN.md
 * ("PipelineView and the pipeline-state indices"); shadowVerify()
 * re-derives every answer from the naive ROB scan and panics on any
 * divergence, which is how the differential test pins the index to the
 * pre-index semantics bit for bit.
 *
 * Nothing here allocates per instruction. Instructions enter the window
 * in ascending trace order and a squash removes a suffix, so every
 * ordered index is an append-only ascending vector (AscendingIndex) and
 * the in-flight lookup is a dense table indexed by trace position.
 */

#ifndef NOREBA_UARCH_PIPELINE_INDEX_H
#define NOREBA_UARCH_PIPELINE_INDEX_H

#include <algorithm>
#include <cstdint>
#include <queue>
#include <utility>
#include <vector>

#include "common/intrusive_list.h"
#include "common/logging.h"
#include "common/ring_queue.h"
#include "interp/trace.h"
#include "uarch/inflight.h"

namespace noreba {

/**
 * Trace indices in ascending order, each with a value, built by appends
 * only. Inserts must arrive in ascending order (panics otherwise), a
 * squash drops a suffix, and an erase from the middle leaves a
 * tombstone that is dropped once it reaches either end — so the oldest
 * live entry is always the first one, and no operation allocates once
 * the vector has grown to the window's size.
 */
template <typename V>
class AscendingIndex
{
  public:
    struct Entry
    {
        TraceIdx idx;
        bool live;
        V value;
    };

    bool empty() const { return live_ == 0; }
    size_t size() const { return live_; }

    /** Oldest live index, or `none` when empty. */
    TraceIdx
    oldest(TraceIdx none) const
    {
        return empty() ? none : entries_[head_].idx;
    }

    /** Append `idx`, which must be younger than every entry. */
    void
    push(TraceIdx idx, V value)
    {
        panic_if(entries_.size() > head_ && entries_.back().idx >= idx,
                 "ascending index: insert of trace idx %d after %d", idx,
                 entries_.back().idx);
        entries_.push_back(Entry{idx, true, value});
        ++live_;
    }

    /** The live entry for `idx`, or nullptr. */
    const Entry *
    find(TraceIdx idx) const
    {
        size_t i = position(idx);
        return i < entries_.size() ? &entries_[i] : nullptr;
    }

    bool contains(TraceIdx idx) const { return find(idx) != nullptr; }

    /** Tombstone `idx` if it is live; returns whether it was. */
    bool
    erase(TraceIdx idx)
    {
        size_t i = position(idx);
        if (i == entries_.size())
            return false;
        entries_[i].live = false;
        --live_;
        trim();
        return true;
    }

    /** Drop every entry younger than `after`, calling `onDrop(entry)`
     *  for each live one (youngest first). */
    template <typename F>
    void
    truncateAfter(TraceIdx after, F onDrop)
    {
        while (entries_.size() > head_ && entries_.back().idx > after) {
            if (entries_.back().live) {
                --live_;
                onDrop(entries_.back());
            }
            entries_.pop_back();
        }
        trim();
    }

    void
    truncateAfter(TraceIdx after)
    {
        truncateAfter(after, [](const Entry &) {});
    }

    /** Youngest live index older than `idx`, or TRACE_NONE. */
    TraceIdx
    youngestBefore(TraceIdx idx) const
    {
        auto first = entries_.begin() + static_cast<ptrdiff_t>(head_);
        for (auto it = lowerBound(idx); it != first;) {
            --it;
            if (it->live)
                return it->idx;
        }
        return TRACE_NONE;
    }

    /** Visit the live entries, oldest first. */
    template <typename F>
    void
    forEach(F f) const
    {
        for (size_t i = head_; i < entries_.size(); ++i)
            if (entries_[i].live)
                f(entries_[i]);
    }

  private:
    /** Position of the live entry for `idx`, or entries_.size(). */
    size_t
    position(TraceIdx idx) const
    {
        auto it = lowerBound(idx);
        return it != entries_.end() && it->idx == idx && it->live
                   ? static_cast<size_t>(it - entries_.begin())
                   : entries_.size();
    }

    typename std::vector<Entry>::const_iterator
    lowerBound(TraceIdx idx) const
    {
        return std::lower_bound(
            entries_.begin() + static_cast<ptrdiff_t>(head_),
            entries_.end(), idx,
            [](const Entry &e, TraceIdx i) { return e.idx < i; });
    }

    /** Pop tombstones off both ends; reclaim the dead prefix once it
     *  is at least half the vector (amortized O(1) per pop). */
    void
    trim()
    {
        while (entries_.size() > head_ && !entries_.back().live)
            entries_.pop_back();
        while (head_ < entries_.size() && !entries_[head_].live)
            ++head_;
        if (head_ == entries_.size()) {
            entries_.clear();
            head_ = 0;
        } else if (head_ >= 64 && 2 * head_ >= entries_.size()) {
            entries_.erase(entries_.begin(),
                           entries_.begin() +
                               static_cast<ptrdiff_t>(head_));
            head_ = 0;
        }
    }

    std::vector<Entry> entries_;
    size_t head_ = 0; //!< first entry; live unless the index is empty
    size_t live_ = 0;
};

class PipelineIndex
{
  public:
    /** @param traceLen records in the trace the core replays (sizes
     *                  the dense per-record tables once) */
    explicit PipelineIndex(size_t traceLen)
        : siteOf_(traceLen, -1), inflightByIdx_(traceLen, nullptr)
    {
    }

    /** @name Mutation hooks (Core only, one per pipeline event) @{ */

    /** A renamed instruction entered the window (p->isBranch is set). */
    void onDispatch(InFlight *p);

    /** A dispatched branch resolved in writeback. */
    void onResolve(InFlight *p);

    /** The instruction started (or finished) its page-table check. */
    void onTlbCheck(InFlight *p);

    /** The instruction retired (before resources are released). */
    void onCommit(InFlight *p);

    /** Every uncommitted instruction with idx > `after` was squashed. */
    void onSquash(TraceIdx after);

    /** The pool slot is being recycled (drop the idx mapping). */
    void onFree(InFlight *p);
    /** @} */

    /** @name Queries @{ */

    /**
     * Oldest in-flight (uncommitted) unresolved branch, or INT32_MAX.
     */
    TraceIdx
    oldestUnresolvedBranch() const
    {
        return unresolvedUncommitted_.oldest(INT32_MAX);
    }

    /**
     * Oldest uncommitted memory op whose TLB check has not completed
     * by `now`, or INT32_MAX. Drains the pending-completion heap.
     */
    TraceIdx
    oldestUncheckedMem(Cycle now)
    {
        drainTlbPending(now);
        return uncheckedMem_.oldest(INT32_MAX);
    }

    /**
     * Snapshot of all dispatched, still-unresolved branches
     * (committed-early ones included, matching the historical set
     * semantics) as (trace index, static site PC), oldest first. Test
     * oracles only: it copies.
     */
    std::vector<std::pair<TraceIdx, uint64_t>>
    unresolvedBranches() const
    {
        std::vector<std::pair<TraceIdx, uint64_t>> out;
        unresolved_.forEach(
            [&](const auto &e) { out.emplace_back(e.idx, e.value); });
        return out;
    }

    /** Oldest dispatched unresolved branch, or TRACE_NONE. */
    TraceIdx
    oldestUnresolved() const
    {
        return unresolved_.oldest(TRACE_NONE);
    }

    /** Youngest unresolved branch older than `idx`, or TRACE_NONE. */
    TraceIdx
    youngestUnresolvedBefore(TraceIdx idx) const
    {
        return unresolved_.youngestBefore(idx);
    }

    /**
     * Oldest unresolved instance of the static branch site of trace
     * record `idx`, or INT32_MAX (also when `idx` is no branch site).
     * Every branch older than a dispatched instruction has dispatched,
     * so its site is numbered by the time a guard chain asks.
     */
    TraceIdx
    oldestUnresolvedAtSiteOf(TraceIdx idx) const
    {
        int32_t site = siteOf_[static_cast<size_t>(idx)];
        return site < 0 ? INT32_MAX
                        : unresolvedBySite_[static_cast<size_t>(site)]
                              .oldest(INT32_MAX);
    }

    /** Oldest dispatched-but-uncommitted FENCE, or INT32_MAX. */
    TraceIdx oldestFence() const { return fences_.oldest(INT32_MAX); }

    /** In-flight instruction by trace index (nullptr if none). */
    InFlight *
    findInFlight(TraceIdx idx) const
    {
        return static_cast<size_t>(idx) < inflightByIdx_.size()
                   ? inflightByIdx_[static_cast<size_t>(idx)]
                   : nullptr;
    }

    /** @name Uncommitted frontier, program order @{ */
    InFlight *frontierHead() const { return frontier_.head(); }
    static InFlight *frontierNext(const InFlight *p)
    {
        return p->frontNext;
    }
    size_t frontierSize() const { return frontier_.size(); }
    /** @} */
    /** @} */

    /**
     * Differential check: recompute every query from a naive scan of
     * the master ROB and panic on the first divergence. Enabled per
     * cycle by CoreConfig::shadowIndexCheck; this is the oracle the
     * pipeline_index differential test drives.
     */
    void shadowVerify(const RingQueue<InFlight *> &rob, Cycle now,
                      const TraceView &trace);

  private:
    void drainTlbPending(Cycle now);

    /** Site id of a dispatched branch, numbered on its first
     *  dispatch. */
    int32_t siteOfDispatched(const InFlight *p);
    /** Slot of @p pc in siteSlots_ (its own, or the empty one where it
     *  belongs). */
    size_t siteSlot(uint64_t pc) const;

    /** Site id of a dispatched branch (panics for any other record). */
    size_t
    siteIndex(TraceIdx idx) const
    {
        int32_t site = siteOf_[static_cast<size_t>(idx)];
        panic_if(site < 0, "trace idx %d is not a numbered branch site",
                 idx);
        return static_cast<size_t>(site);
    }

    using Frontier =
        IntrusiveList<InFlight, &InFlight::frontPrev,
                      &InFlight::frontNext, &InFlight::inFrontier>;

    /** A TLB check that completes at `doneAt` (lazy removal). */
    struct TlbPending
    {
        Cycle doneAt;
        InFlight *p;
        uint64_t gen;
        bool operator>(const TlbPending &o) const
        {
            return doneAt > o.doneAt;
        }
    };

    /** Presence-only entries carry no value. */
    struct NoValue
    {
    };
    using IdxSet = AscendingIndex<NoValue>;

    /** Dispatched unresolved branches, valued by static site PC. */
    AscendingIndex<uint64_t> unresolved_;
    /** The uncommitted subset of unresolved_ (commit barrier). */
    IdxSet unresolvedUncommitted_;
    /** Dense static-site id of each dispatched branch record (-1
     *  for every other record); numbered on first dispatch. */
    std::vector<int32_t> siteOf_;
    /** Open-addressing PC -> site id table (-1 = empty slot). */
    std::vector<int32_t> siteSlots_;
    /** Static site id -> its PC. */
    std::vector<uint64_t> sitePc_;
    /** Static site id -> its unresolved dynamic instances. */
    std::vector<IdxSet> unresolvedBySite_;
    /** Uncommitted memory ops not yet past their TLB check. */
    IdxSet uncheckedMem_;
    /** Checks in flight, keyed by completion time. */
    std::priority_queue<TlbPending, std::vector<TlbPending>,
                        std::greater<TlbPending>>
        tlbPending_;
    /** Dispatched-but-uncommitted FENCE instructions. */
    IdxSet fences_;
    /** Trace idx -> its live in-flight incarnation (dense, one slot per
     *  record, sized at construction). */
    std::vector<InFlight *> inflightByIdx_;
    Frontier frontier_;
};

} // namespace noreba

#endif // NOREBA_UARCH_PIPELINE_INDEX_H
