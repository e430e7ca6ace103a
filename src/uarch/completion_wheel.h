/**
 * @file
 * Calendar wheel of completion events, ordered by (cycle, seq).
 *
 * The core schedules one event per issued instruction, `latency`
 * cycles ahead, and drains every due event at the start of each cycle
 * (writeback). A binary heap pays O(log n) per push and pop; the wheel
 * keeps one bucket per cycle of a power-of-two horizon — a list of
 * pooled nodes, so the working set is a few kilobytes of list heads and
 * the recently freed nodes — and a push is an append (plus a short
 * insertion step to keep the bucket in seq order) while a pop unlinks
 * the head. Events further ahead than the horizon — possible because
 * DRAM and TLB latencies are configurable — wait in an overflow heap
 * and move into their bucket once the wheel has turned far enough.
 *
 * Ordering invariant: popDue() yields exactly the sequence a
 * std::priority_queue keyed on (cycle, seq) would, including events
 * pushed for the current cycle after it was drained (a zero-latency
 * completion), which are delivered at the next drain ahead of that
 * drain's own cycle.
 */

#ifndef NOREBA_UARCH_COMPLETION_WHEEL_H
#define NOREBA_UARCH_COMPLETION_WHEEL_H

#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

#include "common/logging.h"

namespace noreba {

template <typename P>
class CompletionWheel
{
  public:
    struct Event
    {
        uint64_t cycle;
        uint64_t seq;
        P payload;

        bool
        operator>(const Event &o) const
        {
            return cycle != o.cycle ? cycle > o.cycle : seq > o.seq;
        }
    };

    /** @param horizon cycles ahead the buckets cover (rounded up to a
     *                 power of two, at least 2) */
    explicit CompletionWheel(uint64_t horizon)
    {
        size_t n = 2;
        while (n < horizon)
            n *= 2;
        heads_.assign(n, NIL);
        tails_.assign(n, NIL);
        mask_ = n - 1;
    }

    bool empty() const { return size_ == 0; }
    size_t size() const { return size_; }

    /** Schedule @p payload at @p cycle, which must not lie before the
     *  cycle last drained. */
    void
    push(uint64_t cycle, uint64_t seq, P payload)
    {
        panic_if(cycle < base_,
                 "completion wheel: event at cycle %llu after cycle %llu "
                 "was drained",
                 static_cast<unsigned long long>(cycle),
                 static_cast<unsigned long long>(base_));
        ++size_;
        Event e{cycle, seq, payload};
        if (cycle - base_ > mask_)
            overflow_.push(e);
        else
            insert(e);
    }

    /** Pop the next event due at or before @p now, in (cycle, seq)
     *  order; false once none is due. */
    bool
    popDue(uint64_t now, Event &out)
    {
        if (size_ == 0) {
            if (now > base_)
                base_ = now;
            return false;
        }
        while (base_ <= now) {
            const size_t b = base_ & mask_;
            if (int32_t n = heads_[b]; n != NIL) {
                Node &node = nodes_[static_cast<size_t>(n)];
                out = node.event;
                heads_[b] = node.next;
                if (node.next == NIL)
                    tails_[b] = NIL;
                node.next = free_;
                free_ = n;
                --size_;
                return true;
            }
            // Stay on `now`: an event pushed for it after this drain
            // is delivered by the next one.
            if (base_ == now)
                return false;
            ++base_;
            // One more cycle entered the horizon.
            while (!overflow_.empty() &&
                   overflow_.top().cycle - base_ <= mask_) {
                insert(overflow_.top());
                overflow_.pop();
            }
        }
        return false;
    }

  private:
    static constexpr int32_t NIL = -1;

    /** A scheduled event, linked into its cycle's bucket. */
    struct Node
    {
        Event event;
        int32_t next;
    };

    /** Link into the cycle's bucket, keeping it in seq order. Pushes
     *  mostly arrive in seq order (issue pops the ready queue oldest
     *  first), so this is nearly always an append at the tail. */
    void
    insert(const Event &e)
    {
        int32_t id = free_;
        if (id != NIL) {
            free_ = nodes_[static_cast<size_t>(id)].next;
        } else {
            id = static_cast<int32_t>(nodes_.size());
            nodes_.push_back({});
        }
        Node &node = nodes_[static_cast<size_t>(id)];
        node.event = e;
        const size_t b = e.cycle & mask_;
        const int32_t tail = tails_[b];
        if (tail == NIL || nodes_[static_cast<size_t>(tail)].event.seq <
                               e.seq) {
            node.next = NIL;
            if (tail == NIL)
                heads_[b] = id;
            else
                nodes_[static_cast<size_t>(tail)].next = id;
            tails_[b] = id;
            return;
        }
        int32_t *link = &heads_[b];
        while (nodes_[static_cast<size_t>(*link)].event.seq < e.seq)
            link = &nodes_[static_cast<size_t>(*link)].next;
        node.next = *link;
        *link = id;
    }

    /** Per-cycle bucket lists (node indices, NIL when empty). */
    std::vector<int32_t> heads_;
    std::vector<int32_t> tails_;
    /** Node pool; freed nodes are reused first, so it stays warm. */
    std::vector<Node> nodes_;
    int32_t free_ = NIL;
    uint64_t mask_ = 0;
    /** Every event with cycle in [base_, base_ + horizon) is in its
     *  bucket; later ones are in overflow_. */
    uint64_t base_ = 0;
    std::priority_queue<Event, std::vector<Event>, std::greater<Event>>
        overflow_;
    size_t size_ = 0;
};

} // namespace noreba

#endif // NOREBA_UARCH_COMPLETION_WHEEL_H
