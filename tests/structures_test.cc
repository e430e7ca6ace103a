/**
 * @file
 * Unit and differential tests of the simulator's allocation-free hot
 * structures: the ring-buffer FIFO, the completion-event wheel, the
 * small flat map behind the Selective ROB's CQT/CIT, and the store
 * queue's chunk index. Each is checked against the standard container
 * it replaced under randomized churn.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <functional>
#include <map>
#include <queue>
#include <random>
#include <vector>

#include "common/ring_queue.h"
#include "common/small_map.h"
#include "uarch/completion_wheel.h"
#include "uarch/sq_chunk_index.h"

namespace noreba {
namespace {

template <typename T>
std::vector<T>
contents(const RingQueue<T> &q)
{
    return std::vector<T>(q.begin(), q.end());
}

template <typename T>
std::vector<T>
contents(const std::deque<T> &q)
{
    return std::vector<T>(q.begin(), q.end());
}

TEST(RingQueue, WrapsAroundWithoutGrowing)
{
    RingQueue<int> q;
    for (int i = 0; i < 10; ++i)
        q.push_back(i);
    const size_t cap = q.capacity();
    // Slide the window far past the buffer's end: pops free the head,
    // pushes land on the wrapped tail, and the capacity never moves.
    for (int i = 10; i < 1000; ++i) {
        q.pop_front();
        q.push_back(i);
        ASSERT_EQ(q.size(), 10u);
        ASSERT_EQ(q.front(), i - 9);
        ASSERT_EQ(q.back(), i);
    }
    EXPECT_EQ(q.capacity(), cap);
    for (size_t k = 0; k < q.size(); ++k)
        EXPECT_EQ(q[k], 990 + static_cast<int>(k));
}

TEST(RingQueue, GrowsWhileWrappedAndKeepsOrder)
{
    RingQueue<int> q;
    for (int i = 0; i < 12; ++i)
        q.push_back(i);
    for (int i = 0; i < 8; ++i)
        q.pop_front(); // head now sits mid-buffer
    for (int i = 12; i < 100; ++i)
        q.push_back(i); // wraps, then grows several times
    std::vector<int> expect;
    for (int i = 8; i < 100; ++i)
        expect.push_back(i);
    EXPECT_EQ(contents(q), expect);
    EXPECT_GE(q.capacity(), q.size());
    EXPECT_EQ(q.capacity() & (q.capacity() - 1), 0u);
}

TEST(RingQueue, PopBackAndClear)
{
    RingQueue<int> q;
    for (int i = 0; i < 5; ++i)
        q.push_back(i);
    q.pop_back();
    q.pop_back();
    EXPECT_EQ(contents(q), (std::vector<int>{0, 1, 2}));
    q.clear();
    EXPECT_TRUE(q.empty());
    q.push_back(7);
    EXPECT_EQ(q.front(), 7);
    EXPECT_EQ(q.back(), 7);
}

TEST(RingQueue, EraseFromTheMiddleKeepsOrder)
{
    for (int victim = 0; victim < 9; ++victim) {
        RingQueue<int> q;
        for (int i = 0; i < 4; ++i)
            q.push_back(-1);
        for (int i = 0; i < 4; ++i)
            q.pop_front(); // start wrapped
        for (int i = 0; i < 9; ++i)
            q.push_back(i);
        auto it = std::find(q.begin(), q.end(), victim);
        ASSERT_NE(it, q.end());
        auto next = q.erase(it);
        std::vector<int> expect;
        for (int i = 0; i < 9; ++i)
            if (i != victim)
                expect.push_back(i);
        EXPECT_EQ(contents(q), expect) << "victim " << victim;
        if (victim < 8) {
            EXPECT_EQ(*next, victim + 1);
        } else {
            EXPECT_EQ(next, q.end());
        }
    }
}

TEST(RingQueue, MatchesDequeUnderRandomChurn)
{
    std::mt19937 rng(3);
    RingQueue<int> q;
    std::deque<int> ref;
    int next = 0;
    for (int step = 0; step < 50000; ++step) {
        int op = static_cast<int>(rng() % 10);
        if (op < 5 || ref.empty()) {
            q.push_back(next);
            ref.push_back(next);
            ++next;
        } else if (op < 7) {
            q.pop_front();
            ref.pop_front();
        } else if (op < 9) {
            q.pop_back();
            ref.pop_back();
        } else {
            size_t i = rng() % ref.size();
            q.erase(q.begin() + static_cast<std::ptrdiff_t>(i));
            ref.erase(ref.begin() + static_cast<std::ptrdiff_t>(i));
        }
        ASSERT_EQ(q.size(), ref.size());
        if (!ref.empty()) {
            ASSERT_EQ(q.front(), ref.front());
            ASSERT_EQ(q.back(), ref.back());
        }
    }
    EXPECT_EQ(contents(q), contents(ref));
}

/** Random (cycle, seq) events popped from the wheel and from a binary
 *  heap must come out in the same order, drain by drain. */
void
checkWheelAgainstHeap(uint64_t horizon, int maxLatency, uint32_t seed)
{
    using Wheel = CompletionWheel<int>;
    struct Ref
    {
        uint64_t cycle, seq;
        int payload;
        bool operator>(const Ref &o) const
        {
            return cycle != o.cycle ? cycle > o.cycle : seq > o.seq;
        }
    };
    std::priority_queue<Ref, std::vector<Ref>, std::greater<Ref>> heap;
    Wheel wheel(horizon);
    std::mt19937 rng(seed);
    uint64_t seq = 0;
    size_t popped = 0;
    for (uint64_t now = 0; now < 4000; now += 1 + rng() % 3) {
        // Drain everything due, as writeback does.
        Wheel::Event e;
        while (wheel.popDue(now, e)) {
            ASSERT_FALSE(heap.empty());
            Ref r = heap.top();
            heap.pop();
            ASSERT_LE(r.cycle, now);
            ASSERT_EQ(e.cycle, r.cycle);
            ASSERT_EQ(e.seq, r.seq);
            ASSERT_EQ(e.payload, r.payload);
            ++popped;
        }
        ASSERT_TRUE(heap.empty() || heap.top().cycle > now);
        // Then schedule, as issue does: zero latencies land on the
        // cycle just drained, and sequence numbers arrive out of
        // order across cycles.
        int n = static_cast<int>(rng() % 6);
        for (int i = 0; i < n; ++i) {
            uint64_t lat = rng() % 4 == 0
                               ? 0
                               : rng() % static_cast<uint64_t>(maxLatency);
            uint64_t s = seq + rng() % 50;
            seq += 60;
            int payload = static_cast<int>(rng());
            wheel.push(now + lat, s, payload);
            heap.push(Ref{now + lat, s, payload});
        }
        ASSERT_EQ(wheel.size(), heap.size());
    }
    // Flush the tail, overflow events included.
    Wheel::Event e;
    for (uint64_t now = 4000; !heap.empty(); ++now) {
        while (wheel.popDue(now, e)) {
            Ref r = heap.top();
            heap.pop();
            ASSERT_EQ(e.cycle, r.cycle);
            ASSERT_EQ(e.seq, r.seq);
            ++popped;
        }
    }
    EXPECT_TRUE(wheel.empty());
    EXPECT_GT(popped, 1000u);
}

TEST(CompletionWheel, MatchesHeapWithinTheHorizon)
{
    checkWheelAgainstHeap(512, 300, 1);
}

TEST(CompletionWheel, MatchesHeapBeyondTheHorizon)
{
    // Latencies up to 8x the horizon exercise the overflow heap and
    // its migration into the buckets as the wheel turns.
    checkWheelAgainstHeap(16, 130, 2);
    checkWheelAgainstHeap(2, 9, 3);
}

TEST(CompletionWheel, ZeroLatencyEventWaitsForTheNextDrain)
{
    CompletionWheel<int> wheel(8);
    CompletionWheel<int>::Event e;
    wheel.push(5, 2, 20);
    EXPECT_FALSE(wheel.popDue(4, e));
    ASSERT_TRUE(wheel.popDue(5, e));
    EXPECT_EQ(e.payload, 20);
    EXPECT_FALSE(wheel.popDue(5, e));
    // Scheduled for the cycle already drained: delivered next drain,
    // ahead of that drain's own events whatever their seq.
    wheel.push(6, 1, 61);
    wheel.push(5, 9, 59);
    ASSERT_TRUE(wheel.popDue(6, e));
    EXPECT_EQ(e.payload, 59);
    ASSERT_TRUE(wheel.popDue(6, e));
    EXPECT_EQ(e.payload, 61);
    EXPECT_FALSE(wheel.popDue(6, e));
}

TEST(CompletionWheelDeathTest, PushIntoTheDrainedPastPanics)
{
    CompletionWheel<int> wheel(8);
    CompletionWheel<int>::Event e;
    wheel.push(3, 0, 0);
    while (wheel.popDue(10, e)) {
    }
    EXPECT_DEATH(wheel.push(9, 1, 0), "completion wheel");
}

TEST(SmallMap, MatchesStdMapUnderCqtCitChurn)
{
    // The CQT/CIT traffic: inserts of fresh branch indices, counter
    // bumps on live ones, erases by key, and squash-like bulk erases
    // of every key above a point — against std::map.
    std::mt19937 rng(9);
    SmallMap<int, int> map(8);
    std::map<int, int> ref;
    int next = 0;
    for (int step = 0; step < 40000; ++step) {
        int op = static_cast<int>(rng() % 10);
        if (op < 3 || ref.empty()) {
            next += 1 + static_cast<int>(rng() % 4);
            int v = static_cast<int>(rng() % 100);
            map[next] = v;
            ref[next] = v;
        } else if (op < 5) {
            int k = next - static_cast<int>(rng() % 40);
            ++map[k];
            ++ref[k];
        } else if (op < 8) {
            int k = next - static_cast<int>(rng() % 40);
            ASSERT_EQ(map.erase(k), ref.erase(k) == 1);
        } else if (op < 9) {
            int after = next - static_cast<int>(rng() % 20);
            map.eraseIf([after](const auto &e) { return e.key > after; });
            ref.erase(ref.upper_bound(after), ref.end());
        } else {
            // Reclaim-style sweep: drop entries whose value is even.
            map.eraseIf([](const auto &e) { return e.value % 2 == 0; });
            for (auto it = ref.begin(); it != ref.end();)
                it = it->second % 2 == 0 ? ref.erase(it) : std::next(it);
        }
        ASSERT_EQ(map.size(), ref.size());
        int probe = next - static_cast<int>(rng() % 50);
        const int *v = map.find(probe);
        auto it = ref.find(probe);
        ASSERT_EQ(v != nullptr, it != ref.end());
        if (v) {
            ASSERT_EQ(*v, it->second);
        }
    }
    for (const auto &[k, v] : ref) {
        const int *got = map.find(k);
        ASSERT_NE(got, nullptr);
        EXPECT_EQ(*got, v);
    }
}

TEST(SqChunkIndex, MatchesBucketVectorsUnderChurn)
{
    // Reference: the per-chunk vectors the core used to keep in an
    // unordered_map (append on insert, swap-pop on erase, bucket
    // dropped when empty). Bucket order must match exactly.
    std::mt19937 rng(4);
    std::vector<InFlight> slots(64);
    SqChunkIndex index(4); // small: forces growth
    std::map<uint64_t, std::vector<InFlight *>> ref;
    std::vector<std::pair<uint64_t, InFlight *>> live;
    for (int step = 0; step < 30000; ++step) {
        if (live.empty() || (rng() % 2 && live.size() < slots.size())) {
            InFlight *p = nullptr;
            for (InFlight &s : slots) {
                bool used = false;
                for (const auto &l : live)
                    used |= l.second == &s;
                if (!used) {
                    p = &s;
                    break;
                }
            }
            uint64_t chunk = rng() % 24;
            index.insert(chunk, p);
            ref[chunk].push_back(p);
            live.emplace_back(chunk, p);
        } else {
            size_t i = rng() % live.size();
            auto [chunk, p] = live[i];
            live.erase(live.begin() + static_cast<std::ptrdiff_t>(i));
            index.erase(chunk, p);
            auto &bucket = ref[chunk];
            auto e = std::find(bucket.begin(), bucket.end(), p);
            *e = bucket.back();
            bucket.pop_back();
            if (bucket.empty())
                ref.erase(chunk);
        }
        for (uint64_t chunk = 0; chunk < 24; ++chunk) {
            const SqChunkIndex::Bucket *b = index.find(chunk);
            auto it = ref.find(chunk);
            ASSERT_EQ(b != nullptr, it != ref.end()) << "chunk " << chunk;
            if (b) {
                ASSERT_EQ(*b, it->second) << "chunk " << chunk;
            }
        }
    }
    size_t buckets = 0;
    index.forEach([&](uint64_t, const SqChunkIndex::Bucket &) {
        ++buckets;
    });
    EXPECT_EQ(buckets, ref.size());
}

} // namespace
} // namespace noreba
