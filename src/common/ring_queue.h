/**
 * @file
 * Growable ring-buffer FIFO for the pipeline's queues (fetch/decode
 * queues, master ROB, store queue, the Selective ROB's ROB' and commit
 * queues). Power-of-two capacity, O(1) push/pop at both ends, random
 * access by position, and no allocation once the ring has grown to the
 * queue's high-water mark — unlike std::deque, which allocates and frees
 * a block every few hundred pushes as the queue slides through memory.
 *
 * Elements are expected to be trivially copyable (the pipeline stores
 * pointers); popped slots are not destroyed.
 */

#ifndef NOREBA_COMMON_RING_QUEUE_H
#define NOREBA_COMMON_RING_QUEUE_H

#include <cstddef>
#include <iterator>
#include <type_traits>
#include <vector>

#include "common/logging.h"

namespace noreba {

template <typename T>
class RingQueue
{
    static_assert(std::is_trivially_copyable_v<T>,
                  "RingQueue holds trivially copyable elements");

  public:
    /** Iterator over positions [0, size()). */
    template <typename Q, typename R>
    class Iter
    {
      public:
        using iterator_category = std::forward_iterator_tag;
        using value_type = T;
        using difference_type = std::ptrdiff_t;
        using pointer = R *;
        using reference = R &;

        Iter() = default;
        Iter(Q *q, size_t pos) : q_(q), pos_(pos) {}

        reference operator*() const { return (*q_)[pos_]; }
        pointer operator->() const { return &(*q_)[pos_]; }
        Iter &operator++() { ++pos_; return *this; }
        Iter operator++(int) { Iter t = *this; ++pos_; return t; }
        Iter
        operator+(difference_type n) const
        {
            return Iter(q_, pos_ + static_cast<size_t>(n));
        }
        bool operator==(const Iter &o) const { return pos_ == o.pos_; }
        bool operator!=(const Iter &o) const { return pos_ != o.pos_; }

        size_t position() const { return pos_; }

      private:
        Q *q_ = nullptr;
        size_t pos_ = 0;
    };
    using iterator = Iter<RingQueue, T>;
    using const_iterator = Iter<const RingQueue, const T>;

    bool empty() const { return size_ == 0; }
    size_t size() const { return size_; }
    size_t capacity() const { return buf_.size(); }

    T &operator[](size_t i) { return buf_[(head_ + i) & mask_]; }
    const T &operator[](size_t i) const
    {
        return buf_[(head_ + i) & mask_];
    }

    T &front() { return buf_[head_]; }
    const T &front() const { return buf_[head_]; }
    T &back() { return (*this)[size_ - 1]; }
    const T &back() const { return (*this)[size_ - 1]; }

    iterator begin() { return iterator(this, 0); }
    iterator end() { return iterator(this, size_); }
    const_iterator begin() const { return const_iterator(this, 0); }
    const_iterator end() const { return const_iterator(this, size_); }

    void
    push_back(const T &v)
    {
        if (size_ == buf_.size()) [[unlikely]]
            grow();
        buf_[(head_ + size_) & mask_] = v;
        ++size_;
    }

    void
    pop_front()
    {
        panic_if(size_ == 0, "ring queue: pop_front on an empty queue");
        head_ = (head_ + 1) & mask_;
        --size_;
    }

    void
    pop_back()
    {
        panic_if(size_ == 0, "ring queue: pop_back on an empty queue");
        --size_;
    }

    void
    clear()
    {
        head_ = 0;
        size_ = 0;
    }

    /** Remove the element at @p pos, keeping the others in order
     *  (shifts the shorter side). Returns an iterator to the element
     *  that followed it. */
    iterator
    erase(iterator pos)
    {
        size_t i = pos.position();
        panic_if(i >= size_, "ring queue: erase past the end");
        if (i < size_ / 2) {
            for (size_t j = i; j > 0; --j)
                (*this)[j] = (*this)[j - 1];
            pop_front();
        } else {
            for (size_t j = i; j + 1 < size_; ++j)
                (*this)[j] = (*this)[j + 1];
            pop_back();
        }
        return iterator(this, i);
    }

  private:
    [[gnu::noinline]] void
    grow()
    {
        std::vector<T> bigger(buf_.empty() ? 16 : 2 * buf_.size());
        for (size_t i = 0; i < size_; ++i)
            bigger[i] = (*this)[i];
        buf_.swap(bigger);
        head_ = 0;
        mask_ = buf_.size() - 1;
    }

    std::vector<T> buf_;
    size_t head_ = 0;
    size_t size_ = 0;
    size_t mask_ = 0;
};

} // namespace noreba

#endif // NOREBA_COMMON_RING_QUEUE_H
