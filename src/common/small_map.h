/**
 * @file
 * Unordered map for a handful of live keys, stored as one flat vector:
 * lookups scan it, erases swap the last entry into the hole. Meant for
 * hardware tables with a small fixed capacity (the Selective ROB's CQT
 * and its per-guard CIT counts), where a scan of a few cache lines
 * beats a tree node allocation per insert. Iteration order is
 * unspecified; callers must not depend on it.
 */

#ifndef NOREBA_COMMON_SMALL_MAP_H
#define NOREBA_COMMON_SMALL_MAP_H

#include <cstddef>
#include <vector>

namespace noreba {

template <typename K, typename V>
class SmallMap
{
  public:
    struct Entry
    {
        K key;
        V value;
    };

    /** @param capacity live keys to hold before the vector grows */
    explicit SmallMap(size_t capacity = 0) { entries_.reserve(capacity); }

    size_t size() const { return entries_.size(); }

    /** The value for @p key, or nullptr. */
    V *
    find(const K &key)
    {
        for (Entry &e : entries_)
            if (e.key == key)
                return &e.value;
        return nullptr;
    }

    /** The value for @p key, value-initialized if absent. */
    V &
    operator[](const K &key)
    {
        if (V *v = find(key))
            return *v;
        entries_.push_back(Entry{key, V{}});
        return entries_.back().value;
    }

    /** Remove @p key; returns whether it was present. */
    bool
    erase(const K &key)
    {
        for (size_t i = 0; i < entries_.size(); ++i) {
            if (entries_[i].key == key) {
                entries_[i] = entries_.back();
                entries_.pop_back();
                return true;
            }
        }
        return false;
    }

    /** Remove every entry for which @p pred(entry) holds. */
    template <typename P>
    void
    eraseIf(P pred)
    {
        for (size_t i = 0; i < entries_.size();) {
            if (pred(entries_[i])) {
                entries_[i] = entries_.back();
                entries_.pop_back();
            } else {
                ++i;
            }
        }
    }

  private:
    std::vector<Entry> entries_;
};

} // namespace noreba

#endif // NOREBA_COMMON_SMALL_MAP_H
