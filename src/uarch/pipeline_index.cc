#include "uarch/pipeline_index.h"

#include <algorithm>

#include "common/logging.h"

namespace noreba {

namespace {

/** The live trace indices of an ordered index, oldest first. */
template <typename V>
std::vector<TraceIdx>
liveIndices(const AscendingIndex<V> &index)
{
    std::vector<TraceIdx> out;
    index.forEach([&](const auto &e) { out.push_back(e.idx); });
    return out;
}

} // namespace

int32_t
PipelineIndex::siteOfDispatched(const InFlight *p)
{
    int32_t &site = siteOf_[static_cast<size_t>(p->idx)];
    if (site >= 0)
        return site;
    // First dispatch of this record: look its PC up in a small
    // open-addressing table (PC -> site id) that doubles as it fills.
    const uint64_t pc = p->rec->pc;
    if (2 * (sitePc_.size() + 1) > siteSlots_.size()) {
        siteSlots_.assign(std::max<size_t>(64, 2 * siteSlots_.size()), -1);
        for (size_t s = 0; s < sitePc_.size(); ++s)
            siteSlots_[siteSlot(sitePc_[s])] = static_cast<int32_t>(s);
    }
    int32_t &slot = siteSlots_[siteSlot(pc)];
    if (slot < 0) {
        slot = static_cast<int32_t>(sitePc_.size());
        sitePc_.push_back(pc);
        unresolvedBySite_.emplace_back();
    }
    site = slot;
    return site;
}

size_t
PipelineIndex::siteSlot(uint64_t pc) const
{
    const size_t mask = siteSlots_.size() - 1;
    size_t i = static_cast<size_t>((pc * 0x9e3779b97f4a7c15ull) >> 40) & mask;
    while (siteSlots_[i] >= 0 &&
           sitePc_[static_cast<size_t>(siteSlots_[i])] != pc)
        i = (i + 1) & mask;
    return i;
}

void
PipelineIndex::onDispatch(InFlight *p)
{
    frontier_.pushBack(p);
    inflightByIdx_[static_cast<size_t>(p->idx)] = p;
    const TraceRecord &rec = *p->rec;
    if (p->isBranch) {
        unresolved_.push(p->idx, rec.pc);
        unresolvedUncommitted_.push(p->idx, {});
        unresolvedBySite_[static_cast<size_t>(siteOfDispatched(p))].push(
            p->idx, {});
    }
    if (isMem(rec.op))
        uncheckedMem_.push(p->idx, {});
    if (rec.op == Opcode::FENCE)
        fences_.push(p->idx, {});
}

void
PipelineIndex::onResolve(InFlight *p)
{
    const auto *e = unresolved_.find(p->idx);
    if (!e)
        return;
    unresolvedBySite_[siteIndex(p->idx)].erase(p->idx);
    unresolvedUncommitted_.erase(p->idx);
    unresolved_.erase(p->idx);
}

void
PipelineIndex::onTlbCheck(InFlight *p)
{
    tlbPending_.push(TlbPending{p->tlbDoneAt, p, p->gen});
}

void
PipelineIndex::drainTlbPending(Cycle now)
{
    while (!tlbPending_.empty() && tlbPending_.top().doneAt <= now) {
        TlbPending e = tlbPending_.top();
        tlbPending_.pop();
        // The generation pins the incarnation: a squashed-and-recycled
        // slot (or a freed zombie) must not evict its successor's
        // entry.
        if (e.p->gen == e.gen)
            uncheckedMem_.erase(e.p->idx);
    }
}

void
PipelineIndex::onCommit(InFlight *p)
{
    frontier_.erase(p);
    const TraceRecord &rec = *p->rec;
    if (p->isBranch) {
        // A policy may retire an unresolved branch early (the
        // speculative oracles): it leaves the commit barrier but stays
        // in unresolved_ until writeback resolves it, matching the
        // historical set semantics every query was defined against.
        unresolvedUncommitted_.erase(p->idx);
    }
    if (isMem(rec.op))
        uncheckedMem_.erase(p->idx);
    if (rec.op == Opcode::FENCE)
        fences_.erase(p->idx);
}

void
PipelineIndex::onSquash(TraceIdx after)
{
    while (frontier_.tail() && frontier_.tail()->idx > after)
        frontier_.erase(frontier_.tail());

    // Every ordered index rolls back by suffix: the squashed entries
    // are exactly the ones younger than `after`.
    unresolved_.truncateAfter(after, [&](const auto &e) {
        unresolvedBySite_[siteIndex(e.idx)].truncateAfter(after);
    });
    unresolvedUncommitted_.truncateAfter(after);
    uncheckedMem_.truncateAfter(after);
    fences_.truncateAfter(after);
    // tlbPending_ keeps stale entries; drainTlbPending's generation
    // check discards them. inflightByIdx_ entries die with onFree.
}

void
PipelineIndex::onFree(InFlight *p)
{
    panic_if(p->inFrontier,
             "freeing trace idx %d while still on the uncommitted "
             "frontier",
             p->idx);
    // Only the incarnation the slot names: a stale one (squashed, its
    // index since re-dispatched) must not clear its successor.
    if (findInFlight(p->idx) == p)
        inflightByIdx_[static_cast<size_t>(p->idx)] = nullptr;
}

void
PipelineIndex::shadowVerify(const RingQueue<InFlight *> &rob, Cycle now,
                            const TraceView &trace)
{
    // Frontier == the uncommitted subsequence of the master ROB.
    InFlight *f = frontier_.head();
    size_t uncommitted = 0;
    for (InFlight *p : rob) {
        if (p->committed)
            continue;
        ++uncommitted;
        panic_if(f != p,
                 "frontier diverged from the ROB at trace idx %d",
                 p->idx);
        f = p->frontNext;
    }
    panic_if(f != nullptr || frontier_.size() != uncommitted,
             "frontier has stale entries (%zu vs %zu uncommitted)",
             frontier_.size(), uncommitted);

    // Naive commit barriers from a full ROB scan.
    TraceIdx naiveBranch = INT32_MAX;
    TraceIdx naiveMem = INT32_MAX;
    std::vector<TraceIdx> naiveUnchecked;
    std::vector<TraceIdx> naiveFences;
    for (InFlight *p : rob) {
        if (p->committed)
            continue;
        if (p->isBranch && !p->resolved && naiveBranch == INT32_MAX)
            naiveBranch = p->idx;
        if (isMem(p->rec->op) &&
            !(p->tlbChecked && now >= p->tlbDoneAt)) {
            if (naiveMem == INT32_MAX)
                naiveMem = p->idx;
            naiveUnchecked.push_back(p->idx);
        }
        if (p->rec->op == Opcode::FENCE)
            naiveFences.push_back(p->idx);
        if (p->isBranch && !p->resolved) {
            panic_if(!unresolvedUncommitted_.contains(p->idx),
                     "unresolved branch %d missing from the barrier "
                     "index",
                     p->idx);
            panic_if(!unresolved_.contains(p->idx),
                     "unresolved branch %d missing from unresolved_",
                     p->idx);
        }
        panic_if(findInFlight(p->idx) != p,
                 "inflightByIdx_ lost trace idx %d", p->idx);
    }
    panic_if(oldestUnresolvedBranch() != naiveBranch,
             "oldestUnresolvedBranch: index %d vs naive %d",
             oldestUnresolvedBranch(), naiveBranch);
    panic_if(oldestUncheckedMem(now) != naiveMem,
             "oldestUncheckedMem: index %d vs naive %d",
             oldestUncheckedMem(now), naiveMem);
    panic_if(liveIndices(uncheckedMem_) != naiveUnchecked,
             "unchecked-memory index diverged (%zu vs %zu entries)",
             uncheckedMem_.size(), naiveUnchecked.size());
    panic_if(liveIndices(fences_) != naiveFences,
             "fence index diverged (%zu vs %zu entries)",
             fences_.size(), naiveFences.size());

    // unresolvedUncommitted_ must not exceed the naive count (every
    // member was matched above).
    size_t naiveUnresolved = 0;
    for (InFlight *p : rob)
        if (!p->committed && p->isBranch && !p->resolved)
            ++naiveUnresolved;
    panic_if(unresolvedUncommitted_.size() != naiveUnresolved,
             "barrier index has stale branches (%zu vs %zu)",
             unresolvedUncommitted_.size(), naiveUnresolved);

    // Per-site instance index is an exact partition of unresolved_.
    size_t bySiteTotal = 0;
    for (size_t site = 0; site < unresolvedBySite_.size(); ++site) {
        const uint64_t pc = sitePc_[site];
        const IdxSet &bucket = unresolvedBySite_[site];
        bySiteTotal += bucket.size();
        bucket.forEach([&](const auto &e) {
            const auto *u = unresolved_.find(e.idx);
            panic_if(!u || u->value != pc,
                     "per-site bucket %llx holds idx %d not unresolved "
                     "at that site",
                     static_cast<unsigned long long>(pc), e.idx);
            panic_if(trace[static_cast<size_t>(e.idx)].pc != pc,
                     "per-site bucket %llx mismatches trace pc",
                     static_cast<unsigned long long>(pc));
        });
    }
    panic_if(bySiteTotal != unresolved_.size(),
             "per-site partition lost entries (%zu vs %zu)", bySiteTotal,
             unresolved_.size());
}

} // namespace noreba
