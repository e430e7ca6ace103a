/**
 * @file
 * The non-Selective-ROB commit policies of Figures 1 and 6:
 *
 *  - InOrderCommit: the conventional baseline (InO-C);
 *  - NonSpecOoOCommit: Bell & Lipasti's safe conditions over a
 *    collapsing ROB — commit anything completed whose older branches
 *    are all resolved and older memory ops are all past translation;
 *  - SpeculativeCommit: the two oracle upper bounds — SpeculativeBR
 *    (drop the branch condition entirely) and Speculative (commit
 *    anything completed), both with an ideal ROB and no misspeculation
 *    penalty, exactly as the paper evaluates them;
 *  - IdealReconvCommit: the paper's compiler information with an ideal
 *    ROB — commit anything completed whose *compiler guard chain* has
 *    resolved, without queue or table capacity limits.
 *
 * The others walk the uncommitted frontier (PipelineView), which is
 * the master ROB minus already-retired entries, in program order; a
 * commit unlinks the visited node, so loops grab the successor first.
 * IdealReconvCommit, whose ideal window makes that walk long, visits a
 * commit-candidate index instead (DESIGN.md §8).
 */

#include "uarch/commit/commit_policy.h"

#include <algorithm>
#include <vector>

#include "common/logging.h"
#include "uarch/pipeline_view.h"

namespace noreba {

/** Conventional in-order commit. */
class InOrderCommit : public CommitPolicy
{
  public:
    void
    commitCycle(PipelineView &view) override
    {
        int budget = view.config().commitWidth;
        for (InFlight *p = view.uncommittedHead(); p;) {
            InFlight *next = PipelineView::uncommittedNext(p);
            if (budget == 0 || !view.commitEligibleBasic(p))
                break;
            view.commit(p);
            --budget;
            p = next;
        }
    }

    const char *name() const override { return "InOrder"; }
};

/** Bell & Lipasti non-speculative OoO commit (collapsing ROB). */
class NonSpecOoOCommit : public CommitPolicy
{
  public:
    void
    commitCycle(PipelineView &view) override
    {
        int budget = view.config().commitWidth;
        TraceIdx brBar = view.oldestUnresolvedBranch();
        TraceIdx memBar = view.oldestUncheckedMem();
        for (InFlight *p = view.uncommittedHead(); p;) {
            InFlight *next = PipelineView::uncommittedNext(p);
            if (budget == 0)
                break;
            // Conditions 2/4/5: no older unresolved branch, no older
            // untranslated memory op (RISC-V FP does not trap). The
            // barrier instruction itself cannot be eligible yet, so a
            // >= break is exact.
            if (p->idx >= brBar || p->idx >= memBar)
                break;
            if (view.commitEligibleBasic(p)) {
                view.commit(p);
                --budget;
            }
            p = next;
        }
    }

    const char *name() const override { return "NonSpecOoO"; }
};

/** Oracle speculative commit (Figure 1 / Figure 6 upper bounds). */
class SpeculativeCommit : public CommitPolicy
{
  public:
    explicit SpeculativeCommit(bool keepMemCondition)
        : keepMemCondition_(keepMemCondition)
    {
    }

    void
    commitCycle(PipelineView &view) override
    {
        int budget = view.config().commitWidth;
        TraceIdx memBar =
            keepMemCondition_ ? view.oldestUncheckedMem() : INT32_MAX;
        for (InFlight *p = view.uncommittedHead(); p;) {
            InFlight *next = PipelineView::uncommittedNext(p);
            if (budget == 0)
                break;
            if (p->idx >= memBar)
                break;
            // Oracle resource recovery: C1/C3 relaxed (footnote 1), C5
            // dropped entirely; only the memory condition (when kept)
            // and fences gate reclamation.
            if (!view.fenceAllows(p))
                break;
            if ((isMem(p->rec->op) && !view.tlbDone(p)) ||
                (p->rec->op == Opcode::FENCE &&
                 !view.commitEligibleBasic(p))) {
                p = next;
                continue;
            }
            view.commit(p);
            --budget;
            p = next;
        }
    }

    const char *
    name() const override
    {
        return keepMemCondition_ ? "SpeculativeBR" : "SpeculativeFull";
    }

  private:
    const bool keepMemCondition_;
};

/**
 * Trace indices as a bitset over the whole trace, with an ascending
 * scan from any start. Sized on first use; setting, clearing and a
 * squash's suffix clear are O(1) per index.
 */
class IdxBitset
{
  public:
    bool sized() const { return !words_.empty(); }

    void
    resize(size_t n)
    {
        words_.assign((n + 63) / 64 + 1, 0);
    }

    void
    set(TraceIdx i)
    {
        words_[static_cast<size_t>(i) >> 6] |= bit(i);
        hi_ = std::max(hi_, i);
    }

    void
    clear(TraceIdx i)
    {
        words_[static_cast<size_t>(i) >> 6] &= ~bit(i);
    }

    /** Clear every index above @p after. */
    void
    clearAfter(TraceIdx after)
    {
        for (TraceIdx i = hi_; i > after; --i)
            clear(i);
        hi_ = std::min(hi_, after);
    }

    /** Smallest set index >= @p from, or -1. */
    TraceIdx
    next(TraceIdx from) const
    {
        if (from > hi_)
            return -1;
        size_t w = static_cast<size_t>(from) >> 6;
        uint64_t word = words_[w] & (~0ull << (from & 63));
        const size_t last = static_cast<size_t>(hi_) >> 6;
        while (word == 0) {
            if (++w > last)
                return -1;
            word = words_[w];
        }
        return static_cast<TraceIdx>(w * 64 +
                                     static_cast<size_t>(
                                         __builtin_ctzll(word)));
    }

  private:
    static uint64_t bit(TraceIdx i) { return 1ull << (i & 63); }

    std::vector<uint64_t> words_;
    TraceIdx hi_ = -1; //!< no index above this one is set
};

/**
 * Compiler reconvergence information with an ideal ROB.
 *
 * Commit takes the oldest eligible uncommitted instructions, in
 * program order, up to the memory barrier and the oldest unripe FENCE.
 * Instead of walking the whole uncommitted frontier every cycle, the
 * policy keeps a *candidate index*: a superset of the eligible
 * instructions, in trace order, that commit re-checks exactly. An
 * instruction found blocked leaves the index and is put back by the
 * one event that can unblock it — its own resolution (a branch) or the
 * resolution of the branch its guard chain waits on
 * (PipelineView::guardChainBlocker). A memory op still in its
 * page-table check is never examined: it holds the memory barrier.
 * Every blocking condition is monotone for an uncommitted instruction,
 * so each one is re-examined once per event instead of once per cycle.
 * FENCEs, whose eligibility moves with the commit cursor, simply stay.
 * Under CoreConfig::shadowIndexCheck each cycle's commits are checked
 * against the historical frontier walk.
 */
class IdealReconvCommit : public CommitPolicy
{
  public:
    void
    onDispatch(PipelineView &view, InFlight *p) override
    {
        if (!candidates_.sized()) {
            candidates_.resize(view.trace().size());
            waitHead_.assign(view.trace().size(), -1);
        }
        candidates_.set(p->idx);
    }

    void
    onResolve(PipelineView &view, InFlight *p) override
    {
        (void)view;
        if (!p->committed)
            candidates_.set(p->idx);
        // Everything parked on this branch gets another look.
        int32_t n = waitHead_[static_cast<size_t>(p->idx)];
        waitHead_[static_cast<size_t>(p->idx)] = -1;
        while (n >= 0) {
            Waiter &w = waiters_[static_cast<size_t>(n)];
            if (w.p->gen == w.gen && !w.p->committed)
                candidates_.set(w.p->idx);
            int32_t nx = w.next;
            w.next = freeWaiter_;
            freeWaiter_ = n;
            n = nx;
        }
    }

    void
    onSquash(PipelineView &view, TraceIdx after) override
    {
        (void)view;
        // Waiters of squashed instructions die by their generation;
        // a squashed branch's list is walked when its re-fetched
        // instance resolves.
        candidates_.clearAfter(after);
    }

    void
    commitCycle(PipelineView &view) override
    {
        const bool shadow = view.config().shadowIndexCheck;
        if (shadow)
            shadowWalk(view, expected_);
        committedNow_.clear();

        int budget = view.config().commitWidth;
        TraceIdx memBar = view.oldestUncheckedMem();
        for (TraceIdx i = candidates_.next(view.oldestUncommitted());
             i >= 0; i = candidates_.next(i + 1)) {
            if (budget == 0 || i >= memBar)
                break;
            InFlight *p = view.findInFlight(i);
            panic_if(!p || p->committed,
                     "commit candidate %d is not in flight", i);
            if (!view.fenceAllows(p))
                break;
            // Same commit conditions as Noreba (C1/C3 relaxed, guards
            // from the compiler), but with ideal reordering hardware.
            // (A memory op still in its page-table check never gets
            // here: it is at or past the memory barrier.)
            if (p->isBranch && !(p->resolved && p->completed)) {
                candidates_.clear(i); // back at its resolution
                continue;
            }
            if (p->rec->op == Opcode::FENCE &&
                !view.commitEligibleBasic(p))
                continue; // ripens with the cursor: stays a candidate
            TraceIdx blocker = view.guardChainBlocker(p);
            if (blocker != TRACE_NONE) {
                InFlight *b = view.findInFlight(blocker);
                if (b && !b->resolved) {
                    candidates_.clear(i);
                    park(p, blocker);
                }
                continue;
            }
            candidates_.clear(i);
            view.commit(p);
            if (shadow)
                committedNow_.push_back(i);
            --budget;
        }
        panic_if(shadow && committedNow_ != expected_,
                 "IdealReconv candidate index committed %zu "
                 "instructions, the frontier walk %zu (cycle %llu)",
                 committedNow_.size(), expected_.size(),
                 static_cast<unsigned long long>(view.now()));
    }

    const char *name() const override { return "IdealReconv"; }

    StallCause
    classifyStall(const PipelineView &view,
                  const InFlight *head) const override
    {
        StallCause base = CommitPolicy::classifyStall(view, head);
        // With no queue limits, a completed head only waits on its
        // compiler guard chain — charge the branches, not hardware.
        if (base == StallCause::Structural &&
            !view.guardChainResolved(head))
            return StallCause::HeadBranch;
        return base;
    }

  private:
    /** One instruction parked on a branch's resolution. */
    struct Waiter
    {
        InFlight *p;
        uint64_t gen;
        int32_t next; //!< next waiter of the same branch, or -1
    };

    void
    park(InFlight *p, TraceIdx branch)
    {
        int32_t n = freeWaiter_;
        if (n >= 0) {
            freeWaiter_ = waiters_[static_cast<size_t>(n)].next;
        } else {
            n = static_cast<int32_t>(waiters_.size());
            waiters_.push_back({});
        }
        int32_t &head = waitHead_[static_cast<size_t>(branch)];
        waiters_[static_cast<size_t>(n)] = Waiter{p, p->gen, head};
        head = n;
    }

    /**
     * The historical per-cycle frontier walk, as a dry run: the trace
     * indices it would commit this cycle, oldest first. Committing a
     * FENCE moves the fence barrier and may move the cursor, which the
     * walk tracks itself.
     */
    static void
    shadowWalk(const PipelineView &view, std::vector<TraceIdx> &out)
    {
        out.clear();
        int budget = view.config().commitWidth;
        TraceIdx memBar = view.oldestUncheckedMem();
        TraceIdx fence = view.oldestFence();
        TraceIdx cursor = view.oldestUncommitted();
        for (InFlight *p = view.uncommittedHead(); p;
             p = PipelineView::uncommittedNext(p)) {
            if (budget == 0 || p->idx >= memBar || fence < p->idx)
                break;
            const bool isFence = p->rec->op == Opcode::FENCE;
            bool skip = (p->isBranch && !(p->resolved && p->completed)) ||
                        (isMem(p->rec->op) && !view.tlbDone(p)) ||
                        (isFence && !(p->completed && p->idx == cursor)) ||
                        !view.guardChainResolved(p);
            if (skip)
                continue;
            out.push_back(p->idx);
            --budget;
            if (isFence) {
                fence = INT32_MAX;
                for (InFlight *q = PipelineView::uncommittedNext(p); q;
                     q = PipelineView::uncommittedNext(q)) {
                    if (q->rec->op == Opcode::FENCE) {
                        fence = q->idx;
                        break;
                    }
                }
            }
            if (p->idx == cursor) {
                cursor = p->idx + 1;
                while (cursor < static_cast<TraceIdx>(view.trace().size()) &&
                       view.isCommitted(cursor))
                    ++cursor;
            }
        }
    }

    IdxBitset candidates_;
    /** Trace idx of a branch -> first waiter parked on it, or -1. */
    std::vector<int32_t> waitHead_;
    std::vector<Waiter> waiters_; //!< pooled nodes of the wait lists
    int32_t freeWaiter_ = -1;
    /** @name Shadow check scratch @{ */
    std::vector<TraceIdx> expected_;
    std::vector<TraceIdx> committedNow_;
    /** @} */
};

/**
 * Validation Buffer (Petit/Sahuquillo/Lopez/Ubal/Duato, IEEE TC 2009;
 * the paper's Table 4 row "A complexity-effective out-of-order
 * retirement microarchitecture"). Speculative instructions (branches)
 * delimit *epochs*: when the epoch initiator at the buffer's head
 * resolves, every instruction of the preceding epoch is released. No
 * compiler information and no per-instruction checks — the buffer only
 * tracks epoch boundaries, which is the design's complexity argument.
 *
 * Model: instruction I retires once it has completed, its memory
 * condition holds, and the next branch after I (the initiator closing
 * I's epoch) plus every older branch have resolved.
 */
class ValidationBufferCommit : public CommitPolicy
{
  public:
    void
    commitCycle(PipelineView &view) override
    {
        if (nextBranch_.empty())
            buildEpochs(view);
        int budget = view.config().commitWidth;
        TraceIdx brBar = view.oldestUnresolvedBranch();
        TraceIdx memBar = view.oldestUncheckedMem();
        for (InFlight *p = view.uncommittedHead(); p;) {
            InFlight *next = PipelineView::uncommittedNext(p);
            if (budget == 0)
                break;
            if (p->idx >= memBar)
                break;
            if (view.commitEligibleBasic(p)) {
                // The closing initiator (and everything older)
                // resolved?
                TraceIdx closer =
                    nextBranch_[static_cast<size_t>(p->idx)];
                TraceIdx needed = closer == TRACE_NONE ? p->idx : closer;
                if (needed < brBar) {
                    view.commit(p);
                    --budget;
                }
            }
            p = next;
        }
    }

    const char *name() const override { return "ValidationBuffer"; }

    StallCause
    classifyStall(const PipelineView &view,
                  const InFlight *head) const override
    {
        StallCause base = CommitPolicy::classifyStall(view, head);
        if (base != StallCause::Structural || nextBranch_.empty())
            return base;
        // A completed head waiting for its epoch to close is stalled on
        // the initiator branch, not on buffer capacity.
        TraceIdx closer = nextBranch_[static_cast<size_t>(head->idx)];
        TraceIdx needed = closer == TRACE_NONE ? head->idx : closer;
        if (needed >= view.oldestUnresolvedBranch())
            return StallCause::HeadBranch;
        return base;
    }

  private:
    void
    buildEpochs(const PipelineView &view)
    {
        const TraceView &trace = view.trace();
        nextBranch_.assign(trace.size(), TRACE_NONE);
        TraceIdx next = TRACE_NONE;
        for (size_t i = trace.size(); i-- > 0;) {
            nextBranch_[i] = next;
            if (trace[i].isBranchSite())
                next = static_cast<TraceIdx>(i);
        }
    }

    std::vector<TraceIdx> nextBranch_;
};

bool
CommitPolicy::windowHasSpace(const PipelineView &view) const
{
    // Collapsing/conventional ROB: an entry is reclaimed the moment it
    // commits, so occupancy is the uncommitted in-flight count.
    return view.windowUsed() < view.config().robEntries;
}

StallCause
CommitPolicy::classifyStall(const PipelineView &view,
                            const InFlight *head) const
{
    // The head is the oldest uncommitted in-flight instruction, so no
    // older FENCE can block it; only the head *being* a not-yet-ripe
    // FENCE charges the fence bucket.
    if (head->rec->op == Opcode::FENCE &&
        !view.commitEligibleBasic(head))
        return StallCause::Fence;
    if (head->isBranch && !(head->resolved && head->completed))
        return StallCause::HeadBranch;
    if (isMem(head->rec->op) && !view.tlbDone(head))
        return StallCause::HeadMem;
    if (!head->completed)
        return StallCause::HeadExec;
    // Completed, resolved, checked — the policy's own structures (or
    // its barriers) are what held it back.
    return StallCause::Structural;
}

std::unique_ptr<CommitPolicy> makeNorebaCommit(const CoreConfig &cfg);

std::unique_ptr<CommitPolicy>
makeCommitPolicy(const CoreConfig &cfg)
{
    switch (cfg.commitMode) {
      case CommitMode::InOrder:
        return std::make_unique<InOrderCommit>();
      case CommitMode::NonSpecOoO:
        return std::make_unique<NonSpecOoOCommit>();
      case CommitMode::Noreba:
        return makeNorebaCommit(cfg);
      case CommitMode::IdealReconv:
        return std::make_unique<IdealReconvCommit>();
      case CommitMode::SpeculativeBR:
        return std::make_unique<SpeculativeCommit>(true);
      case CommitMode::SpeculativeFull:
        return std::make_unique<SpeculativeCommit>(false);
      case CommitMode::ValidationBuffer:
        return std::make_unique<ValidationBufferCommit>();
      default:
        fatal("unknown commit mode");
    }
}

} // namespace noreba
