/**
 * @file
 * The NOREBA commit policy: the Selective ROB of Section 4.
 *
 * Dispatched instructions enter the FIFO ROB' in program order. Each
 * cycle, up to steerWidth instructions leave the ROB' head and are
 * steered to FIFO commit queues exactly per Table 1:
 *
 *  - a *marked* branch (one that carried a setBranchId) registers
 *    CQT[BranchID] = CQ and is steered to its own guard's queue if that
 *    guard is still live in the CQT (keeping dependence chains in FIFO
 *    order), otherwise to a free Branch Commit Queue (or the PR-CQ if
 *    it already resolved);
 *  - any other instruction goes to CQT[Inst.BranchID] if that entry
 *    exists, else to the Primary Commit Queue;
 *  - loads and stores steer only once their page-table access succeeded
 *    (in-order TLB check at the ROB' head).
 *
 * Commit picks the oldest eligible queue head each cycle (branches must
 * have resolved; everything else follows the shared commit conditions).
 * A commit that happens out of program order allocates a CIT entry
 * (direct-mapped by PC); a CIT set conflict stalls that commit, and
 * entries are reclaimed once in-order commit passes them (Section 4.3).
 * Committed branches remove their CQT entry.
 */

#include <algorithm>
#include <vector>

#include "common/logging.h"
#include "common/ring_queue.h"
#include "common/small_map.h"
#include "uarch/commit/commit_policy.h"
#include "uarch/pipeline_view.h"

namespace noreba {

class NorebaCommit : public CommitPolicy
{
  public:
    explicit NorebaCommit(const CoreConfig &cfg)
        : srob_(cfg.srob),
          cqt_(static_cast<size_t>(std::max(0, srob_.cqtEntries))),
          citByGuard_(static_cast<size_t>(std::max(0, srob_.citEntries)))
    {
        brCqs_.resize(static_cast<size_t>(srob_.numBrCqs));
        // +1: slot 0 tracks the PR-CQ, slots 1..numBrCqs the BR-CQs.
        blocked_.resize(1 + brCqs_.size());
        heads_.resize(1 + brCqs_.size());
    }

    void
    onDispatch(PipelineView &view, InFlight *p) override
    {
        (void)view;
        robPrime_.push_back(p);
    }

    bool
    windowHasSpace(const PipelineView &view) const override
    {
        // Steered instructions have released their ROB' entry; only the
        // un-steered ones occupy it (Section 4.2: ROB' size equals the
        // baseline ROB).
        return robPrime_.size() <
               static_cast<size_t>(view.config().robEntries);
    }

    void
    commitCycle(PipelineView &view) override
    {
        steerStall_ = SteerStall::None;
        reclaimCit(view);
        commitFromQueues(view);
        steer(view);
    }

    void
    onSquash(PipelineView &view, TraceIdx after) override
    {
        (void)view;
        auto purge = [after](RingQueue<InFlight *> &q) {
            while (!q.empty() && q.back()->idx > after)
                q.pop_back();
        };
        purge(robPrime_);
        purge(prCq_);
        for (auto &q : brCqs_)
            purge(q);
        // Live CQT entries of squashed branches disappear with them.
        cqt_.eraseIf([after](const auto &e) { return e.key > after; });
    }

    const char *name() const override { return "Noreba"; }

    StallCause
    classifyStall(const PipelineView &view,
                  const InFlight *head) const override
    {
        if (!head->steered) {
            // The oldest uncommitted instruction is un-steered, so it
            // is the ROB' head (everything ahead of it in the FIFO
            // would be older, un-steered, hence uncommitted). Charge
            // whatever kept the steer stage from moving it; with no
            // recorded block it simply missed this cycle's steer
            // bandwidth, a structural limit.
            if (steerStall_ == SteerStall::Tlb)
                return StallCause::HeadMem;
            return StallCause::Structural;
        }
        StallCause base = CommitPolicy::classifyStall(view, head);
        // A completed, checked queue head only waits on its compiler
        // guard chain (branch C5 / order-sensitive re-validation);
        // CIT-full blocks stay structural.
        if (base == StallCause::Structural &&
            !view.guardChainResolved(head))
            return StallCause::HeadBranch;
        return base;
    }

  private:
    enum class SteerStall
    {
        None,
        Tlb,
        Cqt,
        CqFull,
    };
    RingQueue<InFlight *> &
    queueOf(int cq)
    {
        return cq < 0 ? prCq_ : brCqs_[static_cast<size_t>(cq)];
    }

    size_t
    capacityOf(int cq) const
    {
        return cq < 0 ? static_cast<size_t>(srob_.prCqEntries)
                      : static_cast<size_t>(srob_.brCqEntries);
    }

    bool
    headEligible(const PipelineView &view, InFlight *p) const
    {
        if (p->isBranch) {
            // A branch must itself be on a proven path before it
            // commits: its compiler guard chain has to be resolved
            // (C5 applied to the branch's own marked dependence).
            return p->resolved && p->completed &&
                   view.commitEligibleBasic(p) &&
                   view.guardChainResolved(p);
        }
        // Order-sensitive instructions (cross-instance data flows) must
        // re-validate their chain sites at the head: sitting behind the
        // guard in the FIFO only proves the *latest* instance committed.
        if ((p->rec->orderSensitive || p->rec->orderStrict) &&
            !view.guardChainResolved(p))
            return false;
        // Footnote-1 C1/C3 relaxation: commit is non-speculative
        // *resource recovery*. Once an instruction cannot trap (memory
        // ops past their page-table check; RISC-V FP accrues into fcsr)
        // and its dependence queue has cleared, its window resources
        // are reclaimed even before the result returns; execution
        // completes in the background.
        if (isMem(p->rec->op))
            return view.tlbDone(p) && view.fenceAllows(p);
        return view.fenceAllows(p) &&
               (p->rec->op != Opcode::FENCE || view.commitEligibleBasic(p));
    }

    void
    commitFromQueues(PipelineView &view)
    {
        int budget = view.config().commitWidth;
        const int nq = static_cast<int>(brCqs_.size());
        // Each queue's eligible head (or nullptr), evaluated once per
        // cycle. A commit can change the verdict only for the queue it
        // popped and for FENCE heads, which ripen as the cursor moves —
        // or, when the commit was a FENCE, for every head it held back.
        // Guard chains, completion and page-table checks do not move
        // within the commit stage.
        std::fill(blocked_.begin(), blocked_.end(), 0);
        for (int cq = -1; cq < nq; ++cq)
            heads_[static_cast<size_t>(cq + 1)] = eligibleHead(view, cq);

        while (budget > 0) {
            InFlight *best = nullptr;
            int bestCq = -2;
            for (int cq = -1; cq < nq; ++cq) {
                InFlight *h = heads_[static_cast<size_t>(cq + 1)];
                if (h && (!best || h->idx < best->idx)) {
                    best = h;
                    bestCq = cq;
                }
            }
            if (!best)
                break;

            // Out-of-order commits must secure a CIT entry first. The
            // CIT is modelled as an associative capacity of citEntries
            // live records (the paper's direct-mapped-by-PC table would
            // conflict between instances of the same static instruction,
            // which its own Figure 4 example implies must coexist).
            // Each entry records the most recent unresolved branch at
            // commit time and is reclaimed when that branch commits
            // (Section 4.3).
            if (best->idx > view.oldestUncommitted()) {
                if (citLive_ >= srob_.citEntries) {
                    ++view.stats().citFullStalls;
                    blocked_[static_cast<size_t>(bestCq + 1)] = 1;
                    heads_[static_cast<size_t>(bestCq + 1)] = nullptr;
                    continue;
                }
                TraceIdx guard = view.youngestUnresolvedBefore(best->idx);
                if (guard != TRACE_NONE) {
                    ++citByGuard_[guard];
                    ++citLive_;
                }
                // With no older unresolved branch the entry can never
                // be re-fetched; it is reclaimed immediately.
                ++view.stats().citOps;
            }

            view.commit(best);
            queueOf(bestCq).pop_front();
            ++view.stats().cqOps;
            if (best->isBranch) {
                if (cqt_.erase(best->idx))
                    ++view.stats().cqtOps;
                if (int *groups = citByGuard_.find(best->idx)) {
                    citLive_ -= *groups;
                    view.stats().citOps += static_cast<uint64_t>(*groups);
                    citByGuard_.erase(best->idx);
                }
            }
            --budget;

            const bool fence = best->rec->op == Opcode::FENCE;
            if (!fence && view.oldestFence() == INT32_MAX) {
                // No FENCE in flight: only the popped queue changed.
                heads_[static_cast<size_t>(bestCq + 1)] =
                    eligibleHead(view, bestCq);
                continue;
            }
            for (int cq = -1; cq < nq; ++cq) {
                const RingQueue<InFlight *> &q = queueOf(cq);
                if (cq == bestCq || fence ||
                    (!q.empty() && q.front()->rec->op == Opcode::FENCE))
                    heads_[static_cast<size_t>(cq + 1)] =
                        eligibleHead(view, cq);
            }
        }
    }

    /** The head of queue @p cq if it may commit now, else nullptr. */
    InFlight *
    eligibleHead(const PipelineView &view, int cq)
    {
        RingQueue<InFlight *> &q = queueOf(cq);
        if (q.empty() || blocked_[static_cast<size_t>(cq + 1)])
            return nullptr;
        InFlight *h = q.front();
        return headEligible(view, h) ? h : nullptr;
    }

    void
    steer(PipelineView &view)
    {
        int budget = view.config().steerWidth;
        bool stalled = false;
        while (budget > 0 && !robPrime_.empty()) {
            InFlight *p = robPrime_.front();
            const TraceRecord &rec = *p->rec;

            // In-order page-table check before leaving the ROB'.
            if (isMem(rec.op) && !view.tlbDone(p)) {
                stalled = true;
                steerStall_ = SteerStall::Tlb;
                ++view.stats().steerStallTlb;
                break;
            }

            int targetCq = -1; // -1 encodes the PR-CQ
            if (rec.guardIdx >= 0) {
                ++view.stats().cqtOps;
                if (const int *cq = cqt_.find(rec.guardIdx))
                    targetCq = *cq;
            }

            if (p->isBranch && rec.markedBranch) {
                if (cqt_.size() >=
                    static_cast<size_t>(srob_.cqtEntries)) {
                    stalled = true;
                    steerStall_ = SteerStall::Cqt;
                    ++view.stats().steerStallCqt;
                    break; // CQT full: the ROB' head waits
                }
                if (!p->resolved) {
                    // Table 1: an unresolved branch leaving the ROB'
                    // claims a Branch Commit Queue. Ordering among
                    // instances of one static branch is enforced by
                    // the commit condition (guardChainResolved /
                    // olderInstanceBlocker), not by queue placement.
                    targetCq = pickBrCq();
                    if (targetCq == -2) {
                        stalled = true;
                        steerStall_ = SteerStall::CqFull;
                        ++view.stats().steerStallCqFull;
                        break; // all BR-CQs full
                    }
                }
                if (queueOf(targetCq).size() >= capacityOf(targetCq)) {
                    stalled = true;
                    steerStall_ = SteerStall::CqFull;
                    ++view.stats().steerStallCqFull;
                    break;
                }
                queueOf(targetCq).push_back(p);
                cqt_[p->idx] = targetCq;
                ++view.stats().cqtOps;
            } else {
                if (queueOf(targetCq).size() >= capacityOf(targetCq)) {
                    stalled = true;
                    steerStall_ = SteerStall::CqFull;
                    ++view.stats().steerStallCqFull;
                    break;
                }
                queueOf(targetCq).push_back(p);
            }

            p->steered = true;
            p->cq = targetCq;
            ++view.stats().cqOps;
            robPrime_.pop_front();
            --budget;
        }
        if (stalled)
            ++view.stats().steerStallCycles;
    }

    /**
     * BR-CQ allocation: prefer an empty queue, then a queue whose head
     * has already resolved (it is draining), then the least-occupied
     * one. Returns -2 if every BR-CQ is full.
     */
    int
    pickBrCq() const
    {
        int best = -2;
        int bestScore = -1;
        const size_t cap = static_cast<size_t>(srob_.brCqEntries);
        for (size_t i = 0; i < brCqs_.size(); ++i) {
            const auto &q = brCqs_[i];
            if (q.size() >= cap)
                continue;
            int score;
            if (q.empty())
                score = 3000;
            else if (q.front()->resolved)
                score = 2000 - static_cast<int>(q.size());
            else
                score = 1000 - static_cast<int>(q.size());
            if (score > bestScore) {
                bestScore = score;
                best = static_cast<int>(i);
            }
        }
        return best;
    }

    void
    reclaimCit(PipelineView &view)
    {
        // Guard branches that resolved correctly and committed free
        // their groups in commitFromQueues; groups whose guard vanished
        // in a squash are reclaimed here.
        citByGuard_.eraseIf([&](const auto &e) {
            if (!view.isCommitted(e.key) &&
                view.findInFlight(e.key) != nullptr)
                return false;
            citLive_ -= e.value;
            view.stats().citOps += static_cast<uint64_t>(e.value);
            return true;
        });
    }

    const SelectiveRobConfig srob_;
    RingQueue<InFlight *> robPrime_;
    RingQueue<InFlight *> prCq_;
    std::vector<RingQueue<InFlight *>> brCqs_;
    SmallMap<TraceIdx, int> cqt_;        //!< live branch -> commit queue
    SmallMap<TraceIdx, int> citByGuard_; //!< CIT entries per guard branch
    int citLive_ = 0;
    /** Per-cycle CIT-stall block flags, [0] = PR-CQ, [1+i] = BR-CQ i. */
    std::vector<char> blocked_;
    /** Per-cycle eligible queue heads, indexed like blocked_. */
    std::vector<InFlight *> heads_;
    /** What (if anything) blocked the steer stage this cycle. */
    SteerStall steerStall_ = SteerStall::None;
};

std::unique_ptr<CommitPolicy>
makeNorebaCommit(const CoreConfig &cfg)
{
    return std::make_unique<NorebaCommit>(cfg);
}

} // namespace noreba
