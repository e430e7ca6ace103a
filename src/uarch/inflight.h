/**
 * @file
 * In-flight dynamic instruction state shared by the pipeline stages and
 * the commit policies.
 */

#ifndef NOREBA_UARCH_INFLIGHT_H
#define NOREBA_UARCH_INFLIGHT_H

#include <cstdint>
#include <type_traits>
#include <vector>

#include "interp/trace.h"

namespace noreba {

using Cycle = uint64_t;

struct InFlight;

/**
 * The per-incarnation part of an in-flight instruction: everything a
 * recycled pool slot must start from scratch with. Trivially copyable,
 * so Core::alloc resets it with one block copy.
 */
struct InFlightState
{
    TraceIdx idx = TRACE_NONE;
    const TraceRecord *rec = nullptr;
    uint64_t seq = 0; //!< unique dispatch order id (refetches get new)

    /** @name Stage progress @{ */
    bool dispatched = false;
    bool inIq = false;
    bool issued = false;
    bool completed = false;
    bool committed = false;
    /** @} */

    /** @name Memory state @{ */
    bool tlbChecked = false; //!< address generated & translation started
    Cycle tlbDoneAt = 0;
    int addrSrc = -1; //!< index into srcs[] of the address operand
    /** @} */

    /** @name Branch state @{ */
    bool isBranch = false;
    bool resolved = false;
    bool mispredicted = false; //!< precomputed verdict for this instance
    /** @} */

    /** Reference to a producer that may have been recycled. */
    struct SrcRef
    {
        InFlight *p = nullptr;
        uint64_t gen = 0;

        inline bool ready() const;
    };

    SrcRef srcs[3];
    int numSrcs = 0;

    /** @name Commit-policy scratch @{ */
    int cq = -1;          //!< Noreba: commit queue id (-1 = not steered)
    bool steered = false; //!< Noreba: left the ROB'
    /** @} */

    bool inRob = false; //!< currently in the master ROB (Core-internal)

    /** @name Wakeup-scheduler bookkeeping (Core-internal) @{ */
    int pendingSrcs = 0;   //!< not-yet-ready sources; 0 == issuable
    int iqPos = -1;        //!< slot in the (unordered) IQ vector
    bool inReadyQ = false; //!< member of the age-ordered ready queue
    bool inAddrPending = false; //!< store awaiting its addr-gen TLB kick
    /** @} */

    bool
    addrReady() const
    {
        return addrSrc < 0 || srcs[addrSrc].ready();
    }

    bool
    srcsReady() const
    {
        for (int i = 0; i < numSrcs; ++i)
            if (!srcs[i].ready())
                return false;
        return true;
    }
};

/**
 * One in-flight instruction (from dispatch until commit + completion): the
 * per-incarnation state plus what outlives a recycle — the validity
 * generation, the frontier links (always unlinked before a slot is
 * freed) and the waiter list's capacity.
 */
struct InFlight : InFlightState
{
    /** Validity generation: bumped when the pool slot is recycled. */
    uint64_t gen = 0;

    /** @name PipelineIndex bookkeeping (Core-internal) @{ */
    InFlight *frontPrev = nullptr; //!< uncommitted-frontier links
    InFlight *frontNext = nullptr;
    bool inFrontier = false;
    /** @} */

    /** A consumer parked on this producer until it writes back. */
    struct Waiter
    {
        InFlight *p = nullptr;
        uint64_t gen = 0; //!< consumer incarnation (stale after squash)
    };

    /** Consumers to wake when this instruction completes (cleared, not
     *  freed, when the slot is recycled). */
    std::vector<Waiter> waiters;
};

static_assert(std::is_trivially_copyable_v<InFlightState>);

inline bool
InFlightState::SrcRef::ready() const
{
    return p == nullptr || p->gen != gen || p->completed;
}

} // namespace noreba

#endif // NOREBA_UARCH_INFLIGHT_H
