/**
 * @file
 * The discrete-event kernel: a time-ordered queue of callbacks with a
 * monotone clock. Ties break by insertion order, so every event has a
 * place in one strict (time, seq) total order and the simulation is
 * fully deterministic. A binary min-heap of 24-byte EventId keys orders
 * the events, each callback body stays put in a slot slab, and all
 * events of one timestamp drain as one batch. DESIGN.md §10 says why a
 * heap, and how the O(1) lazy cancel keeps the order.
 */

#ifndef URSA_SIM_EVENT_QUEUE_H
#define URSA_SIM_EVENT_QUEUE_H

#include "check/check.h"
#include "sim/callback.h"
#include "sim/time.h"

#include <cstdint>
#include <utility>
#include <vector>

namespace ursa::sim
{

/**
 * Handle of one scheduled callback and its heap key: the event's place
 * in the (time, seq) order and the slot holding its body. A
 * default-constructed id names no event.
 */
struct EventId
{
    SimTime at = -1;
    std::uint64_t seq = 0;
    std::uint32_t slot = 0;

    explicit operator bool() const { return at >= 0; }
};

/** Deterministic discrete-event queue. */
class EventQueue
{
  public:
    using Callback = InlineCallback;

    /** Current simulated time. */
    SimTime now() const { return now_; }

    /**
     * Schedule `fn` to run at absolute time `at`; `at` must not be in
     * the past. Events at equal times fire in scheduling order.
     */
    EventId schedule(SimTime at, Callback fn);

    /** Schedule `fn` to run `delay` microseconds from now (>= 0). */
    EventId scheduleIn(SimTime delay, Callback fn);

    /**
     * Retract a scheduled callback: it is destroyed without being
     * called and never counts as processed. Returns false, changing
     * nothing, when `id` already ran, was already cancelled or is
     * default-constructed.
     */
    bool cancel(EventId id);

    /**
     * Run every event with time <= `until`, then set the clock to
     * `until`. New events scheduled while running are honored.
     */
    void runUntil(SimTime until);

    /** Number of pending events. */
    std::size_t pending() const { return count_; }

    /** Total events executed so far. */
    std::uint64_t processed() const { return processed_; }

    /** Total events cancelled before they ran. */
    std::uint64_t cancelled() const { return cancelled_; }

#if URSA_CHECK_LEVEL >= 1
    /**
     * Violation injection for the check layer's own tests: swap the two
     * earliest keys (the root and its earlier child) so dispatch runs
     * out of order and the level-1 audit fires. No-op below two keys.
     */
    void
    corruptOrderForTest()
    {
        const std::size_t n = heap_.size();
        if (n >= 2)
            std::swap(heap_[0],
                      heap_[n > 2 && keyEarlier(heap_[2], heap_[1]) ? 2 : 1]);
    }
#endif

  private:
    /** Strict total order: earlier time first, then insertion order. */
    static bool
    keyEarlier(const EventId &a, const EventId &b)
    {
        return a.at != b.at ? a.at < b.at : a.seq < b.seq;
    }

    /// Tag of a slot that holds no event (seqs count up from 0).
    static constexpr std::uint64_t kNoEvent = ~std::uint64_t{0};

    /** One callback body, tagged with the seq of the event it holds. */
    struct Slot
    {
        Callback fn;
        std::uint64_t seq = kNoEvent;
    };

    /** A key is live until its event runs or is cancelled. */
    bool live(const EventId &k) const { return slots_[k.slot].seq == k.seq; }

    /** Free k's slot, handing back the callback for the caller to drop. */
    Callback
    release(const EventId &k)
    {
        slots_[k.slot].seq = kNoEvent;
        freeSlots_.push_back(k.slot);
        return std::move(slots_[k.slot].fn);
    }

    EventId popTop();

#if URSA_CHECK_LEVEL >= 1
    /// The last dispatched event, for the level-1 strict-total-order
    /// audit (FIFO tie-break included).
    EventId last_;
#endif
#if URSA_CHECK_LEVEL >= 2
    /** Full heap scan, run on every kAuditStride-th dispatch batch. */
    void auditStructure();
    static constexpr std::uint64_t kAuditStride = 1024;
    std::uint64_t auditCountdown_ = 0;
#endif

    SimTime now_ = 0;
    std::uint64_t seq_ = 0;
    std::uint64_t processed_ = 0;
    std::uint64_t cancelled_ = 0;
    std::size_t count_ = 0; ///< live events; cancelled keys excluded

    /// Min-heap on keyEarlier: heap_[0] is the earliest key, live or
    /// cancelled; the children of i are 2i + 1 and 2i + 2.
    std::vector<EventId> heap_;
    /// Callback slab: bodies stay in their slot from schedule to
    /// dispatch or cancel; `freeSlots_` recycles vacated slots LIFO.
    std::vector<Slot> slots_;
    std::vector<std::uint32_t> freeSlots_;
};

} // namespace ursa::sim

#endif // URSA_SIM_EVENT_QUEUE_H
