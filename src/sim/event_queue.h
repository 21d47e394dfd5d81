/**
 * @file
 * The discrete-event kernel: a time-ordered queue of callbacks with a
 * monotone clock. Ties are broken by insertion order, so every event
 * has a place in one strict (time, seq) total order and the simulation
 * is fully deterministic.
 *
 * The queue is a calendar queue tuned for the banded timestamp
 * distributions our workloads produce. Scheduling appends a 24-byte key
 * to a time bucket (O(1)); the callback body lives in a slot slab and
 * never moves with the key (struct-of-arrays). Bucket width is a power
 * of two, recalibrated from the observed inter-event gap at every
 * epoch rebuild; events beyond the epoch horizon wait in an overflow
 * ladder. Draining pulls one bucket at a time into a run list sorted
 * by exact (time, seq).
 *
 * Dispatch is batched: all events of one timestamp drain as a band —
 * the clock advances once and the clock audit runs per batch instead
 * of per event.
 *
 * A scheduled callback can be retracted by the EventId schedule()
 * returned. Every owner of a recurring or superseded event (a
 * replica's CPU completion, a client's next arrival, a controller's
 * next tick) holds the id of its one pending event and cancels it
 * before rescheduling and when it stops or dies, so no queued event
 * outlives its owner.
 */

#ifndef URSA_SIM_EVENT_QUEUE_H
#define URSA_SIM_EVENT_QUEUE_H

#include "check/check.h"
#include "sim/callback.h"
#include "sim/time.h"

#include <cstdint>
#include <vector>

namespace ursa::sim
{

/**
 * Handle of one scheduled callback: its exact place in the (time, seq)
 * order. A default-constructed id names no event.
 */
struct EventId
{
    SimTime at = -1;
    std::uint64_t seq = 0;

    explicit operator bool() const { return at >= 0; }
};

/** Deterministic discrete-event queue. */
class EventQueue
{
  public:
    using Callback = InlineCallback;

    /** An empty queue with its clock at 0. */
    EventQueue();

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
     * Violation injection for the check layer's own tests: swap the
     * two earliest entries so the next dispatches run out of (time,
     * seq) order and the level-1 monotonicity check fires. No-op with
     * fewer than two pending events.
     */
    void corruptOrderForTest();
#endif

  private:
    /**
     * Sort/relocation key of one pending event; the callback stays put
     * in `slots_[slot]` while keys move between buckets and the day
     * run list.
     */
    struct Key
    {
        SimTime at = 0;
        std::uint64_t seq = 0;
        std::uint32_t slot = 0;
    };

    /** Strict total order: earlier time first, then insertion order. */
    static bool
    keyEarlier(const Key &a, const Key &b)
    {
        if (a.at != b.at)
            return a.at < b.at;
        return a.seq < b.seq;
    }

    std::uint32_t storeSlot(Callback &&fn);
    void calendarInsert(Key k);

    /**
     * Make the day run list non-empty, pulling the next occupied
     * bucket (rebuilding the epoch from the overflow ladder when the
     * buckets are spent). Never pulls past `until`: returns false when
     * no pending event is at or before it.
     */
    bool pullNextDay(SimTime until);

    /**
     * Drain every day-list event sharing the front timestamp (the
     * caller has already checked it against the run bound), advancing
     * the clock once for the whole band.
     */
    void runBatch();

    /**
     * Re-bucket everything at or beyond the frontier around a new
     * epoch starting at `startAt`, recalibrating the bucket width from
     * the observed inter-event gap and the bucket count from the
     * pending population. Day-list entries (already below the
     * frontier) are untouched.
     */
    void rebuildEpoch(SimTime startAt);

#if URSA_CHECK_LEVEL >= 1
    /** Per-batch order audit: batches strictly increase in time. */
    void auditBatchStart(SimTime at);
#endif
#if URSA_CHECK_LEVEL >= 2
    /** Full calendar-structure scan, sampled every kAuditStride ops. */
    void auditStructure();
    void maybeAuditStructure();
#endif

    SimTime now_ = 0;
    std::uint64_t seq_ = 0;
    std::uint64_t processed_ = 0;
    std::uint64_t cancelled_ = 0;

#if URSA_CHECK_LEVEL >= 1
    /// (time, seq) of the last dispatched event, for the level-1
    /// strict-total-order audit (FIFO tie-break included).
    SimTime lastAt_ = -1;
    std::uint64_t lastSeq_ = 0;
#endif
#if URSA_CHECK_LEVEL >= 2
    static constexpr std::uint64_t kAuditStride = 1024;
    std::uint64_t auditCountdown_ = 0;
#endif

    /// Callback slab: bodies stay in their slot from schedule to
    /// dispatch; `freeSlots_` recycles vacated slots LIFO.
    std::vector<Callback> slots_;
    std::vector<std::uint32_t> freeSlots_;

    /// Current epoch: bucket b spans
    /// [epochStart_ + b * width, epochStart_ + (b + 1) * width).
    std::vector<std::vector<Key>> buckets_;
    int widthShift_ = 8;          ///< bucket width = 1 << widthShift_ us
    SimTime epochStart_ = 0;
    SimTime epochEnd_ = 0;        ///< first time beyond the last bucket
    SimTime frontier_ = 0;        ///< lower edge of first undrained bucket
    std::size_t cursor_ = 0;      ///< next bucket to drain
    /// Events at or beyond epochEnd_ wait here until an epoch rebuild.
    std::vector<Key> overflow_;
    SimTime minOverflow_ = 0;     ///< valid while overflow_ is non-empty
    /// Sorted (time, seq) run list of the bucket being drained; events
    /// below the frontier insert here directly.
    std::vector<Key> day_;
    std::size_t dayPos_ = 0;
    std::size_t count_ = 0;       ///< total pending (day+buckets+overflow)
    bool resizePending_ = false;  ///< occupancy blew past the bucket grid

    /// Width calibration: sum/count of positive gaps between distinct
    /// consecutive dispatch times since the last rebuild.
    SimTime gapSum_ = 0;
    std::uint64_t gapCount_ = 0;
    SimTime lastDispatchAt_ = -1;
};

} // namespace ursa::sim

#endif // URSA_SIM_EVENT_QUEUE_H
