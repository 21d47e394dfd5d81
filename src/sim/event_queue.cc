#include "sim/event_queue.h"

#include "check/check.h"
#include "sim/time.h"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <utility>

namespace ursa::sim
{

namespace
{

/// Calendar geometry bounds. Width is clamped to [16us, ~4.2s]; the
/// bucket count to [64, 65536] (sized at ~4x pending population so the
/// expected occupancy stays around a quarter event per bucket).
constexpr int kMinWidthShift = 4;
constexpr int kMaxWidthShift = 22;
constexpr std::size_t kMinBuckets = 64;
constexpr std::size_t kMaxBuckets = 65536;

} // namespace

EventQueue::EventQueue() : buckets_(kMinBuckets)
{
    epochEnd_ = static_cast<SimTime>(buckets_.size()) << widthShift_;
}

EventId
EventQueue::schedule(SimTime at, Callback fn)
{
    // Past scheduling stays a throwing contract (callers and tests
    // rely on the exception); the dispatch-side audits own the
    // monotonicity invariant.
    if (at < now_)
        throw std::logic_error("scheduling an event in the past");
    if (count_ == 0) {
        // Empty queue: re-anchor the epoch so `at` lands in bucket 0
        // instead of trickling through the overflow ladder after the
        // cursor wrapped.
        const SimTime width = SimTime{1} << widthShift_;
        day_.clear();
        dayPos_ = 0;
        epochStart_ = at & ~(width - 1);
        epochEnd_ = epochStart_ +
                    (static_cast<SimTime>(buckets_.size()) << widthShift_);
        frontier_ = epochStart_;
        cursor_ = 0;
        overflow_.clear();
    }
    const EventId id{at, seq_++};
    calendarInsert(Key{id.at, id.seq, storeSlot(std::move(fn))});
    ++count_;
    // A burst outgrew the grid: rebuild (recalibrating width and bucket
    // count) the next time the drain loop is between days.
    if (count_ > 4 * buckets_.size())
        resizePending_ = true;
#if URSA_CHECK_LEVEL >= 2
    maybeAuditStructure();
#endif
    return id;
}

EventId
EventQueue::scheduleIn(SimTime delay, Callback fn)
{
    if (delay < 0)
        throw std::logic_error("negative event delay");
    return schedule(now_ + delay, std::move(fn));
}

bool
EventQueue::cancel(EventId id)
{
    // The id's time says where its key would sit, exactly as
    // calendarInsert placed it; a key that is not there already ran or
    // was cancelled.
    std::uint32_t slot;
    if (id.at < frontier_) {
        // Only the day list from dayPos_ on is pending: the prefix
        // before it already ran.
        const auto it = std::lower_bound(
            day_.begin() + static_cast<std::ptrdiff_t>(dayPos_), day_.end(),
            Key{id.at, id.seq, 0}, keyEarlier);
        if (it == day_.end() || it->at != id.at || it->seq != id.seq)
            return false;
        slot = it->slot;
        day_.erase(it);
    } else {
        std::vector<Key> &keys =
            id.at < epochEnd_
                ? buckets_[static_cast<std::size_t>((id.at - epochStart_) >>
                                                    widthShift_)]
                : overflow_;
        const auto it = std::find_if(keys.begin(), keys.end(),
                                     [&](const Key &k) {
                                         return k.seq == id.seq;
                                     });
        if (it == keys.end())
            return false;
        slot = it->slot;
        // Buckets and the ladder are unordered until pulled.
        *it = keys.back();
        keys.pop_back();
        if (&keys == &overflow_ && !overflow_.empty() &&
            id.at == minOverflow_)
            minOverflow_ = std::min_element(overflow_.begin(),
                                            overflow_.end(), keyEarlier)
                               ->at;
    }
    --count_;
    ++cancelled_;
    // Destroy the callback only once the queue is consistent again: its
    // captures' destructors may schedule or cancel.
    Callback fn = std::move(slots_[slot]);
    freeSlots_.push_back(slot);
#if URSA_CHECK_LEVEL >= 2
    maybeAuditStructure();
#endif
    return true;
}

void
EventQueue::runUntil(SimTime until)
{
    while (pullNextDay(until))
        runBatch();
    if (until > now_)
        now_ = until;
}

std::uint32_t
EventQueue::storeSlot(Callback &&fn)
{
    if (!freeSlots_.empty()) {
        const std::uint32_t s = freeSlots_.back();
        freeSlots_.pop_back();
        slots_[s] = std::move(fn);
        return s;
    }
    slots_.push_back(std::move(fn));
    return static_cast<std::uint32_t>(slots_.size() - 1);
}

void
EventQueue::calendarInsert(Key k)
{
    if (k.at < frontier_) {
        // The bucket covering this time was already pulled: insert
        // into the sorted day run list at the exact (time, seq) spot.
        const auto it = std::upper_bound(day_.begin() +
                                             static_cast<std::ptrdiff_t>(
                                                 dayPos_),
                                         day_.end(), k, keyEarlier);
        day_.insert(it, k);
    } else if (k.at < epochEnd_) {
        buckets_[static_cast<std::size_t>((k.at - epochStart_) >>
                                          widthShift_)]
            .push_back(k);
    } else {
        if (overflow_.empty() || k.at < minOverflow_)
            minOverflow_ = k.at;
        overflow_.push_back(k);
    }
}

bool
EventQueue::pullNextDay(SimTime until)
{
    for (;;) {
        if (dayPos_ < day_.size())
            return day_[dayPos_].at <= until;
        day_.clear();
        dayPos_ = 0;
        if (resizePending_) {
            resizePending_ = false;
            rebuildEpoch(frontier_);
        }
        const SimTime width = SimTime{1} << widthShift_;
        while (cursor_ < buckets_.size()) {
            std::vector<Key> &b = buckets_[cursor_];
            ++cursor_;
            frontier_ += width;
            if (b.empty())
                continue;
            // Swap so the day list inherits the keys and the bucket
            // keeps the old day capacity for reuse.
            day_.swap(b);
            std::sort(day_.begin(), day_.end(), keyEarlier);
            return day_[0].at <= until;
        }
        if (overflow_.empty() || minOverflow_ > until)
            return false;
        rebuildEpoch(minOverflow_);
    }
}

void
EventQueue::runBatch()
{
    const SimTime at = day_[dayPos_].at;
#if URSA_CHECK_LEVEL >= 1
    auditBatchStart(at);
#endif
    if (lastDispatchAt_ >= 0 && at > lastDispatchAt_) {
        gapSum_ += at - lastDispatchAt_;
        ++gapCount_;
    }
    lastDispatchAt_ = at;
    now_ = at;
    // Drain the whole time band; callbacks may schedule more events at
    // this same timestamp, which land after dayPos_ (their seq is
    // larger than every pending one) and extend the batch.
    while (dayPos_ < day_.size() && day_[dayPos_].at == at) {
        const Key k = day_[dayPos_++];
#if URSA_CHECK_LEVEL >= 1
        URSA_CHECK(k.at > lastAt_ || (k.at == lastAt_ && k.seq > lastSeq_),
                   "sim.event_queue",
                   "FIFO tie-break violation: (time, seq) not increasing");
        lastAt_ = k.at;
        lastSeq_ = k.seq;
#endif
        --count_;
        ++processed_;
        Callback fn = std::move(slots_[k.slot]);
        freeSlots_.push_back(k.slot);
        fn();
    }
    if (dayPos_ >= day_.size()) {
        day_.clear();
        dayPos_ = 0;
    }
}

void
EventQueue::rebuildEpoch(SimTime startAt)
{
    // Gather every key still in the grid or the ladder. Buckets before
    // the cursor are empty by construction.
    std::vector<Key> all;
    all.reserve(count_ - (day_.size() - dayPos_));
    for (std::vector<Key> &b : buckets_) {
        all.insert(all.end(), b.begin(), b.end());
        b.clear();
    }
    all.insert(all.end(), overflow_.begin(), overflow_.end());
    overflow_.clear();

    // Recalibrate the bucket width from the mean gap between distinct
    // dispatch times: ~2 distinct times per bucket keeps the pull/sort
    // batches small without walking empty buckets.
    if (gapCount_ >= 16) {
        const SimTime target =
            std::max<SimTime>(2 * (gapSum_ / static_cast<SimTime>(gapCount_)),
                              1);
        int shift = kMinWidthShift;
        while ((SimTime{1} << shift) < target && shift < kMaxWidthShift)
            ++shift;
        widthShift_ = shift;
        // Halve instead of reset: keep memory of the workload but stay
        // adaptive to phase changes.
        gapSum_ /= 2;
        gapCount_ /= 2;
    }
    std::size_t nb = kMinBuckets;
    while (nb < 4 * all.size() && nb < kMaxBuckets)
        nb *= 2;
    if (buckets_.size() != nb)
        buckets_.resize(nb);

    const SimTime width = SimTime{1} << widthShift_;
    epochStart_ = startAt & ~(width - 1);
    epochEnd_ = epochStart_ + (static_cast<SimTime>(nb) << widthShift_);
    frontier_ = epochStart_;
    cursor_ = 0;
    for (const Key &k : all)
        calendarInsert(k);
}

#if URSA_CHECK_LEVEL >= 1

void
EventQueue::auditBatchStart(SimTime at)
{
    check::noteSimTime(at);
    URSA_CHECK(at >= now_, "sim.event_queue",
               "dispatch order violation: event earlier than sim clock");
#if URSA_CHECK_LEVEL >= 2
    maybeAuditStructure();
#endif
}

void
EventQueue::corruptOrderForTest()
{
    if (count_ < 2)
        return;
    // Flatten the whole calendar into the day run list, then swap the
    // two earliest keys. The epoch collapses (start == end, cursor at
    // the end) so later inserts go through the overflow ladder and the
    // next wrap rebuilds a fresh epoch.
    for (std::vector<Key> &b : buckets_) {
        day_.insert(day_.end(), b.begin(), b.end());
        b.clear();
    }
    day_.insert(day_.end(), overflow_.begin(), overflow_.end());
    overflow_.clear();
    std::sort(day_.begin() + static_cast<std::ptrdiff_t>(dayPos_),
              day_.end(), keyEarlier);
    epochStart_ = epochEnd_ = frontier_ = day_.back().at + 1;
    cursor_ = buckets_.size();
    std::swap(day_[dayPos_], day_[dayPos_ + 1]);
}

#endif // URSA_CHECK_LEVEL >= 1

#if URSA_CHECK_LEVEL >= 2

void
EventQueue::maybeAuditStructure()
{
    if (auditCountdown_-- == 0) {
        auditCountdown_ = kAuditStride - 1;
        auditStructure();
    }
}

void
EventQueue::auditStructure()
{
    // Day run list: sorted by (time, seq), nothing before the clock,
    // everything below the frontier.
    std::size_t live = day_.size() - dayPos_;
    for (std::size_t i = dayPos_; i < day_.size(); ++i) {
        URSA_CHECK_SLOW(day_[i].at >= now_, "sim.event_queue",
                        "day-list event earlier than the sim clock");
        URSA_CHECK_SLOW(day_[i].at < frontier_, "sim.event_queue",
                        "day-list event at or beyond the frontier");
        if (i > dayPos_)
            URSA_CHECK_SLOW(keyEarlier(day_[i - 1], day_[i]),
                            "sim.event_queue",
                            "day run list out of (time, seq) order");
    }
    // Bucket grid: drained buckets empty, keys hash to their bucket.
    for (std::size_t c = 0; c < buckets_.size(); ++c) {
        if (c < cursor_) {
            URSA_CHECK_SLOW(buckets_[c].empty(), "sim.event_queue",
                            "drained calendar bucket is not empty");
            continue;
        }
        live += buckets_[c].size();
        for (const Key &k : buckets_[c]) {
            URSA_CHECK_SLOW(
                static_cast<std::size_t>((k.at - epochStart_) >>
                                         widthShift_) == c,
                "sim.event_queue", "calendar key in the wrong bucket");
            URSA_CHECK_SLOW(k.at >= frontier_, "sim.event_queue",
                            "bucketed event below the frontier");
        }
    }
    // Overflow ladder: beyond the epoch, with an exact cached minimum.
    live += overflow_.size();
    SimTime minSeen = std::numeric_limits<SimTime>::max();
    for (const Key &k : overflow_) {
        URSA_CHECK_SLOW(k.at >= epochEnd_, "sim.event_queue",
                        "overflow event inside the epoch horizon");
        minSeen = std::min(minSeen, k.at);
    }
    if (!overflow_.empty())
        URSA_CHECK_SLOW(minSeen == minOverflow_, "sim.event_queue",
                        "stale overflow minimum cache");
    URSA_CHECK_SLOW(live == count_, "sim.event_queue",
                    "calendar population does not match pending count");
}

#endif // URSA_CHECK_LEVEL >= 2

} // namespace ursa::sim
