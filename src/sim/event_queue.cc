#include "sim/event_queue.h"

#include <stdexcept>

namespace ursa::sim
{

EventId
EventQueue::schedule(SimTime at, Callback fn)
{
    // Past scheduling throws (callers and tests rely on it); the
    // dispatch-side audits own the monotonicity invariant.
    if (at < now_)
        throw std::logic_error("scheduling an event in the past");
    if (freeSlots_.empty()) {
        freeSlots_.push_back(static_cast<std::uint32_t>(slots_.size()));
        slots_.emplace_back();
    }
    const EventId id{at, seq_++, freeSlots_.back()};
    freeSlots_.pop_back();
    slots_[id.slot] = Slot{std::move(fn), id.seq};
    // Hole-based sift-up: parents slide down until id's place is found.
    heap_.emplace_back();
    std::size_t i = heap_.size() - 1;
    while (i > 0 && keyEarlier(id, heap_[(i - 1) / 2])) {
        heap_[i] = heap_[(i - 1) / 2];
        i = (i - 1) / 2;
    }
    heap_[i] = id;
    ++count_;
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
    // An id whose event ran or was cancelled finds its slot empty or
    // holding a later event.
    if (!id || id.slot >= slots_.size() || !live(id))
        return false;
    --count_;
    ++cancelled_;
    // Destroy the callback only once the queue is consistent again: its
    // captures' destructors may schedule or cancel.
    Callback fn = release(id);
    return true;
}

EventId
EventQueue::popTop()
{
    const EventId top = heap_.front();
    const EventId last = heap_.back();
    heap_.pop_back();
    // Hole-based sift-down: earlier children slide up until `last` fits.
    const std::size_t n = heap_.size();
    std::size_t i = 0;
    for (std::size_t child = 1; child < n; child = 2 * i + 1) {
        if (child + 1 < n && keyEarlier(heap_[child + 1], heap_[child]))
            ++child;
        if (!keyEarlier(heap_[child], last))
            break;
        heap_[i] = heap_[child];
        i = child;
    }
    if (n > 0)
        heap_[i] = last;
    return top;
}

void
EventQueue::runUntil(SimTime until)
{
    // One batch per timestamp: the clock advances and is audited once.
    while (!heap_.empty() && heap_.front().at <= until) {
        const SimTime at = heap_.front().at;
#if URSA_CHECK_LEVEL >= 1
        check::noteSimTime(at);
        URSA_CHECK(at >= now_, "sim.event_queue",
                   "dispatch order violation: event earlier than sim clock");
#endif
#if URSA_CHECK_LEVEL >= 2
        auditStructure();
#endif
        now_ = at;
        // Drain the time band, dropping cancelled events' keys. Events
        // that callbacks schedule at this same time have larger seqs
        // than every pending one, so they pop later in this batch.
        while (!heap_.empty() && heap_.front().at == at) {
            const EventId k = popTop();
            if (!live(k))
                continue;
#if URSA_CHECK_LEVEL >= 1
            URSA_CHECK(keyEarlier(last_, k), "sim.event_queue",
                       "FIFO tie-break violation: (time, seq) not increasing");
            last_ = k;
#endif
            --count_;
            ++processed_;
            Callback fn = release(k);
            fn();
        }
    }
    if (until > now_)
        now_ = until;
}

#if URSA_CHECK_LEVEL >= 2

void
EventQueue::auditStructure()
{
    if (auditCountdown_-- != 0)
        return;
    auditCountdown_ = kAuditStride - 1;
    // Heap order, no key before the clock, and live keys == count_.
    std::size_t liveKeys = 0;
    for (std::size_t i = 0; i < heap_.size(); ++i) {
        if (i > 0)
            URSA_CHECK_SLOW(!keyEarlier(heap_[i], heap_[(i - 1) / 2]),
                            "sim.event_queue",
                            "heap key earlier than its parent");
        URSA_CHECK_SLOW(heap_[i].at >= now_, "sim.event_queue",
                        "queued event earlier than the sim clock");
        if (live(heap_[i]))
            ++liveKeys;
    }
    URSA_CHECK_SLOW(liveKeys == count_, "sim.event_queue",
                    "live heap keys do not match the pending count");
}

#endif // URSA_CHECK_LEVEL >= 2

} // namespace ursa::sim
