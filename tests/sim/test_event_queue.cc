/** @file Unit tests for the discrete-event kernel. */

#include "sim/event_queue.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <functional>
#include <map>
#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

namespace
{

using ursa::sim::EventId;
using ursa::sim::EventQueue;
using ursa::sim::SimTime;

/**
 * The order oracle: the kernel's contract written the obvious way. A
 * multimap inserts an equal key after the existing ones, so equal-time
 * events run in scheduling order by construction, and cancelling is
 * an erase.
 */
class ReferenceQueue
{
  public:
    SimTime now() const { return now_; }
    std::size_t pending() const { return events_.size(); }

    EventId
    schedule(SimTime at, std::function<void()> fn)
    {
        if (at < now_)
            throw std::logic_error("scheduling an event in the past");
        events_.emplace(at, std::make_pair(seq_, std::move(fn)));
        return {at, seq_++};
    }

    EventId
    scheduleIn(SimTime delay, std::function<void()> fn)
    {
        return schedule(now_ + delay, std::move(fn));
    }

    bool
    cancel(EventId id)
    {
        const auto [first, last] = events_.equal_range(id.at);
        for (auto it = first; it != last; ++it) {
            if (it->second.first == id.seq) {
                events_.erase(it);
                return true;
            }
        }
        return false;
    }

    void
    runUntil(SimTime until)
    {
        while (!events_.empty() && events_.begin()->first <= until) {
            auto node = events_.extract(events_.begin());
            now_ = node.key();
            node.mapped().second();
        }
        now_ = std::max(now_, until);
    }

  private:
    SimTime now_ = 0;
    std::uint64_t seq_ = 0;
    std::multimap<SimTime, std::pair<std::uint64_t, std::function<void()>>>
        events_;
};

TEST(EventQueue, RunsInTimeOrder)
{
    EventQueue q;
    std::vector<int> order;
    q.schedule(30, [&] { order.push_back(3); });
    q.schedule(10, [&] { order.push_back(1); });
    q.schedule(20, [&] { order.push_back(2); });
    q.runUntil(100);
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(q.now(), 100);
}

TEST(EventQueue, TiesBreakByInsertionOrder)
{
    EventQueue q;
    std::vector<int> order;
    for (int i = 0; i < 5; ++i)
        q.schedule(10, [&, i] { order.push_back(i); });
    q.runUntil(10);
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueue, SchedulingInPastThrows)
{
    EventQueue q;
    q.schedule(10, [] {});
    q.runUntil(10);
    EXPECT_THROW(q.schedule(5, [] {}), std::logic_error);
}

TEST(EventQueue, NegativeDelayThrows)
{
    EventQueue q;
    EXPECT_THROW(q.scheduleIn(-1, [] {}), std::logic_error);
}

TEST(EventQueue, EventsCanScheduleEvents)
{
    EventQueue q;
    int fired = 0;
    q.schedule(10, [&] {
        ++fired;
        q.scheduleIn(5, [&] { ++fired; });
    });
    q.runUntil(100);
    EXPECT_EQ(fired, 2);
    EXPECT_EQ(q.processed(), 2u);
}

TEST(EventQueue, RunUntilStopsAtBoundary)
{
    EventQueue q;
    int fired = 0;
    q.schedule(10, [&] { ++fired; });
    q.schedule(20, [&] { ++fired; });
    q.runUntil(15);
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(q.now(), 15);
    EXPECT_EQ(q.pending(), 1u);
    q.runUntil(20); // boundary inclusive
    EXPECT_EQ(fired, 2);
}

TEST(EventQueue, ZeroDelaySameTimestampRunsAfterCurrent)
{
    EventQueue q;
    std::vector<int> order;
    q.schedule(10, [&] {
        order.push_back(1);
        q.scheduleIn(0, [&] { order.push_back(2); });
    });
    q.runUntil(10);
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
    EXPECT_EQ(q.now(), 10);
}

// The equal-time FIFO guarantee must survive arbitrary queue churn:
// interleave schedules and partial drains so tied keys enter the heap
// at different depths and sift past each other, and check the full
// execution order against the (time, insertion) reference order.
TEST(EventQueue, FifoTieBreakSurvivesHeapChurn)
{
    EventQueue q;
    std::vector<std::pair<SimTime, int>> fired;
    int nextId = 0;
    std::vector<std::pair<SimTime, int>> expected;

    // Deterministic pseudo-random times with many collisions: each
    // round draws from 8 slots, and rounds use disjoint time bases so
    // mid-stream drains never advance the clock past a later schedule.
    unsigned long long x = 12345;
    auto nextTime = [&](int round) -> SimTime {
        x = x * 6364136223846793005ULL + 1442695040888963407ULL;
        return static_cast<SimTime>(100 * (round + 1) + (x >> 33) % 8);
    };

    for (int round = 0; round < 50; ++round) {
        for (int k = 0; k < 7; ++k) {
            const SimTime at = nextTime(round);
            const int id = nextId++;
            expected.emplace_back(at, id);
            q.schedule(at, [&fired, at, id] { fired.emplace_back(at, id); });
        }
        // Drain the round's first slots mid-stream, so later ties
        // join a partly drained time band.
        q.runUntil(100 * (round + 1) + 2);
    }
    q.runUntil(100000);

    // Reference order: by time, then insertion order (stable).
    std::stable_sort(expected.begin(), expected.end(),
                     [](const auto &a, const auto &b) {
                         return a.first < b.first;
                     });
    EXPECT_EQ(fired, expected);
    EXPECT_EQ(q.processed(), expected.size());
}

TEST(EventQueue, MoveOnlyCallbacksAndHeapFallback)
{
    EventQueue q;
    int fired = 0;
    // Move-only capture (unique_ptr): must compile and run exactly once.
    auto p = std::make_unique<int>(7);
    q.schedule(10, [&fired, p = std::move(p)] { fired += *p; });
    // Capture larger than the 48-byte inline buffer: heap fallback.
    std::array<long long, 16> big{};
    big[15] = 35;
    q.schedule(20, [&fired, big] { fired += static_cast<int>(big[15]); });
    q.runUntil(20);
    EXPECT_EQ(fired, 42);
}

TEST(EventQueue, CancelRetractsOnlyPendingEvents)
{
    EventQueue q;
    std::vector<int> order;
    auto token = std::make_shared<int>(1);
    const EventId early = q.schedule(10, [&] { order.push_back(1); });
    const EventId dropped =
        q.schedule(20, [&, token] { order.push_back(2); });
    q.schedule(30, [&] { order.push_back(3); });
    ASSERT_EQ(token.use_count(), 2);

    // A pending event: its callback is destroyed at once, never run.
    EXPECT_TRUE(q.cancel(dropped));
    EXPECT_EQ(token.use_count(), 1);
    EXPECT_EQ(q.pending(), 2u);
    EXPECT_EQ(q.cancelled(), 1u);

    // Stale ids change nothing: already cancelled, default, already run.
    EXPECT_FALSE(q.cancel(dropped));
    EXPECT_FALSE(q.cancel(EventId{}));
    q.runUntil(10);
    EXPECT_FALSE(q.cancel(early));
    q.runUntil(100);
    EXPECT_EQ(order, (std::vector<int>{1, 3}));
    EXPECT_EQ(q.processed(), 2u);
    EXPECT_EQ(q.cancelled(), 1u);
    EXPECT_EQ(q.pending(), 0u);
}

TEST(EventQueue, CancelRefreshesTheLadderMinimum)
{
    // Cancelling the earliest far-future event leaves its key queued
    // behind the near traffic: the churn below runs the level-2
    // structure audit (which counts only live keys) with that stale
    // key in the heap, and the survivor still runs on time.
    EventQueue q;
    std::vector<int> order;
    q.schedule(0, [] {}); // near traffic ahead of the far events
    const EventId first = q.schedule(50000000, [&] { order.push_back(1); });
    q.schedule(60000000, [&] { order.push_back(2); });
    EXPECT_TRUE(q.cancel(first));
    for (int i = 0; i < 4096; ++i) {
        q.schedule(q.now(), [] {});
        q.runUntil(q.now());
    }
    q.runUntil(70000000);
    EXPECT_EQ(order, (std::vector<int>{2}));
    EXPECT_EQ(q.cancelled(), 1u);
}

// Cancel is lazy: A's key stays queued after its slot is freed, and B
// reuses that slot. The stale key must not run B early, and A's stale
// id must not cancel B.
TEST(EventQueue, CancelledSlotReuseKeepsStaleIdsDead)
{
    EventQueue q;
    int ranA = 0;
    int ranB = 0;
    const EventId a = q.schedule(100, [&] { ++ranA; });
    EXPECT_TRUE(q.cancel(a));
    const EventId b = q.schedule(200, [&] { ++ranB; });
    ASSERT_EQ(b.slot, a.slot); // B takes A's freed slot
    EXPECT_FALSE(q.cancel(a));

    q.runUntil(150); // A's stale key leaves the heap, running nothing
    EXPECT_EQ(ranA + ranB, 0);
    EXPECT_EQ(q.pending(), 1u);
    q.runUntil(200);
    EXPECT_EQ(ranA, 0);
    EXPECT_EQ(ranB, 1);
    EXPECT_FALSE(q.cancel(a));
    EXPECT_FALSE(q.cancel(b));
    EXPECT_EQ(q.processed(), 1u);
    EXPECT_EQ(q.cancelled(), 1u);
    EXPECT_EQ(q.pending(), 0u);
}

TEST(EventQueue, PopReleasesCallbackState)
{
    // Dispatch must move the callback out of its slot: the shared
    // capture is released as soon as the event has run, not when the
    // slot is reused or the queue is destroyed.
    EventQueue q;
    auto token = std::make_shared<int>(1);
    q.schedule(10, [token] { (void)*token; });
    q.schedule(20, [] {});
    EXPECT_EQ(token.use_count(), 2);
    q.runUntil(10);
    EXPECT_EQ(token.use_count(), 1);
}

// --- differential against the reference queue, and heap stress ---

/** One dispatch ('f'), or one cancel that found ('c') or missed ('s'). */
using ScriptLog = std::vector<std::pair<char, int>>;

/**
 * Drive one queue through a deterministic pseudo-random op script
 * (bursty schedules, short and long bounded runs, callback-side
 * schedules at near and far horizons, and cancels from both sides)
 * and record the exact dispatch sequence by event id together with
 * every cancel's result.
 */
template <typename Queue>
ScriptLog
runScript(int rounds)
{
    Queue q;
    ScriptLog log;
    std::vector<EventId> ids; // by event number; default until scheduled
    int nextId = 0;
    int lastFired = -1;
    unsigned long long x = 9876543210123ULL;
    auto rnd = [&](unsigned long long mod) {
        x = x * 6364136223846793005ULL + 1442695040888963407ULL;
        return (x >> 33) % mod;
    };
    auto newId = [&] {
        ids.emplace_back();
        return nextId++;
    };
    auto fire = [&](int id) {
        log.emplace_back('f', id);
        lastFired = id;
    };
    auto cancel = [&](int id) {
        log.emplace_back(q.cancel(ids[static_cast<std::size_t>(id)]) ? 'c'
                                                                      : 's',
                         id);
    };

    for (int round = 0; round < rounds; ++round) {
        // A burst of schedules at wildly mixed horizons: same-time
        // collisions (FIFO ties), near future (keys near the root), far
        // future (keys deep in the heap).
        const int burst = 1 + static_cast<int>(rnd(24));
        for (int k = 0; k < burst; ++k) {
            SimTime at = q.now();
            switch (rnd(4)) {
            case 0: at += static_cast<SimTime>(rnd(4)); break;
            case 1: at += static_cast<SimTime>(rnd(300)); break;
            case 2: at += static_cast<SimTime>(rnd(20000)); break;
            default: at += static_cast<SimTime>(rnd(3000000)); break;
            }
            const int id = newId();
            switch (rnd(8)) {
            case 0: {
                // Callback-side reschedule: a same-time child (extends
                // the dispatch batch) plus a far child.
                const int child1 = newId();
                const int child2 = newId();
                ids[id] = q.schedule(at, [&, id, child1, child2] {
                    fire(id);
                    ids[child1] =
                        q.scheduleIn(0, [&, child1] { fire(child1); });
                    ids[child2] =
                        q.scheduleIn(70000, [&, child2] { fire(child2); });
                });
                break;
            }
            case 1: {
                // Callback-side cancels inside the draining band: the
                // event that ran just before (often earlier in this
                // same band, so already run) and a same-time sibling
                // scheduled right after this event (still pending,
                // later in the band).
                const int sibling = newId();
                ids[id] = q.schedule(at, [&, id, sibling] {
                    const int before = lastFired;
                    fire(id);
                    if (before >= 0)
                        cancel(before);
                    cancel(sibling);
                });
                ids[sibling] = q.schedule(at, [&, sibling] { fire(sibling); });
                break;
            }
            default:
                ids[id] = q.schedule(at, [&, id] { fire(id); });
                break;
            }
        }
        // Cancels from outside any callback: earlier ids at random
        // (live ones, stale ones that already ran or were cancelled,
        // whose slot may hold a later event by now, and children not
        // yet scheduled), the newest event, and now and then the
        // default id.
        for (int c = static_cast<int>(rnd(4)); c > 0; --c)
            cancel(static_cast<int>(rnd(static_cast<unsigned long long>(
                nextId))));
        if (rnd(3) == 0)
            cancel(nextId - 1);
        if (rnd(16) == 0)
            log.emplace_back(q.cancel(EventId{}) ? 'c' : 's', -1);
        // Mixed draining: short hops that end between two events, and
        // longer bounded runs.
        switch (rnd(3)) {
        case 0:
            q.runUntil(q.now() + static_cast<SimTime>(rnd(8)));
            break;
        case 1:
            q.runUntil(q.now() + static_cast<SimTime>(rnd(5000)));
            break;
        default:
            break; // let the backlog build
        }
    }
    q.runUntil(q.now() + 10000000);
    EXPECT_EQ(q.pending(), 0u);
    return log;
}

// The determinism contract: the heap queue dispatches the exact
// (time, seq) sequence of the reference queue, and agrees on every
// cancel, under a randomized workload of shallow and deep keys,
// same-time batches that callbacks extend, stale keys of cancelled
// events, and slots reused after cancels.
TEST(EventQueue, RandomizedDifferentialAgainstReference)
{
    const ScriptLog queue = runScript<EventQueue>(400);
    const ScriptLog reference = runScript<ReferenceQueue>(400);
    ASSERT_GT(queue.size(), 1000u);
    EXPECT_EQ(queue, reference);
}

// FIFO ties must hold when the tied events were scheduled far apart:
// schedule the same timestamp before, between and after filler traffic
// that is dispatched in between, so the tied keys enter the heap at
// different depths and only their seq orders the batch.
TEST(EventQueue, FifoTieBreakAcrossBucketBoundaries)
{
    EventQueue q;
    std::vector<int> fired;
    const SimTime tied = 5000000; // far beyond the filler
    q.schedule(tied, [&] { fired.push_back(0); });
    // Filler traffic between the tied schedules.
    for (int i = 0; i < 64; ++i)
        q.schedule(i * 1000, [] {});
    q.schedule(tied, [&] { fired.push_back(1); });
    q.runUntil(1500000); // drain filler only; clock far below tie
    q.schedule(tied, [&] { fired.push_back(2); });
    q.schedule(tied + 1, [&] { fired.push_back(3); });
    q.schedule(tied - 1, [&] { fired.push_back(4); });
    q.runUntil(tied + 10);
    EXPECT_EQ(fired, (std::vector<int>{4, 0, 1, 2, 3}));
}

// The large-population order test: a 200k-event burst grows the heap
// to 18 levels, and every event must still run once, in time order.
TEST(EventQueue, BucketResizeUnderBurst)
{
    EventQueue q;
    std::uint64_t sum = 0, expect = 0;
    SimTime last = -1;
    bool ordered = true;
    unsigned long long x = 424242;
    auto rnd = [&](unsigned long long mod) {
        x = x * 6364136223846793005ULL + 1442695040888963407ULL;
        return (x >> 33) % mod;
    };
    // Sparse traffic first, so the burst lands on a queue whose heap
    // and slot slab have already grown and drained.
    for (int i = 1; i <= 32; ++i)
        q.schedule(i * 4096, [&] { sum += 0; });
    q.runUntil(32 * 4096);
    for (int i = 0; i < 200000; ++i) {
        const SimTime at = q.now() + 1 + static_cast<SimTime>(rnd(2048));
        expect += static_cast<std::uint64_t>(at);
        q.schedule(at, [&, at] {
            sum += static_cast<std::uint64_t>(at);
            if (q.now() < last)
                ordered = false;
            last = q.now();
        });
    }
    q.runUntil(q.now() + 1000000);
    EXPECT_EQ(q.pending(), 0u);
    EXPECT_EQ(sum, expect);
    EXPECT_TRUE(ordered);
}

} // namespace
