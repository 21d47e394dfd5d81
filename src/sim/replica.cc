#include "sim/replica.h"

#include "check/check.h"
#include "sim/callback.h"
#include "sim/cluster.h"
#include "sim/invocation.h"
#include "sim/service.h"
#include "sim/time.h"
#include "sim/types.h"
#include "trace/span.h"

#include <algorithm>
#include <cmath>

namespace ursa::sim
{

namespace
{

/** Work below this many core-us counts as finished (float tolerance). */
constexpr double kWorkEps = 1e-6;

} // namespace

Replica::Replica(Service &svc, int index)
    : svc_(svc), index_(index), threads_(svc.config().threads),
      daemonThreads_(svc.config().daemonThreads),
      cpuLimit_(svc.config().cpuPerReplica),
      lastSync_(svc.cluster().events().now())
{
    URSA_CHECK(threads_ > 0, "sim.replica",
               "replica configured with an empty worker pool");
    URSA_CHECK(cpuLimit_ > 0.0, "sim.replica",
               "replica configured with a non-positive CPU limit");
}

Replica::~Replica()
{
    cancelCpuEvent();
}

void
Replica::auditAccounting()
{
    URSA_CHECK(busyWorkers_ >= 0 && busyWorkers_ <= threads_,
               "sim.replica",
               "worker accounting violation: busy + idle != pool size");
    URSA_CHECK(busyDaemons_ >= 0 && busyDaemons_ <= daemonThreads_,
               "sim.replica",
               "daemon accounting violation: busy + idle != pool size");
    // A queued invocation while a worker idles breaks FIFO admission.
    URSA_CHECK_SLOW(pending_.empty() || busyWorkers_ == threads_ ||
                        draining_,
                    "sim.replica",
                    "pending RPC queued while a worker is idle");
    URSA_CHECK_SLOW(daemonPending_.empty() ||
                        busyDaemons_ == daemonThreads_,
                    "sim.replica",
                    "pending daemon task queued while a daemon is idle");
}

#if URSA_CHECK_LEVEL >= 1
void
Replica::injectAccountingViolationForTest()
{
    --busyWorkers_;
    auditAccounting();
}
#endif

bool
Replica::hasFreeWorker() const
{
    return !draining_ && busyWorkers_ < threads_;
}

void
Replica::submit(InvocationPtr inv)
{
    if (busyWorkers_ < threads_) {
        ++busyWorkers_;
        auditAccounting();
        begin(std::move(inv));
    } else {
        pending_.push_back(std::move(inv));
    }
}

void
Replica::beginMq(InvocationPtr inv)
{
    URSA_CHECK(busyWorkers_ < threads_, "sim.replica",
               "MQ hand-off to a replica with no free worker");
    ++busyWorkers_;
    auditAccounting();
    begin(std::move(inv));
}

void
Replica::begin(InvocationPtr inv)
{
    inv->replica = this;
    // End of queue wait: a worker picked the invocation up. Recorded
    // unconditionally (one store) so traced spans can split queue wait
    // from service time.
    inv->serviceStart = svc_.cluster().events().now();
    auto &rng = svc_.cluster().rng();
    const double work = rng.lognormal(inv->behavior->computeParams);
    cpuSubmit(work, [this, inv] { advance(inv); });
}

void
Replica::advance(const InvocationPtr &inv)
{
    // advance() self-recurses once per fire-and-forget call; the call
    // index strictly grows toward the behavior's call list, so this
    // bound doubles as the recursion depth bound.
    URSA_CHECK(inv->callIdx <= inv->behavior->calls.size() + 1,
               "sim.replica",
               "invocation call index ran past the behavior's call list");
    Cluster &cluster = svc_.cluster();
    if (inv->callIdx >= inv->behavior->calls.size()) {
        // Post-compute phase, then finish.
        if (inv->behavior->postComputeMeanUs > 0.0) {
            const double work =
                cluster.rng().lognormal(inv->behavior->postComputeParams);
            // Consume the phase so re-entry goes straight to finish.
            auto done = [this, inv] { finish(inv); };
            cpuSubmit(work, std::move(done));
            // Mark post-compute as consumed by bumping past the calls.
            inv->callIdx = inv->behavior->calls.size() + 1;
            return;
        }
        finish(inv);
        return;
    }
    if (inv->callIdx > inv->behavior->calls.size()) {
        finish(inv);
        return;
    }

    // Scatter-gather fan-out: issue every call at once and resume when
    // the last synchronous branch responds (stage latency = max, not
    // sum). Event-driven calls are joined like nested ones here; MQ
    // publishes fire and forget as usual.
    if (inv->behavior->parallelCalls && inv->callIdx == 0) {
        Cluster &c = svc_.cluster();
        const SimTime t0 = c.events().now();
        const auto &calls = inv->behavior->calls;
        inv->callIdx = calls.size();
        auto pendingJoins = std::make_shared<int>(0);
        for (std::size_t k = 0; k < calls.size(); ++k) {
            const ServiceId tgt = (*inv->targets)[k];
            if (calls[k].kind == CallKind::MqPublish) {
                inv->req->outstandingAsync += 1;
                c.publishTo(tgt, inv->req, inv->span,
                            calls[k].netDelayUs);
                continue;
            }
            ++*pendingJoins;
            c.invoke(tgt, inv->req, [this, inv, t0, pendingJoins] {
                if (--*pendingJoins == 0) {
                    inv->blockedUs +=
                        svc_.cluster().events().now() - t0;
                    advance(inv);
                }
            }, inv->span,
            calls[k].kind == CallKind::EventRpc
                ? trace::HopKind::EventRpc
                : trace::HopKind::NestedRpc,
            calls[k].netDelayUs);
        }
        if (*pendingJoins == 0)
            advance(inv); // only fire-and-forget calls
        return;
    }

    const CallSpec &call = inv->behavior->calls[inv->callIdx];
    const ServiceId target = (*inv->targets)[inv->callIdx];
    switch (call.kind) {
      case CallKind::NestedRpc: {
        const SimTime t0 = cluster.events().now();
        // The worker stays held while we wait for the downstream
        // response — this is what creates backpressure.
        cluster.invoke(target, inv->req, [this, inv, t0] {
            inv->blockedUs += svc_.cluster().events().now() - t0;
            ++inv->callIdx;
            advance(inv);
        }, inv->span, trace::HopKind::NestedRpc, call.netDelayUs);
        return;
      }
      case CallKind::EventRpc: {
        // Event-driven RPC (paper Fig. 1b): the handler hands the
        // request to a daemon thread and frees its worker, but the
        // response is still gated on the downstream reply — "not
        // fully asynchronous". From a daemon context a further event
        // dispatch degenerates to a nested call (the daemon blocks).
        if (inv->onDaemon) {
            const SimTime t0 = cluster.events().now();
            cluster.invoke(target, inv->req, [this, inv, t0] {
                inv->blockedUs += svc_.cluster().events().now() - t0;
                ++inv->callIdx;
                advance(inv);
            }, inv->span, trace::HopKind::EventRpc, call.netDelayUs);
            return;
        }
        inv->onDaemon = true;
        daemonSubmit([this, inv, target, d = call.netDelayUs] {
            // S0 of an event-driven tier: the daemon issues the
            // downstream call now; record the tier latency here
            // (queue wait + compute + daemon-dispatch wait).
            Cluster &c = svc_.cluster();
            if (!inv->eventLatencyRecorded) {
                inv->eventLatencyRecorded = true;
                c.metrics().recordTierLatency(
                    inv->serviceId, inv->req->classId, c.events().now(),
                    c.events().now() - inv->arrival);
            }
            const SimTime t0 = c.events().now();
            c.invoke(target, inv->req, [this, inv, t0] {
                inv->blockedUs += svc_.cluster().events().now() - t0;
                ++inv->callIdx;
                advance(inv);
            }, inv->span, trace::HopKind::EventRpc, d);
        });
        // The worker is free while the daemon waits.
        releaseWorker();
        return;
      }
      case CallKind::MqPublish: {
        inv->req->outstandingAsync += 1;
        cluster.publishTo(target, inv->req, inv->span, call.netDelayUs);
        ++inv->callIdx;
        advance(inv);
        return;
      }
    }
}

void
Replica::finish(const InvocationPtr &inv)
{
    Cluster &cluster = svc_.cluster();
    const SimTime now = cluster.events().now();

    // Per-tier response time (paper Sec. III): service latency
    // excluding downstream waits. Event-driven tiers were recorded at
    // the daemon send instead (hasEventCall is derived once from the
    // behavior's calls, not rescanned per finish).
    if (!inv->behavior->hasEventCall) {
        cluster.metrics().recordTierLatency(inv->serviceId,
                                            inv->req->classId, now,
                                            now - inv->arrival -
                                                inv->blockedUs);
    }

    if (inv->span != trace::kNoSpan) {
        trace::Span s;
        s.id = inv->span;
        s.parent = inv->parentSpan;
        s.requestId = inv->req->id;
        s.classId = inv->req->classId;
        s.serviceId = inv->serviceId;
        s.kind = inv->hopKind;
        s.start = inv->arrival;
        s.serviceStart = inv->serviceStart;
        s.end = now;
        s.blockedUs = inv->blockedUs;
        cluster.tracer().record(s);
    }

    auto cont = std::move(inv->onSyncDone);
    if (inv->onDaemon)
        daemonRelease();
    else
        releaseWorker();
    if (cont)
        cont();
}

void
Replica::releaseWorker()
{
    URSA_CHECK(busyWorkers_ > 0, "sim.replica",
               "releasing a worker on a fully idle replica");
    if (!pending_.empty()) {
        InvocationPtr next = std::move(pending_.front());
        pending_.pop_front();
        begin(std::move(next));
        return;
    }
    // Worker idles; offer it to the service's message queue, which
    // re-busies it via beginMq if a message waits.
    if (!draining_ && svc_.config().mqConsumer) {
        --busyWorkers_;
        svc_.offerMqWork(*this);
        return;
    }
    --busyWorkers_;
    if (draining_ && drained())
        svc_.notifyDrained(*this);
}

void
Replica::daemonSubmit(InlineCallback task)
{
    if (busyDaemons_ < daemonThreads_) {
        ++busyDaemons_;
        task();
    } else {
        daemonPending_.push_back(std::move(task));
    }
}

void
Replica::daemonRelease()
{
    URSA_CHECK(busyDaemons_ > 0, "sim.replica",
               "releasing a daemon on a fully idle replica");
    if (!daemonPending_.empty()) {
        auto task = std::move(daemonPending_.front());
        daemonPending_.pop_front();
        task();
        return;
    }
    --busyDaemons_;
    if (draining_ && drained())
        svc_.notifyDrained(*this);
}

void
Replica::setCpuLimit(double cores)
{
    URSA_CHECK(cores > 0.0, "sim.replica",
               "CPU limit must be positive");
    cpuSync();
    cpuLimit_ = cores;
    cpuReschedule();
}

void
Replica::setCpuFactor(double factor)
{
    URSA_CHECK(factor > 0.0 && factor <= 1.0, "sim.replica",
               "throttle factor outside (0, 1]");
    cpuSync();
    cpuFactor_ = factor;
    cpuReschedule();
}

double
Replica::busyCoreUs()
{
    cpuSync();
    cpuReschedule();
    return busyIntegral_;
}

void
Replica::startDrain()
{
    draining_ = true;
    if (drained())
        svc_.notifyDrained(*this);
}

bool
Replica::drained() const
{
    return draining_ && busyWorkers_ == 0 && busyDaemons_ == 0 &&
           pending_.empty() && daemonPending_.empty() &&
           jobRemaining_.empty();
}

// --- processor-sharing CPU engine -----------------------------------

void
Replica::cpuSubmit(double workCoreUs, InlineCallback done)
{
    cpuSync();
    jobRemaining_.push_back(std::max(workCoreUs, kWorkEps));
    std::uint32_t slot;
    if (!jobFree_.empty()) {
        slot = jobFree_.back();
        jobFree_.pop_back();
        jobSlab_[slot] = std::move(done);
    } else {
        slot = static_cast<std::uint32_t>(jobSlab_.size());
        jobSlab_.push_back(std::move(done));
    }
    jobSlot_.push_back(slot);
    cpuReschedule();
}

void
Replica::cpuSync()
{
    const SimTime now = svc_.cluster().events().now();
    const SimTime dt = now - lastSync_;
    lastSync_ = now;
    if (dt <= 0 || jobRemaining_.empty())
        return;
    const double n = static_cast<double>(jobRemaining_.size());
    const double rate = std::min(1.0, effectiveLimit() / n);
    const double progress = rate * static_cast<double>(dt);
    for (double &remaining : jobRemaining_)
        remaining = std::max(0.0, remaining - progress);
    busyIntegral_ +=
        std::min(n, effectiveLimit()) * static_cast<double>(dt);
}

void
Replica::cpuReschedule()
{
    // Cancel and schedule anew even when the completion time does not
    // move: the fresh seq orders the completion after every event
    // already scheduled for the same time.
    cancelCpuEvent();
    if (jobRemaining_.empty())
        return;
    const double n = static_cast<double>(jobRemaining_.size());
    const double rate = std::min(1.0, effectiveLimit() / n);
    double minRemaining = jobRemaining_.front();
    for (const double remaining : jobRemaining_)
        minRemaining = std::min(minRemaining, remaining);
    const double delay = minRemaining / rate;
    const SimTime when = std::max<SimTime>(
        static_cast<SimTime>(std::ceil(delay)), minRemaining > kWorkEps ? 1 : 0);
    cpuEvent_ =
        svc_.cluster().events().scheduleIn(when, [this] { onCpuEvent(); });
}

void
Replica::cancelCpuEvent()
{
    if (!cpuEvent_)
        return;
    const bool found = svc_.cluster().events().cancel(cpuEvent_);
    URSA_CHECK(found, "sim.replica",
               "pending CPU completion missing from the event queue");
    cpuEvent_ = {};
}

void
Replica::onCpuEvent()
{
    cpuEvent_ = {}; // running now, no longer pending
    cpuSync();
    // Collect finished jobs first: their callbacks may submit new work.
    // Stable in-place compaction keeps the surviving jobs in submission
    // order (completion order is deterministic state).
    std::vector<std::uint32_t> finished = std::move(finishedScratch_);
    finished.clear();
    std::size_t w = 0;
    for (std::size_t r = 0; r < jobRemaining_.size(); ++r) {
        if (jobRemaining_[r] <= kWorkEps) {
            finished.push_back(jobSlot_[r]);
            continue;
        }
        jobRemaining_[w] = jobRemaining_[r];
        jobSlot_[w] = jobSlot_[r];
        ++w;
    }
    jobRemaining_.resize(w);
    jobSlot_.resize(w);
    cpuReschedule();
    for (const std::uint32_t slot : finished) {
        InlineCallback fn = std::move(jobSlab_[slot]);
        jobFree_.push_back(slot);
        fn();
    }
    finished.clear();
    finishedScratch_ = std::move(finished);
}

} // namespace ursa::sim
