#include "sim/service.h"

#include "check/check.h"
#include "sim/cluster.h"
#include "sim/invocation.h"
#include "sim/types.h"
#include "stats/rng.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace ursa::sim
{

Service::Service(Cluster &cluster, ServiceConfig cfg, ServiceId id)
    : cluster_(cluster), cfg_(std::move(cfg)), id_(id)
{
    if (cfg_.initialReplicas < 1)
        throw std::invalid_argument("a service needs >= 1 replica");
    for (auto &[cls, behavior] : cfg_.behaviors) {
        (void)cls;
        behavior.hasEventCall = false;
        for (const CallSpec &call : behavior.calls)
            if (call.kind == CallKind::EventRpc)
                behavior.hasEventCall = true;
        // Derive the (mu, sigma) pairs once so the per-sample hot path
        // skips the log/sqrt re-derivation.
        behavior.computeParams = stats::LognormalParams::fromMeanCv(
            behavior.computeMeanUs, behavior.computeCv);
        behavior.postComputeParams = stats::LognormalParams::fromMeanCv(
            behavior.postComputeMeanUs, behavior.postComputeCv);
    }
    for (int i = 0; i < cfg_.initialReplicas; ++i)
        replicas_.push_back(std::make_unique<Replica>(*this, i));
    cluster_.metrics().recordAllocation(id_, cluster_.events().now(),
                                        cpuAllocation());
    cluster_.metrics().recordReplicaCount(id_, cluster_.events().now(),
                                          activeReplicas());
}

Replica &
Service::pickReplica()
{
    // Round-robin over active replicas, preferring one with a free
    // worker so queueing only starts once the service saturates. The
    // active list is rebuilt into a reused scratch buffer so the per-
    // dispatch hot path stays allocation-free.
    std::vector<Replica *> &active = pickScratch_;
    active.clear();
    for (auto &r : replicas_)
        if (!r->draining())
            active.push_back(r.get());
    if (active.empty())
        throw std::logic_error("service has no active replicas");
    const std::size_t n = active.size();
    rr_ = (rr_ + 1) % n;
    for (std::size_t probe = 0; probe < n; ++probe) {
        Replica *r = active[(rr_ + probe) % n];
        if (r->hasFreeWorker())
            return *r;
    }
    // All busy: shortest pending queue wins (ties: round-robin order).
    Replica *best = active[rr_ % n];
    for (std::size_t probe = 0; probe < n; ++probe) {
        Replica *r = active[(rr_ + probe) % n];
        if (r->queueLength() < best->queueLength())
            best = r;
    }
    return *best;
}

void
Service::dispatch(InvocationPtr inv)
{
    pickReplica().submit(std::move(inv));
}

void
Service::publish(InvocationPtr inv)
{
    const int prio = inv->req->priority;
    // Try to hand the message to a free worker immediately.
    for (auto &r : replicas_) {
        if (r->hasFreeWorker()) {
            // Strict priority: an arriving message only jumps the queue
            // if nothing of equal-or-higher priority waits.
            bool blocked = false;
            for (const auto &[p, q] : mq_)
                if (p <= prio && !q.empty())
                    blocked = true;
            if (!blocked) {
                r->beginMq(std::move(inv));
                return;
            }
            break;
        }
    }
    mq_[prio].push_back(std::move(inv));
}

bool
Service::offerMqWork(Replica &replica)
{
    for (auto &[prio, q] : mq_) {
        if (q.empty())
            continue;
        InvocationPtr inv = std::move(q.front());
        q.pop_front();
        replica.beginMq(std::move(inv));
        return true;
    }
    return false;
}

void
Service::setReplicas(int n)
{
    if (n < 1)
        throw std::invalid_argument("replica count must be >= 1");
    int active = activeReplicas();
    if (n > active) {
        for (int i = active; i < n; ++i) {
            replicas_.push_back(std::make_unique<Replica>(
                *this, static_cast<int>(replicas_.size())));
            // A fresh replica can immediately absorb queued MQ work.
            while (replicas_.back()->hasFreeWorker() &&
                   offerMqWork(*replicas_.back())) {
            }
        }
    } else if (n < active) {
        // Drain the youngest active replicas.
        for (auto it = replicas_.rbegin();
             it != replicas_.rend() && active > n; ++it) {
            if (!(*it)->draining()) {
                (*it)->startDrain();
                --active;
            }
        }
    }
    cluster_.metrics().recordAllocation(id_, cluster_.events().now(),
                                        cpuAllocation());
    cluster_.metrics().recordReplicaCount(id_, cluster_.events().now(),
                                          activeReplicas());
}

int
Service::activeReplicas() const
{
    int n = 0;
    for (const auto &r : replicas_)
        if (!r->draining())
            ++n;
    return n;
}

double
Service::cpuAllocation() const
{
    double total = 0.0;
    for (const auto &r : replicas_)
        total += r->cpuLimit();
    return total;
}

void
Service::setCpuFactor(double factor)
{
    for (auto &r : replicas_)
        r->setCpuFactor(factor);
}

void
Service::setCpuLimitPerReplica(double cores)
{
    for (auto &r : replicas_)
        r->setCpuLimit(cores);
    cfg_.cpuPerReplica = cores;
    cluster_.metrics().recordAllocation(id_, cluster_.events().now(),
                                        cpuAllocation());
}

double
Service::cumBusyCoreUs()
{
    double total = retiredBusyCoreUs_;
    for (auto &r : replicas_)
        total += r->busyCoreUs();
    return total;
}

std::size_t
Service::mqDepth() const
{
    std::size_t n = 0;
    for (const auto &[prio, q] : mq_)
        n += q.size();
    return n;
}

std::size_t
Service::rpcQueueDepth() const
{
    std::size_t n = 0;
    for (const auto &r : replicas_)
        n += r->queueLength();
    return n;
}

void
Service::notifyDrained(Replica &replica)
{
    // Reap on a fresh event: the replica may still be on the stack.
    // A draining replica takes no new work, and only the release that
    // empties it (or startDrain on an idle one) notifies, so exactly
    // one reap finds it.
    Replica *target = &replica;
    cluster_.events().scheduleIn(0, [this, target] {
        const auto it = std::find_if(
            replicas_.begin(), replicas_.end(),
            [target](const auto &r) { return r.get() == target; });
        const bool found = it != replicas_.end() && (*it)->drained();
        URSA_CHECK(found, "sim.service",
                   "reap found no drained replica at its address");
        if (!found)
            return;
        retiredBusyCoreUs_ += (*it)->busyCoreUs();
        replicas_.erase(it);
        cluster_.metrics().recordAllocation(id_, cluster_.events().now(),
                                            cpuAllocation());
    });
}

} // namespace ursa::sim
