/**
 * @file
 * A Service groups the replicas of one microservice, owns its ingress
 * (round-robin RPC dispatch or a shared priority message queue), and
 * implements replica-count scaling with draining — the knob every
 * resource manager in this repo turns.
 */

#ifndef URSA_SIM_SERVICE_H
#define URSA_SIM_SERVICE_H

#include "check/check.h"
#include "sim/invocation.h"
#include "sim/replica.h"
#include "sim/types.h"

#include <deque>
#include <map>
#include <memory>
#include <vector>

namespace ursa::sim
{

class Cluster;

/** One microservice: replicas + ingress + scaling. */
class Service
{
  public:
    Service(Cluster &cluster, ServiceConfig cfg, ServiceId id);

    Service(const Service &) = delete;
    Service &operator=(const Service &) = delete;

    /** Immutable configuration. */
    const ServiceConfig &config() const { return cfg_; }

    /** Cluster-wide id. */
    ServiceId id() const { return id_; }

    /** Owning cluster. */
    Cluster &cluster() { return cluster_; }

    /** Dispatch an RPC invocation to a replica (round-robin, preferring
     * replicas with a free worker). */
    void dispatch(InvocationPtr inv);

    /** Enqueue an MQ message; consumed by priority then FIFO order. */
    void publish(InvocationPtr inv);

    /**
     * Scale to `n` active replicas (n >= 1). Shrinking drains the
     * youngest replicas: they finish queued work, then disappear.
     */
    void setReplicas(int n);

    /** Number of active (non-draining) replicas. */
    int activeReplicas() const;

    /** Total allocated cores, including still-draining replicas. */
    double cpuAllocation() const;

    /** Set the throttle factor on every replica (fault injection). */
    void setCpuFactor(double factor);

    /** Set the per-replica CPU limit on every replica (profiling). */
    void setCpuLimitPerReplica(double cores);

    /** Cumulative busy core-us across current and reaped replicas. */
    double cumBusyCoreUs();

    /** Depth of the service's message queue (all priorities). */
    std::size_t mqDepth() const;

    /** Sum of per-replica pending RPC queues. */
    std::size_t rpcQueueDepth() const;

    /**
     * Called by a replica when a worker frees up: hands it the next MQ
     * message if one is waiting. @return true if work was handed over.
     */
    bool offerMqWork(Replica &replica);

    /** Called by a replica that finished draining. */
    void notifyDrained(Replica &replica);

#if URSA_CHECK_LEVEL >= 1
    /** Test access to a replica, for the check layer's violation-
     * injection tests only. */
    Replica &replicaForTest(std::size_t i) { return *replicas_.at(i); }
#endif

  private:
    Replica &pickReplica();

    Cluster &cluster_;
    ServiceConfig cfg_;
    ServiceId id_;
    std::vector<std::unique_ptr<Replica>> replicas_;
    /// MQ buffer: priority level -> FIFO of waiting invocations.
    std::map<int, std::deque<InvocationPtr>> mq_;
    std::size_t rr_ = 0;
    double retiredBusyCoreUs_ = 0.0;
    /// Reused active-replica buffer for pickReplica (no per-dispatch
    /// allocation).
    std::vector<Replica *> pickScratch_;
};

} // namespace ursa::sim

#endif // URSA_SIM_SERVICE_H
