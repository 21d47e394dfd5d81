/**
 * @file
 * A Replica models one container instance of a microservice:
 *
 *  - a finite pool of worker threads (requests queue FIFO when all
 *    workers are busy; a worker making a nested RPC stays held for the
 *    whole downstream round trip — this is the mechanism behind the
 *    backpressure effect of paper Sec. III);
 *  - a finite pool of daemon threads servicing event-driven dispatches
 *    (paper Fig. 1b);
 *  - a CPU with a configurable core limit shared by all active compute
 *    phases under processor sharing (each job progresses at
 *    min(1, limit/active) cores), with an integral of used core-time
 *    for utilization accounting.
 *
 * With finite worker pools and a closed-loop client, throttling a leaf
 * tier makes backlog cascade bottom-up: the culprit's parent saturates
 * first and each ancestor progressively less — reproducing the Fig. 2
 * attenuation. Message queues bypass worker blocking entirely, so MQ
 * stages show no backpressure.
 */

#ifndef URSA_SIM_REPLICA_H
#define URSA_SIM_REPLICA_H

#include "check/check.h"
#include "sim/callback.h"
#include "sim/event_queue.h"
#include "sim/invocation.h"
#include "sim/time.h"

#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

namespace ursa::sim
{

class Service;

/** One container instance of a service. */
class Replica
{
  public:
    /**
     * @param svc Owning service.
     * @param index Replica index (for diagnostics).
     */
    Replica(Service &svc, int index);

    /** Cancels the pending CPU completion, if any. */
    ~Replica();

    Replica(const Replica &) = delete;
    Replica &operator=(const Replica &) = delete;

    /** True when a worker is free and the replica accepts work. */
    bool hasFreeWorker() const;

    /** Pending RPC queue length (excluding running invocations). */
    std::size_t queueLength() const { return pending_.size(); }

    /** Submit an RPC invocation (from Service dispatch). */
    void submit(InvocationPtr inv);

    /**
     * Begin handling an MQ message. Only called by Service when this
     * replica has a free worker.
     */
    void beginMq(InvocationPtr inv);

    /** Set the CPU limit in cores (dynamic; used by the profiler). */
    void setCpuLimit(double cores);

    /** Nominal CPU limit in cores. */
    double cpuLimit() const { return cpuLimit_; }

    /**
     * Throttle factor in (0, 1]: effective limit = limit * factor.
     * Used by fault injection (paper Fig. 2) and Firm's anomaly
     * injection during RL training.
     */
    void setCpuFactor(double factor);

    /** Cumulative used core-microseconds up to now. */
    double busyCoreUs();

    /** Stop accepting new work; finish what is queued and running. */
    void startDrain();

    /** True when draining and fully idle. */
    bool drained() const;

    /** Whether startDrain was called. */
    bool draining() const { return draining_; }

#if URSA_CHECK_LEVEL >= 1
    /**
     * Violation injection for the check layer's own tests: release a
     * worker that was never acquired, so the accounting audit fires
     * ("sim.replica"). Leaves the replica's counters corrupted — use
     * only on a cluster about to be discarded.
     */
    void injectAccountingViolationForTest();
#endif

  private:
    /** Thread-pool accounting audit: busy counts within pool bounds,
     * no queued work while a worker idles, queues never negative. */
    void auditAccounting();
    void begin(InvocationPtr inv);
    void advance(const InvocationPtr &inv);
    void finish(const InvocationPtr &inv);
    void releaseWorker();
    void daemonSubmit(InlineCallback task);
    void daemonRelease();

    // --- processor-sharing CPU engine ---
    void cpuSubmit(double workCoreUs, InlineCallback done);
    void cpuSync();
    void cpuReschedule();
    void cancelCpuEvent();
    void onCpuEvent();
    double effectiveLimit() const { return cpuLimit_ * cpuFactor_; }

    Service &svc_;
    int index_;
    int threads_;
    int daemonThreads_;
    double cpuLimit_;
    double cpuFactor_ = 1.0;

    int busyWorkers_ = 0;
    int busyDaemons_ = 0;
    std::deque<InvocationPtr> pending_;
    std::deque<InlineCallback> daemonPending_;
    bool draining_ = false;

    /// Processor-sharing job state, struct-of-arrays: cpuSync and
    /// cpuReschedule sweep only the dense remaining-work array on every
    /// CPU event, and completion callbacks sit in a stable slot slab so
    /// onCpuEvent's compaction shifts 12-byte job records instead of
    /// relocating 64-byte callbacks.
    std::vector<double> jobRemaining_;
    std::vector<std::uint32_t> jobSlot_;
    std::vector<InlineCallback> jobSlab_;
    std::vector<std::uint32_t> jobFree_;
    /// Reused buffer for slots collected by onCpuEvent (no per-event
    /// allocation).
    std::vector<std::uint32_t> finishedScratch_;
    SimTime lastSync_ = 0;
    double busyIntegral_ = 0.0;
    /// The one pending completion event, while any job runs.
    EventId cpuEvent_;
};

} // namespace ursa::sim

#endif // URSA_SIM_REPLICA_H
