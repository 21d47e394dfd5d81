/**
 * @file
 * Cluster — the top-level simulator object: owns the event queue, the
 * RNG, the metrics registry (tracing substrate), all services and the
 * request-class table; routes invocations and completes requests.
 *
 * This is the stand-in for the paper's 8-machine Kubernetes cluster;
 * resource managers act on it exclusively through Service::setReplicas
 * (the paper's replica-count scaling) and read it through
 * MetricsRegistry (the paper's Prometheus).
 */

#ifndef URSA_SIM_CLUSTER_H
#define URSA_SIM_CLUSTER_H

#include "check/check.h"
#include "sim/event_queue.h"
#include "sim/invocation.h"
#include "sim/metrics.h"
#include "sim/pool.h"
#include "sim/service.h"
#include "sim/time.h"
#include "sim/types.h"
#include "stats/rng.h"
#include "trace/span.h"
#include "trace/tracer.h"

#include <map>
#include <memory>
#include <string>
#include <vector>

namespace ursa::sim
{

/** The simulated cluster. */
class Cluster
{
  public:
    /**
     * @param seed Seed for every stochastic draw in the simulation.
     * @param metricsWindow Metrics aggregation window (default 1 min,
     *        the paper's sampling frequency).
     */
    explicit Cluster(std::uint64_t seed, SimTime metricsWindow = kMin);

    Cluster(const Cluster &) = delete;
    Cluster &operator=(const Cluster &) = delete;

    // --- construction ----------------------------------------------

    /** Add a service; returns its id. Call before finalize(). */
    ServiceId addService(const ServiceConfig &cfg);

    /** Add a request class; returns its id. Call before finalize(). */
    ClassId addClass(const RequestClassSpec &spec);

    /**
     * Resolve call targets and arm the metrics sampler. Must be called
     * once, after all addService/addClass and before any submit().
     */
    void finalize();

    // --- lookup -----------------------------------------------------

    Service &service(ServiceId id) { return *services_.at(id); }
    const Service &service(ServiceId id) const { return *services_.at(id); }
    Service &service(const std::string &name);
    ServiceId serviceId(const std::string &name) const;
    int numServices() const { return static_cast<int>(services_.size()); }

    ClassId classId(const std::string &name) const;
    int numClasses() const { return static_cast<int>(classes_.size()); }

    // --- operation ---------------------------------------------------

    /**
     * Submit one request of class `c` at the current time. The request
     * completes through the class's root service; end-to-end latency is
     * recorded automatically per the class's completion mode.
     */
    RequestPtr submit(ClassId c);

    /** Run the simulation until the given absolute time. */
    void run(SimTime until);

    // --- internal routing (used by Replica) ---------------------------

    /**
     * Invoke `target` for `req`; `onSyncDone` resumes the caller.
     * `parentSpan`/`hop` link the new hop's span to the caller's when
     * the request is traced (ignored otherwise). `netDelayUs` is the
     * one-way channel delay of the edge being traversed: the request
     * is delivered (and the invocation created, its arrival stamped)
     * `netDelayUs` later, and the response delays the continuation by
     * the same amount on the way back. 0 keeps the historical
     * in-process zero-latency dispatch.
     */
    void invoke(ServiceId target, const RequestPtr &req,
                EventQueue::Callback onSyncDone,
                trace::SpanId parentSpan = trace::kNoSpan,
                trace::HopKind hop = trace::HopKind::NestedRpc,
                SimTime netDelayUs = 0);

    /**
     * Publish `req` onto `target`'s message queue (async branch). The
     * message lands on the queue `netDelayUs` after the publish; the
     * arrival (queue wait starts) is stamped at landing.
     */
    void publishTo(ServiceId target, const RequestPtr &req,
                   trace::SpanId parentSpan = trace::kNoSpan,
                   SimTime netDelayUs = 0);

    /** An async branch of `req` finished. */
    void asyncBranchDone(const RequestPtr &req);

    // --- infrastructure ------------------------------------------------

    EventQueue &events() { return events_; }
    const EventQueue &events() const { return events_; }
    MetricsRegistry &metrics() { return metrics_; }
    const MetricsRegistry &metrics() const { return metrics_; }
    stats::Rng &rng() { return rng_; }

    /**
     * Request-flow tracer (sampling 0 = disabled, the default). Enable
     * with tracer().setSampling(rate) before or between runs; the
     * sampled-request set depends only on request ids, so traces are
     * bit-identical across URSA_THREADS settings.
     */
    trace::Tracer &tracer() { return tracer_; }
    const trace::Tracer &tracer() const { return tracer_; }

    // --- request-conservation accounting -------------------------------

    /** Requests injected via submit() so far. */
    std::uint64_t submitted() const { return submitted_; }

    /** Requests fully completed (sync path + every async branch). */
    std::uint64_t completed() const { return completed_; }

    /** Requests injected but not yet fully completed. */
    std::uint64_t inFlight() const { return submitted_ - completed_; }

    /**
     * Audit request conservation: injected == completed + in-flight,
     * counters monotone. With `expectQuiescent` (callers stopped and
     * the sim drained) additionally require in-flight == 0 and every
     * service queue empty — a lost request (dropped continuation,
     * leaked invocation) fires a "sim.cluster" violation here.
     */
    void auditConservation(bool expectQuiescent) const;

#if URSA_CHECK_LEVEL >= 1
    /**
     * Violation injection for the check layer's own tests: forge one
     * injected-but-never-completed request so auditConservation(true)
     * fires. Leaves the counters corrupted — use only on a cluster
     * about to be discarded.
     */
    void injectConservationViolationForTest() { ++submitted_; }
#endif

  private:
    void samplerTick();
    void maybeFinishRequest(const RequestPtr &req);
    InvocationPtr makeInvocation(ServiceId target, const RequestPtr &req,
                                 trace::SpanId parentSpan,
                                 trace::HopKind hop);
    /// Zero-latency tail of invoke(): create the invocation at the
    /// current time and hand it to the target service.
    void deliver(ServiceId target, const RequestPtr &req,
                 EventQueue::Callback onSyncDone, trace::SpanId parentSpan,
                 trace::HopKind hop);
    /// Zero-latency tail of publishTo().
    void publishLocal(ServiceId target, const RequestPtr &req,
                      trace::SpanId parentSpan);

    /// Freelist arena recycling Request/Invocation nodes (hot path).
    /// Declared before the event queue (and every other member that
    /// can hold a RefPtr) so pending callbacks release their pooled
    /// objects into a still-live arena during destruction.
    PoolArena pool_;
    /// Declared before services_, so the queue outlives every replica
    /// and each can cancel its pending event on destruction.
    EventQueue events_;
    stats::Rng rng_;
    MetricsRegistry metrics_;
    trace::Tracer tracer_;
    std::vector<std::unique_ptr<Service>> services_;
    std::map<std::string, ServiceId> serviceByName_;
    std::vector<RequestClassSpec> classes_;
    std::map<std::string, ClassId> classByName_;
    /// resolved call targets: [service][class] -> target ids
    std::vector<std::map<ClassId, std::vector<ServiceId>>> resolved_;
    /// Dense dispatch tables, built once at finalize() so the per-
    /// invocation hot path does no map or string lookups. Indexed
    /// [service * numClasses + class]; null where the service has no
    /// behavior for the class. Pointees live in the services' configs
    /// and in resolved_ (stable after finalize).
    std::vector<const ClassBehavior *> behaviorTable_;
    std::vector<const std::vector<ServiceId> *> targetTable_;
    /// Root service of each class, resolved once at finalize().
    std::vector<ServiceId> rootService_;

    std::size_t tableIndex(ServiceId s, ClassId c) const
    {
        return static_cast<std::size_t>(s) * classes_.size() +
               static_cast<std::size_t>(c);
    }

    bool finalized_ = false;
    bool samplerArmed_ = false;
    SimTime sampleInterval_;
    std::uint64_t nextRequestId_ = 1;
    std::uint64_t submitted_ = 0;
    std::uint64_t completed_ = 0;
};

} // namespace ursa::sim

#endif // URSA_SIM_CLUSTER_H
