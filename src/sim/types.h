/**
 * @file
 * Shared simulator value types: identifiers, request classes, requests,
 * and the per-service behavior configuration.
 */

#ifndef URSA_SIM_TYPES_H
#define URSA_SIM_TYPES_H

#include "sim/pool.h"
#include "sim/time.h"
#include "stats/rng.h"
#include "trace/span.h"

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace ursa::sim
{

/** Index of a service within its cluster. */
using ServiceId = int;

/** Index of a request class within its cluster. */
using ClassId = int;

/** How a service invokes a downstream service (paper Fig. 1). */
enum class CallKind
{
    NestedRpc, ///< synchronous: caller's worker blocks for the response
    EventRpc,  ///< handler dispatches to a daemon thread, returns at once
    MqPublish, ///< fire-and-forget publish onto the target's queue
};

/**
 * Default one-way network delay of an inter-service call, in
 * microseconds: a realistic per-hop floor for kernel-bypass-free
 * datacenter RPC through a service mesh (sidecar proxy each side).
 */
inline constexpr SimTime kDefaultNetDelayUs = 1000;

/** One downstream call made while handling a request class. */
struct CallSpec
{
    std::string target;
    CallKind kind = CallKind::NestedRpc;
    /**
     * Minimum one-way network delay of this channel (us), applied by
     * Cluster dispatch to the request delivery and, for RPC, to the
     * response. 0 is an explicit option meaning colocated/in-process.
     */
    SimTime netDelayUs = kDefaultNetDelayUs;
};

/**
 * How one service handles one request class: compute before the
 * downstream calls, the calls themselves (sequential), and compute
 * after the last call completes.
 *
 * Compute amounts are CPU work in core-microseconds drawn from a
 * lognormal distribution — the stand-in for the paper's business logic
 * (text ops are ~ms, video ops ~100 ms, ML inference ~seconds).
 */
struct ClassBehavior
{
    double computeMeanUs = 1000.0;
    double computeCv = 0.3;
    std::vector<CallSpec> calls;
    /**
     * When true, nested calls in `calls` are issued concurrently and
     * joined (scatter-gather fan-out); the stage latency is the max of
     * the branches instead of their sum. Async calls (event/MQ) fire
     * immediately either way. When false (default), calls run
     * sequentially — the paper folds repeated accesses into cumulative
     * latency, which matches the sequential model.
     */
    bool parallelCalls = false;
    double postComputeMeanUs = 0.0;
    double postComputeCv = 0.3;
    /**
     * Derived, set by Service from `calls` — do not set by hand. True
     * when any call is event-driven: the tier latency is then recorded
     * at the daemon send instead of at finish (paper Fig. 1b), and the
     * dispatch hot path branches on this instead of rescanning `calls`.
     */
    bool hasEventCall = false;
    /**
     * Derived, set by Service alongside `hasEventCall` — the (mu,
     * sigma) pairs of the compute and post-compute lognormals,
     * precomputed once so the per-sample hot path skips the
     * log/sqrt re-derivation (PR-6 profile rock #2).
     */
    stats::LognormalParams computeParams;
    stats::LognormalParams postComputeParams;
};

/** Static configuration of one microservice. */
struct ServiceConfig
{
    std::string name;
    int threads = 16;           ///< worker threads per replica
    int daemonThreads = 8;      ///< event-dispatch threads per replica
    double cpuPerReplica = 1.0; ///< CPU limit per replica, in cores
    int initialReplicas = 1;
    bool mqConsumer = false;    ///< ingress is a message queue
    std::map<ClassId, ClassBehavior> behaviors;
};

/** End-to-end SLA of a request class (paper Tables II-IV). */
struct SlaSpec
{
    double percentile = 99.0; ///< e.g. 99 for p99, 50 for p50
    SimTime targetUs = 0;     ///< latency target
};

/** A request class (or priority level) handled by an application. */
struct RequestClassSpec
{
    std::string name;
    std::string rootService;    ///< service that receives the request
    int priority = 0;           ///< 0 = highest; used by MQ dequeues
    SlaSpec sla;
    /**
     * When true the SLA is judged at full completion (all async MQ /
     * event-driven descendants done); otherwise at the synchronous
     * response. MQ-backed classes like object-detect use true.
     */
    bool asyncCompletion = false;
};

/**
 * One in-flight user request. Owned by RefPtr (pool-backed intrusive
 * refcount, see sim/pool.h): invocation continuations and async
 * branches keep it alive until fully done. Must not outlive the
 * Cluster that created it.
 */
struct Request
{
    RefState poolRef;

    std::uint64_t id = 0;
    ClassId classId = 0;
    int priority = 0;
    SimTime submitTime = 0;
    SimTime syncDoneTime = -1;
    SimTime allDoneTime = -1;
    int outstandingAsync = 0;
    bool syncDone = false;

    /// Selected by the tracer's deterministic hash-of-id gate at
    /// submit; every hop of a traced request emits a span.
    bool traced = false;
    /// Client root span id of a traced request (kNoSpan otherwise).
    trace::SpanId rootSpan = trace::kNoSpan;

    /** Invoked exactly once when sync + all async branches are done. */
    std::function<void(Request &)> onFullyDone;

    /** Invoked once when the root synchronous response is produced. */
    std::function<void(Request &)> onSyncDone;

    /** True once both completion conditions hold. */
    bool fullyDone() const { return syncDone && outstandingAsync == 0; }
};

using RequestPtr = RefPtr<Request>;

} // namespace ursa::sim

#endif // URSA_SIM_TYPES_H
