#include "sim/cluster.h"

#include "check/check.h"
#include "sim/event_queue.h"
#include "sim/invocation.h"
#include "sim/pool.h"
#include "sim/service.h"
#include "sim/time.h"
#include "sim/types.h"
#include "trace/span.h"

#include <stdexcept>

namespace ursa::sim
{

namespace
{

/**
 * Pool-backed record of one latency-bearing local call in flight: the
 * delivery event and the delayed response resume both capture only
 * {this, RefPtr} and stay inside the InlineCallback SBO buffer, so a
 * nonzero `netDelayUs` adds no malloc to the dispatch hot path.
 */
struct NetHop
{
    RefState poolRef;

    RequestPtr req;
    EventQueue::Callback cont;
    ServiceId target = -1;
    SimTime delayUs = 0;
    trace::SpanId parentSpan = trace::kNoSpan;
    trace::HopKind hopKind = trace::HopKind::NestedRpc;
};

} // namespace

Cluster::Cluster(std::uint64_t seed, SimTime metricsWindow)
    : rng_(seed), metrics_(metricsWindow),
      sampleInterval_(std::max<SimTime>(metricsWindow / 2, kSec))
{
}

ServiceId
Cluster::addService(const ServiceConfig &cfg)
{
    if (finalized_)
        throw std::logic_error("addService after finalize");
    if (serviceByName_.count(cfg.name))
        throw std::invalid_argument("duplicate service name: " + cfg.name);
    const ServiceId id = static_cast<ServiceId>(services_.size());
    metrics_.addService(cfg.name);
    services_.push_back(std::make_unique<Service>(*this, cfg, id));
    serviceByName_[cfg.name] = id;
    return id;
}

ClassId
Cluster::addClass(const RequestClassSpec &spec)
{
    if (finalized_)
        throw std::logic_error("addClass after finalize");
    if (classByName_.count(spec.name))
        throw std::invalid_argument("duplicate class name: " + spec.name);
    const ClassId id = static_cast<ClassId>(classes_.size());
    metrics_.addClass(spec.name, spec.sla);
    classes_.push_back(spec);
    classByName_[spec.name] = id;
    return id;
}

void
Cluster::finalize()
{
    if (finalized_)
        throw std::logic_error("finalize called twice");
    // Resolve every CallSpec target to a ServiceId and sanity-check
    // that class roots exist and have behaviors.
    resolved_.resize(services_.size());
    for (ServiceId s = 0; s < numServices(); ++s) {
        for (const auto &[cls, behavior] : services_[s]->config().behaviors) {
            std::vector<ServiceId> targets;
            targets.reserve(behavior.calls.size());
            for (const CallSpec &call : behavior.calls) {
                const auto it = serviceByName_.find(call.target);
                if (it == serviceByName_.end()) {
                    throw std::invalid_argument(
                        "unknown call target '" + call.target +
                        "' from service " + services_[s]->config().name);
                }
                if (call.kind == CallKind::MqPublish &&
                    !services_[it->second]->config().mqConsumer) {
                    throw std::invalid_argument(
                        "MqPublish to non-MQ service " + call.target);
                }
                targets.push_back(it->second);
            }
            resolved_[s][cls] = std::move(targets);
        }
    }
    rootService_.reserve(classes_.size());
    for (const RequestClassSpec &spec : classes_) {
        const ServiceId root = serviceId(spec.rootService);
        if (!services_[root]->config().behaviors.count(
                classByName_.at(spec.name))) {
            throw std::invalid_argument(
                "root service " + spec.rootService +
                " has no behavior for class " + spec.name);
        }
        rootService_.push_back(root);
    }
    // Dense dispatch tables: one flat [service][class] grid replacing
    // the per-invocation map lookups on the hot path.
    behaviorTable_.assign(services_.size() * classes_.size(), nullptr);
    targetTable_.assign(services_.size() * classes_.size(), nullptr);
    for (ServiceId s = 0; s < numServices(); ++s) {
        for (const auto &[cls, behavior] : services_[s]->config().behaviors) {
            if (cls < 0 || cls >= numClasses()) {
                throw std::invalid_argument(
                    "service " + services_[s]->config().name +
                    " has a behavior for an unknown class id");
            }
            behaviorTable_[tableIndex(s, cls)] = &behavior;
            targetTable_[tableIndex(s, cls)] = &resolved_[s].at(cls);
        }
    }
    finalized_ = true;
}

Service &
Cluster::service(const std::string &name)
{
    return *services_.at(serviceId(name));
}

ServiceId
Cluster::serviceId(const std::string &name) const
{
    const auto it = serviceByName_.find(name);
    if (it == serviceByName_.end())
        throw std::invalid_argument("unknown service: " + name);
    return it->second;
}

ClassId
Cluster::classId(const std::string &name) const
{
    const auto it = classByName_.find(name);
    if (it == classByName_.end())
        throw std::invalid_argument("unknown class: " + name);
    return it->second;
}

RequestPtr
Cluster::submit(ClassId c)
{
    if (!finalized_)
        throw std::logic_error("submit before finalize");
    const RequestClassSpec &spec = classes_.at(c);
    ++submitted_;
    RequestPtr req = makeRef<Request>(pool_);
    req->id = nextRequestId_++;
    req->classId = c;
    req->priority = spec.priority;
    req->submitTime = events_.now();
    if (tracer_.enabled() && tracer_.sampleRequest(req->id)) {
        req->traced = true;
        req->rootSpan = tracer_.nextSpanId();
    }

    const ServiceId root = rootService_[c];
    invoke(root, req, [this, req] {
        req->syncDone = true;
        req->syncDoneTime = events_.now();
        if (req->onSyncDone)
            req->onSyncDone(*req);
        const RequestClassSpec &s = classes_.at(req->classId);
        if (!s.asyncCompletion) {
            metrics_.recordEndToEnd(req->classId, events_.now(),
                                    req->syncDoneTime - req->submitTime);
        }
        maybeFinishRequest(req);
    }, req->rootSpan, trace::HopKind::NestedRpc);
    return req;
}

InvocationPtr
Cluster::makeInvocation(ServiceId target, const RequestPtr &req,
                        trace::SpanId parentSpan, trace::HopKind hop)
{
    const std::size_t idx = tableIndex(target, req->classId);
    const ClassBehavior *behavior = behaviorTable_[idx];
    if (behavior == nullptr) {
        throw std::logic_error("service " +
                               services_.at(target)->config().name +
                               " has no behavior for class " +
                               classes_.at(req->classId).name);
    }
    InvocationPtr inv = makeRef<Invocation>(pool_);
    inv->req = req;
    inv->serviceId = target;
    inv->behavior = behavior;
    inv->targets = targetTable_[idx];
    inv->arrival = events_.now();
    if (req->traced) {
        inv->span = tracer_.nextSpanId();
        inv->parentSpan = parentSpan;
        inv->hopKind = hop;
    }
    return inv;
}

void
Cluster::invoke(ServiceId target, const RequestPtr &req,
                EventQueue::Callback onSyncDone, trace::SpanId parentSpan,
                trace::HopKind hop, SimTime netDelayUs)
{
    if (netDelayUs > 0) {
        // Latency-bearing local edge: deliver after the channel delay
        // (arrival stamped at delivery), and delay the response resume
        // by the same amount on the way back.
        RefPtr<NetHop> rec = makeRef<NetHop>(pool_);
        rec->req = req;
        rec->cont = std::move(onSyncDone);
        rec->target = target;
        rec->delayUs = netDelayUs;
        rec->parentSpan = parentSpan;
        rec->hopKind = hop;
        events_.scheduleIn(netDelayUs, [this, rec] {
            EventQueue::Callback resume = [this, rec] {
                events_.scheduleIn(rec->delayUs, std::move(rec->cont));
            };
            deliver(rec->target, rec->req, std::move(resume),
                    rec->parentSpan, rec->hopKind);
        });
        return;
    }
    deliver(target, req, std::move(onSyncDone), parentSpan, hop);
}

void
Cluster::deliver(ServiceId target, const RequestPtr &req,
                 EventQueue::Callback onSyncDone, trace::SpanId parentSpan,
                 trace::HopKind hop)
{
    InvocationPtr inv = makeInvocation(target, req, parentSpan, hop);
    inv->onSyncDone = std::move(onSyncDone);
    metrics_.recordArrival(target, req->classId, events_.now());
    services_.at(target)->dispatch(std::move(inv));
}

void
Cluster::publishTo(ServiceId target, const RequestPtr &req,
                   trace::SpanId parentSpan, SimTime netDelayUs)
{
    if (netDelayUs > 0) {
        RefPtr<NetHop> rec = makeRef<NetHop>(pool_);
        rec->req = req;
        rec->target = target;
        rec->parentSpan = parentSpan;
        events_.scheduleIn(netDelayUs, [this, rec] {
            publishLocal(rec->target, rec->req, rec->parentSpan);
        });
        return;
    }
    publishLocal(target, req, parentSpan);
}

void
Cluster::publishLocal(ServiceId target, const RequestPtr &req,
                      trace::SpanId parentSpan)
{
    // Queue wait counts toward the tier, so arrival is at landing time.
    InvocationPtr inv = makeInvocation(target, req, parentSpan,
                                       trace::HopKind::MqPublish);
    inv->onSyncDone = [this, req] { asyncBranchDone(req); };
    metrics_.recordArrival(target, req->classId, events_.now());
    services_.at(target)->publish(std::move(inv));
}

void
Cluster::asyncBranchDone(const RequestPtr &req)
{
    URSA_CHECK(req->outstandingAsync > 0, "sim.cluster",
               "async branch completed with no outstanding branch");
    req->outstandingAsync -= 1;
    maybeFinishRequest(req);
}

void
Cluster::maybeFinishRequest(const RequestPtr &req)
{
    if (!req->fullyDone() || req->allDoneTime >= 0)
        return;
    req->allDoneTime = events_.now();
    ++completed_;
    URSA_CHECK(completed_ <= submitted_, "sim.cluster",
               "request conservation violation: completed > injected");
    if (req->traced) {
        // The client-side root span covers the full request lifetime
        // (submit until the sync path and every async branch finished).
        trace::Span s;
        s.id = req->rootSpan;
        s.requestId = req->id;
        s.classId = req->classId;
        s.kind = trace::HopKind::Client;
        s.start = req->submitTime;
        s.serviceStart = req->submitTime;
        s.end = req->allDoneTime;
        tracer_.record(s);
    }
    const RequestClassSpec &spec = classes_.at(req->classId);
    if (spec.asyncCompletion) {
        metrics_.recordEndToEnd(req->classId, events_.now(),
                                req->allDoneTime - req->submitTime);
    }
    if (req->onFullyDone)
        req->onFullyDone(*req);
}

void
Cluster::run(SimTime until)
{
    if (!finalized_)
        throw std::logic_error("run before finalize");
    if (!samplerArmed_) {
        samplerArmed_ = true;
        samplerTick();
    }
    events_.runUntil(until);
}

void
Cluster::samplerTick()
{
    for (ServiceId s = 0; s < numServices(); ++s) {
        metrics_.recordBusySample(s, events_.now(),
                                  services_[s]->cumBusyCoreUs());
    }
#if URSA_CHECK_LEVEL >= 2
    auditConservation(false); // periodic live sweep
#endif
    events_.scheduleIn(sampleInterval_, [this] { samplerTick(); });
}

void
Cluster::auditConservation(bool expectQuiescent) const
{
    URSA_CHECK(completed_ <= submitted_, "sim.cluster",
               "request conservation violation: completed > injected");
    if (!expectQuiescent)
        return;
    URSA_CHECK(inFlight() == 0, "sim.cluster",
               "request conservation violation at drain: "
               "injected != completed");
    for (const auto &svc : services_) {
        URSA_CHECK(svc->mqDepth() == 0, "sim.cluster",
                   "message queue non-empty at drain");
        URSA_CHECK(svc->rpcQueueDepth() == 0, "sim.cluster",
                   "RPC queue non-empty at drain");
    }
}

} // namespace ursa::sim
