/**
 * @file
 * Integration tests for the core simulator: single-service latency,
 * queueing, utilization accounting, scaling with draining, per-edge
 * network delay, and determinism.
 */

#include "sim/client.h"
#include "sim/cluster.h"
#include "trace/span.h"

#include <gtest/gtest.h>

#include <cmath>
#include <utility>

namespace
{

using namespace ursa::sim;

/** One service, one class, constant-ish compute. */
struct SingleServiceFixture
{
    Cluster cluster;
    ClassId cls;
    ServiceId sid;

    explicit SingleServiceFixture(double computeMs = 10.0, int threads = 4,
                                  double cpu = 4.0, int replicas = 1,
                                  double cv = 0.0)
        : cluster(1234)
    {
        ServiceConfig cfg;
        cfg.name = "svc";
        cfg.threads = threads;
        cfg.cpuPerReplica = cpu;
        cfg.initialReplicas = replicas;
        ClassBehavior b;
        b.computeMeanUs = computeMs * 1000.0;
        b.computeCv = cv;
        cfg.behaviors[0] = b;
        sid = cluster.addService(cfg);

        RequestClassSpec spec;
        spec.name = "req";
        spec.rootService = "svc";
        spec.sla = {99.0, fromMs(100.0)};
        cls = cluster.addClass(spec);
        cluster.finalize();
    }
};

/** Exact compute of the two tiers in EdgeFixture (computeCv = 0). */
constexpr SimTime kFrontUs = 1000;
constexpr SimTime kBackUs = 2000;

/**
 * Two services joined by one call edge: `front` computes kFrontUs and
 * then makes the call, `back` computes kBackUs. Every request is
 * traced so the test can read back's arrival stamp from its span.
 */
struct EdgeFixture
{
    Cluster cluster;
    ClassId cls;
    ServiceId back;

    explicit EdgeFixture(const CallSpec &edge) : cluster(1234)
    {
        ServiceConfig front;
        front.name = "front";
        ClassBehavior fb;
        fb.computeMeanUs = kFrontUs;
        fb.computeCv = 0.0;
        fb.calls.push_back(edge);
        front.behaviors[0] = fb;
        cluster.addService(front);

        ServiceConfig be;
        be.name = "back";
        be.mqConsumer = edge.kind == CallKind::MqPublish;
        ClassBehavior bb;
        bb.computeMeanUs = kBackUs;
        bb.computeCv = 0.0;
        be.behaviors[0] = bb;
        back = cluster.addService(be);

        RequestClassSpec spec;
        spec.name = "req";
        spec.rootService = "front";
        spec.sla = {99.0, fromMs(100.0)};
        spec.asyncCompletion = edge.kind == CallKind::MqPublish;
        cls = cluster.addClass(spec);
        cluster.tracer().setSampling(1.0);
        cluster.finalize();
    }

    /** Arrival stamp (span start) of the request's hop at `back`. */
    SimTime backArrival() const
    {
        for (const ursa::trace::Span &s : cluster.tracer().snapshot())
            if (s.serviceId == back)
                return s.start;
        return -1;
    }
};

TEST(ClusterBasic, SingleRequestLatencyEqualsCompute)
{
    SingleServiceFixture f(10.0);
    SimTime done = -1;
    RequestPtr req = f.cluster.submit(f.cls);
    req->onSyncDone = [&](Request &r) { done = r.syncDoneTime; };
    f.cluster.run(kSec);
    // 10 ms of work on an uncontended CPU at 1 core per job.
    ASSERT_GE(done, 0);
    EXPECT_NEAR(toMs(done), 10.0, 0.1);
}

TEST(ClusterBasic, ConcurrentRequestsShareCpu)
{
    // 4 threads, 2 cores: two concurrent 10ms jobs run at rate
    // min(1, 2/2)=1 -> 10ms each. Four concurrent jobs run at rate
    // 0.5 -> 20 ms each.
    SingleServiceFixture f(10.0, 4, 2.0);
    std::vector<SimTime> lat;
    for (int i = 0; i < 4; ++i) {
        RequestPtr r = f.cluster.submit(f.cls);
        r->onSyncDone = [&](Request &rr) {
            lat.push_back(rr.syncDoneTime - rr.submitTime);
        };
    }
    f.cluster.run(kSec);
    ASSERT_EQ(lat.size(), 4u);
    for (SimTime l : lat)
        EXPECT_NEAR(toMs(l), 20.0, 0.5);
}

TEST(ClusterBasic, ThreadPoolQueuesExcessRequests)
{
    // 1 thread, plenty of CPU: requests serialize, 10ms apart.
    SingleServiceFixture f(10.0, 1, 4.0);
    std::vector<SimTime> done;
    for (int i = 0; i < 3; ++i) {
        RequestPtr r = f.cluster.submit(f.cls);
        r->onSyncDone = [&](Request &rr) { done.push_back(rr.syncDoneTime); };
    }
    f.cluster.run(kSec);
    ASSERT_EQ(done.size(), 3u);
    EXPECT_NEAR(toMs(done[0]), 10.0, 0.2);
    EXPECT_NEAR(toMs(done[1]), 20.0, 0.2);
    EXPECT_NEAR(toMs(done[2]), 30.0, 0.2);
}

TEST(ClusterBasic, TierLatencyRecorded)
{
    SingleServiceFixture f(10.0);
    f.cluster.submit(f.cls);
    f.cluster.run(kSec);
    const auto &agg = f.cluster.metrics().tierLatency(f.sid, f.cls);
    ASSERT_EQ(agg.windows().size(), 1u);
    EXPECT_EQ(agg.windows()[0].stats.count(), 1u);
    EXPECT_NEAR(agg.windows()[0].stats.mean() / 1000.0, 10.0, 0.2);
}

TEST(ClusterBasic, EndToEndSlaViolationTracked)
{
    SingleServiceFixture f(10.0);
    // SLA is 100 ms; a single 10 ms request never violates.
    f.cluster.submit(f.cls);
    f.cluster.run(kMin);
    EXPECT_DOUBLE_EQ(
        f.cluster.metrics().slaViolationRate(f.cls, 0, kMin), 0.0);
}

TEST(ClusterBasic, CpuUtilizationAccounting)
{
    // Open-loop 50 rps of 10ms work on 1 core = 50% utilization.
    SingleServiceFixture f(10.0, 16, 1.0);
    OpenLoopClient client(
        f.cluster, [](SimTime) { return 50.0; },
        fixedMix({1.0}), 7);
    client.start(0);
    f.cluster.run(5 * kMin);
    const double util =
        f.cluster.metrics().cpuUtilization(f.sid, kMin, 5 * kMin);
    EXPECT_NEAR(util, 0.5, 0.05);
}

TEST(ClusterBasic, ArrivalRateMetric)
{
    SingleServiceFixture f(1.0);
    OpenLoopClient client(
        f.cluster, [](SimTime) { return 100.0; },
        fixedMix({1.0}), 7);
    client.start(0);
    f.cluster.run(4 * kMin);
    const double rate =
        f.cluster.metrics().arrivalRate(f.sid, f.cls, kMin, 4 * kMin);
    EXPECT_NEAR(rate, 100.0, 5.0);
}

TEST(ClusterBasic, ScalingUpAddsCapacity)
{
    SingleServiceFixture f(10.0, 1, 1.0, 1);
    f.cluster.service(f.sid).setReplicas(4);
    EXPECT_EQ(f.cluster.service(f.sid).activeReplicas(), 4);
    EXPECT_DOUBLE_EQ(f.cluster.service(f.sid).cpuAllocation(), 4.0);
    // Four requests should now finish in parallel at ~10ms.
    std::vector<SimTime> lat;
    for (int i = 0; i < 4; ++i) {
        RequestPtr r = f.cluster.submit(f.cls);
        r->onSyncDone = [&](Request &rr) {
            lat.push_back(rr.syncDoneTime - rr.submitTime);
        };
    }
    f.cluster.run(kSec);
    ASSERT_EQ(lat.size(), 4u);
    for (SimTime l : lat)
        EXPECT_NEAR(toMs(l), 10.0, 0.5);
}

TEST(ClusterBasic, ScalingDownDrains)
{
    SingleServiceFixture f(10.0, 4, 1.0, 4);
    SingleServiceFixture steady(10.0, 4, 1.0, 4); // never scales in
    // Put work on all replicas, then scale down mid-flight.
    std::vector<SimTime> lat;
    for (int i = 0; i < 8; ++i) {
        RequestPtr r = f.cluster.submit(f.cls);
        r->onSyncDone = [&](Request &rr) {
            lat.push_back(rr.syncDoneTime - rr.submitTime);
        };
        steady.cluster.submit(steady.cls);
    }
    f.cluster.run(kMsec); // 1 ms in: all replicas busy
    steady.cluster.run(kMsec);
    f.cluster.service(f.sid).setReplicas(1);
    EXPECT_EQ(f.cluster.service(f.sid).activeReplicas(), 1);
    // Draining replicas still count toward allocation until idle.
    EXPECT_GT(f.cluster.service(f.sid).cpuAllocation(), 1.0);
    f.cluster.run(kSec);
    steady.cluster.run(kSec);
    EXPECT_EQ(lat.size(), 8u); // every request completed
    // After draining completes, allocation shrinks to one replica.
    EXPECT_DOUBLE_EQ(f.cluster.service(f.sid).cpuAllocation(), 1.0);
    // Draining replicas keep their work, so the only extra events are
    // the reaps: exactly one per drained replica.
    EXPECT_EQ(f.cluster.events().processed() -
                  steady.cluster.events().processed(),
              3u);
}

TEST(ClusterBasic, ReapedReplicaOutlivesItsSupersededCpuEvent)
{
    // A throttled job schedules its completion far out; unthrottling
    // reschedules it sooner, and the far event must be cancelled, not
    // left queued. Its replica then drains and is reaped before the far
    // time, so a far event still queued would read a freed replica (the
    // sanitizer legs catch a use after free here).
    SingleServiceFixture f(10.0, 4, 1.0, 2);
    f.cluster.service(f.sid).setCpuFactor(0.1);
    int done = 0;
    for (int i = 0; i < 2; ++i) { // one job per replica
        RequestPtr r = f.cluster.submit(f.cls);
        r->onSyncDone = [&](Request &) { ++done; };
    }
    f.cluster.run(kMsec); // both jobs due ~100 ms in
    f.cluster.service(f.sid).setCpuFactor(1.0); // now due ~10 ms in
    // The unthrottle cancelled the far events: one completion per busy
    // replica is pending, plus the metrics sampler's next tick.
    EXPECT_EQ(f.cluster.events().pending(), 2u + 1u);
    f.cluster.service(f.sid).setReplicas(1);
    f.cluster.run(kSec); // reaped at ~10 ms, before the ~100 ms far time
    EXPECT_EQ(done, 2);
    EXPECT_EQ(f.cluster.service(f.sid).activeReplicas(), 1);
    EXPECT_DOUBLE_EQ(f.cluster.service(f.sid).cpuAllocation(), 1.0);
}

TEST(ClusterBasic, ScaleToZeroRejected)
{
    SingleServiceFixture f;
    EXPECT_THROW(f.cluster.service(f.sid).setReplicas(0),
                 std::invalid_argument);
}

TEST(ClusterBasic, DeterministicAcrossRuns)
{
    auto run = [] {
        SingleServiceFixture f(5.0, 4, 2.0, 2, 0.5);
        OpenLoopClient client(
            f.cluster, [](SimTime) { return 200.0; },
            fixedMix({1.0}), 99);
        client.start(0);
        f.cluster.run(2 * kMin);
        return f.cluster.metrics()
            .endToEnd(f.cls)
            .collect(0, 2 * kMin)
            .percentile(99.0);
    };
    EXPECT_DOUBLE_EQ(run(), run());
}

TEST(ClusterBasic, ThrottlingSlowsService)
{
    SingleServiceFixture f(10.0, 4, 1.0);
    SimTime normal = -1, throttled = -1;
    RequestPtr r1 = f.cluster.submit(f.cls);
    r1->onSyncDone = [&](Request &rr) {
        normal = rr.syncDoneTime - rr.submitTime;
    };
    f.cluster.run(kSec);
    f.cluster.service(f.sid).setCpuFactor(0.25);
    RequestPtr r2 = f.cluster.submit(f.cls);
    r2->onSyncDone = [&](Request &rr) {
        throttled = rr.syncDoneTime - rr.submitTime;
    };
    f.cluster.run(2 * kSec);
    ASSERT_GT(normal, 0);
    ASSERT_GT(throttled, 0);
    EXPECT_NEAR(toMs(throttled), 4.0 * toMs(normal), 2.0);
}

TEST(ClusterBasic, RpcNetDelayIsPaidOnBothLegs)
{
    // The call leaves front at submit + kFrontUs and lands on back d
    // later; back's response pays d again on the way back. An explicit
    // 0 is in-process dispatch; an unannotated edge gets the default.
    EXPECT_EQ(CallSpec{}.netDelayUs, kDefaultNetDelayUs);
    EXPECT_GT(kDefaultNetDelayUs, 0);
    const std::pair<CallSpec, SimTime> cases[] = {
        {{"back", CallKind::NestedRpc, 2500}, 2500},
        {{"back", CallKind::NestedRpc, 0}, 0},
        {{"back", CallKind::NestedRpc}, kDefaultNetDelayUs},
    };
    for (const auto &[edge, d] : cases) {
        SCOPED_TRACE(d);
        EdgeFixture f(edge);
        RequestPtr req = f.cluster.submit(f.cls);
        f.cluster.run(kSec);
        ASSERT_TRUE(req->syncDone);
        EXPECT_EQ(req->syncDoneTime - req->submitTime,
                  kFrontUs + kBackUs + 2 * d);
        EXPECT_EQ(f.backArrival(), req->submitTime + kFrontUs + d);
    }
}

TEST(ClusterBasic, NetDelayDefersMqPublishLanding)
{
    // Fire and forget: front answers as soon as it has published, and
    // the message lands on back's queue d after the publish.
    constexpr SimTime d = 2500;
    EdgeFixture f({"back", CallKind::MqPublish, d});
    RequestPtr req = f.cluster.submit(f.cls);
    f.cluster.run(kSec);
    ASSERT_TRUE(req->fullyDone());
    EXPECT_EQ(req->syncDoneTime - req->submitTime, kFrontUs);
    EXPECT_EQ(f.backArrival(), req->submitTime + kFrontUs + d);
    EXPECT_EQ(req->allDoneTime - req->submitTime, kFrontUs + d + kBackUs);
}

TEST(ClusterBasic, UnknownCallTargetFailsFinalize)
{
    Cluster c(1);
    ServiceConfig cfg;
    cfg.name = "a";
    ClassBehavior b;
    b.calls.push_back({"missing", CallKind::NestedRpc});
    cfg.behaviors[0] = b;
    c.addService(cfg);
    RequestClassSpec spec;
    spec.name = "r";
    spec.rootService = "a";
    c.addClass(spec);
    EXPECT_THROW(c.finalize(), std::invalid_argument);
}

TEST(ClusterBasic, SubmitBeforeFinalizeThrows)
{
    Cluster c(1);
    ServiceConfig cfg;
    cfg.name = "a";
    cfg.behaviors[0] = ClassBehavior{};
    c.addService(cfg);
    RequestClassSpec spec;
    spec.name = "r";
    spec.rootService = "a";
    const ClassId id = c.addClass(spec);
    EXPECT_THROW(c.submit(id), std::logic_error);
}

} // namespace
