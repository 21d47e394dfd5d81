/**
 * @file
 * Direct unit tests for the per-service resource controller: t-test
 * gated scale-out/in, multi-class binding, hysteresis, and bounds.
 */

#include "core/resource_controller.h"

#include "sim/client.h"
#include "workload/arrival.h"

#include <gtest/gtest.h>

namespace
{

using namespace ursa;
using namespace ursa::core;
using namespace ursa::sim;

struct Fixture
{
    Cluster cluster{11};
    ServiceId sid;
    std::unique_ptr<OpenLoopClient> client;

    explicit Fixture(int classes = 1)
    {
        ServiceConfig cfg;
        cfg.name = "svc";
        cfg.threads = 32;
        cfg.cpuPerReplica = 1.0;
        cfg.initialReplicas = 2;
        for (int c = 0; c < classes; ++c) {
            ClassBehavior b;
            b.computeMeanUs = 3000.0;
            b.computeCv = 0.3;
            cfg.behaviors[c] = b;
        }
        sid = cluster.addService(cfg);
        for (int c = 0; c < classes; ++c) {
            RequestClassSpec spec;
            spec.name = "c" + std::to_string(c);
            spec.rootService = "svc";
            spec.sla = {99.0, fromMs(100.0)};
            cluster.addClass(spec);
        }
        cluster.finalize();
    }

    void
    drive(std::vector<double> mix, double rps, SimTime duration)
    {
        client = std::make_unique<OpenLoopClient>(
            cluster, workload::constantRate(rps),
            fixedMix(std::move(mix)), 3);
        client->start(cluster.events().now());
        cluster.run(cluster.events().now() + duration);
        client->stop();
    }
};

TEST(ResourceController, ScalesOutWhenLoadExceedsThreshold)
{
    Fixture f;
    ResourceController ctl(f.cluster, f.sid);
    ctl.setThresholds({20.0}); // 20 rps per replica
    f.drive({1.0}, 100.0, 4 * kMin);
    const int after = ctl.tick();
    EXPECT_EQ(after, 5); // ceil(100/20)
    EXPECT_EQ(f.cluster.service(f.sid).activeReplicas(), 5);
    EXPECT_GT(ctl.scaleEvents(), 0);
}

TEST(ResourceController, ScalesInOneStepAtATime)
{
    Fixture f;
    f.cluster.service(f.sid).setReplicas(8);
    ResourceController ctl(f.cluster, f.sid);
    ctl.setThresholds({20.0});
    f.drive({1.0}, 40.0, 4 * kMin); // needs only 2 replicas
    const int after = ctl.tick();
    EXPECT_EQ(after, 7); // conservative step-down
}

TEST(ResourceController, HoldsWhenLoadMatchesCapacity)
{
    Fixture f;
    f.cluster.service(f.sid).setReplicas(5);
    ResourceController ctl(f.cluster, f.sid);
    ctl.setThresholds({20.0});
    f.drive({1.0}, 100.0, 4 * kMin); // exactly 5 x 20
    const int after = ctl.tick();
    // Poisson noise around the threshold must not trigger scaling in
    // either direction (the t-test's purpose).
    EXPECT_EQ(after, 5);
    EXPECT_EQ(ctl.scaleEvents(), 0);
}

TEST(ResourceController, BindingClassSetsReplicas)
{
    Fixture f(2);
    ResourceController ctl(f.cluster, f.sid);
    ctl.setThresholds({30.0, 5.0}); // class 1 is 6x more expensive
    f.drive({1.0, 1.0}, 60.0, 4 * kMin); // 30 rps each
    const int after = ctl.tick();
    EXPECT_EQ(after, 6); // ceil(30/5) from class 1, not ceil(30/30)
}

TEST(ResourceController, IgnoresClassesWithoutThreshold)
{
    Fixture f(2);
    ResourceController ctl(f.cluster, f.sid);
    ctl.setThresholds({20.0, 0.0});
    f.drive({1.0, 10.0}, 110.0, 4 * kMin); // class1 flood irrelevant
    const int after = ctl.tick();
    EXPECT_EQ(after, f.cluster.service(f.sid).activeReplicas());
    EXPECT_LE(after, 2); // class 0 load is only ~10 rps
}

TEST(ResourceController, HistorySkipsMinutesWithoutArrivals)
{
    // The history is the last three minutes that saw arrivals. Loads
    // {90, 90, 90} scale out to ceil(90 / 20); counting the quiet
    // minute as zero load would give {90, 0, 90}, which fails the
    // t-test and holds at 2 replicas.
    Fixture f;
    ResourceController ctl(f.cluster, f.sid);
    ctl.setThresholds({20.0});
    f.drive({1.0}, 90.0, 2 * kMin); // minutes 0 and 1
    f.cluster.run(3 * kMin);        // minute 2: nothing arrives
    f.drive({1.0}, 90.0, kMin);     // minute 3
    const auto counts = f.cluster.metrics().arrivalCounts(
        f.sid, 0, f.cluster.events().now(), 3);
    ASSERT_EQ(counts.size(), 3u);
    for (const auto n : counts)
        EXPECT_GT(n, 5000u); // minutes 0, 1 and 3, ~5400 each
    EXPECT_EQ(ctl.tick(), 5);
}

TEST(ResourceController, IdleServiceShrinksStepwiseToMinimum)
{
    Fixture f;
    ResourceController ctl(f.cluster, f.sid);
    ctl.setThresholds({20.0});
    f.cluster.run(2 * kMin); // no load at all
    EXPECT_EQ(ctl.tick(), 1); // one conservative step down
    EXPECT_EQ(ctl.tick(), 1); // clamped at minReplicas
    EXPECT_EQ(ctl.scaleEvents(), 1);
}

TEST(ResourceController, RespectsMaxReplicas)
{
    Fixture f;
    ResourceControllerOptions opts;
    opts.maxReplicas = 4;
    ResourceController ctl(f.cluster, f.sid, opts);
    ctl.setThresholds({5.0});
    f.drive({1.0}, 200.0, 4 * kMin); // wants 40 replicas
    EXPECT_EQ(ctl.tick(), 4);
}

TEST(ResourceController, DecisionLatencyRecorded)
{
    Fixture f;
    ResourceController ctl(f.cluster, f.sid);
    ctl.setThresholds({20.0});
    f.drive({1.0}, 50.0, 2 * kMin);
    ctl.tick();
    ctl.tick();
    EXPECT_EQ(ctl.decisionLatencyUs().count(), 2u);
    EXPECT_LT(ctl.decisionLatencyUs().mean(), 1e5);
}

} // namespace
