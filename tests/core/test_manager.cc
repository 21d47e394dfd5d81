/**
 * @file
 * End-to-end tests of UrsaManager: explore the toy app, deploy, drive
 * load, and verify SLA maintenance, prompt scaling under load changes,
 * and anomaly-driven recalculation.
 */

#include "core/explorer.h"
#include "core/manager.h"

#include "sim/client.h"
#include "toy_app.h"
#include "workload/arrival.h"

#include <gtest/gtest.h>

namespace
{

using namespace ursa;
using namespace ursa::core;
using namespace ursa::sim;

class ManagerTest : public ::testing::Test
{
  protected:
    static AppProfile &
    sharedProfile()
    {
        static AppProfile profile = [] {
            ExplorationOptions opts;
            opts.window = 10 * kSec;
            opts.windowsPerLevel = 5;
            opts.seed = 5;
            opts.bpOptions.stepDuration = 40 * kSec;
            opts.bpOptions.sampleWindow = 5 * kSec;
            opts.bpOptions.maxSteps = 10;
            return ExplorationController(opts).exploreApp(
                tests::makeToyApp());
        }();
        return profile;
    }

    apps::AppSpec app = tests::makeToyApp();
    Cluster cluster{31};

    UrsaManagerOptions
    fastManagerOptions() const
    {
        UrsaManagerOptions opts;
        opts.controlInterval = 10 * kSec;
        opts.anomalyInterval = kMin;
        return opts;
    }
};

TEST_F(ManagerTest, DeploysFeasiblePlan)
{
    app.instantiate(cluster);
    UrsaManager mgr(cluster, app, sharedProfile(), fastManagerOptions());
    ASSERT_TRUE(mgr.deploy(app.nominalRps, app.exploreMix));
    const auto &plan = mgr.plan();
    EXPECT_TRUE(plan.feasible);
    for (std::size_t s = 0; s < app.services.size(); ++s)
        EXPECT_GE(plan.level[s], 0) << app.services[s].name;
    // Upper bounds respect the SLAs.
    for (std::size_t c = 0; c < app.classes.size(); ++c)
        EXPECT_LE(plan.upperBoundUs[c],
                  static_cast<double>(app.classes[c].sla.targetUs));
}

TEST_F(ManagerTest, MaintainsSlasUnderConstantLoad)
{
    app.instantiate(cluster);
    UrsaManager mgr(cluster, app, sharedProfile(), fastManagerOptions());
    ASSERT_TRUE(mgr.deploy(app.nominalRps, app.exploreMix));
    OpenLoopClient client(cluster, workload::constantRate(app.nominalRps),
                          fixedMix(app.exploreMix), 9);
    client.start(0);
    cluster.run(20 * kMin);
    EXPECT_LT(cluster.metrics().overallSlaViolationRate(2 * kMin,
                                                        20 * kMin),
              0.1);
}

TEST_F(ManagerTest, ScalesWithDiurnalLoad)
{
    app.instantiate(cluster);
    UrsaManager mgr(cluster, app, sharedProfile(), fastManagerOptions());
    ASSERT_TRUE(mgr.deploy(app.nominalRps, app.exploreMix));
    // Load triples at the peak (minute 20) and falls back.
    OpenLoopClient client(
        cluster,
        workload::diurnalRate(app.nominalRps, 3 * app.nominalRps,
                              40 * kMin),
        fixedMix(app.exploreMix), 9);
    client.start(0);
    cluster.run(40 * kMin);

    const ServiceId worker = cluster.serviceId("worker");
    const auto &m = cluster.metrics();
    const double baseAlloc = m.meanAllocation(worker, 0, 3 * kMin);
    const double peakAlloc =
        m.meanAllocation(worker, 18 * kMin, 22 * kMin);
    const double endAlloc = m.meanAllocation(worker, 38 * kMin, 40 * kMin);
    EXPECT_GT(peakAlloc, baseAlloc); // scaled out toward the peak
    EXPECT_LT(endAlloc, peakAlloc);  // scaled back in afterwards
    // And the SLAs hold through the swing.
    EXPECT_LT(cluster.metrics().overallSlaViolationRate(2 * kMin,
                                                        40 * kMin),
              0.15);
}

TEST_F(ManagerTest, RecalculateAdaptsThresholdsToSkewedMix)
{
    app.instantiate(cluster);
    UrsaManager mgr(cluster, app, sharedProfile(), fastManagerOptions());
    ASSERT_TRUE(mgr.deploy(app.nominalRps, app.exploreMix));
    // Drive the flipped mix; the anomaly detector should fire a
    // recalculation within a few minutes.
    OpenLoopClient client(cluster, workload::constantRate(app.nominalRps),
                          fixedMix({1.0, 4.0}), 9);
    client.start(0);
    cluster.run(15 * kMin);
    EXPECT_GE(mgr.recalculations(), 1);
}

TEST_F(ManagerTest, ControlPlaneLatencyIsMicroseconds)
{
    app.instantiate(cluster);
    UrsaManager mgr(cluster, app, sharedProfile(), fastManagerOptions());
    ASSERT_TRUE(mgr.deploy(app.nominalRps, app.exploreMix));
    OpenLoopClient client(cluster, workload::constantRate(app.nominalRps),
                          fixedMix(app.exploreMix), 9);
    client.start(0);
    cluster.run(5 * kMin);
    const auto lat = mgr.deployDecisionLatencyUs();
    ASSERT_GT(lat.count(), 0u);
    // Threshold checks are far below a millisecond each.
    EXPECT_LT(lat.mean(), 1000.0);
    // Model updates took at least one solve (deploy).
    EXPECT_GT(mgr.updateLatencyUs().count(), 0u);
}

TEST_F(ManagerTest, DeployAfterStopResumesControlTicks)
{
    app.instantiate(cluster);
    UrsaManager mgr(cluster, app, sharedProfile(), fastManagerOptions());
    ASSERT_TRUE(mgr.deploy(app.nominalRps, app.exploreMix));
    OpenLoopClient client(cluster, workload::constantRate(app.nominalRps),
                          fixedMix(app.exploreMix), 9);
    client.start(0);
    cluster.run(kMin); // control ticks at 10, 20, ..., 60 s
    const auto firstMinute = mgr.deployDecisionLatencyUs().count();
    ASSERT_GT(firstMinute, 0u);
    mgr.stop();
    cluster.run(2 * kMin); // past where the next tick was due
    EXPECT_EQ(mgr.deployDecisionLatencyUs().count(), firstMinute);
    // A fresh deploy restarts the loop from now: ticks at 2:10 ... 3:00.
    ASSERT_TRUE(mgr.deploy(app.nominalRps, app.exploreMix));
    cluster.run(3 * kMin);
    EXPECT_EQ(mgr.deployDecisionLatencyUs().count(), 2 * firstMinute);
}

TEST_F(ManagerTest, InfeasibleDeployReturnsFalse)
{
    app.instantiate(cluster);
    // Impossible SLA: 1 us end-to-end.
    apps::AppSpec tight = app;
    for (auto &cls : tight.classes)
        cls.sla.targetUs = 1;
    UrsaManager mgr(cluster, tight, sharedProfile(),
                    fastManagerOptions());
    EXPECT_FALSE(mgr.deploy(tight.nominalRps, tight.exploreMix));
}

TEST_F(ManagerTest, EstimatorTracksMeasuredLatency)
{
    app.instantiate(cluster);
    UrsaManager mgr(cluster, app, sharedProfile(), fastManagerOptions());
    ASSERT_TRUE(mgr.deploy(app.nominalRps, app.exploreMix));
    OpenLoopClient client(cluster, workload::constantRate(app.nominalRps),
                          fixedMix(app.exploreMix), 9);
    client.start(0);
    cluster.run(15 * kMin);
    for (std::size_t c = 0; c < app.classes.size(); ++c) {
        const double measured =
            cluster.metrics()
                .endToEnd(static_cast<int>(c))
                .collect(5 * kMin, 15 * kMin)
                .percentile(app.classes[c].sla.percentile);
        const double est = mgr.estimator().estimate(static_cast<int>(c));
        // Calibrated estimate within 40% of the measurement (the
        // paper reports 0.96-1.05 on long runs; short test runs are
        // noisier).
        EXPECT_GT(est, 0.55 * measured);
        EXPECT_LT(est, 1.8 * measured);
    }
}

} // namespace
