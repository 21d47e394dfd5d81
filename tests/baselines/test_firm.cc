/** @file Tests for the Firm baseline (per-service RL agents). */

#include "baselines/firm.h"

#include "../core/toy_app.h"
#include "sim/client.h"
#include "workload/arrival.h"

#include <gtest/gtest.h>

#include <vector>

namespace
{

using namespace ursa;
using namespace ursa::baselines;
using namespace ursa::sim;

FirmConfig
fastConfig()
{
    FirmConfig cfg;
    cfg.interval = 15 * kSec;
    cfg.agent.hidden = {16, 16};
    cfg.agent.epsilonDecaySteps = 200;
    cfg.seed = 5;
    return cfg;
}

struct Fixture
{
    apps::AppSpec app = tests::makeToyApp();
    Cluster cluster{29};
    std::unique_ptr<OpenLoopClient> client;

    Fixture()
    {
        app.instantiate(cluster);
        client = std::make_unique<OpenLoopClient>(
            cluster, workload::constantRate(app.nominalRps),
            fixedMix(app.exploreMix), 9);
        client->start(0);
    }
};

TEST(Firm, TrainingAdvancesTimeAndSteps)
{
    Fixture f;
    FirmController firm(f.cluster, f.app, fastConfig());
    const SimTime before = f.cluster.events().now();
    firm.trainOnline(20);
    EXPECT_EQ(firm.trainingSteps(), 20);
    EXPECT_EQ(f.cluster.events().now(), before + 20 * (15 * kSec));
    EXPECT_GT(firm.trainStepLatencyUs().count(), 0u);
}

TEST(Firm, DeployTickActsOnEveryService)
{
    Fixture f;
    FirmController firm(f.cluster, f.app, fastConfig());
    firm.trainOnline(40);
    firm.start(f.cluster.events().now());
    f.cluster.run(f.cluster.events().now() + 5 * kMin);
    // One decision per service per interval.
    EXPECT_GE(firm.decisionLatencyUs().count(),
              static_cast<std::size_t>(3 * 5 * 60 / 15));
    for (ServiceId s = 0; s < f.cluster.numServices(); ++s)
        EXPECT_GE(f.cluster.service(s).activeReplicas(), 1);
}

TEST(Firm, DecisionsMatchParentTrajectory)
{
    // Pins training and deployment to the values the controller
    // produced before its class-latency snapshot existed. Every
    // constant is exact: a snapshot that reorders a query or perturbs
    // a state changes a replica count, an event or a percentile. The
    // agents learn only once their 32-transition batch fills; 200
    // training steps give them enough updates that a stale or missing
    // class latency, in training or in deployment, moves the pins.
    Fixture f;
    FirmController firm(f.cluster, f.app, fastConfig());
    firm.trainOnline(200);
    const SimTime start = f.cluster.events().now();
    const SimTime end = start + 5 * kMin;
    firm.start(start);
    f.cluster.run(end);

    // Counts one reap event per drained replica; every other pin is
    // the value from before the snapshot.
    EXPECT_EQ(f.cluster.events().processed(), 1584269u);
    EXPECT_EQ(f.cluster.submitted(), 330008u);
    const std::vector<int> replicas = {1, 32, 1};
    ASSERT_EQ(f.cluster.numServices(), 3);
    for (ServiceId s = 0; s < f.cluster.numServices(); ++s)
        EXPECT_EQ(f.cluster.service(s).activeReplicas(), replicas[s]);
    // Rounds at start, start + 15 s, ..., end inclusive.
    const std::size_t rounds = 5 * 60 / 15 + 1;
    EXPECT_EQ(firm.decisionLatencyUs().count(), 3 * rounds);
    const auto &m = f.cluster.metrics();
    EXPECT_EQ(m.overallSlaViolationRate(start, end), 0.0);
    EXPECT_EQ(m.endToEnd(0).collect(start, end).percentile(99.0),
              0x1.759bc28f5c28cp+13);
    EXPECT_EQ(m.endToEnd(1).collect(start, end).percentile(99.0),
              0x1.e4af8f5c28f54p+16);
}

TEST(Firm, AnomalyInjectionIsReverted)
{
    Fixture f;
    auto cfg = fastConfig();
    cfg.anomalyProbability = 1.0; // throttle every step
    FirmController firm(f.cluster, f.app, cfg);
    firm.trainOnline(10);
    // After training, all services run unthrottled again: a short
    // window at low load should show healthy latencies.
    f.cluster.service(f.cluster.serviceId("worker")).setReplicas(8);
    const SimTime t0 = f.cluster.events().now();
    f.cluster.run(t0 + 2 * kMin);
    const auto lat =
        f.cluster.metrics().endToEnd(0).collect(t0 + kMin, t0 + 2 * kMin);
    ASSERT_FALSE(lat.empty());
    EXPECT_LT(lat.percentile(50.0), 20000.0); // ~6ms nominal
}

TEST(Firm, RewardPenalizesViolationsMoreThanItRewardsSavings)
{
    // Structural check on the config defaults: SLA weight dominates.
    const FirmConfig cfg;
    EXPECT_GT(cfg.slaWeight, cfg.resourceWeight);
}

} // namespace
