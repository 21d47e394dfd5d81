/** @file Tests for the step autoscaler (Auto-a / Auto-b). */

#include "baselines/autoscaler.h"

#include "../core/toy_app.h"
#include "sim/client.h"
#include "workload/arrival.h"

#include <gtest/gtest.h>

namespace
{

using namespace ursa;
using namespace ursa::baselines;
using namespace ursa::sim;

TEST(Autoscaler, Configs)
{
    EXPECT_DOUBLE_EQ(autoAConfig().upThreshold, 0.60);
    EXPECT_DOUBLE_EQ(autoAConfig().downThreshold, 0.30);
    EXPECT_LT(autoBConfig().upThreshold, autoAConfig().upThreshold);
    EXPECT_LT(autoBConfig().downThreshold, autoAConfig().downThreshold);
}

TEST(Autoscaler, ScalesOutUnderHighUtilization)
{
    const auto app = tests::makeToyApp();
    Cluster c(3);
    app.instantiate(c);
    // One worker replica at 100 rps of ~5ms work needs ~0.5 cores on a
    // 1-core replica — below 60%; raise load to push past it.
    Autoscaler scaler(c, autoAConfig());
    OpenLoopClient client(c, workload::constantRate(250.0),
                          fixedMix({1.0, 0.0}), 5);
    client.start(0);
    scaler.start(kMin);
    c.run(10 * kMin);
    EXPECT_GT(c.service(c.serviceId("worker")).activeReplicas(), 2);
    EXPECT_GT(scaler.scaleEvents(), 0);
}

TEST(Autoscaler, ScalesInWhenIdle)
{
    const auto app = tests::makeToyApp();
    Cluster c(7);
    app.instantiate(c);
    c.service(c.serviceId("worker")).setReplicas(8);
    Autoscaler scaler(c, autoAConfig());
    OpenLoopClient client(c, workload::constantRate(20.0),
                          fixedMix({1.0, 0.0}), 5);
    client.start(0);
    scaler.start(kMin);
    c.run(15 * kMin);
    EXPECT_LT(c.service(c.serviceId("worker")).activeReplicas(), 4);
}

TEST(Autoscaler, AutoBKeepsMoreHeadroomThanAutoA)
{
    const auto app = tests::makeToyApp();
    auto run = [&](const AutoscalerConfig &cfg) {
        Cluster c(11);
        app.instantiate(c);
        Autoscaler scaler(c, cfg);
        OpenLoopClient client(c, workload::constantRate(app.nominalRps),
                              fixedMix(app.exploreMix), 5);
        client.start(0);
        scaler.start(kMin);
        c.run(20 * kMin);
        double total = 0.0;
        for (ServiceId s = 0; s < c.numServices(); ++s)
            total += c.metrics().meanAllocation(s, 10 * kMin, 20 * kMin);
        return total;
    };
    EXPECT_GT(run(autoBConfig()), run(autoAConfig()));
}

TEST(Autoscaler, RestartTicksOncePerInterval)
{
    // stop() retracts the pending tick, so a restart runs one chain of
    // ticks, never two interleaved ones.
    const auto app = tests::makeToyApp();
    Cluster c(3);
    app.instantiate(c);
    Autoscaler scaler(c, autoAConfig()); // ticks every 30 s
    scaler.start(0);
    c.run(45 * kSec); // ticks at 0 and 30 s
    scaler.stop();
    scaler.start(c.events().now());
    c.run(105 * kSec); // ticks at 45, 75 and 105 s
    EXPECT_EQ(scaler.decisionLatencyUs().count(),
              5u * static_cast<std::size_t>(c.numServices()));
}

TEST(Autoscaler, DecisionLatencyRecorded)
{
    const auto app = tests::makeToyApp();
    Cluster c(13);
    app.instantiate(c);
    Autoscaler scaler(c, autoAConfig());
    scaler.start(0);
    c.run(5 * kMin);
    EXPECT_GT(scaler.decisionLatencyUs().count(), 0u);
    EXPECT_LT(scaler.decisionLatencyUs().mean(), 1000.0);
}

TEST(Autoscaler, StopHaltsScaling)
{
    const auto app = tests::makeToyApp();
    Cluster c(17);
    app.instantiate(c);
    Autoscaler scaler(c, autoAConfig());
    scaler.start(0);
    c.run(2 * kMin);
    scaler.stop();
    const auto count = scaler.decisionLatencyUs().count();
    c.run(10 * kMin);
    EXPECT_EQ(scaler.decisionLatencyUs().count(), count);
}

} // namespace
