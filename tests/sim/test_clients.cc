/** @file Tests for the open- and closed-loop load drivers. */

#include "sim/client.h"
#include "sim/cluster.h"

#include <gtest/gtest.h>

namespace
{

using namespace ursa::sim;

std::unique_ptr<Cluster>
tinyCluster(std::uint64_t seed, int classes = 1)
{
    auto c = std::make_unique<Cluster>(seed);
    ServiceConfig cfg;
    cfg.name = "svc";
    cfg.threads = 64;
    cfg.cpuPerReplica = 32.0;
    for (int i = 0; i < classes; ++i) {
        ClassBehavior b;
        b.computeMeanUs = 1000.0;
        b.computeCv = 0.1;
        cfg.behaviors[i] = b;
    }
    c->addService(cfg);
    for (int i = 0; i < classes; ++i) {
        RequestClassSpec spec;
        spec.name = "class" + std::to_string(i);
        spec.rootService = "svc";
        spec.sla = {99.0, fromMs(100.0)};
        c->addClass(spec);
    }
    c->finalize();
    return c;
}

TEST(OpenLoopClient, RateMatchesProfile)
{
    auto c = tinyCluster(1);
    OpenLoopClient client(*c, [](SimTime) { return 200.0; },
                          fixedMix({1.0}), 5);
    client.start(0);
    c->run(kMin);
    EXPECT_NEAR(static_cast<double>(client.submitted()), 200.0 * 60.0,
                600.0);
}

TEST(OpenLoopClient, TimeVaryingRate)
{
    auto c = tinyCluster(2);
    // 100 rps for the first minute, 300 rps for the second.
    OpenLoopClient client(
        *c, [](SimTime t) { return t < kMin ? 100.0 : 300.0; },
        fixedMix({1.0, 0.0}), 5);
    client.start(0);
    c->run(kMin);
    const auto firstMin = client.submitted();
    c->run(2 * kMin);
    const auto secondMin = client.submitted() - firstMin;
    EXPECT_NEAR(static_cast<double>(firstMin), 6000.0, 400.0);
    EXPECT_NEAR(static_cast<double>(secondMin), 18000.0, 800.0);
}

TEST(OpenLoopClient, ZeroRatePausesGeneration)
{
    auto c = tinyCluster(1);
    OpenLoopClient client(
        *c, [](SimTime t) { return t < 10 * kSec ? 0.0 : 100.0; },
        fixedMix({1.0}), 5);
    client.start(0);
    c->run(9 * kSec);
    EXPECT_EQ(client.submitted(), 0u);
    c->run(kMin);
    EXPECT_GT(client.submitted(), 1000u);
}

TEST(OpenLoopClient, ClassMixRespected)
{
    auto c = tinyCluster(1, 3);
    OpenLoopClient client(*c, [](SimTime) { return 300.0; },
                          fixedMix({1.0, 2.0, 3.0}), 5);
    client.start(0);
    c->run(2 * kMin);
    const auto &m = c->metrics();
    const double r0 = m.arrivalRate(0, 0, 0, 2 * kMin);
    const double r1 = m.arrivalRate(0, 1, 0, 2 * kMin);
    const double r2 = m.arrivalRate(0, 2, 0, 2 * kMin);
    EXPECT_NEAR(r1 / r0, 2.0, 0.3);
    EXPECT_NEAR(r2 / r0, 3.0, 0.3);
}

TEST(OpenLoopClient, StopHaltsSubmissions)
{
    auto c = tinyCluster(1);
    OpenLoopClient client(*c, [](SimTime) { return 100.0; },
                          fixedMix({1.0}), 5);
    client.start(0);
    c->run(10 * kSec);
    client.stop();
    const auto count = client.submitted();
    c->run(kMin);
    EXPECT_EQ(client.submitted(), count);
}

TEST(OpenLoopClient, RestartKeepsTheRate)
{
    // Restarting while an arrival is pending replaces the arrival
    // chain instead of running a second one beside it, with or without
    // a stop() first.
    auto c = tinyCluster(1);
    OpenLoopClient client(*c, [](SimTime) { return 100.0; },
                          fixedMix({1.0}), 5);
    client.start(0);
    c->run(kSec);
    client.stop();
    client.start(c->events().now());
    c->run(2 * kSec);
    client.start(c->events().now());
    c->run(kMin);
    EXPECT_NEAR(static_cast<double>(client.submitted()), 100.0 * 60.0,
                400.0);
}

TEST(ClosedLoopClient, InFlightBoundedByUsers)
{
    // Service that takes ~100ms per request, 3 users, no think time:
    // throughput is bounded by users/latency = 30 rps.
    auto c = std::make_unique<Cluster>(3);
    ServiceConfig cfg;
    cfg.name = "svc";
    cfg.threads = 64;
    cfg.cpuPerReplica = 32.0;
    ClassBehavior b;
    b.computeMeanUs = 100000.0;
    b.computeCv = 0.0;
    cfg.behaviors[0] = b;
    c->addService(cfg);
    RequestClassSpec spec;
    spec.name = "r";
    spec.rootService = "svc";
    spec.sla = {99.0, fromMs(1000.0)};
    c->addClass(spec);
    c->finalize();

    ClosedLoopClient client(*c, 3, 1, fixedMix({1.0}), 5);
    client.start(0);
    c->run(kMin);
    EXPECT_NEAR(static_cast<double>(client.submitted()), 30.0 * 60.0,
                120.0);
}

TEST(ClosedLoopClient, ThinkTimeReducesRate)
{
    auto c = tinyCluster(9);
    // 1ms service, 10 users, 99ms think: ~10 * 1/(0.1s) = 100 rps.
    ClosedLoopClient client(*c, 10, 99 * kMsec, fixedMix({1.0}), 5);
    client.start(0);
    c->run(kMin);
    EXPECT_NEAR(static_cast<double>(client.submitted()), 6000.0, 600.0);
}

} // namespace
