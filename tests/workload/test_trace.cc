/** @file Unit + integration tests for arrival traces and replay. */

#include "workload/trace.h"

#include "sim/cluster.h"
#include "workload/generator.h"

#include <gtest/gtest.h>

namespace
{

using namespace ursa;
using namespace ursa::workload;
using namespace ursa::sim;

TEST(Trace, PoissonTraceRateAndMix)
{
    stats::Rng rng(5);
    const auto trace =
        makePoissonTrace(rng, 10 * kMin, 100.0, {3.0, 1.0});
    EXPECT_NEAR(trace.meanRate(), 100.0, 5.0);
    const double frac0 = static_cast<double>(trace.countOf(0)) /
                         static_cast<double>(trace.entries.size());
    EXPECT_NEAR(frac0, 0.75, 0.03);
}

TEST(Trace, TimesAreStrictlyIncreasing)
{
    stats::Rng rng(9);
    const auto trace = makePoissonTrace(rng, kMin, 500.0, {1.0});
    for (std::size_t i = 1; i < trace.entries.size(); ++i)
        EXPECT_GT(trace.entries[i].at, trace.entries[i - 1].at);
}

// Regression for the floor-truncate-plus-1us gap bias: the realized
// rate must track the requested rate even where the mean gap is a few
// us. The old code realized ~95% at 1e5 rps and ~63% at 1e6 rps.
TEST(Trace, RealizedRateMatchesRequested)
{
    {
        stats::Rng rng(21);
        const auto t = makePoissonTrace(rng, 100 * kSec, 1e3, {1.0});
        EXPECT_NEAR(t.meanRate(), 1e3, 0.01 * 1e3);
    }
    {
        stats::Rng rng(22);
        const auto t = makePoissonTrace(rng, 10 * kSec, 1e5, {1.0});
        EXPECT_NEAR(t.meanRate(), 1e5, 0.01 * 1e5);
    }
    {
        // 1e6 rps is the strictly-increasing clock's saturation point
        // (1 arrival/us); collisions push arrivals forward, so allow a
        // few percent on the low side but no floor-truncation collapse.
        stats::Rng rng(23);
        const auto t = makePoissonTrace(rng, 2 * kSec, 1e6, {1.0});
        EXPECT_NEAR(t.meanRate(), 1e6, 0.03 * 1e6);
    }
}

TEST(Trace, EmptyTraceProperties)
{
    ArrivalTrace t;
    EXPECT_EQ(t.duration(), 0);
    EXPECT_DOUBLE_EQ(t.meanRate(), 0.0);
    EXPECT_TRUE(t.classMix().empty());
}

// meanRate's guard must be consistent with duration(): one arrival at
// a positive time is one request over that span, not rate 0.
TEST(Trace, MeanRateSingleEntry)
{
    ArrivalTrace t;
    t.entries.push_back({500 * kMsec, 0});
    EXPECT_DOUBLE_EQ(t.meanRate(), 2.0);
}

TEST(Trace, MeanRateZeroDuration)
{
    ArrivalTrace t;
    t.entries.push_back({0, 0});
    EXPECT_DOUBLE_EQ(t.meanRate(), 0.0);
}

TEST(Trace, ClassMixFractions)
{
    ArrivalTrace t;
    t.entries = {{1, 0}, {2, 2}, {3, 0}, {4, 2}};
    const auto mix = t.classMix();
    ASSERT_EQ(mix.size(), 3u);
    EXPECT_DOUBLE_EQ(mix[0], 0.5);
    EXPECT_DOUBLE_EQ(mix[1], 0.0);
    EXPECT_DOUBLE_EQ(mix[2], 0.5);
}

TEST(Trace, ScaleTraceCompressesTimestamps)
{
    ArrivalTrace t;
    t.entries = {{1000, 0}, {2000, 1}, {350000, 0}};
    const auto s = scaleTrace(t, 100.0);
    ASSERT_EQ(s.entries.size(), 3u);
    EXPECT_EQ(s.entries[0].at, 10);
    EXPECT_EQ(s.entries[1].at, 20);
    EXPECT_EQ(s.entries[2].at, 3500);
    EXPECT_EQ(s.entries[1].classId, 1);
    EXPECT_NEAR(s.meanRate(), 100.0 * t.meanRate(), 1e-6);
}

TEST(Trace, ScaleTraceStretchesBelowOne)
{
    ArrivalTrace t;
    t.entries = {{100, 0}, {200, 0}};
    const auto s = scaleTrace(t, 0.5);
    EXPECT_EQ(s.entries[0].at, 200);
    EXPECT_EQ(s.entries[1].at, 400);
}

TEST(Trace, ScaleTraceKeepsTimesNondecreasing)
{
    stats::Rng rng(31);
    const auto t = makePoissonTrace(rng, kSec, 5e5, {1.0});
    const auto s = scaleTrace(t, 100.0); // far past 1/us: many ties
    ASSERT_EQ(s.entries.size(), t.entries.size());
    for (std::size_t i = 1; i < s.entries.size(); ++i)
        EXPECT_GE(s.entries[i].at, s.entries[i - 1].at);
}

std::unique_ptr<Cluster>
simpleCluster()
{
    auto c = std::make_unique<Cluster>(3);
    ServiceConfig cfg;
    cfg.name = "svc";
    cfg.threads = 64;
    cfg.cpuPerReplica = 16.0;
    ClassBehavior b;
    b.computeMeanUs = 500.0;
    cfg.behaviors[0] = b;
    cfg.behaviors[1] = b;
    c->addService(cfg);
    for (int i = 0; i < 2; ++i) {
        RequestClassSpec spec;
        spec.name = "c" + std::to_string(i);
        spec.rootService = "svc";
        spec.sla = {99.0, fromMs(50.0)};
        c->addClass(spec);
    }
    c->finalize();
    return c;
}

TEST(TraceReplay, SubmitsEveryEntry)
{
    stats::Rng rng(11);
    auto trace = makePoissonTrace(rng, kMin, 50.0, {1.0, 1.0});
    const auto n = trace.entries.size();
    auto c = simpleCluster();
    TraceReplayClient client(*c, trace);
    client.start(0);
    c->run(2 * kMin);
    EXPECT_EQ(client.submitted(), n);
}

TEST(TraceReplay, LoopRestartsTrace)
{
    stats::Rng rng(13);
    auto trace = makePoissonTrace(rng, kMin, 20.0, {1.0, 0.0});
    const auto n = trace.entries.size();
    auto c = simpleCluster();
    TraceReplayClient client(*c, trace, /*loop=*/true);
    client.start(0);
    c->run(3 * kMin + kSec);
    EXPECT_GE(client.submitted(), 3 * n - 3);
}

TEST(TraceReplay, RateScaleCompressesTime)
{
    stats::Rng rng(17);
    auto trace = makePoissonTrace(rng, 2 * kMin, 30.0, {1.0, 0.0});
    const auto n = trace.entries.size();
    auto c = simpleCluster();
    TraceReplayClient client(*c, trace, false, 2.0);
    client.start(0);
    c->run(kMin + kSec); // full 2-minute trace fits in 1 minute at 2x
    EXPECT_EQ(client.submitted(), n);
}

TEST(TraceReplay, StopHalts)
{
    stats::Rng rng(19);
    auto trace = makePoissonTrace(rng, 10 * kMin, 50.0, {1.0, 0.0});
    auto c = simpleCluster();
    TraceReplayClient client(*c, trace, true);
    client.start(0);
    c->run(kMin);
    client.stop();
    const auto count = client.submitted();
    c->run(5 * kMin);
    EXPECT_EQ(client.submitted(), count);
}

// Regression for the stop()+start() restart bug: the old chain's
// pending callback saw running_ == true again after restart and
// resumed alongside the new chain, double-submitting every arrival.
TEST(TraceReplay, StopThenRestartDoesNotDoubleSubmit)
{
    ArrivalTrace trace;
    for (int i = 1; i <= 20; ++i)
        trace.entries.push_back({i * 100 * kMsec, 0});

    auto c = simpleCluster();
    TraceReplayClient client(*c, trace);
    client.start(0);
    c->run(450 * kMsec); // entries at 100..400ms: 4 submissions
    EXPECT_EQ(client.submitted(), 4u);
    client.stop(); // cancels the queued entry-5 arrival (500ms)

    client.start(c->events().now()); // restart at 450ms
    // Mid-replay checkpoint: only the new chain's entries (at
    // 450ms + k*100ms, i.e. 550..1050ms inclusive) may have fired by
    // 1050ms. The unguarded client also replayed the stale chain's
    // backlog here — extra submissions at the wrong (past-relative)
    // times.
    c->run(1050 * kMsec);
    EXPECT_EQ(client.submitted(), 4u + 6u);
    c->run(4 * kSec);
    // 4 from the first run plus one full replay — nothing extra from
    // the stale chain.
    EXPECT_EQ(client.submitted(), 4u + 20u);
}

} // namespace
