/** @file Direct unit tests for MetricsRegistry (the tracing substrate). */

#include "sim/metrics.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <vector>

namespace
{

using namespace ursa::sim;

class MetricsTest : public ::testing::Test
{
  protected:
    MetricsTest() : m(kMin)
    {
        m.addService("frontend");
        m.addService("backend");
        m.addClass("fast", {99.0, fromMs(100.0)});
        m.addClass("slow", {50.0, fromMs(1000.0)});
    }
    MetricsRegistry m;
};

TEST_F(MetricsTest, NamesAndSlas)
{
    EXPECT_EQ(m.numServices(), 2);
    EXPECT_EQ(m.numClasses(), 2);
    EXPECT_EQ(m.serviceName(1), "backend");
    EXPECT_EQ(m.className(0), "fast");
    EXPECT_DOUBLE_EQ(m.sla(1).percentile, 50.0);
}

TEST_F(MetricsTest, ClassesAddedAfterServicesGrowVectors)
{
    MetricsRegistry reg(kMin);
    reg.addService("a");
    reg.addClass("c0", {99.0, 1000});
    reg.addService("b");
    reg.addClass("c1", {99.0, 1000});
    // No throw on any (service, class) combination.
    reg.recordTierLatency(0, 1, 0, 5);
    reg.recordTierLatency(1, 0, 0, 5);
    EXPECT_EQ(reg.tierLatency(1, 0).windows().size(), 1u);
}

TEST_F(MetricsTest, ArrivalRateCountsWindows)
{
    for (int i = 0; i < 120; ++i)
        m.recordArrival(0, 0, i * kSec / 2); // 2/sec for 1 min
    EXPECT_NEAR(m.arrivalRate(0, 0, 0, kMin), 2.0, 0.1);
    EXPECT_DOUBLE_EQ(m.arrivalRate(0, 1, 0, kMin), 0.0);
    EXPECT_DOUBLE_EQ(m.arrivalRate(0, 0, 0, 0), 0.0);
}

// Regression: edge windows used to be counted in full while the span
// divided by the clipped range. A steady 2/sec stream queried over the
// second half of its only window reported 4/sec.
TEST_F(MetricsTest, ArrivalRateClipsEdgeWindowsProRata)
{
    for (int i = 0; i < 120; ++i)
        m.recordArrival(0, 0, i * kSec / 2); // 2/sec for 1 min
    EXPECT_NEAR(m.arrivalRate(0, 0, 30 * kSec, kMin), 2.0, 0.1);
    EXPECT_NEAR(m.arrivalRate(0, 0, 15 * kSec, 45 * kSec), 2.0, 0.1);
    // A range past the data sees a pro-rata share of the edge window
    // and zero from the empty remainder.
    EXPECT_NEAR(m.arrivalRate(0, 0, 30 * kSec, 90 * kSec), 1.0, 0.1);
}

// Arrival windows hold counts. Like every window, one exists only once
// something arrived in it, so quiet minutes are skipped, not zeros.
TEST_F(MetricsTest, ArrivalCountsSkipEmptyWindows)
{
    m.recordArrival(0, 0, 5 * kSec);
    m.recordArrival(0, 0, 3 * kMin + 5 * kSec);
    m.recordArrival(0, 0, 3 * kMin + 6 * kSec);
    EXPECT_EQ(m.arrivalCounts(0, 0, 10 * kMin, 10),
              (std::vector<std::uint64_t>{1, 2}));
}

TEST_F(MetricsTest, ArrivalCountsLastWindowsBefore)
{
    for (int k = 0; k < 5; ++k) // k + 1 arrivals in minute k
        for (int i = 0; i <= k; ++i)
            m.recordArrival(0, 0, k * kMin + i * kSec);
    // Oldest first, and the window containing `time` is left out.
    EXPECT_EQ(m.arrivalCounts(0, 0, 4 * kMin + 30 * kSec, 3),
              (std::vector<std::uint64_t>{2, 3, 4}));
    // A shorter history returns fewer counts.
    EXPECT_EQ(m.arrivalCounts(0, 0, 2 * kMin, 5),
              (std::vector<std::uint64_t>{1, 2}));
    EXPECT_TRUE(m.arrivalCounts(0, 1, 10 * kMin, 3).empty());
    EXPECT_TRUE(m.arrivalCounts(1, 0, 10 * kMin, 3).empty());
}

TEST_F(MetricsTest, ArrivalTimeMovingBackwardsThrows)
{
    m.recordArrival(0, 0, 2 * kMin + 5 * kSec);
    EXPECT_THROW(m.recordArrival(0, 0, 30 * kSec), std::logic_error);
}

// Regression companion: window-violation rates weight edge windows by
// their overlap fraction, so a range cutting a violating window in half
// does not count a whole bad window against a half-sized denominator.
TEST_F(MetricsTest, WindowViolationRateWeightsEdgeWindows)
{
    // Window 0 fine, window 1 violating (p99 SLA is 100 ms).
    for (int i = 0; i < 50; ++i)
        m.recordEndToEnd(0, i * kSec, fromMs(20.0));
    for (int i = 0; i < 50; ++i)
        m.recordEndToEnd(0, kMin + i * kSec, fromMs(150.0));
    // Full first window + half of the violating one: 0.5 bad weight
    // out of 1.5 total.
    EXPECT_NEAR(m.slaViolationRate(0, 0, 90 * kSec), 0.5 / 1.5, 1e-9);
    // Aligned ranges are unchanged.
    EXPECT_NEAR(m.slaViolationRate(0, 0, 2 * kMin), 0.5, 1e-9);
}

TEST_F(MetricsTest, WindowViolationRateUsesSlaPercentile)
{
    // Class "slow" has a p50 SLA of 1000 ms: a window where only the
    // tail exceeds the target is NOT a violation.
    for (int i = 0; i < 90; ++i)
        m.recordEndToEnd(1, i * kSec / 2, fromMs(500.0));
    for (int i = 90; i < 100; ++i)
        m.recordEndToEnd(1, 50 * kSec, fromMs(5000.0));
    EXPECT_DOUBLE_EQ(m.slaViolationRate(1, 0, kMin), 0.0);
}

TEST_F(MetricsTest, ViolatingWindowDetected)
{
    // p99 SLA of 100 ms: one bad window among three.
    for (int w = 0; w < 3; ++w) {
        for (int i = 0; i < 50; ++i) {
            const SimTime at = w * kMin + i * kSec;
            m.recordEndToEnd(0, at,
                             w == 1 ? fromMs(150.0) : fromMs(20.0));
        }
    }
    EXPECT_NEAR(m.slaViolationRate(0, 0, 3 * kMin), 1.0 / 3.0, 1e-9);
    EXPECT_DOUBLE_EQ(m.slaViolationRate(0, 0, kMin), 0.0);
}

TEST_F(MetricsTest, OverallRateAggregatesClasses)
{
    for (int i = 0; i < 20; ++i) {
        m.recordEndToEnd(0, i * kSec, fromMs(150.0)); // violating window
        m.recordEndToEnd(1, i * kSec, fromMs(100.0)); // fine
    }
    EXPECT_NEAR(m.overallSlaViolationRate(0, kMin), 0.5, 1e-9);
}

TEST_F(MetricsTest, CpuUtilizationFromBusySamples)
{
    // Allocation: 2 cores from t=0. Busy integral grows at 1 core.
    m.recordAllocation(0, 0, 2.0);
    for (int i = 0; i <= 6; ++i)
        m.recordBusySample(0, i * 10 * kSec,
                           static_cast<double>(i) * 10 * kSec * 1.0);
    EXPECT_NEAR(m.cpuUtilization(0, 0, kMin), 0.5, 1e-9);
    // Fewer than two samples in range -> 0.
    EXPECT_DOUBLE_EQ(m.cpuUtilization(0, 0, 5 * kSec), 0.0);
}

TEST_F(MetricsTest, MeanAllocationTimeWeighted)
{
    m.recordAllocation(0, 0, 2.0);
    m.recordAllocation(0, 30 * kSec, 6.0);
    EXPECT_DOUBLE_EQ(m.meanAllocation(0, 0, kMin), 4.0);
}

TEST_F(MetricsTest, TierLatencyWindowsSeparateClasses)
{
    m.recordTierLatency(0, 0, 10, 100);
    m.recordTierLatency(0, 1, 10, 900);
    EXPECT_EQ(m.tierLatency(0, 0).windows().size(), 1u);
    EXPECT_DOUBLE_EQ(
        m.tierLatency(0, 1).windows()[0].samples.percentile(50), 900.0);
}

TEST_F(MetricsTest, OutOfRangeIdsThrow)
{
    EXPECT_THROW(m.recordTierLatency(5, 0, 0, 1), std::out_of_range);
    EXPECT_THROW(m.recordEndToEnd(9, 0, 1), std::out_of_range);
    EXPECT_THROW(m.recordArrival(2, 0, 0), std::out_of_range);
    EXPECT_THROW(m.recordArrival(0, 2, 0), std::out_of_range);
    EXPECT_THROW(m.serviceName(3), std::out_of_range);
}

} // namespace
