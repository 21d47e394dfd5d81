/** @file Unit + property tests for SampleSet and EmpiricalCdf. */

#include "stats/quantile.h"
#include "stats/rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

namespace
{

using ursa::stats::EmpiricalCdf;
using ursa::stats::percentileOf;
using ursa::stats::Rng;
using ursa::stats::SampleSet;

TEST(SampleSet, PercentileSmall)
{
    SampleSet s;
    for (double v : {1.0, 2.0, 3.0, 4.0, 5.0})
        s.add(v);
    EXPECT_DOUBLE_EQ(s.percentile(0), 1.0);
    EXPECT_DOUBLE_EQ(s.percentile(50), 3.0);
    EXPECT_DOUBLE_EQ(s.percentile(100), 5.0);
    EXPECT_DOUBLE_EQ(s.percentile(25), 2.0);
    EXPECT_DOUBLE_EQ(s.percentile(12.5), 1.5);
}

TEST(SampleSet, PercentileOfEmptyThrows)
{
    SampleSet s;
    EXPECT_THROW(s.percentile(50), std::logic_error);
}

TEST(SampleSet, PercentileClampsOutOfRange)
{
    SampleSet s;
    s.add(2.0);
    s.add(8.0);
    EXPECT_DOUBLE_EQ(s.percentile(-5), 2.0);
    EXPECT_DOUBLE_EQ(s.percentile(150), 8.0);
}

TEST(SampleSet, UnsortedInsertOrderIrrelevant)
{
    SampleSet a, b;
    const std::vector<double> v = {9, 1, 7, 3, 5, 2, 8, 4, 6, 0};
    for (double x : v)
        a.add(x);
    std::vector<double> w = v;
    std::sort(w.begin(), w.end());
    for (double x : w)
        b.add(x);
    for (double p : {10.0, 33.0, 66.0, 90.0, 99.0})
        EXPECT_DOUBLE_EQ(a.percentile(p), b.percentile(p));
}

TEST(SampleSet, ReservoirKeepsCapacity)
{
    SampleSet s(100, 42);
    for (int i = 0; i < 10000; ++i)
        s.add(i);
    EXPECT_EQ(s.count(), 10000u);
    EXPECT_EQ(s.samples().size(), 100u);
}

TEST(SampleSet, ReservoirMedianUnbiased)
{
    // Reservoir median of uniform[0,1) should be near 0.5.
    Rng r(1);
    double totalErr = 0.0;
    const int trials = 20;
    for (int t = 0; t < trials; ++t) {
        SampleSet s(500, 100 + t);
        for (int i = 0; i < 20000; ++i)
            s.add(r.uniform());
        totalErr += s.percentile(50) - 0.5;
    }
    EXPECT_NEAR(totalErr / trials, 0.0, 0.02);
}

TEST(SampleSet, TrackThresholdExactUnderReservoir)
{
    SampleSet s(10, 7);
    s.trackThreshold(0.5);
    Rng r(2);
    int above = 0;
    const int n = 5000;
    for (int i = 0; i < n; ++i) {
        const double v = r.uniform();
        if (v > 0.5)
            ++above;
        s.add(v);
    }
    EXPECT_DOUBLE_EQ(s.fractionAbove(0.5), double(above) / n);
}

TEST(SampleSet, FractionAboveNoTracking)
{
    SampleSet s;
    for (double v : {1.0, 2.0, 3.0, 4.0})
        s.add(v);
    EXPECT_DOUBLE_EQ(s.fractionAbove(2.5), 0.5);
    EXPECT_DOUBLE_EQ(s.fractionAbove(10.0), 0.0);
}

TEST(SampleSet, MergeCombines)
{
    SampleSet a, b;
    a.add(1.0);
    b.add(3.0);
    a.merge(b);
    EXPECT_EQ(a.count(), 2u);
    EXPECT_DOUBLE_EQ(a.percentile(50), 2.0);
}

// Regression: merge used to re-add the other set's *retained* samples
// through add(), dropping its unretained threshold exceedances. With a
// capacity-4 reservoir on `b`, only ~4 of its 100 exceedances survived.
TEST(SampleSet, MergePreservesThresholdCounts)
{
    SampleSet a, b(4, 11);
    a.trackThreshold(10.0);
    b.trackThreshold(10.0);
    for (int i = 0; i < 100; ++i)
        b.add(20.0);
    a.merge(b);
    EXPECT_EQ(a.count(), 100u);
    EXPECT_DOUBLE_EQ(a.fractionAbove(10.0), 1.0);
}

// Regression: merging through add() weighted the other stream by the
// *local* observed count, so a second stream of equal size was nearly
// squeezed out of the merged reservoir. With the weighted union the
// merged reservoir represents both streams ~equally.
TEST(SampleSet, MergeReservoirsWeightedByObserved)
{
    SampleSet a(64, 3), b(64, 5);
    Rng r(17);
    const int n = 10000;
    for (int i = 0; i < n; ++i)
        a.add(r.uniform() * 0.01); // stream near 0
    for (int i = 0; i < n; ++i)
        b.add(1.0 - r.uniform() * 0.01); // stream near 1
    a.merge(b);
    EXPECT_EQ(a.count(), 2u * n);
    EXPECT_EQ(a.samples().size(), 64u);
    // Old code: mean ~0.006 (stream b nearly absent). Fixed: ~0.5.
    EXPECT_NEAR(a.mean(), 0.5, 0.15);
}

TEST(SampleSet, MergeExactModeConcatenates)
{
    SampleSet a, b;
    for (double v : {1.0, 2.0})
        a.add(v);
    for (double v : {3.0, 4.0})
        b.add(v);
    a.merge(b);
    EXPECT_EQ(a.count(), 4u);
    EXPECT_EQ(a.samples().size(), 4u);
    EXPECT_DOUBLE_EQ(a.percentile(100), 4.0);
}

TEST(SampleSet, MergeEmptyOtherIsNoOp)
{
    SampleSet a, b;
    a.add(1.0);
    a.merge(b);
    EXPECT_EQ(a.count(), 1u);
    EXPECT_EQ(a.samples().size(), 1u);
}

TEST(SampleSet, ResetClears)
{
    SampleSet s;
    s.add(1.0);
    s.reset();
    EXPECT_TRUE(s.empty());
    EXPECT_EQ(s.count(), 0u);
}

TEST(SampleSet, MeanOfRetained)
{
    SampleSet s;
    for (double v : {2.0, 4.0, 6.0})
        s.add(v);
    EXPECT_DOUBLE_EQ(s.mean(), 4.0);
}

// Property: percentile is monotone in p.
TEST(SampleSetProperty, PercentileMonotone)
{
    Rng r(33);
    for (int trial = 0; trial < 20; ++trial) {
        SampleSet s;
        const int n = 1 + int(r.uniformInt(200));
        for (int i = 0; i < n; ++i)
            s.add(r.lognormal(10.0, 1.0));
        double prev = -1.0;
        for (double p = 0; p <= 100.0; p += 2.5) {
            const double v = s.percentile(p);
            EXPECT_GE(v, prev);
            prev = v;
        }
    }
}

// Property: on exact storage, percentile (a selection) and percentiles
// (one sort) give the very double percentileOf (a full sort) gives.
TEST(SampleSetProperty, AgreesWithVectorHelper)
{
    Rng r(44);
    // With n - 1 divisible by 8, p = 12.5, 25, 50 and 75 land on an
    // exact rank; the other p values interpolate between two ranks.
    const std::vector<double> ps = {0.0,  1.0,  12.5, 25.0, 33.3, 50.0,
                                    75.0, 90.0, 99.0, 99.9, 100.0};
    for (const int n : {1, 2, 3, 5, 9, 17, 100, 101, 1001, 4097, 10001}) {
        for (const bool duplicates : {false, true}) {
            SampleSet s;
            std::vector<double> v;
            for (int i = 0; i < n; ++i) {
                const double x = duplicates
                                     ? static_cast<double>(r.uniformInt(4))
                                     : r.normal(0, 5);
                s.add(x);
                v.push_back(x);
            }
            std::vector<double> perP;
            for (double p : ps) {
                perP.push_back(s.percentile(p));
                EXPECT_EQ(perP.back(), percentileOf(v, p))
                    << "n=" << n << " duplicates=" << duplicates
                    << " p=" << p;
            }
            EXPECT_EQ(s.percentiles(ps), perP) << "n=" << n;
        }
    }
}

// A query never reorders samples(): reservoir replacement indexes into
// it, so a query that selected or sorted in place would change which
// sample every later add() overwrites.
TEST(SampleSet, QueriesLeaveTheReservoirOrderAlone)
{
    SampleSet queried(64, 9), untouched(64, 9);
    Rng r(55);
    for (int i = 0; i < 1000; ++i) {
        const double x = r.lognormal(10.0, 1.0);
        queried.add(x);
        untouched.add(x);
        if (i == 500) {
            EXPECT_EQ(queried.percentile(90.0),
                      percentileOf(untouched.samples(), 90.0));
            EXPECT_EQ(queried.percentiles({50.0, 99.0}).size(), 2u);
        }
    }
    EXPECT_EQ(queried.samples(), untouched.samples());
}

TEST(EmpiricalCdf, BasicSteps)
{
    EmpiricalCdf cdf({1.0, 2.0, 3.0, 4.0});
    EXPECT_DOUBLE_EQ(cdf.at(0.5), 0.0);
    EXPECT_DOUBLE_EQ(cdf.at(1.0), 0.25);
    EXPECT_DOUBLE_EQ(cdf.at(2.5), 0.5);
    EXPECT_DOUBLE_EQ(cdf.at(4.0), 1.0);
    EXPECT_DOUBLE_EQ(cdf.at(100.0), 1.0);
}

TEST(EmpiricalCdf, QuantileInverse)
{
    EmpiricalCdf cdf({10.0, 20.0, 30.0});
    EXPECT_DOUBLE_EQ(cdf.quantile(0.0), 10.0);
    EXPECT_DOUBLE_EQ(cdf.quantile(0.5), 20.0);
    EXPECT_DOUBLE_EQ(cdf.quantile(1.0), 30.0);
}

TEST(EmpiricalCdf, CurveSpansRangeAndIsMonotone)
{
    Rng r(55);
    std::vector<double> v;
    for (int i = 0; i < 500; ++i)
        v.push_back(r.exponential(2.0));
    EmpiricalCdf cdf(v);
    const auto curve = cdf.curve(50);
    ASSERT_EQ(curve.size(), 50u);
    double prev = -1.0;
    for (const auto &[x, y] : curve) {
        EXPECT_GE(y, prev);
        prev = y;
    }
    EXPECT_DOUBLE_EQ(curve.back().second, 1.0);
}

} // namespace
