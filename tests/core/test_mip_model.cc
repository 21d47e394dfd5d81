/**
 * @file
 * Tests of the Ursa optimization model: replica arithmetic, optimal
 * level selection on synthetic profiles, infeasibility, SLA-tightness
 * monotonicity, and cross-checking the specialized branch-and-bound
 * against the generic 0/1 ILP lowering solved by the simplex-based
 * MIP oracle (tests/solver/; the paper used Gurobi).
 */

#include "core/mip_model.h"

#include "solver/mip_lowering.h"
#include "stats/rng.h"

#include <gtest/gtest.h>

namespace
{

using namespace ursa::core;
using ursa::sim::fromMs;
using ursa::sim::SlaSpec;
using ursa::solver::solveViaGenericMip;
using ursa::stats::Rng;

/**
 * Build a synthetic profile: `numServices` services, each with
 * `numLevels` levels. Level l carries lpr0*(1+l) rps/replica and has
 * latency latBase*(1+l*latGrowth) at the lowest grid percentile,
 * growing mildly across the grid.
 */
AppProfile
syntheticProfile(int numServices, int numLevels, int numClasses,
                 double lpr0, double latBaseUs, double latGrowth,
                 PercentileGrid grid = {99.0, 99.5, 99.9})
{
    AppProfile prof;
    prof.grid = std::move(grid);
    for (int s = 0; s < numServices; ++s) {
        ServiceProfile svc;
        svc.serviceName = "svc" + std::to_string(s);
        svc.cpuPerReplica = 1.0;
        svc.bpThreshold = 0.6;
        for (int l = 0; l < numLevels; ++l) {
            LprLevel level;
            level.replicas = numLevels - l;
            level.loadPerReplica.assign(numClasses, lpr0 * (1 + l));
            level.latency.assign(numClasses, {});
            for (int c = 0; c < numClasses; ++c) {
                for (std::size_t g = 0; g < prof.grid.size(); ++g) {
                    const double tail = 1.0 + 0.2 * g;
                    level.latency[c].push_back(
                        latBaseUs * (1.0 + l * latGrowth) * tail);
                }
            }
            svc.levels.push_back(level);
        }
        prof.services.push_back(svc);
    }
    return prof;
}

ModelInput
inputFor(const AppProfile &prof, double loadRps, double targetMs,
         int numClasses = 1)
{
    ModelInput in;
    in.profile = &prof;
    for (int c = 0; c < numClasses; ++c)
        in.slas.push_back({99.0, fromMs(targetMs)});
    in.loads.assign(prof.services.size(),
                    std::vector<double>(numClasses, loadRps));
    in.slaVisits.assign(prof.services.size(),
                     std::vector<double>(numClasses, 1.0));
    return in;
}

TEST(ReplicasNeeded, MaxOverClasses)
{
    ServiceProfile svc;
    svc.cpuPerReplica = 2.0;
    LprLevel level;
    level.replicas = 1;
    level.loadPerReplica = {10.0, 5.0};
    level.latency = {{1.0}, {1.0}};
    svc.levels.push_back(level);
    // loads (35, 12): ceil(35/10)=4, ceil(12/5)=3 -> 4.
    EXPECT_EQ(UrsaOptimizer::replicasNeeded(svc, 0, {35.0, 12.0}), 4);
    // Zero load -> minimum 1 replica.
    EXPECT_EQ(UrsaOptimizer::replicasNeeded(svc, 0, {0.0, 0.0}), 1);
}

TEST(Optimizer, PicksCheapestFeasibleLevel)
{
    // One service, loose SLA: the highest-LPR level (fewest replicas)
    // should win.
    const auto prof = syntheticProfile(1, 4, 1, 10.0, 1000.0, 0.5);
    const auto in = inputFor(prof, 100.0, 1000.0);
    const auto out = UrsaOptimizer().solve(in);
    ASSERT_TRUE(out.feasible);
    EXPECT_EQ(out.level[0], 3); // lpr 40 -> 3 replicas
    EXPECT_EQ(out.replicas[0], 3);
    EXPECT_DOUBLE_EQ(out.totalCpuCores, 3.0);
}

TEST(Optimizer, TightSlaForcesLowerLpr)
{
    // Level latencies: 1000*(1+0.5l)*1.2 tail at most. With target
    // 1.3 ms only levels 0..? qualify: level0 p99=1000, level1=1500.
    const auto prof = syntheticProfile(1, 4, 1, 10.0, 1000.0, 0.5);
    const auto in = inputFor(prof, 100.0, 1.3);
    const auto out = UrsaOptimizer().solve(in);
    ASSERT_TRUE(out.feasible);
    EXPECT_EQ(out.level[0], 0);
    EXPECT_EQ(out.replicas[0], 10);
}

TEST(Optimizer, InfeasibleWhenNoLevelMeetsSla)
{
    const auto prof = syntheticProfile(1, 3, 1, 10.0, 5000.0, 0.5);
    const auto in = inputFor(prof, 50.0, 1.0); // 1 ms target, 5 ms best
    EXPECT_FALSE(UrsaOptimizer().solve(in).feasible);
}

TEST(Optimizer, ResourceMonotoneInSlaTightness)
{
    const auto prof = syntheticProfile(3, 5, 1, 20.0, 800.0, 0.8);
    double prevCpu = 0.0;
    for (double target : {100.0, 10.0, 5.0, 3.5}) {
        const auto out =
            UrsaOptimizer().solve(inputFor(prof, 200.0, target));
        ASSERT_TRUE(out.feasible) << "target " << target;
        EXPECT_GE(out.totalCpuCores, prevCpu);
        prevCpu = out.totalCpuCores;
    }
}

TEST(Optimizer, UpperBoundRespectsSla)
{
    const auto prof = syntheticProfile(3, 4, 2, 15.0, 900.0, 0.6);
    const auto in = inputFor(prof, 120.0, 8.0, 2);
    const auto out = UrsaOptimizer().solve(in);
    ASSERT_TRUE(out.feasible);
    for (double ub : out.upperBoundUs) {
        EXPECT_GT(ub, 0.0);
        EXPECT_LE(ub, fromMs(8.0));
    }
}

TEST(Optimizer, VisitCountsMultiplyStages)
{
    // Same profile; class visits the single service twice: the latency
    // budget must cover two stages, so a tight target forces a lower
    // level than with one visit.
    const auto prof = syntheticProfile(1, 4, 1, 10.0, 1000.0, 0.5);
    auto in = inputFor(prof, 100.0, 2.5);
    in.slaVisits[0][0] = 2.0;
    const auto out2 = UrsaOptimizer().solve(in);
    in.slaVisits[0][0] = 1.0;
    const auto out1 = UrsaOptimizer().solve(in);
    ASSERT_TRUE(out1.feasible);
    ASSERT_TRUE(out2.feasible);
    EXPECT_LE(out2.level[0], out1.level[0]);
    EXPECT_GE(out2.totalCpuCores, out1.totalCpuCores);
}

TEST(Optimizer, SkewedLoadBindsOnOneClass)
{
    // Two classes with equal thresholds; class 1's load dominates and
    // sets the replica count (the paper's conservative example).
    const auto prof = syntheticProfile(1, 1, 2, 10.0, 100.0, 0.0);
    ModelInput in = inputFor(prof, 0.0, 100.0, 2);
    in.loads[0] = {4.0, 36.0};
    const auto out = UrsaOptimizer().solve(in);
    ASSERT_TRUE(out.feasible);
    EXPECT_EQ(out.replicas[0], 4); // ceil(36/10)
}

TEST(Optimizer, ServicesWithoutLevelsAreSkipped)
{
    auto prof = syntheticProfile(2, 3, 1, 10.0, 500.0, 0.4);
    prof.services[1].levels.clear(); // unmanaged service
    const auto in = inputFor(prof, 50.0, 50.0);
    const auto out = UrsaOptimizer().solve(in);
    ASSERT_TRUE(out.feasible);
    EXPECT_GE(out.level[0], 0);
    EXPECT_EQ(out.level[1], -1);
    EXPECT_EQ(out.replicas[1], 0);
}

// Cross-check: specialized solver == generic 0/1 ILP on small random
// instances (the DESIGN.md equivalence claim).
TEST(OptimizerProperty, MatchesGenericMipLowering)
{
    // One class, one visit per service.
    Rng rng(99);
    for (int trial = 0; trial < 12; ++trial) {
        const int services = 1 + static_cast<int>(rng.uniformInt(2));
        const int levels = 2 + static_cast<int>(rng.uniformInt(2));
        const auto prof = syntheticProfile(
            services, levels, 1, rng.uniform(5.0, 20.0),
            rng.uniform(300.0, 1500.0), rng.uniform(0.2, 1.0),
            {99.0, 99.9});
        const double load = rng.uniform(20.0, 150.0);
        const double target = rng.uniform(1.0, 12.0);
        const auto in = inputFor(prof, load, target);

        const auto fast = UrsaOptimizer().solve(in);
        const auto exact = solveViaGenericMip(in);
        ASSERT_FALSE(exact.hitNodeLimit) << "trial " << trial;
        ASSERT_EQ(fast.feasible, exact.feasible)
            << "trial " << trial << " target " << target;
        if (fast.feasible) {
            EXPECT_NEAR(fast.totalCpuCores, exact.totalCpuCores, 1e-6)
                << "trial " << trial;
        }
    }

    // Two classes sharing each service's level choice: class 1's
    // latencies scale per level, the classes carry separate loads and
    // SLA percentiles (99 and 50), and each class visits a service 0
    // (load only), 1 or 2 times.
    int feasible = 0;
    for (int trial = 0; trial < 40; ++trial) {
        const int services = 1 + static_cast<int>(rng.uniformInt(3));
        const int levels = 2 + static_cast<int>(rng.uniformInt(2));
        auto prof = syntheticProfile(
            services, levels, 2, rng.uniform(5.0, 20.0),
            rng.uniform(300.0, 1500.0), rng.uniform(0.2, 1.0),
            {99.0, 99.9});
        for (ServiceProfile &svc : prof.services)
            for (LprLevel &level : svc.levels) {
                const double scale = rng.uniform(0.5, 2.0);
                for (double &v : level.latency[1])
                    v *= scale;
            }
        ModelInput in;
        in.profile = &prof;
        in.slas = {{99.0, fromMs(rng.uniform(1.0, 12.0))},
                   {50.0, fromMs(rng.uniform(1.0, 12.0))}};
        for (int s = 0; s < services; ++s) {
            in.loads.push_back(
                {rng.uniform(20.0, 150.0), rng.uniform(20.0, 150.0)});
            in.slaVisits.push_back(
                {static_cast<double>(rng.uniformInt(3)),
                 static_cast<double>(rng.uniformInt(3))});
        }

        const auto fast = UrsaOptimizer().solve(in);
        const auto exact = solveViaGenericMip(in);
        ASSERT_FALSE(exact.hitNodeLimit) << "multi-class trial " << trial;
        ASSERT_EQ(fast.feasible, exact.feasible)
            << "multi-class trial " << trial;
        if (fast.feasible) {
            ++feasible;
            EXPECT_NEAR(fast.totalCpuCores, exact.totalCpuCores, 1e-6)
                << "multi-class trial " << trial;
        }
    }
    // Both outcomes occur, so neither side can pass by always
    // answering the same way.
    EXPECT_GT(feasible, 0);
    EXPECT_LT(feasible, 40);
}

TEST(Optimizer, MissingProfileThrows)
{
    ModelInput in;
    EXPECT_THROW(UrsaOptimizer().solve(in), std::invalid_argument);
}

} // namespace
