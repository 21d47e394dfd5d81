/**
 * @file
 * Violation-injection tests for the ursa::check invariant layer: each
 * invariant class gets a test that deliberately breaks it and asserts
 * the audit fires with the right component tag — a check that cannot
 * be made to fail is decoration. Plus ScopedCapture mechanics and the
 * canonical clean run: the social-network app simulated end to end at
 * the active check level with zero violations.
 */

#include "check/check.h"

#include "../core/toy_app.h"

#include "apps/app.h"
#include "core/explorer.h"
#include "core/mip_model.h"
#include "sim/client.h"
#include "sim/cluster.h"
#include "workload/arrival.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>

namespace
{

using namespace ursa;
using namespace ursa::sim;

/** One service, one class: the smallest cluster that can carry load. */
std::unique_ptr<Cluster>
makeTinyCluster()
{
    auto cluster = std::make_unique<Cluster>(17);
    ServiceConfig cfg;
    cfg.name = "svc";
    cfg.threads = 8;
    cfg.cpuPerReplica = 2.0;
    cfg.initialReplicas = 1;
    ClassBehavior b;
    b.computeMeanUs = 1000.0;
    b.computeCv = 0.3;
    cfg.behaviors[0] = b;
    cluster->addService(cfg);
    RequestClassSpec spec;
    spec.name = "req";
    spec.rootService = "svc";
    spec.sla = {99.0, fromMs(1000.0)};
    cluster->addClass(spec);
    cluster->finalize();
    return cluster;
}

#if URSA_CHECK_LEVEL >= 1

TEST(ScopedCapture, RecordsInsteadOfAbortingAndNests)
{
    check::ScopedCapture outer;
    check::fail("test.outer", "outer message", "cond", __FILE__, __LINE__);
    ASSERT_EQ(outer.violations().size(), 1u);
    {
        check::ScopedCapture inner;
        check::fail("test.inner", "inner message", "cond", __FILE__,
                    __LINE__);
        // The innermost capture wins; the outer one sees nothing new.
        ASSERT_EQ(inner.violations().size(), 1u);
        EXPECT_TRUE(inner.sawComponent("test.inner"));
        EXPECT_FALSE(inner.sawComponent("test.outer"));
        EXPECT_EQ(outer.violations().size(), 1u);
    }
    // After the inner capture unwinds, the outer one traps again.
    check::fail("test.outer", "second", "cond", __FILE__, __LINE__);
    EXPECT_EQ(outer.violations().size(), 2u);
    EXPECT_TRUE(outer.sawComponent("test.outer"));
    EXPECT_FALSE(outer.sawComponent("test.inner"));
}

TEST(ScopedCapture, ViolationCarriesStructuredFields)
{
    check::ScopedCapture trap;
    check::noteSimTime(123456);
    check::fail("test.fields", "a message", "x > 0", "some_file.cc", 42);
    ASSERT_EQ(trap.violations().size(), 1u);
    const check::Violation &v = trap.violations()[0];
    EXPECT_STREQ(v.component, "test.fields");
    EXPECT_STREQ(v.message, "a message");
    EXPECT_STREQ(v.condition, "x > 0");
    EXPECT_STREQ(v.file, "some_file.cc");
    EXPECT_EQ(v.line, 42);
    EXPECT_EQ(v.simTime, 123456);
    check::noteSimTime(-1);
}

TEST(CheckInjection, EventQueueOrderViolationFires)
{
    EventQueue q;
    q.schedule(10, [] {});
    q.schedule(20, [] {});
    q.schedule(30, [] {});
    q.corruptOrderForTest(); // swap the two earliest events

    check::ScopedCapture trap;
    // Draining the corrupted queue must trip the dispatch-order audit:
    // after the swapped-in later event runs, the next one travels back
    // in time.
    q.runUntil(100);
    EXPECT_FALSE(trap.empty());
    EXPECT_TRUE(trap.sawComponent("sim.event_queue"));
}

TEST(CheckInjection, ReplicaAccountingViolationFires)
{
    auto cluster = makeTinyCluster();
    check::ScopedCapture trap;
    cluster->service(0).replicaForTest(0)
        .injectAccountingViolationForTest();
    ASSERT_FALSE(trap.empty());
    EXPECT_TRUE(trap.sawComponent("sim.replica"));
}

TEST(CheckInjection, RequestConservationViolationFires)
{
    auto cluster = makeTinyCluster();
    OpenLoopClient client(*cluster, workload::constantRate(50.0),
                          fixedMix({1.0}), 5);
    client.start(0);
    cluster->run(2 * kSec);
    client.stop();
    cluster->run(4 * kSec); // drain

    // Honest books first: the drained cluster must audit clean.
    {
        check::ScopedCapture trap;
        cluster->auditConservation(true);
        EXPECT_TRUE(trap.empty());
    }

    // Forge one injected-but-never-completed request: the quiescent
    // audit must now report a conservation violation.
    cluster->injectConservationViolationForTest();
    check::ScopedCapture trap;
    cluster->auditConservation(true);
    ASSERT_FALSE(trap.empty());
    EXPECT_TRUE(trap.sawComponent("sim.cluster"));
}

TEST(CheckInjection, ExplorerRejectsNonIncreasingGrid)
{
    const apps::AppSpec app = tests::makeToyApp();
    core::ExplorationController explorer;
    // Zero rates make the entry validation the only work: the explorer
    // returns right after (demand == 0), so only the grid check fires.
    const std::vector<double> rates(app.classes.size(), 0.0);
    check::ScopedCapture trap;
    explorer.exploreService(app, 0, 0.5, rates, {50.0, 25.0});
    ASSERT_FALSE(trap.empty());
    EXPECT_TRUE(trap.sawComponent("core.explorer"));
}

TEST(CheckInjection, ExplorerRejectsNegativeRates)
{
    const apps::AppSpec app = tests::makeToyApp();
    core::ExplorationController explorer;
    std::vector<double> rates(app.classes.size(), 0.0);
    rates[0] = -1.0;
    check::ScopedCapture trap;
    explorer.exploreService(app, 0, 0.5, rates, {50.0, 99.0});
    ASSERT_FALSE(trap.empty());
    EXPECT_TRUE(trap.sawComponent("core.explorer"));
}

TEST(CheckInjection, MipRejectsNegativeProfileLatency)
{
    core::AppProfile profile;
    profile.grid = {99.0};
    core::ServiceProfile svc;
    svc.serviceName = "svc";
    svc.cpuPerReplica = 1.0;
    core::LprLevel lvl;
    lvl.replicas = 1;
    lvl.loadPerReplica = {10.0};
    lvl.latency = {{-5.0}}; // corrupt: negative tier latency
    lvl.cpuUtilization = 0.5;
    svc.levels.push_back(lvl);
    profile.services.push_back(svc);

    core::ModelInput input;
    input.profile = &profile;
    input.slas = {{99.0, fromMs(100.0)}};
    input.loads = {{5.0}};
    input.slaVisits = {{1.0}};

    check::ScopedCapture trap;
    core::UrsaOptimizer().solve(input);
    ASSERT_FALSE(trap.empty());
    EXPECT_TRUE(trap.sawComponent("core.mip"));
}

#endif // URSA_CHECK_LEVEL >= 1

/**
 * The acceptance run: the canonical social-network application driven
 * at its nominal rate for two simulated minutes plus a drain, with the
 * build's active check level auditing every event dispatch, worker
 * release, pool recycle and (at level 2) periodic conservation sweep.
 * Any violation would abort (no capture is active) — and the atomic
 * counter double-checks that none were recorded anywhere.
 */
TEST(CheckClean, SocialNetworkCanonicalRunHasZeroViolations)
{
    const std::uint64_t before = check::violationCount();
    const apps::AppSpec app = apps::makeSocialNetwork();
    Cluster cluster(42);
    app.instantiate(cluster);
    OpenLoopClient client(cluster, workload::constantRate(app.nominalRps),
                          fixedMix(app.exploreMix), 7);
    client.start(0);
    cluster.run(2 * kMin);
    client.stop();
    // Drain: every in-flight request, including MQ backlog, completes.
    for (int m = 3; m <= 12 && cluster.inFlight() > 0; ++m)
        cluster.run(m * kMin);
    cluster.auditConservation(true);
    EXPECT_GT(cluster.completed(), 0u);
    EXPECT_EQ(cluster.inFlight(), 0u);
    EXPECT_EQ(check::violationCount(), before);
}

} // namespace
