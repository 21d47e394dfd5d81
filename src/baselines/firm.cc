#include "baselines/firm.h"

#include "spec/app_spec.h"
#include "ml/rl.h"
#include "sim/cluster.h"
#include "sim/service.h"
#include "sim/time.h"
#include "sim/types.h"

#include <algorithm>
#include <chrono>
#include <cmath>

namespace ursa::baselines
{

namespace
{

double
microsSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now() - start)
        .count();
}

} // namespace

FirmController::FirmController(sim::Cluster &cluster,
                               const spec::AppSpec &app, FirmConfig cfg)
    : cluster_(cluster), app_(app), cfg_(cfg), rng_(cfg.seed ^ 0xf1b3)
{
    cfg_.agent.numActions = static_cast<int>(cfg_.actions.size());
    for (sim::ServiceId s = 0; s < cluster_.numServices(); ++s) {
        agents_.push_back(std::make_unique<ml::QAgent>(
            cfg_.agent, cfg_.seed + 17ULL * (s + 1)));
    }
}

FirmController::ClassLatencies
FirmController::classLatencies() const
{
    const sim::SimTime now = cluster_.events().now();
    const sim::SimTime from =
        std::max<sim::SimTime>(0, now - 2 * cfg_.interval);
    ClassLatencies latency(cluster_.numClasses());
    for (int c = 0; c < cluster_.numClasses(); ++c) {
        const auto e2e = cluster_.metrics().endToEnd(c).collect(from, now);
        if (!e2e.empty())
            latency[c] = e2e.percentile(app_.classes[c].sla.percentile);
    }
    return latency;
}

std::vector<double>
FirmController::serviceState(sim::ServiceId s,
                             const ClassLatencies &latency) const
{
    const sim::SimTime now = cluster_.events().now();
    const sim::SimTime from =
        std::max<sim::SimTime>(0, now - 2 * cfg_.interval);
    const auto &m = cluster_.metrics();

    const double util = m.cpuUtilization(s, from, now);
    // Worst latency pressure among classes passing through s.
    double pressure = 0.0;
    double load = 0.0;
    for (int c = 0; c < cluster_.numClasses(); ++c) {
        load += m.arrivalRate(s, c, from, now);
        if (!latency[c])
            continue;
        pressure = std::max(
            pressure,
            *latency[c] / static_cast<double>(app_.classes[c].sla.targetUs));
    }
    const double replicas =
        static_cast<double>(cluster_.service(s).activeReplicas()) /
        static_cast<double>(cfg_.maxReplicas);
    return {util, std::min(pressure, 5.0) / 5.0,
            load / std::max(1.0, app_.nominalRps), replicas};
}

double
FirmController::reward() const
{
    const sim::SimTime now = cluster_.events().now();
    const sim::SimTime from =
        std::max<sim::SimTime>(0, now - cfg_.interval);
    const auto &m = cluster_.metrics();

    // Resource term: CPU saved relative to a nominal full allocation.
    double alloc = 0.0, maxAlloc = 0.0;
    for (std::size_t s = 0; s < app_.services.size(); ++s) {
        alloc += cluster_.service(static_cast<sim::ServiceId>(s))
                     .cpuAllocation();
        maxAlloc += cfg_.maxReplicas * app_.services[s].cpuPerReplica;
    }
    const double saving = 1.0 - alloc / maxAlloc;

    // SLA term: window-based violation status over the last interval.
    const double violation = m.overallSlaViolationRate(from, now);

    return cfg_.resourceWeight * saving - cfg_.slaWeight * violation;
}

int
FirmController::applyAction(sim::ServiceId s, int actionIdx)
{
    sim::Service &svc = cluster_.service(s);
    const int next = std::clamp(
        svc.activeReplicas() + cfg_.actions[actionIdx], 1,
        cfg_.maxReplicas);
    if (next != svc.activeReplicas())
        svc.setReplicas(next);
    return next;
}

void
FirmController::trainOnline(int steps)
{
    std::vector<std::vector<double>> prevState(agents_.size());
    std::vector<int> prevAction(agents_.size(), -1);

    for (int step = 0; step < steps; ++step) {
        // Inject a CPU-throttle anomaly on a random service with some
        // probability — Firm's training recipe.
        sim::ServiceId throttled = -1;
        if (rng_.uniform() < cfg_.anomalyProbability) {
            throttled = static_cast<sim::ServiceId>(
                rng_.uniformInt(cluster_.numServices()));
            cluster_.service(throttled).setCpuFactor(cfg_.anomalyFactor);
        }

        const ClassLatencies before = classLatencies();
        for (std::size_t s = 0; s < agents_.size(); ++s) {
            prevState[s] =
                serviceState(static_cast<sim::ServiceId>(s), before);
            prevAction[s] = agents_[s]->act(prevState[s], true);
            applyAction(static_cast<sim::ServiceId>(s), prevAction[s]);
        }

        cluster_.run(cluster_.events().now() + cfg_.interval);
        const double r = reward();
        const ClassLatencies after = classLatencies();

        for (std::size_t s = 0; s < agents_.size(); ++s) {
            const auto next =
                serviceState(static_cast<sim::ServiceId>(s), after);
            agents_[s]->observe({prevState[s], prevAction[s], r, next});
            const auto wallStart = std::chrono::steady_clock::now();
            agents_[s]->trainStep();
            trainLatency_.add(microsSince(wallStart));
        }
        ++trainingSteps_;

        if (throttled >= 0)
            cluster_.service(throttled).setCpuFactor(1.0);
    }
}

void
FirmController::start(sim::SimTime at)
{
    stop();
    next_ = cluster_.events().schedule(at, [this] { deployTick(); });
}

void
FirmController::deployTick()
{
    // Firm localizes SLA violations to critical-path services (the
    // original uses an SVM over per-tier telemetry) and lets their
    // agents mitigate. Our stand-in: for every class currently
    // violating its SLA, the services on its path must not scale down,
    // and the most utilized among them is forced to scale up. This
    // shared part of the round — the class-latency snapshot and the
    // localization over it — is timed once and charged in equal shares
    // to the agents' decision latencies.
    const auto roundStart = std::chrono::steady_clock::now();
    const sim::SimTime now = cluster_.events().now();
    const sim::SimTime from =
        std::max<sim::SimTime>(0, now - 2 * cfg_.interval);
    const ClassLatencies latency = classLatencies();
    std::vector<bool> onViolatingPath(agents_.size(), false);
    std::vector<bool> forceUp(agents_.size(), false);
    for (int c = 0; c < cluster_.numClasses(); ++c) {
        if (!latency[c] ||
            *latency[c] <= static_cast<double>(app_.classes[c].sla.targetUs))
            continue;
        double worstUtil = -1.0;
        std::size_t culprit = 0;
        for (std::size_t s = 0; s < agents_.size(); ++s) {
            if (!app_.services[s].behaviors.count(c))
                continue;
            onViolatingPath[s] = true;
            const double util = cluster_.metrics().cpuUtilization(
                static_cast<sim::ServiceId>(s), from, now);
            if (util > worstUtil) {
                worstUtil = util;
                culprit = s;
            }
        }
        forceUp[culprit] = true;
    }
    const double sharedUs =
        microsSince(roundStart) / static_cast<double>(agents_.size());
    const int upIdx = static_cast<int>(
        std::max_element(cfg_.actions.begin(), cfg_.actions.end()) -
        cfg_.actions.begin());
    for (std::size_t s = 0; s < agents_.size(); ++s) {
        const auto wallStart = std::chrono::steady_clock::now();
        const auto state =
            serviceState(static_cast<sim::ServiceId>(s), latency);
        int action = agents_[s]->act(state, /*explore=*/false);
        if (forceUp[s]) {
            action = upIdx;
        } else if (onViolatingPath[s] && cfg_.actions[action] < 0) {
            // Hold instead of shrinking a stressed path.
            for (std::size_t a = 0; a < cfg_.actions.size(); ++a)
                if (cfg_.actions[a] == 0)
                    action = static_cast<int>(a);
        }
        decisionLatency_.add(sharedUs + microsSince(wallStart));
        applyAction(static_cast<sim::ServiceId>(s), action);
    }
    next_ =
        cluster_.events().scheduleIn(cfg_.interval, [this] { deployTick(); });
}

} // namespace ursa::baselines
