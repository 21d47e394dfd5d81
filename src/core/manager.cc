#include "core/manager.h"

#include "spec/app_spec.h"
#include "core/anomaly.h"
#include "core/estimator.h"
#include "core/mip_model.h"
#include "core/profile.h"
#include "core/resource_controller.h"
#include "sim/cluster.h"
#include "sim/time.h"
#include "sim/types.h"
#include "stats/online.h"

#include <chrono>
#include <numeric>

namespace ursa::core
{

UrsaManager::UrsaManager(sim::Cluster &cluster, const spec::AppSpec &app,
                         AppProfile profile, UrsaManagerOptions opts)
    : cluster_(cluster), app_(app), profile_(std::move(profile)),
      opts_(opts), visits_(computeVisitCounts(app)),
      slaVisits_(computeSlaVisitCounts(app)), optimizer_(opts.optimizer),
      detector_(opts.anomaly)
{
    for (const auto &cls : app_.classes)
        slas_.push_back(cls.sla);
    estimator_ = std::make_unique<LatencyEstimator>(
        static_cast<int>(app_.classes.size()));
    for (sim::ServiceId s = 0; s < cluster_.numServices(); ++s) {
        controllers_.push_back(std::make_unique<ResourceController>(
            cluster_, s, opts_.controller));
    }
}

bool
UrsaManager::deploy(double expectedRps, const std::vector<double> &mix)
{
    // Expected service-local loads from the mix and visit counts.
    const double total = std::accumulate(mix.begin(), mix.end(), 0.0);
    ModelInput input;
    input.profile = &profile_;
    input.slas = slas_;
    input.slaVisits = slaVisits_;
    input.loads.assign(profile_.services.size(),
                       std::vector<double>(app_.classes.size(), 0.0));
    for (std::size_t s = 0; s < profile_.services.size(); ++s)
        for (std::size_t c = 0; c < app_.classes.size(); ++c)
            input.loads[s][c] =
                expectedRps * mix[c] / total * visits_[s][c];

    // ursa-lint: allow(wall-clock) control-plane overhead (Table 6)
    const auto wallStart = std::chrono::steady_clock::now();
    const ModelOutput plan = optimizer_.solve(input);
    updateLatency_.add(std::chrono::duration<double, std::micro>(
                           // ursa-lint: allow(wall-clock) control-plane overhead (Table 6)
                           std::chrono::steady_clock::now() - wallStart)
                           .count());
    if (!plan.feasible)
        return false;
    installPlan(plan);

    stop();
    controlTick_ = cluster_.events().scheduleIn(opts_.controlInterval,
                                                [this] { controlTick(); });
    if (opts_.anomalyInterval > 0) {
        anomalyTick_ = cluster_.events().scheduleIn(
            opts_.anomalyInterval, [this] { anomalyTick(); });
    }
    return true;
}

void
UrsaManager::installPlan(const ModelOutput &plan)
{
    plan_ = plan;
    thresholds_.assign(cluster_.numServices(),
                       std::vector<double>(app_.classes.size(), 0.0));
    for (std::size_t s = 0; s < profile_.services.size(); ++s) {
        const int lvl = plan.level[s];
        if (lvl < 0)
            continue;
        thresholds_[s] = profile_.services[s].levels[lvl].loadPerReplica;
        controllers_[s]->setThresholds(thresholds_[s]);
        // Apply the plan's replica counts immediately.
        if (plan.replicas[s] > 0)
            cluster_.service(static_cast<sim::ServiceId>(s))
                .setReplicas(plan.replicas[s]);
    }
    estimator_->setUpperBounds(plan.upperBoundUs);
}

std::vector<std::vector<double>>
UrsaManager::measuredLoads(sim::SimTime horizon)
{
    const sim::SimTime now = cluster_.events().now();
    const sim::SimTime from = std::max<sim::SimTime>(0, now - horizon);
    std::vector<std::vector<double>> loads(
        cluster_.numServices(),
        std::vector<double>(app_.classes.size(), 0.0));
    for (sim::ServiceId s = 0; s < cluster_.numServices(); ++s)
        for (std::size_t c = 0; c < app_.classes.size(); ++c)
            loads[s][c] = cluster_.metrics().arrivalRate(
                s, static_cast<int>(c), from, now);
    return loads;
}

bool
UrsaManager::recalculate()
{
    ModelInput input;
    input.profile = &profile_;
    input.slas = slas_;
    input.slaVisits = slaVisits_;
    input.loads = measuredLoads(5 * cluster_.metrics().window());

    // ursa-lint: allow(wall-clock) control-plane overhead (Table 6)
    const auto wallStart = std::chrono::steady_clock::now();
    const ModelOutput plan = optimizer_.solve(input);
    updateLatency_.add(std::chrono::duration<double, std::micro>(
                           // ursa-lint: allow(wall-clock) control-plane overhead (Table 6)
                           std::chrono::steady_clock::now() - wallStart)
                           .count());
    ++recalcs_;
    if (!plan.feasible)
        return false;
    installPlan(plan);
    return true;
}

bool
UrsaManager::updateProfile(AppProfile profile)
{
    profile_ = std::move(profile);
    return recalculate();
}

void
UrsaManager::controlTick()
{
    for (std::size_t s = 0; s < controllers_.size(); ++s) {
        if (plan_.level.size() > s && plan_.level[s] >= 0)
            controllers_[s]->tick();
    }
    // Feed the estimator the last completed window's measurements.
    const sim::SimTime now = cluster_.events().now();
    for (std::size_t c = 0; c < app_.classes.size(); ++c) {
        const auto windows =
            cluster_.metrics().endToEnd(static_cast<int>(c))
                .lastWindowsBefore(now, 1);
        if (!windows.empty() && !windows[0]->samples.empty()) {
            estimator_->observe(
                static_cast<int>(c),
                windows[0]->samples.percentile(slas_[c].percentile));
        }
    }
    controlTick_ = cluster_.events().scheduleIn(opts_.controlInterval,
                                                [this] { controlTick(); });
}

void
UrsaManager::anomalyTick()
{
    const AnomalyReport report =
        detector_.check(cluster_, thresholds_, cluster_.events().now(),
                        deviationPersists_);
    switch (report.action) {
      case AnomalyAction::None:
        deviationPersists_ = false;
        break;
      case AnomalyAction::Recalculate:
        recalculate();
        deviationPersists_ = true; // escalate if it does not clear
        break;
      case AnomalyAction::Reexplore:
        deviationPersists_ = false;
        if (onReexplore)
            onReexplore(report.services);
        break;
    }
    anomalyTick_ = cluster_.events().scheduleIn(opts_.anomalyInterval,
                                                [this] { anomalyTick(); });
}

stats::OnlineStats
UrsaManager::deployDecisionLatencyUs() const
{
    stats::OnlineStats all;
    for (const auto &c : controllers_)
        all.merge(c->decisionLatencyUs());
    return all;
}

} // namespace ursa::core
