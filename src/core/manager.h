/**
 * @file
 * UrsaManager — the deployed control plane (paper Fig. 5): wires the
 * optimization engine, per-service resource controllers, anomaly
 * detector and latency estimator onto a live cluster. The exploration
 * controller runs offline beforehand and hands its AppProfile here.
 */

#ifndef URSA_CORE_MANAGER_H
#define URSA_CORE_MANAGER_H

#include "spec/app_spec.h"
#include "core/anomaly.h"
#include "core/estimator.h"
#include "core/mip_model.h"
#include "core/profile.h"
#include "core/resource_controller.h"
#include "sim/cluster.h"
#include "sim/event_queue.h"
#include "sim/time.h"
#include "sim/types.h"
#include "stats/online.h"

#include <functional>
#include <memory>
#include <vector>

namespace ursa::core
{

/** Manager tuning. */
struct UrsaManagerOptions
{
    ResourceControllerOptions controller;
    AnomalyOptions anomaly;
    /** Controller tick period. */
    sim::SimTime controlInterval = 15 * sim::kSec;
    /** Anomaly-check period (0 disables the detector). */
    sim::SimTime anomalyInterval = 3 * sim::kMin;
    OptimizerOptions optimizer;
};

/** Ursa's online control plane for one application. */
class UrsaManager
{
  public:
    /**
     * @param cluster Live cluster running `app`.
     * @param app The application (for topology-derived visit counts).
     * @param profile Exploration output.
     */
    UrsaManager(sim::Cluster &cluster, const spec::AppSpec &app,
                AppProfile profile, UrsaManagerOptions opts = {});

    /** Stops ticking; the cluster must still be alive. */
    ~UrsaManager() { stop(); }

    /**
     * Initial deployment: solve the model for the given expected
     * per-class application request mix (total rps + weights), size
     * every service accordingly, and (re)start the periodic control
     * loop from the current simulation time.
     * @return false if the model is infeasible (nothing scheduled).
     */
    bool deploy(double expectedRps, const std::vector<double> &mix);

    /** Stop ticking (in-flight work completes). */
    void
    stop()
    {
        cluster_.events().cancel(controlTick_);
        cluster_.events().cancel(anomalyTick_);
    }

    /** Current optimization plan. */
    const ModelOutput &plan() const { return plan_; }

    /** Installed LPR thresholds, [service][class]. */
    const std::vector<std::vector<double>> &thresholds() const
    {
        return thresholds_;
    }

    /** The exploration profile currently in use. */
    const AppProfile &profile() const { return profile_; }

    /** The calibrated latency estimator (Figs. 9-10). */
    LatencyEstimator &estimator() { return *estimator_; }

    /**
     * Re-solve the model against recently measured loads (the anomaly
     * detector's Recalculate action; also callable directly).
     * @return true when the new plan is feasible and was installed.
     */
    bool recalculate();

    /**
     * Replace the exploration profile (after a partial re-exploration,
     * Sec. VII-G) and recalculate.
     */
    bool updateProfile(AppProfile profile);

    /**
     * Hook invoked when the anomaly detector escalates to
     * re-exploration. The callee is expected to run the exploration
     * controller and call updateProfile().
     */
    std::function<void(const std::vector<sim::ServiceId> &)> onReexplore;

    // --- control-plane latency accounting (Table VI) ----------------

    /** Wall-clock latency of deployment-path decisions (ticks). */
    stats::OnlineStats deployDecisionLatencyUs() const;

    /** Wall-clock latency of model re-solves (updates). */
    const stats::OnlineStats &updateLatencyUs() const
    {
        return updateLatency_;
    }

    /** Model recalculations performed. */
    int recalculations() const { return recalcs_; }

  private:
    void controlTick();
    void anomalyTick();
    void installPlan(const ModelOutput &plan);
    std::vector<std::vector<double>> measuredLoads(sim::SimTime horizon);

    sim::Cluster &cluster_;
    const spec::AppSpec &app_;
    AppProfile profile_;
    UrsaManagerOptions opts_;
    std::vector<std::vector<double>> visits_;    ///< load-bearing visits
    std::vector<std::vector<double>> slaVisits_; ///< latency-path visits
    std::vector<sim::SlaSpec> slas_;
    UrsaOptimizer optimizer_;
    ModelOutput plan_;
    std::vector<std::vector<double>> thresholds_;
    std::vector<std::unique_ptr<ResourceController>> controllers_;
    std::unique_ptr<LatencyEstimator> estimator_;
    AnomalyDetector detector_;
    stats::OnlineStats updateLatency_;
    sim::EventId controlTick_; ///< the next control tick's event
    sim::EventId anomalyTick_; ///< the next anomaly check's event
    bool deviationPersists_ = false;
    int recalcs_ = 0;
};

} // namespace ursa::core

#endif // URSA_CORE_MANAGER_H
