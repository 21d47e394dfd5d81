/**
 * @file
 * The Firm baseline (paper Sec. VII-B): a model-free, ML-driven
 * resource manager assigning one reinforcement-learning agent to each
 * microservice. Each agent observes its service's local state (CPU
 * utilization, latency-vs-SLA pressure, load, current replicas) and
 * picks a replica delta; the reward is a weighted sum of resource
 * savings and SLA status, which is why Firm sometimes trades SLA
 * violations for savings (Sec. VII-E). Agents are trained online under
 * injected performance anomalies (CPU throttling), as in the original
 * system; our agents are compact DQNs over discretized deltas standing
 * in for Firm's DDPG (see ml/rl.h).
 */

#ifndef URSA_BASELINES_FIRM_H
#define URSA_BASELINES_FIRM_H

#include "spec/app_spec.h"
#include "ml/rl.h"
#include "sim/cluster.h"
#include "sim/event_queue.h"
#include "sim/time.h"
#include "sim/types.h"
#include "stats/online.h"
#include "stats/rng.h"

#include <memory>
#include <optional>
#include <vector>

namespace ursa::baselines
{

/** Firm configuration. */
struct FirmConfig
{
    sim::SimTime interval = 15 * sim::kSec; ///< decision interval
    /** Replica deltas the agents choose among. */
    std::vector<int> actions = {-2, -1, 0, 1, 2};
    double resourceWeight = 0.6; ///< reward weight of CPU savings
    double slaWeight = 1.0;      ///< reward weight of SLA status
    int maxReplicas = 32;
    ml::QAgentConfig agent = [] {
        ml::QAgentConfig a;
        a.stateDim = 4;
        a.numActions = 5;
        a.hidden = {32, 32};
        a.gamma = 0.8;
        a.epsilonDecaySteps = 2500;
        return a;
    }();
    /** Probability an anomaly (CPU throttle) is injected per training
     * step, and its strength. */
    double anomalyProbability = 0.15;
    double anomalyFactor = 0.35;
    std::uint64_t seed = 1;
};

/** One RL agent per service, trained and deployed on a cluster. */
class FirmController
{
  public:
    FirmController(sim::Cluster &cluster, const spec::AppSpec &app,
                   FirmConfig cfg);

    /** Stops deciding; the cluster must still be alive. */
    ~FirmController() { stop(); }

    /**
     * Online training: `steps` decision intervals with epsilon-greedy
     * exploration, random anomaly injection, and a training update per
     * step. Advances simulation time (the cluster must be under load).
     */
    void trainOnline(int steps);

    /** Begin greedy (deployed) decisions at time `at` (restarts). */
    void start(sim::SimTime at);

    /** Stop deciding. */
    void stop() { cluster_.events().cancel(next_); }

    /** Wall-clock decision latency across agents (Table VI). */
    const stats::OnlineStats &decisionLatencyUs() const
    {
        return decisionLatency_;
    }

    /** Wall-clock latency of one training update (Table VI update). */
    const stats::OnlineStats &trainStepLatencyUs() const
    {
        return trainLatency_;
    }

    /** Training steps performed so far. */
    int trainingSteps() const { return trainingSteps_; }

  private:
    /**
     * Per class, the end-to-end latency at the class's SLA percentile
     * over the last two intervals; nullopt when the class completed
     * nothing in that window. Taken once per control instant and
     * shared by localization and every agent's state.
     */
    using ClassLatencies = std::vector<std::optional<double>>;
    ClassLatencies classLatencies() const;
    std::vector<double> serviceState(sim::ServiceId s,
                                     const ClassLatencies &latency) const;
    double reward() const;
    int applyAction(sim::ServiceId s, int actionIdx);
    void deployTick();

    sim::Cluster &cluster_;
    const spec::AppSpec &app_;
    FirmConfig cfg_;
    std::vector<std::unique_ptr<ml::QAgent>> agents_;
    stats::Rng rng_;
    sim::EventId next_; ///< the next deployed tick's event
    int trainingSteps_ = 0;
    stats::OnlineStats decisionLatency_;
    stats::OnlineStats trainLatency_;
};

} // namespace ursa::baselines

#endif // URSA_BASELINES_FIRM_H
