/**
 * @file
 * The Sinan baseline (paper Sec. VII-B): a model-based, centralized
 * ML-driven resource manager. A neural network predicts per-class
 * end-to-end latency (as a ratio to the SLA) from the full allocation
 * vector and the current load; boosted trees classify whether an
 * allocation will lead to an SLA violation (capturing queue build-up
 * inertia through a short load history). The scheduler queries both
 * models with candidate allocations every interval and picks the
 * cheapest allocation predicted safe.
 *
 * Training data comes from an exploration process that randomizes
 * allocations while balancing violating and non-violating samples at
 * roughly 1:1, per the Sinan paper's recipe; the sample budget
 * (10,000 samples at one per minute) is what Table V charges Sinan
 * and Firm for.
 */

#ifndef URSA_BASELINES_SINAN_H
#define URSA_BASELINES_SINAN_H

#include "spec/app_spec.h"
#include "base/thread_annotations.h"
#include "ml/gbdt.h"
#include "ml/mlp.h"
#include "sim/cluster.h"
#include "sim/event_queue.h"
#include "sim/time.h"
#include "stats/online.h"
#include "stats/rng.h"

#include <memory>
#include <vector>

namespace ursa::baselines
{

/** One training sample. */
struct SinanSample
{
    std::vector<double> features;
    /** Per-class latency at the SLA percentile / SLA target. */
    std::vector<double> latencyRatios;
    bool violation = false;
};

/** Sinan configuration. */
struct SinanConfig
{
    sim::SimTime interval = sim::kMin; ///< decision/sampling interval
    std::vector<int> hidden = {64, 64};
    double learningRate = 2e-3;
    int epochs = 40;
    int batchSize = 32;
    ml::GbdtConfig violationModel = [] {
        ml::GbdtConfig g;
        g.objective = ml::Objective::Logistic;
        g.numTrees = 120;
        g.maxDepth = 4;
        return g;
    }();
    int maxReplicas = 64;
    /** A candidate is safe when every predicted ratio is below this. */
    double safeLatencyRatio = 0.85;
    double violationProbThreshold = 0.5;
    std::uint64_t seed = 1;
};

/** Feature extraction + the two learned models. */
class SinanModel
{
  public:
    SinanModel(const spec::AppSpec &app, SinanConfig cfg);

    /** Build the feature vector for an allocation + measured loads. */
    std::vector<double> features(const std::vector<int> &replicas,
                                 const std::vector<double> &classLoads)
        const;

    /** Train both models on collected samples. */
    void train(const std::vector<SinanSample> &samples);

    /** Per-class latency/SLA ratio prediction. */
    std::vector<double> predictRatios(const std::vector<double> &x) const;

    /** Probability the allocation leads to an SLA violation. */
    double violationProbability(const std::vector<double> &x) const;

    bool trained() const { return trained_; }
    int numServices() const { return numServices_; }
    int numClasses() const { return numClasses_; }

  private:
    SinanConfig cfg_;
    int numServices_;
    int numClasses_;
    double loadScale_;
    std::unique_ptr<ml::Mlp> latencyNet_;
    std::unique_ptr<ml::Gbdt> violationGbdt_;
    bool trained_ = false;
};

/**
 * Data collection: drives randomized allocations on a live, loaded
 * cluster, balancing violation labels, one sample per interval.
 *
 * URSA_SINGLE_THREADED: the parallel training-data path (bench
 * runSinanCollection) gives each ursa::exec shard its own
 * (Cluster, SinanCollector) pair seeded from the shard index, so the
 * collector shares no state across threads and carries no locks; the
 * merged sample set is a deterministic index-ordered concatenation.
 */
class URSA_SINGLE_THREADED SinanCollector
{
  public:
    SinanCollector(sim::Cluster &cluster, const spec::AppSpec &app,
                   SinanConfig cfg);

    /**
     * Collect `numSamples` samples starting now (the cluster must
     * already be driven by a load client). Advances simulation time by
     * numSamples * interval.
     */
    std::vector<SinanSample> collect(int numSamples);

  private:
    sim::Cluster &cluster_;
    const spec::AppSpec &app_;
    SinanConfig cfg_;
    stats::Rng rng_;
};

/** The online scheduler querying the trained model. */
class SinanScheduler
{
  public:
    SinanScheduler(sim::Cluster &cluster, const spec::AppSpec &app,
                   const SinanModel &model, SinanConfig cfg);

    /** Stops deciding; the cluster must still be alive. */
    ~SinanScheduler() { stop(); }

    /** Begin periodic decisions at absolute time `at` (restarts). */
    void start(sim::SimTime at);

    /** Stop deciding. */
    void stop() { cluster_.events().cancel(next_); }

    /** Wall-clock decision latency (Table VI, deployment path). */
    const stats::OnlineStats &decisionLatencyUs() const
    {
        return decisionLatency_;
    }

  private:
    void tick();
    std::vector<double> measuredClassLoads() const;

    sim::Cluster &cluster_;
    const spec::AppSpec &app_;
    const SinanModel &model_;
    SinanConfig cfg_;
    sim::EventId next_; ///< the next tick's event
    stats::OnlineStats decisionLatency_;
};

} // namespace ursa::baselines

#endif // URSA_BASELINES_SINAN_H
