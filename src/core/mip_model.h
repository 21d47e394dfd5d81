/**
 * @file
 * The Ursa resource-optimization model (paper Sec. IV, "MIP 1"):
 * choose one explored LPR level per service (one-hot delta_i) and one
 * grid percentile per service-visit and class (one-hot gamma_i^j) such
 * that for every request class the Theorem-1 latency upper bound meets
 * the SLA, minimizing total CPU.
 *
 * The paper solves this model with Gurobi. UrsaOptimizer::solve is the
 * exact solver used here: a branch-and-bound over per-service levels
 * with an inner percentile-split DP per class, which scales to real
 * topologies. The test suite cross-checks it on small instances
 * against a literal 0/1 ILP encoding of the same model, solved by a
 * generic LP-relaxation branch-and-bound.
 */

#ifndef URSA_CORE_MIP_MODEL_H
#define URSA_CORE_MIP_MODEL_H

#include "core/profile.h"
#include "sim/types.h"

#include <cstdint>
#include <vector>

namespace ursa::core
{

/** Inputs to one optimization solve. */
struct ModelInput
{
    const AppProfile *profile = nullptr;
    /** SLA per class (target percentile + latency target). */
    std::vector<sim::SlaSpec> slas;
    /** Current service-local load, loads[service][class] in rps. */
    std::vector<std::vector<double>> loads;
    /**
     * SLA-relevant visit counts (computeSlaVisitCounts):
     * slaVisits[service][class] stages per request. Defines the
     * latency-constraint paths; loads are supplied separately above.
     */
    std::vector<std::vector<double>> slaVisits;
};

/** Result of one optimization solve. */
struct ModelOutput
{
    bool feasible = false;
    /** Chosen LPR level per service (-1 where nothing to choose). */
    std::vector<int> level;
    /** Replica count per service implied by loads at chosen levels. */
    std::vector<int> replicas;
    /** Total allocated CPU cores at those replica counts. */
    double totalCpuCores = 0.0;
    /** Theorem-1 latency upper bound per class at the optimum (us). */
    std::vector<double> upperBoundUs;
    /** Branch-and-bound nodes explored (diagnostics). */
    std::size_t nodesExplored = 0;
    bool hitNodeLimit = false;
};

/** Solver knobs. */
struct OptimizerOptions
{
    std::size_t maxNodes = 2000000;
    /**
     * Ablation: disable Theorem 1's percentile-split freedom and give
     * every stage of a class the same even share of the residual
     * budget (the naive alternative the paper's formulation improves
     * on). Used by bench_ablation_split.
     */
    bool evenSplit = false;
};

/** The exact specialized solver. */
class UrsaOptimizer
{
  public:
    explicit UrsaOptimizer(OptimizerOptions opts = {}) : opts_(opts) {}

    /** Solve the model; input vectors must be mutually consistent. */
    ModelOutput solve(const ModelInput &input) const;

    /**
     * Replica count service `s` needs at level `lvl` to carry
     * `loads[s]` (the paper's Equation 3 divided by u_i).
     */
    static int replicasNeeded(const ServiceProfile &svc, int lvl,
                              const std::vector<double> &loads);

  private:
    OptimizerOptions opts_;
};

} // namespace ursa::core

#endif // URSA_CORE_MIP_MODEL_H
