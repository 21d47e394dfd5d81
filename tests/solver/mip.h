/**
 * @file
 * Mixed-integer programming by LP-relaxation branch-and-bound.
 *
 * Top half of the test suite's generic MIP oracle (the paper solves
 * its model with Gurobi). Exact on the instance sizes of the Ursa
 * model's generic lowering (mip_lowering.h), which cross-checks the
 * specialized solver in core/mip_model.*.
 */

#ifndef URSA_SOLVER_MIP_H
#define URSA_SOLVER_MIP_H

#include "solver/lp.h"

#include <cstdint>
#include <vector>

namespace ursa::solver
{

/** A MIP: an LP plus integrality flags per variable. */
struct MipProblem
{
    /** Create with `n` variables, none integral. */
    explicit MipProblem(std::size_t n) : lp(n), integral(n, false) {}

    /** Mark variable `i` as integer-constrained. */
    void setIntegral(std::size_t i) { integral[i] = true; }

    /** Mark variable `i` as binary (integral with bounds [0,1]). */
    void
    setBinary(std::size_t i)
    {
        integral[i] = true;
        lp.setBounds(i, 0.0, 1.0);
    }

    LpProblem lp;
    std::vector<bool> integral;
};

/** Outcome of a MIP solve. */
struct MipResult
{
    LpStatus status = LpStatus::Infeasible;
    double objective = 0.0;
    std::vector<double> x;
    std::size_t nodesExplored = 0;
    bool hitNodeLimit = false;
};

/** Branch-and-bound tuning knobs. */
struct MipOptions
{
    std::size_t maxNodes = 200000; ///< node budget before giving up
    double integralityTol = 1e-6;  ///< |x - round(x)| below this is integral
    double absGap = 1e-9;          ///< prune when bound >= incumbent - gap
};

/** Solve by depth-first branch-and-bound with LP bounds. */
MipResult solveMip(const MipProblem &p, const MipOptions &opts = {});

} // namespace ursa::solver

#endif // URSA_SOLVER_MIP_H
