/**
 * @file
 * A dense two-phase primal simplex linear-programming solver.
 *
 * Bottom half of the test suite's generic MIP oracle: the
 * branch-and-bound solver (mip.h) calls it for relaxations. It is
 * written for clarity and robustness on small dense instances, not for
 * industrial sparse problems.
 */

#ifndef URSA_SOLVER_LP_H
#define URSA_SOLVER_LP_H

#include <string>
#include <vector>

namespace ursa::solver
{

/** Relational operator of a linear constraint. */
enum class Rel { LessEq, GreaterEq, Equal };

/** One linear constraint: a . x (rel) b. */
struct Constraint
{
    std::vector<double> a;
    Rel rel = Rel::LessEq;
    double b = 0.0;
};

/**
 * A linear program in the form
 *   minimize c . x
 *   subject to constraints, and lower[i] <= x[i] <= upper[i].
 *
 * Variable bounds default to [0, +inf).
 */
struct LpProblem
{
    /** Create a problem with `n` variables, all costs zero. */
    explicit LpProblem(std::size_t n);

    /** Number of variables. */
    std::size_t numVars() const { return c.size(); }

    /** Set the objective coefficient of variable `i`. */
    void setCost(std::size_t i, double cost) { c[i] = cost; }

    /** Set bounds of variable `i` (upper may be +inf). */
    void setBounds(std::size_t i, double lo, double hi);

    /** Add a constraint; `a` must have numVars() entries. */
    void addConstraint(std::vector<double> a, Rel rel, double b);

    /** Sparse convenience: terms are (varIndex, coefficient). */
    void addSparseConstraint(
        const std::vector<std::pair<std::size_t, double>> &terms, Rel rel,
        double b);

    std::vector<double> c;
    std::vector<double> lower;
    std::vector<double> upper;
    std::vector<Constraint> rows;
};

/** Solver outcome classification. */
enum class LpStatus { Optimal, Infeasible, Unbounded };

/** Solution of an LP. */
struct LpResult
{
    LpStatus status = LpStatus::Infeasible;
    double objective = 0.0;
    std::vector<double> x;
};

/** Human-readable status name. */
std::string toString(LpStatus status);

/**
 * Solve with two-phase primal simplex (Dantzig pricing with a Bland's
 * rule fallback to guarantee termination under degeneracy).
 */
LpResult solveLp(const LpProblem &p);

} // namespace ursa::solver

#endif // URSA_SOLVER_LP_H
