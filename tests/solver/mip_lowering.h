/**
 * @file
 * The Ursa model (paper Sec. IV, "MIP 1") written as a literal 0/1 ILP
 * with linearized one-hot products and solved by the generic
 * branch-and-bound in mip.h. A test oracle for core::UrsaOptimizer:
 * exponentially slower, so meant for small cross-check instances.
 */

#ifndef URSA_TESTS_SOLVER_MIP_LOWERING_H
#define URSA_TESTS_SOLVER_MIP_LOWERING_H

#include "core/mip_model.h"

#include <cstddef>

namespace ursa::solver
{

/**
 * Solve `input` through the generic lowering. A class visits a service
 * round(slaVisits) times; services without levels are unmanaged and
 * contribute no stage, as in the specialized solver.
 */
core::ModelOutput solveViaGenericMip(const core::ModelInput &input,
                                     std::size_t maxNodes = 500000);

} // namespace ursa::solver

#endif // URSA_TESTS_SOLVER_MIP_LOWERING_H
