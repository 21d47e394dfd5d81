/**
 * @file
 * Pass 2 of ursa-lint: cross-file rules over the ProjectModel.
 *
 *   layer-violation  an include that crosses the declared layer DAG
 *                    upward (see layerLevel() in model.h)
 *   layer-cycle      a strongly connected component in the project
 *                    include graph
 *
 * lintProject() then runs pass 3, the interprocedural call-graph rules
 * (callgraph.h).
 * Per-file rules (rules.h) see one file at a time; these see the
 * program. Suppressions (`// ursa-lint: allow(rule) reason`) are
 * honoured at the reported line of the reporting file.
 *
 * Lock ordering is not checked here: the tree's only locks are in
 * src/exec, and ThreadSanitizer reports an AB/BA inversion even when
 * the two orders never overlap in time.
 */

#ifndef URSA_TOOLS_LINT_PROJECT_RULES_H
#define URSA_TOOLS_LINT_PROJECT_RULES_H

#include "model.h"
#include "rules.h"

namespace ursa::lint
{

/** Run every cross-file rule; returns violations in canonical order. */
std::vector<Violation> lintProject(const ProjectModel &pm);

} // namespace ursa::lint

#endif // URSA_TOOLS_LINT_PROJECT_RULES_H
