/**
 * @file
 * Pass 3 of ursa-lint: a project-wide, scope-aware function-level call
 * graph assembled from the per-file FuncDef tables of pass 1, and the
 * interprocedural rules that run over it:
 *
 *   sim-nondeterminism  a function reachable from a simulation-context
 *                       root (src/sim, src/solver hot paths, workload
 *                       generator next()) transitively reaches a
 *                       nondeterminism source — wall clock, raw
 *                       randomness engine, thread identity, or
 *                       unordered-container iteration. Reported at the
 *                       root's call site with the full witness chain
 *                       root -> ... -> source.
 *   blocking-in-sim     the single-threaded sim/solver hot path
 *                       transitively acquires a base::Mutex, waits on
 *                       a CondVar, sleeps, or opens a file — blocking
 *                       constructs that stall the event loop.
 *   unbounded-recursion recursion cycles (Tarjan SCCs restricted to
 *                       the sim/solver layers) in which no member
 *                       function carries an URSA_CHECK-guarded depth
 *                       bound.
 *
 * Call-site resolution is deliberately conservative in the quiet
 * direction: a qualified call (`exec::parallelFor`) matches any
 * definition whose scope chain ends with the spelled qualifier; an
 * unqualified or member call resolves against same-class members, then
 * definitions visible through the caller's own file, its direct
 * includes, and their header/impl siblings; overload sets and virtual
 * overrides collapse to the union of the candidates. Unresolvable
 * calls produce no edge (silence, not noise).
 */

#ifndef URSA_TOOLS_LINT_CALLGRAPH_H
#define URSA_TOOLS_LINT_CALLGRAPH_H

#include "model.h"
#include "rules.h"

#include <string>
#include <vector>

namespace ursa::lint
{

/** One function node in the project call graph. */
struct CgNode
{
    int file; ///< index into ProjectModel::files
    int func; ///< index into that file's FileModel::funcs
    /// Resolved callees as node ids, parallel with the source line of
    /// the call site that produced each edge and with its strength.
    /// A *strong* edge comes from a direct or `this`-qualified call
    /// outside any lambda body: the only edges that can prove stack
    /// recursion. Weak edges (unknown receiver, deferred lambda work)
    /// still propagate taint.
    std::vector<int> callees;
    std::vector<int> calleeLine;
    std::vector<unsigned char> calleeStrong;
};

struct CallGraph
{
    /// Global function table in deterministic order: files are sorted
    /// by path (pass 1) and definitions appear in token order, so node
    /// ids — and everything derived from them — are byte-stable from
    /// run to run.
    std::vector<CgNode> nodes;

    const FuncDef &
    def(const ProjectModel &pm, int n) const
    {
        const CgNode &node = nodes[static_cast<std::size_t>(n)];
        return pm.files[static_cast<std::size_t>(node.file)]
            .funcs[static_cast<std::size_t>(node.func)];
    }

    const std::string &
    path(const ProjectModel &pm, int n) const
    {
        return pm.files[static_cast<std::size_t>(
                            nodes[static_cast<std::size_t>(n)].file)]
            .path;
    }
};

/** Link the per-file FuncDef tables into one resolved call graph. */
CallGraph buildCallGraph(const ProjectModel &pm);

/** Run the three interprocedural rules; violations carry witness
 * chains in Violation::related and are already suppression-filtered
 * and canonically ordered. */
std::vector<Violation> lintCallGraph(const ProjectModel &pm,
                                     const CallGraph &cg);

} // namespace ursa::lint

#endif // URSA_TOOLS_LINT_CALLGRAPH_H
