#include "project_rules.h"

#include "callgraph.h"
#include "graph.h"

#include <iterator>

namespace ursa::lint
{

namespace
{

struct ProjectCtx
{
    const ProjectModel &pm;
    std::vector<Violation> out;

    void
    report(const FileModel &fm, int line, const char *rule,
           const std::string &message)
    {
        if (!suppressedAt(fm.lx, line, rule))
            out.push_back({fm.path, line, rule, message, {}});
    }
};

std::string
joinPath(const std::vector<std::string> &names)
{
    std::string s;
    for (const std::string &n : names) {
        if (!s.empty())
            s += " -> ";
        s += n;
    }
    return s;
}

// --- layer-violation -----------------------------------------------------

void
ruleLayerViolation(ProjectCtx &ctx)
{
    for (const FileModel &fm : ctx.pm.files) {
        const int from = layerLevel(fm.layer);
        if (from < 0)
            continue;
        for (const ResolvedInclude &inc : fm.includes) {
            if (inc.target < 0)
                continue;
            const FileModel &tgt = ctx.pm.files[inc.target];
            const int to = layerLevel(tgt.layer);
            if (to < 0 || to <= from)
                continue;
            ctx.report(fm, inc.line, "layer-violation",
                       "layer '" + fm.layer + "' may not include '" +
                           tgt.path + "': '" + tgt.layer +
                           "' sits above it in the layer DAG (base -> "
                           "check/stats -> exec -> sim/trace/workload -> "
                           "spec -> solver/ml -> baselines/core -> apps)");
        }
    }
}

// --- layer-cycle ---------------------------------------------------------

void
ruleLayerCycle(ProjectCtx &ctx)
{
    Digraph g;
    for (const FileModel &fm : ctx.pm.files)
        g.node(fm.path);
    for (const FileModel &fm : ctx.pm.files)
        for (const ResolvedInclude &inc : fm.includes)
            if (inc.target >= 0)
                g.addEdge(g.find(fm.path),
                          g.find(ctx.pm.files[inc.target].path));
    const std::vector<int> ids = g.sccIds();
    const std::vector<int> sizes = Digraph::sccSizes(ids);
    for (const FileModel &fm : ctx.pm.files) {
        const int from = g.find(fm.path);
        for (const ResolvedInclude &inc : fm.includes) {
            if (inc.target < 0)
                continue;
            const int to = g.find(ctx.pm.files[inc.target].path);
            if (!g.edgeOnCycle(ids, sizes, from, to))
                continue;
            ctx.report(fm, inc.line, "layer-cycle",
                       "include cycle: " +
                           joinPath(g.cycleThrough(from, to)) +
                           " — break it with a forward declaration or an "
                           "interface split");
        }
    }
}

} // namespace

std::vector<Violation>
lintProject(const ProjectModel &pm)
{
    ProjectCtx ctx{pm, {}};
    ruleLayerViolation(ctx);
    ruleLayerCycle(ctx);
    // Pass 3: the interprocedural rules over the project call graph
    // (already suppression-filtered and ordered; see callgraph.cc).
    const CallGraph cg = buildCallGraph(pm);
    std::vector<Violation> inter = lintCallGraph(pm, cg);
    ctx.out.insert(ctx.out.end(),
                   std::make_move_iterator(inter.begin()),
                   std::make_move_iterator(inter.end()));
    sortViolations(ctx.out);
    return std::move(ctx.out);
}

} // namespace ursa::lint
