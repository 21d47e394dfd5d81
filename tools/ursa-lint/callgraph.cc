#include "callgraph.h"

#include <algorithm>
#include <deque>
#include <map>
#include <set>

namespace ursa::lint
{

namespace
{

std::string
qualName(const FuncDef &fd)
{
    return fd.qual.empty() ? fd.name : fd.qual + "::" + fd.name;
}

/** True iff `qual` equals `spelled` or ends with `::spelled`. */
bool
qualMatches(const std::string &qual, const std::string &spelled)
{
    if (qual == spelled)
        return true;
    if (qual.size() <= spelled.size() + 2)
        return false;
    return qual.compare(qual.size() - spelled.size(), spelled.size(),
                        spelled) == 0 &&
           qual.compare(qual.size() - spelled.size() - 2, 2, "::") == 0;
}

/** `sim/cluster.cc` <-> `sim/cluster.h`: the header/impl sibling, or "". */
std::string
siblingPath(const std::string &path)
{
    const std::size_t dot = path.rfind('.');
    if (dot == std::string::npos)
        return "";
    const std::string ext = path.substr(dot);
    if (ext == ".h" || ext == ".hpp")
        return path.substr(0, dot) + ".cc";
    if (ext == ".cc" || ext == ".cpp")
        return path.substr(0, dot) + ".h";
    return "";
}

} // namespace

CallGraph
buildCallGraph(const ProjectModel &pm)
{
    CallGraph cg;
    // Node table + name indexes. File order is sorted (pass 1), func
    // order is token order: node ids are deterministic.
    std::map<std::string, std::vector<int>> byName;
    std::map<std::pair<std::string, std::string>, std::vector<int>>
        byClassAndName;
    for (int f = 0; f < static_cast<int>(pm.files.size()); ++f) {
        const FileModel &fm = pm.files[static_cast<std::size_t>(f)];
        for (int i = 0; i < static_cast<int>(fm.funcs.size()); ++i) {
            const int id = static_cast<int>(cg.nodes.size());
            cg.nodes.push_back({f, i, {}, {}, {}});
            const FuncDef &fd = fm.funcs[static_cast<std::size_t>(i)];
            byName[fd.name].push_back(id);
            if (!fd.klass.empty())
                byClassAndName[{fd.klass, fd.name}].push_back(id);
        }
    }

    // Visibility: a caller sees definitions in its own file, its
    // header/impl sibling, its direct project includes, and *their*
    // siblings (a class declared in foo.h is implemented in foo.cc).
    std::vector<std::set<int>> visible(pm.files.size());
    for (int f = 0; f < static_cast<int>(pm.files.size()); ++f) {
        const FileModel &fm = pm.files[static_cast<std::size_t>(f)];
        std::set<int> &vis = visible[static_cast<std::size_t>(f)];
        auto add = [&](int t) {
            if (t < 0)
                return;
            vis.insert(t);
            const int sib = pm.fileIndex(
                siblingPath(pm.files[static_cast<std::size_t>(t)].path));
            if (sib >= 0)
                vis.insert(sib);
        };
        add(f);
        for (const ResolvedInclude &inc : fm.includes)
            add(inc.target);
    }

    auto addEdge = [&](CgNode &n, int callee, int line, bool strong) {
        for (std::size_t k = 0; k < n.callees.size(); ++k)
            if (n.callees[k] == callee) {
                // Keep the first site per callee; any strong site
                // upgrades the edge.
                n.calleeStrong[k] =
                    static_cast<unsigned char>(n.calleeStrong[k] || strong);
                return;
            }
        n.callees.push_back(callee);
        n.calleeLine.push_back(line);
        n.calleeStrong.push_back(strong ? 1 : 0);
    };

    for (int id = 0; id < static_cast<int>(cg.nodes.size()); ++id) {
        CgNode &n = cg.nodes[static_cast<std::size_t>(id)];
        const FuncDef &fd = cg.def(pm, id);
        for (const CallSite &cs : fd.calls) {
            const auto it = byName.find(cs.name);
            if (it == byName.end())
                continue;
            const std::vector<int> &named = it->second;
            std::vector<int> cands;
            if (!cs.qual.empty()) {
                // Tier 1: spelled qualifier suffix-matches the
                // definition's scope chain.
                for (int c : named)
                    if (qualMatches(cg.def(pm, c).qual, cs.qual))
                        cands.push_back(c);
            } else {
                // Tier 2: implicit/explicit `this` — same-class
                // members anywhere in the project.
                if (!fd.klass.empty() && (cs.viaThis || !cs.member)) {
                    const auto jt =
                        byClassAndName.find({fd.klass, cs.name});
                    if (jt != byClassAndName.end())
                        cands = jt->second;
                }
                // Tier 3: definitions visible through the caller's
                // include set. Overload sets and virtual overrides
                // collapse to the union of candidates.
                if (cands.empty()) {
                    const std::set<int> &vis =
                        visible[static_cast<std::size_t>(n.file)];
                    for (int c : named) {
                        if (!vis.count(cg.nodes
                                           [static_cast<std::size_t>(c)]
                                               .file))
                            continue;
                        if (cs.member && cg.def(pm, c).klass.empty())
                            continue; // `x.f(...)` needs a member f
                        cands.push_back(c);
                    }
                }
                // Tier 4: a project-unique free function.
                if (cands.empty() && !cs.member && named.size() == 1)
                    cands = named;
            }
            const bool strong = !cs.member && !cs.inLambda;
            for (int c : cands)
                addEdge(n, c, cs.line, strong);
        }
    }
    return cg;
}

namespace
{

/// Reverse-BFS taint state: for each tainted node, the next hop toward
/// a source and (for sources) which mark seeded it.
struct Taint
{
    std::vector<char> tainted;
    std::vector<int> nextHop; ///< -1 at a source node
};

bool
kindIn(TaintKind k, const std::vector<TaintKind> &kinds)
{
    return std::find(kinds.begin(), kinds.end(), k) != kinds.end();
}

const SourceMark *
firstMark(const FuncDef &fd, const std::vector<TaintKind> &kinds)
{
    for (const SourceMark &m : fd.sources)
        if (kindIn(m.kind, kinds))
            return &m;
    return nullptr;
}

/** Files whose taint sources are sanctioned and never seed the BFS:
 * the deterministic stats::Rng wrapper owns the engine the rest of
 * the tree must use, and the check layer's thread-local capture state
 * exists only to build crash diagnostics. */
bool
exemptSource(const FileModel &fm)
{
    return fm.path.rfind("stats/rng.", 0) == 0 || fm.layer == "check";
}

Taint
taintReach(const ProjectModel &pm, const CallGraph &cg,
           const std::vector<TaintKind> &kinds)
{
    const std::size_t n = cg.nodes.size();
    std::vector<std::vector<int>> rev(n);
    for (std::size_t i = 0; i < n; ++i)
        for (int c : cg.nodes[i].callees)
            rev[static_cast<std::size_t>(c)].push_back(
                static_cast<int>(i));
    Taint t;
    t.tainted.assign(n, 0);
    t.nextHop.assign(n, -1);
    std::deque<int> queue;
    for (std::size_t i = 0; i < n; ++i) {
        if (exemptSource(
                pm.files[static_cast<std::size_t>(cg.nodes[i].file)]))
            continue;
        if (firstMark(cg.def(pm, static_cast<int>(i)), kinds)) {
            t.tainted[i] = 1;
            queue.push_back(static_cast<int>(i));
        }
    }
    while (!queue.empty()) {
        const int c = queue.front();
        queue.pop_front();
        for (int p : rev[static_cast<std::size_t>(c)]) {
            if (t.tainted[static_cast<std::size_t>(p)])
                continue;
            t.tainted[static_cast<std::size_t>(p)] = 1;
            t.nextHop[static_cast<std::size_t>(p)] = c;
            queue.push_back(p);
        }
    }
    return t;
}

/** Line of the (first-recorded) call edge from `from` to `to`. */
int
edgeLine(const CgNode &from, int to)
{
    for (std::size_t k = 0; k < from.callees.size(); ++k)
        if (from.callees[k] == to)
            return from.calleeLine[k];
    return 0;
}

/** Witness chain from the call site in `root` into `first` and on to
 * the taint source, as RelatedSite steps. */
std::vector<RelatedSite>
witness(const ProjectModel &pm, const CallGraph &cg, const Taint &t,
        int root, int first, const std::vector<TaintKind> &kinds)
{
    std::vector<RelatedSite> chain;
    int at = root, next = first;
    while (next >= 0) {
        chain.push_back(
            {cg.path(pm, at),
             edgeLine(cg.nodes[static_cast<std::size_t>(at)], next),
             "calls '" + qualName(cg.def(pm, next)) + "'"});
        at = next;
        next = t.nextHop[static_cast<std::size_t>(at)];
    }
    const SourceMark *m = firstMark(cg.def(pm, at), kinds);
    if (m)
        chain.push_back({cg.path(pm, at), m->line, "source: " + m->what});
    return chain;
}

std::string
describeSource(const ProjectModel &pm, const CallGraph &cg,
               const Taint &t, int first,
               const std::vector<TaintKind> &kinds)
{
    int at = first;
    while (t.nextHop[static_cast<std::size_t>(at)] >= 0)
        at = t.nextHop[static_cast<std::size_t>(at)];
    const SourceMark *m = firstMark(cg.def(pm, at), kinds);
    if (!m)
        return "a flagged source";
    return "'" + m->what + "' in '" + qualName(cg.def(pm, at)) + "' (" +
           cg.path(pm, at) + ":" + std::to_string(m->line) + ")";
}

} // namespace

std::vector<Violation>
lintCallGraph(const ProjectModel &pm, const CallGraph &cg)
{
    std::vector<Violation> out;
    std::set<std::pair<std::string, std::pair<int, std::string>>> seen;
    auto report = [&](const std::string &path, int line,
                      const std::string &rule, std::string message,
                      std::vector<RelatedSite> related) {
        if (!seen.insert({path, {line, rule}}).second)
            return;
        const int fi = pm.fileIndex(path);
        if (fi >= 0 &&
            suppressedAt(pm.files[static_cast<std::size_t>(fi)].lx, line,
                         rule))
            return;
        out.push_back(
            {path, line, rule, std::move(message), std::move(related)});
    };

    auto layerOf = [&](int n) -> const std::string & {
        return pm.files[static_cast<std::size_t>(
                            cg.nodes[static_cast<std::size_t>(n)].file)]
            .layer;
    };
    auto simLayer = [&](int n) {
        const std::string &l = layerOf(n);
        return l == "sim" || l == "solver";
    };
    auto nondetRoot = [&](int n) {
        return simLayer(n) || (layerOf(n) == "workload" &&
                               cg.def(pm, n).name == "next");
    };

    const std::vector<TaintKind> nondetKinds = {
        TaintKind::WallClock, TaintKind::Randomness, TaintKind::ThreadId,
        TaintKind::UnorderedIter};
    const std::vector<TaintKind> blockKinds = {TaintKind::Blocking};
    const Taint nondet = taintReach(pm, cg, nondetKinds);
    const Taint block = taintReach(pm, cg, blockKinds);

    for (int r = 0; r < static_cast<int>(cg.nodes.size()); ++r) {
        const CgNode &node = cg.nodes[static_cast<std::size_t>(r)];
        const FuncDef &fd = cg.def(pm, r);

        // sim-nondeterminism: report where a sim-context root calls
        // into a tainted function *outside* the sim context (sources
        // directly inside sim files are the per-file rules' ground).
        if (nondetRoot(r)) {
            for (std::size_t k = 0; k < node.callees.size(); ++k) {
                const int c = node.callees[k];
                if (!nondet.tainted[static_cast<std::size_t>(c)] ||
                    nondetRoot(c))
                    continue;
                report(cg.path(pm, r), node.calleeLine[k],
                       "sim-nondeterminism",
                       "sim-context function '" + qualName(fd) +
                           "' calls '" + qualName(cg.def(pm, c)) +
                           "', which reaches nondeterminism source " +
                           describeSource(pm, cg, nondet, c,
                                          nondetKinds),
                       witness(pm, cg, nondet, r, c, nondetKinds));
            }
        }

        if (!simLayer(r))
            continue;

        // blocking-in-sim: direct blocking constructs in the hot path…
        if (!exemptSource(pm.files[static_cast<std::size_t>(node.file)]))
            for (const SourceMark &m : fd.sources)
                if (m.kind == TaintKind::Blocking)
                    report(cg.path(pm, r), m.line, "blocking-in-sim",
                           "blocking construct '" + m.what +
                               "' in sim hot-path function '" +
                               qualName(fd) + "'",
                           {});
        // …and calls that transitively block.
        for (std::size_t k = 0; k < node.callees.size(); ++k) {
            const int c = node.callees[k];
            if (!block.tainted[static_cast<std::size_t>(c)] || simLayer(c))
                continue;
            report(cg.path(pm, r), node.calleeLine[k], "blocking-in-sim",
                   "sim hot-path function '" + qualName(fd) + "' calls '" +
                       qualName(cg.def(pm, c)) +
                       "', which reaches blocking construct " +
                       describeSource(pm, cg, block, c, blockKinds),
                   witness(pm, cg, block, r, c, blockKinds));
        }
    }

    // unbounded-recursion: Tarjan SCCs over the sim/solver subgraph;
    // a cycle none of whose members carries an URSA_CHECK guard has no
    // enforced depth bound. Only *strong* edges participate: a member
    // call with an unknown receiver or a call sited inside a lambda
    // body (deferred through the event loop, not the stack) cannot
    // prove stack recursion. Iterative Tarjan, nodes in id order, so
    // component ids and reporting order are deterministic.
    {
        const int n = static_cast<int>(cg.nodes.size());
        std::vector<int> index(static_cast<std::size_t>(n), -1),
            low(static_cast<std::size_t>(n), 0);
        std::vector<char> onStack(static_cast<std::size_t>(n), 0);
        std::vector<int> stack, sccOf(static_cast<std::size_t>(n), -1);
        int nextIndex = 0, nextScc = 0;
        std::vector<std::vector<int>> sccs;
        struct Frame
        {
            int v;
            std::size_t child;
        };
        for (int s = 0; s < n; ++s) {
            if (index[static_cast<std::size_t>(s)] != -1 || !simLayer(s))
                continue;
            std::vector<Frame> dfs{{s, 0}};
            index[static_cast<std::size_t>(s)] =
                low[static_cast<std::size_t>(s)] = nextIndex++;
            stack.push_back(s);
            onStack[static_cast<std::size_t>(s)] = 1;
            while (!dfs.empty()) {
                Frame &f = dfs.back();
                const CgNode &node =
                    cg.nodes[static_cast<std::size_t>(f.v)];
                if (f.child < node.callees.size()) {
                    const std::size_t k = f.child++;
                    const int w = node.callees[k];
                    if (!node.calleeStrong[k] || !simLayer(w))
                        continue;
                    if (index[static_cast<std::size_t>(w)] == -1) {
                        index[static_cast<std::size_t>(w)] =
                            low[static_cast<std::size_t>(w)] =
                                nextIndex++;
                        stack.push_back(w);
                        onStack[static_cast<std::size_t>(w)] = 1;
                        dfs.push_back({w, 0});
                    } else if (onStack[static_cast<std::size_t>(w)]) {
                        low[static_cast<std::size_t>(f.v)] = std::min(
                            low[static_cast<std::size_t>(f.v)],
                            index[static_cast<std::size_t>(w)]);
                    }
                    continue;
                }
                if (low[static_cast<std::size_t>(f.v)] ==
                    index[static_cast<std::size_t>(f.v)]) {
                    std::vector<int> comp;
                    for (;;) {
                        const int w = stack.back();
                        stack.pop_back();
                        onStack[static_cast<std::size_t>(w)] = 0;
                        sccOf[static_cast<std::size_t>(w)] = nextScc;
                        comp.push_back(w);
                        if (w == f.v)
                            break;
                    }
                    std::sort(comp.begin(), comp.end());
                    sccs.push_back(std::move(comp));
                    ++nextScc;
                }
                const int v = f.v;
                dfs.pop_back();
                if (!dfs.empty())
                    low[static_cast<std::size_t>(dfs.back().v)] = std::min(
                        low[static_cast<std::size_t>(dfs.back().v)],
                        low[static_cast<std::size_t>(v)]);
            }
        }
        for (const std::vector<int> &comp : sccs) {
            bool cyclic = comp.size() > 1;
            if (!cyclic) {
                const CgNode &only =
                    cg.nodes[static_cast<std::size_t>(comp[0])];
                for (std::size_t k = 0; k < only.callees.size(); ++k)
                    cyclic = cyclic || (only.callees[k] == comp[0] &&
                                        only.calleeStrong[k]);
            }
            if (!cyclic)
                continue;
            bool guarded = false;
            for (int m : comp)
                guarded = guarded || cg.def(pm, m).checkGuard;
            if (guarded)
                continue;
            // Report at the member with the smallest (path, line).
            int head = comp[0];
            for (int m : comp)
                if (std::make_pair(cg.path(pm, m), cg.def(pm, m).line) <
                    std::make_pair(cg.path(pm, head),
                                   cg.def(pm, head).line))
                    head = m;
            std::string cycle;
            std::vector<RelatedSite> related;
            for (int m : comp) {
                if (!cycle.empty())
                    cycle += " -> ";
                cycle += "'" + qualName(cg.def(pm, m)) + "'";
                related.push_back({cg.path(pm, m), cg.def(pm, m).line,
                                   "cycle member '" +
                                       qualName(cg.def(pm, m)) + "'"});
            }
            report(cg.path(pm, head), cg.def(pm, head).line,
                   "unbounded-recursion",
                   "recursion cycle in the sim/solver layers with no "
                   "URSA_CHECK-guarded depth bound: " +
                       cycle,
                   std::move(related));
        }
    }

    sortViolations(out);
    return out;
}

} // namespace ursa::lint
