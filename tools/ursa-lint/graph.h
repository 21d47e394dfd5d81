/**
 * @file
 * Small directed-graph utility for the whole-project lint pass.
 *
 * `layer-cycle` asks whether the file include graph has a strongly
 * connected component larger than one file. Nodes are interned
 * strings (file paths); Tarjan's algorithm yields the SCC
 * decomposition in one pass, and `cycleThrough` reconstructs a
 * concrete witness path for the diagnostic message.
 */

#ifndef URSA_TOOLS_LINT_GRAPH_H
#define URSA_TOOLS_LINT_GRAPH_H

#include <map>
#include <string>
#include <vector>

namespace ursa::lint
{

class Digraph
{
  public:
    /** Intern `name`, returning its stable node id. */
    int node(const std::string &name);

    /** Node id for `name`, or -1 if never interned. */
    int find(const std::string &name) const;

    /** Add edge from -> to (parallel edges are deduplicated). */
    void addEdge(int from, int to);

    const std::string &name(int id) const { return names_[id]; }
    int size() const { return static_cast<int>(names_.size()); }
    const std::vector<int> &successors(int id) const { return adj_[id]; }

    /**
     * Strongly connected components (Tarjan). Returns one component id
     * per node; nodes sharing an id are mutually reachable. A node is
     * *cyclic* iff its component has >= 2 members or it has a
     * self-edge.
     */
    std::vector<int> sccIds() const;

    /** Component sizes indexed by component id from sccIds(). */
    static std::vector<int> sccSizes(const std::vector<int> &ids);

    /** True iff `from`->`to` lies on a cycle (same non-trivial SCC). */
    bool edgeOnCycle(const std::vector<int> &ids,
                     const std::vector<int> &sizes, int from, int to) const;

    /**
     * A concrete cycle that starts by following `from` -> `to` and
     * returns to `from` inside their shared SCC, as node names
     * ["from", "to", ..., "from"]. Empty if the edge is not on a
     * cycle.
     */
    std::vector<std::string> cycleThrough(int from, int to) const;

  private:
    std::map<std::string, int> ids_;
    std::vector<std::string> names_;
    std::vector<std::vector<int>> adj_;
};

} // namespace ursa::lint

#endif // URSA_TOOLS_LINT_GRAPH_H
