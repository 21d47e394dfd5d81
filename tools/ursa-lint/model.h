/**
 * @file
 * Whole-project model for ursa-lint's cross-file passes.
 *
 * Pass 1 of the analyzer lexes every file under the lint root and
 * distills each into a `FileModel`: the resolved project-internal
 * include edges and a per-function table of call sites and taint
 * sources. `ProjectModel` stitches the per-file models together
 * (include resolution by root-relative path) so pass 2's layer rules
 * (layer-violation, layer-cycle) and pass 3's call graph can reason
 * about the program as one graph instead of one file at a time.
 *
 * The function table is a token-level approximation, not a compiler
 * front end: it tracks namespace/class/enum/function brace scopes and
 * links calls conservatively, so scanner misses produce silence, not
 * noise.
 */

#ifndef URSA_TOOLS_LINT_MODEL_H
#define URSA_TOOLS_LINT_MODEL_H

#include "lexer.h"

#include <map>
#include <string>
#include <vector>

namespace ursa::lint
{

/** What a nondeterminism/blocking taint source does (pass 3). */
enum class TaintKind
{
    WallClock,     ///< system/steady/high_resolution clock, time(NULL)
    Randomness,    ///< std::random_device, mt19937 & friends, rand()
    ThreadId,      ///< this_thread / get_id() / thread_local state
    UnorderedIter, ///< range-for over an unordered container
    Blocking,      ///< lock acquisition, CondVar::wait, sleep, file/socket I/O
};

/** One taint source spotted inside a function body. */
struct SourceMark
{
    TaintKind kind;
    int line;
    std::string what; ///< the offending spelling ("steady_clock", ...)
};

/** One call site inside a function body. */
struct CallSite
{
    std::string qual; ///< explicit qualifier as spelled ("exec", "a::b"), "" if none
    std::string name; ///< callee name (last identifier)
    bool member = false;   ///< obj.name(...) / obj->name(...) — receiver unknown
    bool viaThis = false;  ///< this->name(...) — receiver is the enclosing class
    bool inLambda = false; ///< sited inside a lambda body (deferred work)
    int line = 0;
};

/**
 * One function definition (pass 1 unit of the call graph): where it
 * is, what it calls, which taint sources its body touches directly,
 * and whether it carries an URSA_CHECK guard (the recursion rule's
 * depth-bound heuristic).
 */
struct FuncDef
{
    std::string name;
    std::string qual;  ///< enclosing scope chain ("ursa::sim::Cluster")
    std::string klass; ///< innermost enclosing class ("" = free function)
    int line;          ///< line of the definition's opening brace
    std::vector<CallSite> calls;
    std::vector<SourceMark> sources;
    bool checkGuard = false; ///< body invokes an URSA_CHECK* macro
};

/** A quoted include resolved against the project file set. */
struct ResolvedInclude
{
    std::string header; ///< spelled path between the delimiters
    int line;           ///< 1-based
    int target;         ///< index into ProjectModel::files, -1 external
    bool angled;        ///< <...> includes are never project-internal
};

struct FileModel
{
    std::string path;  ///< root-relative, '/'-separated
    std::string layer; ///< first path component ("" for root files)
    LexedFile lx;
    std::vector<ResolvedInclude> includes;
    /// Function definitions in token order (pass 3's call-graph input).
    std::vector<FuncDef> funcs;
};

struct ProjectModel
{
    std::vector<FileModel> files;    ///< sorted by path
    std::map<std::string, int> byPath;

    int
    fileIndex(const std::string &path) const
    {
        const auto it = byPath.find(path);
        return it == byPath.end() ? -1 : it->second;
    }
};

/**
 * The declared layer DAG, bottom-up:
 *
 *   base -> check/stats -> exec -> sim/trace/workload -> spec
 *        -> solver/ml -> baselines/core -> apps
 *
 * Returns the layer's level (0 = base), or -1 for a layer the DAG
 * does not know (such files are exempt from layer rules). A file may
 * include files of its own or any *lower* level; same-level sibling
 * layers may include each other (the file-granularity layer-cycle
 * rule still forbids genuine cycles between them).
 */
int layerLevel(const std::string &layer);

/** Lex + index one file (pass 1 unit of work; pure). */
FileModel buildFileModel(const std::string &relPath,
                         const std::string &source);

/** Link per-file models: sorts by path and resolves includes. */
ProjectModel buildProjectModel(std::vector<FileModel> files);

} // namespace ursa::lint

#endif // URSA_TOOLS_LINT_MODEL_H
