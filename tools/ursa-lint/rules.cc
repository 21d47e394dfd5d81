#include "rules.h"

#include <algorithm>
#include <set>

namespace ursa::lint
{

namespace
{

// --- layer scopes --------------------------------------------------------

/// Deterministic layers where wall clocks are banned. Baselines and
/// the exec thread pool legitimately measure wall time (controller
/// inference cost is itself an evaluated quantity, paper Table 6).
const std::set<std::string> kWallClockScopes = {"sim", "core", "stats",
                                                "workload", "trace"};

/// Layers whose containers must iterate deterministically: the sim
/// kernel schedules events off them, and trace snapshots/exports are
/// part of the bit-identical determinism contract.
const std::set<std::string> kUnorderedScopes = {"sim", "trace"};

/// Layers under the thread-safety annotation contract: raw std::mutex
/// is invisible to clang's analysis (use base::Mutex), every Mutex
/// member must be referenced by an annotation, and every atomic needs
/// a sharing-rationale comment.
const std::set<std::string> kAnnotatedScopes = {"exec", "check", "trace",
                                                "sim", "core", "baselines"};

const std::set<std::string> kClockIdents = {"system_clock", "steady_clock",
                                            "high_resolution_clock"};

const std::set<std::string> kRandIdents = {
    "random_device",        "mt19937",
    "mt19937_64",           "uniform_int_distribution",
    "uniform_real_distribution", "normal_distribution",
    "bernoulli_distribution",    "poisson_distribution",
    "exponential_distribution",  "discrete_distribution",
    "default_random_engine",     "minstd_rand",
    "minstd_rand0",              "knuth_b",
    "ranlux24",                  "ranlux48",
    "ranlux24_base",             "ranlux48_base"};

const std::set<std::string> kUnorderedIdents = {
    "unordered_map", "unordered_set", "unordered_multimap",
    "unordered_multiset"};

/// Heap primitives banned in src/sim: ad-hoc priority ordering competes
/// with EventQueue's strict (time, seq) total order.
const std::set<std::string> kHeapIdents = {"priority_queue", "make_heap",
                                           "push_heap", "pop_heap",
                                           "sort_heap"};

const std::set<std::string> kSchedulerIdents = {
    "schedule", "scheduleIn", "submit", "invoke", "publish", "publishTo"};

const std::set<std::string> kAnnotationIdents = {
    "URSA_GUARDED_BY",  "URSA_PT_GUARDED_BY",     "URSA_REQUIRES",
    "URSA_EXCLUDES",    "URSA_ACQUIRE",           "URSA_RELEASE",
    "URSA_TRY_ACQUIRE", "URSA_ASSERT_CAPABILITY", "URSA_RETURN_CAPABILITY"};

const std::vector<RuleInfo> kRules = {
    {"wall-clock",
     "wall-clock time in a deterministic layer; use sim time, or annotate "
     "overhead measurement with // ursa-lint: allow(wall-clock)"},
    {"raw-rand",
     "unseeded/library randomness; draw from the owning simulation's "
     "ursa::stats::Rng"},
    {"unordered-sim",
     "unordered container in a deterministic kernel layer; hash iteration "
     "order is nondeterministic — use std::map/std::vector"},
    {"unordered-sched",
     "iteration over an unordered container in a file that schedules "
     "simulation events; order the container or the iteration"},
    {"bare-assert",
     "bare assert() compiles out of Release; use URSA_CHECK(cond, "
     "component, msg) from check/check.h"},
    {"raw-thread",
     "raw std::thread/.detach() outside src/exec; route parallelism "
     "through ursa::exec so shutdown, joining and URSA_THREADS stay "
     "centralized"},
    {"banned-include",
     "banned header (bits/stdc++.h anywhere; <iostream> in headers — use "
     "<ostream>/<iosfwd>)"},
    {"missing-annotation",
     "concurrent state without a thread-safety contract: use base::Mutex "
     "over std::mutex, reference every Mutex member in a URSA_* "
     "annotation, and give each std::atomic an `atomic:` rationale "
     "comment"},
    {"banned-heap",
     "std::priority_queue / heap algorithms in src/sim; all event "
     "ordering must go through EventQueue's strict (time, seq) total "
     "order"},
    {"suppression-reason",
     "// ursa-lint: allow(rule) must carry a non-empty reason after the "
     "paren group (and name only known rules); a reasonless allow "
     "suppresses nothing"},
    {"layer-violation",
     "include crosses the layer DAG upward (base -> check/stats -> exec "
     "-> sim/trace/workload -> spec -> solver/ml -> baselines/core -> "
     "apps); a layer may depend only on its own or lower levels"},
    {"layer-cycle",
     "include cycle between project files (strongly connected component "
     "in the include graph); break the cycle with a forward declaration "
     "or an interface split"},
    {"sim-nondeterminism",
     "a simulation-context function (src/sim, src/solver, workload "
     "generator next()) transitively reaches a nondeterminism source — "
     "wall clock, raw randomness engine, thread identity, or "
     "unordered-container iteration; the finding carries the witness "
     "call chain root -> ... -> source"},
    {"blocking-in-sim",
     "the single-threaded sim/solver hot path transitively acquires a "
     "base::Mutex, waits on a CondVar, sleeps, or performs file I/O; "
     "blocking stalls the event loop — hoist the work out of the "
     "deterministic path"},
    {"unbounded-recursion",
     "recursion cycle within the sim/solver layers in which no member "
     "carries an URSA_CHECK-guarded depth bound; deep topologies or "
     "adversarial inputs can overflow the stack"},
    {"atomic-refcount",
     "std::shared_ptr/weak_ptr ownership of Request or Invocation in "
     "src/sim; the kernel owns them through pool-backed non-atomic "
     "RefPtr/makeRef (sim/pool.h) — shared_ptr control blocks and "
     "atomic refcount traffic are a measured hot-path regression"},
};

// --- context -------------------------------------------------------------

/**
 * Parsed form of one `// ursa-lint: allow(a, b) reason` comment: the
 * listed rule ids and whether a non-empty reason follows the parens.
 */
struct AllowComment
{
    std::vector<std::string> rules;
    bool hasReason = false;
};

/** Parse the allow() group in comment text `c`, if any. */
bool
parseAllow(const std::string &c, AllowComment &out)
{
    std::size_t at = c.find("ursa-lint:");
    if (at == std::string::npos)
        return false;
    at = c.find("allow(", at);
    if (at == std::string::npos)
        return false;
    const std::size_t close = c.find(')', at);
    if (close == std::string::npos)
        return false;
    const std::string list = c.substr(at + 6, close - (at + 6));
    std::size_t pos = 0;
    while (pos <= list.size()) {
        std::size_t comma = list.find(',', pos);
        if (comma == std::string::npos)
            comma = list.size();
        const std::string item = list.substr(pos, comma - pos);
        const auto b = item.find_first_not_of(" \t");
        const auto e = item.find_last_not_of(" \t");
        if (b != std::string::npos)
            out.rules.push_back(item.substr(b, e - b + 1));
        pos = comma + 1;
    }
    out.hasReason =
        c.find_first_not_of(" \t\r", close + 1) != std::string::npos;
    return true;
}

const std::string &
commentOn(const LexedFile &lx, int line)
{
    static const std::string empty;
    if (line < 1 || line >= static_cast<int>(lx.comments.size()))
        return empty;
    return lx.comments[line];
}

struct Ctx
{
    std::string path;
    std::string scope;    ///< first path component ("" if none)
    std::string fileName; ///< last path component
    bool isHeader = false;
    const LexedFile *lxp = nullptr;
    std::vector<Violation> out;

    const LexedFile &
    lxRef() const
    {
        return *lxp;
    }

    const std::string &
    commentAt(int line) const
    {
        return commentOn(*lxp, line);
    }

    /** Report `rule` at `line` with its catalogue summary, unless
     * suppressed. The summary is looked up by id, so adding or
     * deleting a catalogue row cannot hand a finding another rule's
     * text. */
    void
    report(int line, const char *rule)
    {
        if (!suppressedAt(*lxp, line, rule))
            out.push_back({path, line, rule, ruleSummary(rule), {}});
    }

    // --- token helpers ---------------------------------------------------

    const std::vector<Token> &
    toks() const
    {
        return lxp->tokens;
    }

    bool
    ident(std::size_t i, const char *text) const
    {
        return i < toks().size() && toks()[i].kind == TokenKind::Identifier &&
               toks()[i].text == text;
    }

    bool
    punct(std::size_t i, char c) const
    {
        return i < toks().size() && toks()[i].kind == TokenKind::Punct &&
               toks()[i].text[0] == c;
    }

    /** tokens[i..] spell `first::second`. */
    bool
    qualified(std::size_t i, const char *first, const char *second) const
    {
        return ident(i, first) && punct(i + 1, ':') && punct(i + 2, ':') &&
               i + 3 < toks().size() &&
               toks()[i + 3].kind == TokenKind::Identifier &&
               toks()[i + 3].text == second;
    }

    /** tokens[i..] spell `first::` followed by an ident in `set`. */
    bool
    qualifiedIn(std::size_t i, const char *first,
                const std::set<std::string> &set) const
    {
        return ident(i, first) && punct(i + 1, ':') && punct(i + 2, ':') &&
               i + 3 < toks().size() &&
               toks()[i + 3].kind == TokenKind::Identifier &&
               set.count(toks()[i + 3].text) > 0;
    }

    /**
     * With tokens[i] == '<', return the index one past the matching
     * '>' (angle depth balanced), or npos when unbalanced. `>>` lexes
     * as two '>' tokens, so nested template args balance naturally.
     */
    std::size_t
    skipAngles(std::size_t i) const
    {
        if (!punct(i, '<'))
            return std::string::npos;
        int depth = 0;
        for (; i < toks().size(); ++i) {
            if (punct(i, '<'))
                ++depth;
            else if (punct(i, '>') && --depth == 0)
                return i + 1;
            else if (punct(i, ';') || punct(i, '}'))
                break; // not template args after all
        }
        return std::string::npos;
    }
};

// --- rules ---------------------------------------------------------------

void
ruleWallClock(Ctx &ctx)
{
    if (!kWallClockScopes.count(ctx.scope))
        return;
    const auto &t = ctx.toks();
    for (std::size_t i = 0; i < t.size(); ++i) {
        if (t[i].kind != TokenKind::Identifier)
            continue;
        if (kClockIdents.count(t[i].text)) {
            ctx.report(t[i].line, "wall-clock");
            continue;
        }
        // time() / time(NULL) / time(nullptr) / time(0)
        if (t[i].text == "time" && ctx.punct(i + 1, '(')) {
            const bool nullary = ctx.punct(i + 2, ')');
            const bool nullArg =
                (ctx.ident(i + 2, "NULL") || ctx.ident(i + 2, "nullptr") ||
                 (i + 2 < t.size() && t[i + 2].kind == TokenKind::Number &&
                  t[i + 2].text == "0")) &&
                ctx.punct(i + 3, ')');
            if (nullary || nullArg)
                ctx.report(t[i].line, "wall-clock");
        }
    }
}

void
ruleRawRand(Ctx &ctx)
{
    if (ctx.scope == "stats" && ctx.fileName.rfind("rng.", 0) == 0)
        return; // the one place allowed to touch raw generators
    const auto &t = ctx.toks();
    for (std::size_t i = 0; i < t.size(); ++i) {
        if (t[i].kind != TokenKind::Identifier)
            continue;
        if (kRandIdents.count(t[i].text) ||
            ((t[i].text == "rand" || t[i].text == "srand") &&
             ctx.punct(i + 1, '(')))
            ctx.report(t[i].line, "raw-rand");
    }
}

void
ruleUnorderedSim(Ctx &ctx)
{
    if (!kUnorderedScopes.count(ctx.scope))
        return;
    const auto &t = ctx.toks();
    for (std::size_t i = 0; i < t.size(); ++i)
        if (ctx.qualifiedIn(i, "std", kUnorderedIdents))
            ctx.report(t[i].line, "unordered-sim");
}

/** Names declared as `std::unordered_*<...> [&] name [;={(]`. */
std::set<std::string>
unorderedDeclNames(const Ctx &ctx)
{
    std::set<std::string> names;
    const auto &t = ctx.toks();
    for (std::size_t i = 0; i < t.size(); ++i) {
        if (!ctx.qualifiedIn(i, "std", kUnorderedIdents))
            continue;
        std::size_t j = ctx.skipAngles(i + 4);
        if (j == std::string::npos)
            continue;
        if (ctx.punct(j, '&'))
            ++j;
        if (j < t.size() && t[j].kind == TokenKind::Identifier &&
            (ctx.punct(j + 1, ';') || ctx.punct(j + 1, '=') ||
             ctx.punct(j + 1, '{') || ctx.punct(j + 1, '(')))
            names.insert(t[j].text);
    }
    return names;
}

void
ruleUnorderedSched(Ctx &ctx)
{
    if (kUnorderedScopes.count(ctx.scope))
        return; // unordered-sim already bans the container outright
    const auto &t = ctx.toks();
    bool schedules = false;
    for (std::size_t i = 0; i < t.size() && !schedules; ++i)
        if (t[i].kind == TokenKind::Identifier &&
            kSchedulerIdents.count(t[i].text) && ctx.punct(i + 1, '('))
            schedules = true;
    if (!schedules)
        return;
    const std::set<std::string> names = unorderedDeclNames(ctx);
    if (names.empty())
        return;
    // for ( ... : ... name )  — range-for whose sequence ends in one of
    // the unordered names (possibly behind an object path).
    for (std::size_t i = 0; i < t.size(); ++i) {
        if (!ctx.ident(i, "for") || !ctx.punct(i + 1, '('))
            continue;
        int depth = 0;
        bool sawColon = false;
        const Token *lastIdent = nullptr;
        for (std::size_t j = i + 1; j < t.size(); ++j) {
            if (ctx.punct(j, '('))
                ++depth;
            else if (ctx.punct(j, ')')) {
                if (--depth == 0)
                    break;
            } else if (ctx.punct(j, ':') && depth == 1 &&
                       !ctx.punct(j + 1, ':') && !ctx.punct(j - 1, ':'))
                sawColon = true;
            else if (t[j].kind == TokenKind::Identifier && sawColon)
                lastIdent = &t[j];
            else if (ctx.punct(j, ';'))
                break; // classic for loop, not a range-for
        }
        if (sawColon && lastIdent && names.count(lastIdent->text))
            ctx.report(t[i].line, "unordered-sched");
    }
}

void
ruleBareAssert(Ctx &ctx)
{
    if (ctx.scope == "check")
        return; // the check layer may assert about itself
    const auto &t = ctx.toks();
    for (std::size_t i = 0; i < t.size(); ++i)
        if (ctx.ident(i, "assert") && ctx.punct(i + 1, '('))
            ctx.report(t[i].line, "bare-assert");
}

void
ruleRawThread(Ctx &ctx)
{
    if (ctx.scope == "exec")
        return; // the one layer allowed to own threads
    const auto &t = ctx.toks();
    for (std::size_t i = 0; i < t.size(); ++i) {
        if (ctx.qualified(i, "std", "thread") ||
            ctx.qualified(i, "std", "jthread")) {
            ctx.report(t[i].line, "raw-thread");
            continue;
        }
        if (ctx.ident(i, "detach") && ctx.punct(i + 1, '(') && i > 0 &&
            (ctx.punct(i - 1, '.') ||
             (ctx.punct(i - 1, '>') && ctx.punct(i - 2, '-'))))
            ctx.report(t[i].line, "raw-thread");
    }
}

void
ruleBannedInclude(Ctx &ctx)
{
    for (const IncludeDirective &inc : ctx.lxRef().includes) {
        if (inc.header == "bits/stdc++.h")
            ctx.report(inc.line, "banned-include");
        else if (ctx.isHeader && inc.angled && inc.header == "iostream")
            ctx.report(inc.line, "banned-include");
    }
}

void
ruleMissingAnnotation(Ctx &ctx)
{
    if (!kAnnotatedScopes.count(ctx.scope))
        return;
    const auto &t = ctx.toks();

    // Names referenced by any URSA_* annotation in this file.
    std::set<std::string> annotated;
    for (std::size_t i = 0; i < t.size(); ++i) {
        if (t[i].kind != TokenKind::Identifier ||
            !kAnnotationIdents.count(t[i].text) || !ctx.punct(i + 1, '('))
            continue;
        int depth = 0;
        for (std::size_t j = i + 1; j < t.size(); ++j) {
            if (ctx.punct(j, '('))
                ++depth;
            else if (ctx.punct(j, ')')) {
                if (--depth == 0)
                    break;
            } else if (t[j].kind == TokenKind::Identifier)
                annotated.insert(t[j].text);
        }
    }

    auto atomicRationaleNear = [&](int line) {
        if (ctx.commentAt(line).find("atomic:") != std::string::npos)
            return true;
        // Walk the contiguous comment block directly above the decl.
        for (int l = line - 1; l >= 1 && !ctx.commentAt(l).empty(); --l)
            if (ctx.commentAt(l).find("atomic:") != std::string::npos)
                return true;
        return false;
    };

    for (std::size_t i = 0; i < t.size(); ++i) {
        // Raw std primitives the analysis cannot see.
        if (ctx.qualified(i, "std", "mutex") ||
            ctx.qualified(i, "std", "condition_variable") ||
            ctx.qualified(i, "std", "condition_variable_any") ||
            ctx.qualified(i, "std", "shared_mutex") ||
            ctx.qualified(i, "std", "recursive_mutex")) {
            ctx.report(t[i].line, "missing-annotation");
            continue;
        }
        // base::Mutex member/local declarations must be referenced by
        // at least one URSA_* annotation somewhere in the file.
        if (ctx.qualified(i, "base", "Mutex") &&
            i + 4 < t.size() && t[i + 4].kind == TokenKind::Identifier &&
            (ctx.punct(i + 5, ';') || ctx.punct(i + 5, '{'))) {
            if (!annotated.count(t[i + 4].text))
                ctx.report(t[i + 4].line, "missing-annotation");
            continue;
        }
        // std::atomic<...> declarations need an `atomic:` rationale in
        // the declaration's comment block.
        if (ctx.qualified(i, "std", "atomic") && ctx.punct(i + 4, '<')) {
            const std::size_t j = ctx.skipAngles(i + 4);
            if (j != std::string::npos && j < t.size() &&
                t[j].kind == TokenKind::Identifier &&
                (ctx.punct(j + 1, ';') || ctx.punct(j + 1, '=') ||
                 ctx.punct(j + 1, '{')) &&
                !atomicRationaleNear(t[j].line))
                ctx.report(t[j].line, "missing-annotation");
        }
    }
}

void
ruleBannedHeap(Ctx &ctx)
{
    if (ctx.scope != "sim")
        return;
    const auto &t = ctx.toks();
    for (std::size_t i = 0; i < t.size(); ++i)
        if (ctx.qualifiedIn(i, "std", kHeapIdents))
            ctx.report(t[i].line, "banned-heap");
}

const std::set<std::string> kSharedOwnerIdents = {
    "shared_ptr", "weak_ptr", "make_shared", "allocate_shared"};

/**
 * The atomic-refcount regression guard: Request and Invocation flow
 * through the kernel's hottest path and are owned by the pool-backed
 * non-atomic RefPtr; any std shared-ownership of them in src/sim
 * reintroduces a control block + lock-prefixed RMWs per hop. Other
 * types may still use shared_ptr freely.
 */
void
ruleAtomicRefcount(Ctx &ctx)
{
    if (ctx.scope != "sim")
        return;
    const auto &t = ctx.toks();
    for (std::size_t i = 0; i < t.size(); ++i) {
        if (!ctx.qualifiedIn(i, "std", kSharedOwnerIdents))
            continue;
        const std::size_t open = i + 4;
        const std::size_t end = ctx.skipAngles(open);
        if (end == std::string::npos)
            continue;
        for (std::size_t j = open + 1; j + 1 < end; ++j) {
            if (t[j].kind == TokenKind::Identifier &&
                (t[j].text == "Invocation" || t[j].text == "Request")) {
                ctx.report(t[i].line, "atomic-refcount");
                break;
            }
        }
    }
}

/**
 * Enforce the suppression contract itself: every allow() must carry a
 * trailing reason and may only name rules that exist. Reported
 * directly (not via ctx.report) — a reasonless suppression must not
 * be able to silence its own diagnostic.
 */
void
ruleSuppressionReason(Ctx &ctx)
{
    const auto &comments = ctx.lxRef().comments;
    for (int line = 1; line < static_cast<int>(comments.size()); ++line) {
        AllowComment allow;
        if (!parseAllow(comments[line], allow))
            continue;
        if (!allow.hasReason)
            ctx.out.push_back(
                {ctx.path, line, "suppression-reason",
                 "allow() without a reason; write `// ursa-lint: "
                 "allow(rule) <why this is sanctioned>`",
                 {}});
        for (const std::string &r : allow.rules)
            if (!knownRule(r))
                ctx.out.push_back({ctx.path, line, "suppression-reason",
                                   "allow() names unknown rule '" + r +
                                       "'",
                                    {}});
    }
}

} // namespace

const std::vector<RuleInfo> &
ruleCatalogue()
{
    return kRules;
}

bool
knownRule(const std::string &rule)
{
    return std::any_of(kRules.begin(), kRules.end(),
                       [&](const RuleInfo &r) { return rule == r.id; });
}

const char *
ruleSummary(const std::string &rule)
{
    for (const RuleInfo &r : kRules)
        if (rule == r.id)
            return r.summary;
    return "";
}

bool
suppressedAt(const LexedFile &lx, int line, const std::string &rule)
{
    for (int l = line; l >= line - 1 && l >= 1; --l) {
        AllowComment allow;
        if (!parseAllow(commentOn(lx, l), allow) || !allow.hasReason)
            continue;
        if (std::find(allow.rules.begin(), allow.rules.end(), rule) !=
            allow.rules.end())
            return true;
    }
    return false;
}

std::vector<Violation>
lintFileLexed(const std::string &relPath, const LexedFile &lx)
{
    Ctx ctx;
    ctx.path = relPath;
    const std::size_t slash = relPath.find('/');
    ctx.scope = slash == std::string::npos ? "" : relPath.substr(0, slash);
    const std::size_t lastSlash = relPath.rfind('/');
    ctx.fileName = lastSlash == std::string::npos
                       ? relPath
                       : relPath.substr(lastSlash + 1);
    const std::size_t dot = ctx.fileName.rfind('.');
    const std::string ext =
        dot == std::string::npos ? "" : ctx.fileName.substr(dot);
    ctx.isHeader = ext == ".h" || ext == ".hpp";
    ctx.lxp = &lx;

    ruleWallClock(ctx);
    ruleRawRand(ctx);
    ruleUnorderedSim(ctx);
    ruleUnorderedSched(ctx);
    ruleBareAssert(ctx);
    ruleRawThread(ctx);
    ruleBannedInclude(ctx);
    ruleMissingAnnotation(ctx);
    ruleBannedHeap(ctx);
    ruleAtomicRefcount(ctx);
    ruleSuppressionReason(ctx);

    sortViolations(ctx.out);
    return std::move(ctx.out);
}

void
sortViolations(std::vector<Violation> &vs)
{
    std::sort(vs.begin(), vs.end(),
              [](const Violation &a, const Violation &b) {
                  if (a.path != b.path)
                      return a.path < b.path;
                  if (a.line != b.line)
                      return a.line < b.line;
                  return a.rule < b.rule;
              });
}

} // namespace ursa::lint
