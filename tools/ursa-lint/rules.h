/**
 * @file
 * ursa-lint rule engine: the per-file determinism rules ported from
 * scripts/lint_determinism.py plus the concurrency/hygiene rules that
 * needed a real tokenizer, and the catalogue entries for the
 * cross-file rules in project_rules.cc and callgraph.cc. See kRules in
 * rules.cc for the catalogue; DESIGN.md §9/§11 document scope and
 * suppression policy.
 */

#ifndef URSA_TOOLS_LINT_RULES_H
#define URSA_TOOLS_LINT_RULES_H

#include "lexer.h"

#include <string>
#include <vector>

namespace ursa::lint
{

/**
 * One step of an interprocedural witness (pass 3): a call site or
 * taint source on the path that explains a finding. Rendered as
 * indented `via` lines in text output and as SARIF relatedLocations.
 */
struct RelatedSite
{
    std::string path; ///< repo-relative, '/'-separated
    int line;
    std::string note; ///< "calls 'base::flushLog'", "source: ofstream"
};

struct Violation
{
    std::string path; ///< repo-relative, '/'-separated
    int line;
    std::string rule;
    std::string message;
    /// Witness chain for interprocedural findings (empty otherwise).
    std::vector<RelatedSite> related;
};

/** One catalogue entry (for --list-rules and the docs). */
struct RuleInfo
{
    const char *id;
    const char *summary;
};

/** The rule catalogue, in reporting order. */
const std::vector<RuleInfo> &ruleCatalogue();

/** True iff `rule` is a known rule id. */
bool knownRule(const std::string &rule);

/** Catalogue summary for `rule` ("" if unknown). */
const char *ruleSummary(const std::string &rule);

/**
 * True iff a `// ursa-lint: allow(<rule>[, ...]) <reason>` comment on
 * `line` or the line above names `rule` *and* carries a non-empty
 * reason after the paren group. A reasonless allow() suppresses
 * nothing (and additionally fires the suppression-reason rule).
 */
bool suppressedAt(const LexedFile &lx, int line, const std::string &rule);

/**
 * Lint one lexed file. `relPath` is the path relative to the lint root
 * ('/'-separated) — its first component selects the layer scope (sim,
 * core, exec, ...) several rules key on. Suppressed violations
 * (`// ursa-lint: allow(rule) reason` on the line or the line above)
 * are already filtered out.
 */
std::vector<Violation> lintFileLexed(const std::string &relPath,
                                     const LexedFile &lx);

/** Canonical ordering: path, then line, then rule. */
void sortViolations(std::vector<Violation> &vs);

} // namespace ursa::lint

#endif // URSA_TOOLS_LINT_RULES_H
