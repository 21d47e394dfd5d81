/**
 * @file
 * ursa-lint — the project's native determinism / concurrency-hygiene
 * analyzer (successor of scripts/lint_determinism.py; see DESIGN.md
 * §9/§11 for the rule catalogue and suppression policy).
 *
 * Modes:
 *   ursa-lint --root <dir> [--format text|sarif]
 *       lint a source tree: pass 1 lexes and indexes every file, pass
 *       2 runs the cross-file layer rules over the assembled project
 *       model, pass 3 links the per-file function tables into a
 *       project call graph and runs the interprocedural rules
 *       (sim-nondeterminism, blocking-in-sim, unbounded-recursion)
 *       with witness chains
 *   ursa-lint --self-test --testdata <dir>
 *       run the bait/clean fixtures, including the multi-file fixture
 *       projects under <dir>/projects/
 *   ursa-lint --list-rules [--format markdown]
 *       print the rule catalogue
 *
 * Output is machine-readable, one violation per line:
 *
 *   <root-joined file>:<line>:<rule>: <message>
 *
 * Suppression: append `// ursa-lint: allow(<rule>) <reason>` to the
 * offending line (or the line directly above). The reason is
 * mandatory; a reasonless allow() suppresses nothing and itself
 * violates suppression-reason.
 *
 * Self-test fixtures under tools/lint_testdata/ carry expectations in
 * comments: `// ursa-lint-test: expect(<rule>)` marks a line that MUST
 * flag, `// ursa-lint-test: suppressed(<rule>)` marks a line whose
 * suppression comment MUST win. Any violation on an unmarked fixture
 * line fails the self-test, so both false negatives and false
 * positives are pinned. Each directory under <testdata>/projects/ is
 * one fixture *project*: its files are linted together through the
 * whole-project pass, so cross-file baits (an include cycle, a call
 * chain that reaches a wall clock) can be pinned the same way. Every
 * catalogue rule must have at least one bait that fires.
 *
 * Exit status: 0 clean, 1 violations/self-test failure, 2 usage error.
 */

#include "model.h"
#include "output.h"
#include "project_rules.h"
#include "rules.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

namespace fs = std::filesystem;
using ursa::lint::FileModel;
using ursa::lint::ProjectModel;
using ursa::lint::Violation;

namespace
{

bool
lintableExtension(const fs::path &p)
{
    const std::string ext = p.extension().string();
    return ext == ".h" || ext == ".cc" || ext == ".cpp" || ext == ".hpp";
}

/**
 * Files under `root` in sorted relative-path order. Build trees
 * (any "build*" directory), VCS metadata (.git) and hidden
 * directories are skipped so a repo-root scan lints the sources, not
 * the generated forest.
 */
std::vector<std::string>
collectFiles(const fs::path &root)
{
    std::vector<std::string> rel;
    auto it = fs::recursive_directory_iterator(root);
    const auto end = fs::recursive_directory_iterator();
    for (; it != end; ++it) {
        const fs::directory_entry &entry = *it;
        if (entry.is_directory()) {
            const std::string name = entry.path().filename().string();
            if (name == ".git" || name.rfind("build", 0) == 0 ||
                (!name.empty() && name[0] == '.'))
                it.disable_recursion_pending();
            continue;
        }
        if (entry.is_regular_file() && lintableExtension(entry.path()))
            rel.push_back(
                entry.path().lexically_relative(root).generic_string());
    }
    std::sort(rel.begin(), rel.end());
    return rel;
}

bool
readFile(const fs::path &p, std::string &out)
{
    std::ifstream in(p, std::ios::binary);
    if (!in)
        return false;
    std::ostringstream ss;
    ss << in.rdbuf();
    out = ss.str();
    return true;
}

int
lintTree(const std::string &rootArg, const std::string &format)
{
    const fs::path root(rootArg);
    if (!fs::is_directory(root)) {
        std::fprintf(stderr, "error: %s is not a directory\n",
                     rootArg.c_str());
        return 2;
    }
    const std::vector<std::string> files = collectFiles(root);

    // Pass 1: read, lex, index and per-file lint every file in order.
    std::vector<Violation> all;
    std::vector<FileModel> models;
    models.reserve(files.size());
    for (const std::string &rel : files) {
        std::string source;
        if (!readFile(root / rel, source)) {
            std::fprintf(stderr, "error: cannot read %s\n", rel.c_str());
            return 2;
        }
        FileModel fm = ursa::lint::buildFileModel(rel, source);
        const std::vector<Violation> perFile =
            ursa::lint::lintFileLexed(rel, fm.lx);
        all.insert(all.end(), perFile.begin(), perFile.end());
        models.push_back(std::move(fm));
    }

    // Pass 2: cross-file rules over the whole-project model.
    const ProjectModel pm =
        ursa::lint::buildProjectModel(std::move(models));
    const std::vector<Violation> cross = ursa::lint::lintProject(pm);
    all.insert(all.end(), cross.begin(), cross.end());
    ursa::lint::sortViolations(all);

    if (format == "sarif") {
        std::fputs(ursa::lint::formatSarif(all, rootArg).c_str(), stdout);
    } else {
        std::fputs(ursa::lint::formatText(all, rootArg).c_str(), stdout);
        if (all.empty())
            std::printf("ursa-lint: clean (%zu files)\n", files.size());
    }
    if (!all.empty()) {
        std::fprintf(stderr, "ursa-lint: %zu violation(s)\n", all.size());
        return 1;
    }
    return 0;
}

// --- self-test -----------------------------------------------------------

struct Expectation
{
    int line;
    std::string rule;
    bool mustFire; ///< expect(...) vs suppressed(...)
};

/** Parse `ursa-lint-test: expect(r)` / `suppressed(r)` directives. */
std::vector<Expectation>
parseDirectives(const std::string &rel,
                const std::vector<std::string> &comments,
                std::vector<std::string> &errors)
{
    std::vector<Expectation> out;
    for (int line = 1; line < static_cast<int>(comments.size()); ++line) {
        const std::string &c = comments[line];
        std::size_t at = c.find("ursa-lint-test:");
        if (at == std::string::npos)
            continue;
        at += 15;
        while (at < c.size()) {
            const std::size_t open = c.find('(', at);
            if (open == std::string::npos)
                break;
            std::size_t kw = c.find_last_not_of(" \t", open - 1);
            std::size_t kwStart = c.find_last_of(" \t,)", kw);
            kwStart = kwStart == std::string::npos ? at : kwStart + 1;
            const std::string keyword = c.substr(kwStart, kw - kwStart + 1);
            const std::size_t close = c.find(')', open);
            if (close == std::string::npos)
                break;
            const std::string rule = c.substr(open + 1, close - open - 1);
            if (keyword == "expect" || keyword == "suppressed") {
                if (!ursa::lint::knownRule(rule))
                    errors.push_back(rel + ":" + std::to_string(line) +
                                     ": directive names unknown rule '" +
                                     rule + "'");
                else
                    out.push_back({line, rule, keyword == "expect"});
            }
            at = close + 1;
        }
    }
    return out;
}

/**
 * Check one fixture unit: `got` violations (paths relative to the
 * fixture root, `prefix` restores testdata-relative naming) against
 * the per-file expectations. Fired baits are tallied per rule.
 */
void
checkExpectations(const std::string &prefix,
                  const std::map<std::string, std::vector<Expectation>>
                      &expectsByFile,
                  const std::vector<Violation> &got,
                  std::map<std::string, std::size_t> &firedByRule,
                  std::size_t &suppressedQuiet,
                  std::vector<std::string> &failures)
{
    auto found = [&](const std::string &path, const Expectation &e) {
        return std::any_of(got.begin(), got.end(), [&](const Violation &v) {
            return v.path == path && v.line == e.line && v.rule == e.rule;
        });
    };
    for (const auto &[path, expects] : expectsByFile)
        for (const Expectation &e : expects) {
            if (e.mustFire && !found(path, e))
                failures.push_back("bait " + prefix + path + ":" +
                                   std::to_string(e.line) +
                                   " did not trigger [" + e.rule + "]");
            else if (!e.mustFire && found(path, e))
                failures.push_back("suppression " + prefix + path + ":" +
                                   std::to_string(e.line) +
                                   " failed to silence [" + e.rule + "]");
            else if (e.mustFire)
                ++firedByRule[e.rule];
            else
                ++suppressedQuiet;
        }
    for (const Violation &v : got) {
        const auto it = expectsByFile.find(v.path);
        const bool expected =
            it != expectsByFile.end() &&
            std::any_of(it->second.begin(), it->second.end(),
                        [&](const Expectation &e) {
                            return e.mustFire && e.line == v.line &&
                                   e.rule == v.rule;
                        });
        if (!expected)
            failures.push_back("clean line " + prefix + v.path + ":" +
                               std::to_string(v.line) +
                               " wrongly triggered [" + v.rule + "]");
    }
}

int
selfTest(const std::string &testdataArg)
{
    const fs::path root(testdataArg);
    if (!fs::is_directory(root)) {
        std::fprintf(stderr, "error: testdata dir %s not found\n",
                     testdataArg.c_str());
        return 2;
    }
    std::vector<std::string> failures;
    std::map<std::string, std::size_t> firedByRule;
    std::size_t suppressedQuiet = 0, files = 0, projects = 0;

    // Partition: projects/<name>/... are whole-project fixtures, the
    // rest are single-file fixtures.
    std::map<std::string, std::vector<std::string>> projectFiles;
    std::vector<std::string> singles;
    for (const std::string &rel : collectFiles(root)) {
        if (rel.rfind("projects/", 0) == 0) {
            const std::size_t slash = rel.find('/', 9);
            if (slash != std::string::npos) {
                projectFiles[rel.substr(9, slash - 9)].push_back(
                    rel.substr(slash + 1));
                continue;
            }
        }
        singles.push_back(rel);
    }

    for (const std::string &rel : singles) {
        std::string source;
        if (!readFile(root / rel, source)) {
            std::fprintf(stderr, "error: cannot read %s\n", rel.c_str());
            return 2;
        }
        ++files;
        const ursa::lint::LexedFile lx = ursa::lint::lex(source);
        std::map<std::string, std::vector<Expectation>> expects;
        expects[rel] = parseDirectives(rel, lx.comments, failures);
        checkExpectations("", expects,
                          ursa::lint::lintFileLexed(rel, lx), firedByRule,
                          suppressedQuiet, failures);
    }

    for (const auto &[name, rels] : projectFiles) {
        const std::string prefix = "projects/" + name + "/";
        std::vector<FileModel> models;
        std::map<std::string, std::vector<Expectation>> expects;
        std::vector<Violation> got;
        for (const std::string &rel : rels) {
            std::string source;
            if (!readFile(root / (prefix + rel), source)) {
                std::fprintf(stderr, "error: cannot read %s%s\n",
                             prefix.c_str(), rel.c_str());
                return 2;
            }
            ++files;
            FileModel fm = ursa::lint::buildFileModel(rel, source);
            expects[rel] =
                parseDirectives(prefix + rel, fm.lx.comments, failures);
            const std::vector<Violation> perFile =
                ursa::lint::lintFileLexed(rel, fm.lx);
            got.insert(got.end(), perFile.begin(), perFile.end());
            models.push_back(std::move(fm));
        }
        ++projects;
        const ProjectModel pm =
            ursa::lint::buildProjectModel(std::move(models));
        const std::vector<Violation> cross = ursa::lint::lintProject(pm);
        got.insert(got.end(), cross.begin(), cross.end());
        checkExpectations(prefix, expects, got, firedByRule,
                          suppressedQuiet, failures);
    }

    if (files == 0)
        failures.push_back("no fixture files under " + testdataArg);
    // A rule whose last bait was deleted is a rule nothing tests.
    std::size_t fired = 0;
    for (const ursa::lint::RuleInfo &r : ursa::lint::ruleCatalogue()) {
        const auto it = firedByRule.find(r.id);
        if (it == firedByRule.end())
            failures.push_back(std::string("rule ") + r.id +
                               " has no firing bait");
        else
            fired += it->second;
    }
    if (!failures.empty()) {
        std::sort(failures.begin(), failures.end());
        for (const std::string &f : failures)
            std::fprintf(stderr, "self-test FAIL: %s\n", f.c_str());
        return 1;
    }
    std::printf("self-test OK: %zu bait expectations fired, %zu "
                "suppressions quiet, %zu fixture files (%zu fixture "
                "projects)\n",
                fired, suppressedQuiet, files, projects);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string root, testdata, format = "text";
    bool selfTestMode = false, listRules = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--root" && i + 1 < argc)
            root = argv[++i];
        else if (arg == "--testdata" && i + 1 < argc)
            testdata = argv[++i];
        else if (arg == "--format" && i + 1 < argc)
            format = argv[++i];
        else if (arg.rfind("--format=", 0) == 0)
            format = arg.substr(9);
        else if (arg == "--self-test")
            selfTestMode = true;
        else if (arg == "--list-rules")
            listRules = true;
        else {
            std::fprintf(
                stderr,
                "usage: ursa-lint --root <dir> [--format text|sarif]\n"
                "     | ursa-lint --self-test --testdata <dir>\n"
                "     | ursa-lint --list-rules [--format markdown]\n");
            return 2;
        }
    }
    if (listRules) {
        if (format == "markdown") {
            std::fputs(ursa::lint::formatRuleTableMarkdown().c_str(),
                       stdout);
        } else {
            for (const ursa::lint::RuleInfo &r :
                 ursa::lint::ruleCatalogue())
                std::printf("%-20s %s\n", r.id, r.summary);
        }
        return 0;
    }
    if (selfTestMode) {
        if (testdata.empty()) {
            std::fprintf(stderr,
                         "error: --self-test requires --testdata <dir>\n");
            return 2;
        }
        return selfTest(testdata);
    }
    if (format != "text" && format != "sarif") {
        std::fprintf(stderr, "error: unknown --format %s\n",
                     format.c_str());
        return 2;
    }
    if (root.empty()) {
        std::fprintf(stderr, "error: --root is required (or --self-test)\n");
        return 2;
    }
    return lintTree(root, format);
}
