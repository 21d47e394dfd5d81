/**
 * @file
 * ursa-lint — the project's native determinism / concurrency-hygiene
 * analyzer (successor of scripts/lint_determinism.py; see DESIGN.md
 * §9/§11 for the rule catalogue and suppression policy).
 *
 * Modes:
 *   ursa-lint --root <dir> [--format text|sarif]
 *       lint a source tree: pass 1 lexes and indexes every file in
 *       parallel (ursa::exec::parallelMap, URSA_THREADS), pass 2 runs
 *       the cross-file rules (layer graph, lock order, include
 *       hygiene) over the assembled project model, pass 3 links the
 *       per-file function tables into a project call graph and runs
 *       the interprocedural rules (sim-nondeterminism,
 *       blocking-in-sim, unbounded-recursion) with witness chains
 *   ursa-lint --root <dir> --fix | --fix-dry-run
 *       mechanically delete dead includes flagged by include-hygiene
 *       (--fix rewrites the files; --fix-dry-run prints the diff)
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
 * whole-project pass, so cross-file baits (an include cycle, an AB/BA
 * lock inversion split across two TUs) can be pinned the same way.
 *
 * Exit status: 0 clean, 1 violations/self-test failure, 2 usage error.
 */

#include "model.h"
#include "output.h"
#include "project_rules.h"
#include "rules.h"

#include "exec/thread_pool.h"

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

/** Result of pass 1 for one file (parallel unit; index-ordered). */
struct ScannedFile
{
    FileModel model;
    std::vector<Violation> violations; ///< per-file rules only
    bool readError = false;
};

/**
 * Pass 1: read + lex + index + per-file lint every file, in parallel.
 * Each index owns its slot, so results are position-stable and the
 * merged output is byte-identical to a sequential scan for any
 * URSA_THREADS.
 */
std::vector<ScannedFile>
scanFiles(const fs::path &root, const std::vector<std::string> &files)
{
    return ursa::exec::parallelMap<ScannedFile>(
        files.size(), [&](std::size_t i) {
            ScannedFile sf;
            std::string source;
            if (!readFile(root / files[i], source)) {
                sf.readError = true;
                return sf;
            }
            sf.model = ursa::lint::buildFileModel(files[i], source);
            sf.violations =
                ursa::lint::lintFileLexed(files[i], sf.model.lx);
            return sf;
        });
}

/**
 * The mechanically fixable subset of `kept`: include-hygiene dead
 * includes (flavor (a) — the message starts `include "`). Transitive
 * leaks need a new include line whose placement is a judgement call,
 * so they stay manual.
 */
std::map<std::string, std::vector<int>>
fixableDeadIncludes(const std::vector<Violation> &kept)
{
    std::map<std::string, std::vector<int>> byFile;
    for (const Violation &v : kept)
        if (v.rule == "include-hygiene" &&
            v.message.rfind("include \"", 0) == 0)
            byFile[v.path].push_back(v.line);
    for (auto &[path, lines] : byFile) {
        std::sort(lines.begin(), lines.end());
        lines.erase(std::unique(lines.begin(), lines.end()), lines.end());
    }
    return byFile;
}

/** Split keeping no terminators; `hadFinalNewline` restores the tail. */
std::vector<std::string>
splitLines(const std::string &s, bool &hadFinalNewline)
{
    std::vector<std::string> lines;
    std::string cur;
    for (const char c : s) {
        if (c == '\n') {
            lines.push_back(cur);
            cur.clear();
        } else {
            cur += c;
        }
    }
    hadFinalNewline = cur.empty() && !s.empty();
    if (!hadFinalNewline)
        lines.push_back(cur);
    return lines;
}

/**
 * Delete dead-include lines. In dry-run mode print a minimal unified
 * diff of what --fix would do; otherwise rewrite the files in place.
 * Returns the number of lines removed (0 on I/O trouble, reported).
 */
std::size_t
applyIncludeFixes(const fs::path &root,
                  const std::map<std::string, std::vector<int>> &byFile,
                  bool dryRun)
{
    std::size_t removed = 0;
    for (const auto &[rel, lines] : byFile) {
        std::string source;
        if (!readFile(root / rel, source)) {
            std::fprintf(stderr, "error: cannot re-read %s for --fix\n",
                         rel.c_str());
            continue;
        }
        bool finalNl = false;
        std::vector<std::string> text = splitLines(source, finalNl);
        if (dryRun) {
            std::printf("--- a/%s\n+++ b/%s\n", rel.c_str(), rel.c_str());
            for (const int line : lines) {
                if (line < 1 || line > static_cast<int>(text.size()))
                    continue;
                std::printf("@@ -%d,1 +%d,0 @@\n-%s\n", line, line - 1,
                            text[static_cast<std::size_t>(line - 1)]
                                .c_str());
                ++removed;
            }
            continue;
        }
        for (auto it = lines.rbegin(); it != lines.rend(); ++it) {
            if (*it < 1 || *it > static_cast<int>(text.size()))
                continue;
            text.erase(text.begin() + (*it - 1));
            ++removed;
        }
        std::ofstream out(root / rel, std::ios::binary | std::ios::trunc);
        for (std::size_t i = 0; i < text.size(); ++i) {
            out << text[i];
            if (i + 1 < text.size() || finalNl)
                out << '\n';
        }
    }
    return removed;
}

int
lintTree(const std::string &rootArg, const std::string &format, bool fix,
         bool fixDryRun)
{
    const fs::path root(rootArg);
    if (!fs::is_directory(root)) {
        std::fprintf(stderr, "error: %s is not a directory\n",
                     rootArg.c_str());
        return 2;
    }
    const std::vector<std::string> files = collectFiles(root);
    std::vector<ScannedFile> scanned = scanFiles(root, files);

    std::vector<Violation> all;
    std::vector<FileModel> models;
    models.reserve(scanned.size());
    for (std::size_t i = 0; i < scanned.size(); ++i) {
        if (scanned[i].readError) {
            std::fprintf(stderr, "error: cannot read %s\n",
                         files[i].c_str());
            return 2;
        }
        all.insert(all.end(), scanned[i].violations.begin(),
                   scanned[i].violations.end());
        models.push_back(std::move(scanned[i].model));
    }

    // Pass 2: cross-file rules over the whole-project model.
    const ProjectModel pm =
        ursa::lint::buildProjectModel(std::move(models));
    const std::vector<Violation> cross = ursa::lint::lintProject(pm);
    all.insert(all.end(), cross.begin(), cross.end());
    ursa::lint::sortViolations(all);

    if (fix || fixDryRun) {
        const std::map<std::string, std::vector<int>> byFile =
            fixableDeadIncludes(all);
        const std::size_t removed =
            applyIncludeFixes(root, byFile, /*dryRun=*/fixDryRun);
        if (fixDryRun) {
            std::fprintf(stderr,
                         "ursa-lint: --fix would remove %zu dead "
                         "include(s) in %zu file(s)\n",
                         removed, byFile.size());
        } else {
            std::fprintf(stderr,
                         "ursa-lint: removed %zu dead include(s) in %zu "
                         "file(s)\n",
                         removed, byFile.size());
            // The fixed findings are gone from disk; report the rest.
            all.erase(std::remove_if(
                           all.begin(), all.end(),
                           [&](const Violation &v) {
                               const auto it = byFile.find(v.path);
                               return it != byFile.end() &&
                                      v.rule == "include-hygiene" &&
                                      v.message.rfind("include \"", 0) ==
                                          0 &&
                                      std::find(it->second.begin(),
                                                it->second.end(),
                                                v.line) !=
                                          it->second.end();
                           }),
                       all.end());
        }
    }

    if (format == "sarif") {
        std::fputs(ursa::lint::formatSarif(all, rootArg).c_str(), stdout);
    } else {
        std::fputs(ursa::lint::formatText(all, rootArg).c_str(), stdout);
        if (all.empty())
            std::printf("ursa-lint: clean (%zu files, %zu cross-file "
                        "edges checked)\n",
                        files.size(), pm.files.size());
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
 * the per-file expectations.
 */
void
checkExpectations(const std::string &prefix,
                  const std::map<std::string, std::vector<Expectation>>
                      &expectsByFile,
                  const std::vector<Violation> &got,
                  std::size_t &fired, std::size_t &suppressedQuiet,
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
            else
                ++(e.mustFire ? fired : suppressedQuiet);
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
    std::size_t fired = 0, suppressedQuiet = 0, files = 0, projects = 0;

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
                          ursa::lint::lintFileLexed(rel, lx), fired,
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
        checkExpectations(prefix, expects, got, fired, suppressedQuiet,
                          failures);
    }

    if (files == 0)
        failures.push_back("no fixture files under " + testdataArg);
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
    bool fix = false, fixDryRun = false;
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
        else if (arg == "--fix")
            fix = true;
        else if (arg == "--fix-dry-run")
            fixDryRun = true;
        else if (arg == "--self-test")
            selfTestMode = true;
        else if (arg == "--list-rules")
            listRules = true;
        else {
            std::fprintf(
                stderr,
                "usage: ursa-lint --root <dir> [--format text|sarif] "
                "[--fix | --fix-dry-run]\n"
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
    return lintTree(root, format, fix, fixDryRun);
}
