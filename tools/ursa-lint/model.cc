#include "model.h"

#include <algorithm>
#include <set>

namespace ursa::lint
{

namespace
{

/// Keywords and contextual words that never name a function or scope.
const std::set<std::string> kKeywords = {
    "alignas",      "alignof",      "asm",          "auto",
    "bool",         "break",        "case",         "catch",
    "char",         "char8_t",      "char16_t",     "char32_t",
    "class",        "concept",      "const",        "consteval",
    "constexpr",    "constinit",    "const_cast",   "continue",
    "co_await",     "co_return",    "co_yield",     "decltype",
    "default",      "delete",       "do",           "double",
    "dynamic_cast", "else",         "enum",         "explicit",
    "export",       "extern",       "false",        "final",
    "float",        "for",          "friend",       "goto",
    "if",           "inline",       "int",          "long",
    "mutable",      "namespace",    "new",          "noexcept",
    "nullptr",      "operator",     "override",     "private",
    "protected",    "public",       "register",     "reinterpret_cast",
    "requires",     "return",       "short",        "signed",
    "sizeof",       "static",       "static_assert","static_cast",
    "struct",       "switch",       "template",     "this",
    "thread_local", "throw",        "true",         "try",
    "typedef",      "typeid",       "typename",     "union",
    "unsigned",     "using",        "virtual",      "void",
    "volatile",     "wchar_t",      "while"};

bool
isKeyword(const std::string &s)
{
    return kKeywords.count(s) > 0;
}

/// What a `{` opens, as FuncScanner classifies it.
enum class ScopeKind
{
    Namespace, ///< namespace body (or the top level)
    Type,      ///< class/struct/union body
    Enum,      ///< enum body
    Function,  ///< function body (the braces nested in it are Other)
    Other      ///< blocks, lambdas, initializer lists, unknown braces
};

// --- function definitions, call sites, taint sources (pass 3 input) -----

/// RAII guard types whose construction acquires a lock.
const std::set<std::string> kGuardTypes = {"MutexLock", "lock_guard",
                                           "unique_lock", "scoped_lock",
                                           "shared_lock"};

/// Identifiers whose mere mention reads a wall clock.
const std::set<std::string> kClockIdents = {
    "system_clock", "steady_clock", "high_resolution_clock",
    "gettimeofday", "clock_gettime", "timespec_get", "localtime",
    "gmtime"};

/// Identifiers that name a raw randomness source or engine.
const std::set<std::string> kRandSources = {
    "random_device", "mt19937",     "mt19937_64",
    "minstd_rand",   "minstd_rand0", "default_random_engine",
    "ranlux24_base", "ranlux48_base"};

/// Calls that put the thread to sleep.
const std::set<std::string> kSleepCalls = {"sleep_for", "sleep_until",
                                           "usleep", "nanosleep", "sleep"};

/// Types whose construction opens a file; calls that touch the OS.
const std::set<std::string> kIoTypes = {"ifstream", "ofstream", "fstream"};
const std::set<std::string> kIoCalls = {"fopen", "freopen", "popen",
                                        "system"};

const std::set<std::string> kUnorderedContainers = {
    "unordered_map", "unordered_set", "unordered_multimap",
    "unordered_multiset"};

/**
 * Extracts every function definition with its enclosing scope chain,
 * then records, inside each body: call sites (with any spelled
 * qualifier, member/this-receiver flags), direct taint sources
 * (wall clock, randomness, thread identity, unordered-container
 * iteration, blocking constructs), and URSA_CHECK usage. This is the
 * per-file half of pass 3; callgraph.cc links the results project-wide.
 */
class FuncScanner
{
  public:
    FuncScanner(const LexedFile &lx, FileModel &out) : t_(lx.tokens),
                                                       out_(out)
    {
        // Names declared as unordered containers anywhere in the file —
        // the range-for source check keys on them.
        for (std::size_t i = 0; i + 1 < t_.size(); ++i) {
            if (t_[i].kind != TokenKind::Identifier ||
                !kUnorderedContainers.count(t_[i].text))
                continue;
            std::size_t j = i + 1;
            if (punct(j, '<')) { // skip balanced template arguments
                int d = 0;
                for (; j < t_.size(); ++j) {
                    if (punct(j, '<'))
                        ++d;
                    else if (punct(j, '>') && --d == 0) {
                        ++j;
                        break;
                    } else if (punct(j, ';'))
                        break;
                }
            }
            if (j < t_.size() && t_[j].kind == TokenKind::Identifier &&
                !isKeyword(t_[j].text))
                unorderedNames_.insert(t_[j].text);
        }
    }

    void
    run()
    {
        for (std::size_t i = 0; i < t_.size(); ++i) {
            if (punct(i, '{')) {
                scopes_.push_back(classify(i));
                continue;
            }
            if (punct(i, '}')) {
                if (!scopes_.empty())
                    scopes_.pop_back();
                continue;
            }
            const int f = scopes_.empty() ? -1 : scopes_.back().func;
            if (f >= 0 && t_[i].kind == TokenKind::Identifier)
                bodyToken(i, out_.funcs[static_cast<std::size_t>(f)],
                          scopes_.back().lambda);
        }
    }

  private:
    struct Scope
    {
        ScopeKind kind;
        std::string name; ///< namespace/class name ("" otherwise)
        int func;         ///< enclosing FuncDef index, -1 outside bodies
        /// Cumulative: this scope, or any enclosing scope up to the
        /// function, is a lambda body. Calls here are deferred work —
        /// they taint but cannot prove stack recursion.
        bool lambda = false;
    };

    bool
    punct(std::size_t i, char c) const
    {
        return i < t_.size() && t_[i].kind == TokenKind::Punct &&
               t_[i].text[0] == c;
    }

    bool
    isName(std::size_t i) const
    {
        return i < t_.size() && t_[i].kind == TokenKind::Identifier &&
               !isKeyword(t_[i].text);
    }

    /** A `::` separator is two adjacent single-colon punct tokens. */
    bool
    doubleColon(std::size_t i) const
    {
        return punct(i, ':') && punct(i + 1, ':');
    }

    bool
    singleColon(std::size_t i) const
    {
        return punct(i, ':') && !punct(i + 1, ':') &&
               !(i > 0 && punct(i - 1, ':'));
    }

    std::size_t
    closeParen(std::size_t open) const
    {
        int d = 0;
        for (std::size_t j = open; j < t_.size(); ++j) {
            if (punct(j, '('))
                ++d;
            else if (punct(j, ')') && --d == 0)
                return j;
        }
        return std::string::npos;
    }

    static bool
    macroish(const std::string &s)
    {
        if (s.size() < 2)
            return false;
        for (char c : s)
            if (std::islower(static_cast<unsigned char>(c)))
                return false;
        return true;
    }

    static bool
    isQual(const Token &p)
    {
        return p.kind == TokenKind::Identifier &&
               (p.text == "const" || p.text == "noexcept" ||
                p.text == "override" || p.text == "final" ||
                p.text == "mutable" || p.text == "try" ||
                p.text.rfind("URSA_", 0) == 0);
    }

    /**
     * Statement start for the brace at `at`: back to the previous
     * `;`/`{`/`}` — except that a `}` closing a brace-init entry of a
     * constructor initializer list (`: a_{0}, b_{1} {`) is skipped, so
     * the constructor's header stays in view for the body brace.
     */
    std::size_t
    stmtBegin(std::size_t at) const
    {
        std::size_t begin = at;
        while (begin > 0) {
            const Token &p = t_[begin - 1];
            if (p.kind != TokenKind::Punct ||
                (p.text[0] != ';' && p.text[0] != '{' && p.text[0] != '}')) {
                --begin;
                continue;
            }
            if (p.text[0] != '}')
                break;
            // `}`: skip it iff it closes an init-list entry brace.
            int d = 0;
            std::size_t open = std::string::npos;
            for (std::size_t j = begin; j-- > 0;) {
                if (punct(j, '}'))
                    ++d;
                else if (punct(j, '{') && --d == 0) {
                    open = j;
                    break;
                }
            }
            if (open == std::string::npos || open == 0 ||
                !isName(open - 1))
                break;
            std::size_t k = open - 1; // back over the entry's name chain
            while (k >= 2 && doubleColon(k - 2) && k >= 3 && isName(k - 3))
                k -= 3;
            if (k == 0 || !(singleColon(k - 1) || punct(k - 1, ',')))
                break;
            begin = k; // resume scanning before the init-list entry
        }
        return begin;
    }

    /** Dotted name of a `namespace a::b {` header ("" if anonymous). */
    std::string
    namespaceName(std::size_t begin, std::size_t at) const
    {
        std::string name;
        bool seen = false;
        for (std::size_t j = begin; j < at; ++j) {
            if (t_[j].kind == TokenKind::Identifier &&
                t_[j].text == "namespace") {
                seen = true;
                continue;
            }
            if (!seen || !isName(j) || t_[j].text == "inline")
                continue;
            if (!name.empty())
                name += "::";
            name += t_[j].text;
        }
        return name;
    }

    /** Tag name of a `class/struct/union Foo ... {` header. */
    std::string
    tagName(std::size_t begin, std::size_t at) const
    {
        std::string name;
        bool seen = false;
        for (std::size_t j = begin; j < at; ++j) {
            if (t_[j].kind == TokenKind::Identifier &&
                (t_[j].text == "class" || t_[j].text == "struct" ||
                 t_[j].text == "union")) {
                seen = true;
                continue;
            }
            if (seen && singleColon(j))
                break; // base-clause: the tag name is already behind us
            if (punct(j, '<'))
                break; // template argument list of a specialization
            if (seen && isName(j))
                name = t_[j].text;
        }
        return name;
    }

    /** Scope chain of the current stack joined with `::`. */
    std::string
    chain() const
    {
        std::string q;
        for (const Scope &s : scopes_) {
            if (s.name.empty())
                continue;
            if (!q.empty())
                q += "::";
            q += s.name;
        }
        return q;
    }

    /**
     * Try to read `[spelledQual::]name ( params ) [quals] [: init] {`
     * out of [begin, at). On success fills name/spelledQual and
     * returns true. Handles trailing return types (`-> T`), trailing
     * `noexcept(...)` / URSA_* annotation groups, constructor
     * initializer lists, and the macro-generated-name idiom
     * `DEFINE_THING(realName) {` (an all-caps macro whose single
     * identifier argument is taken as the function name).
     */
    bool
    functionHeader(std::size_t begin, std::size_t at, std::string &name,
                   std::string &spelledQual) const
    {
        // Region of interest ends at the init-list colon if present.
        // An access specifier's colon (`public:` before the first
        // inline member) is not one.
        std::size_t end = at;
        for (std::size_t j = begin; j < at; ++j) {
            if (punct(j, '(')) {
                const std::size_t close = closeParen(j);
                if (close == std::string::npos || close >= at)
                    return false;
                j = close;
                continue;
            }
            if (t_[j].kind == TokenKind::Identifier &&
                (t_[j].text == "public" || t_[j].text == "protected" ||
                 t_[j].text == "private") &&
                punct(j + 1, ':')) {
                ++j;
                continue;
            }
            if (singleColon(j)) {
                end = j;
                break;
            }
        }
        // Top-level paren groups inside the region, last to first.
        std::vector<std::size_t> opens;
        for (std::size_t j = begin; j < end; ++j) {
            if (punct(j, '(')) {
                opens.push_back(j);
                j = closeParen(j);
            }
        }
        for (std::size_t g = opens.size(); g-- > 0;) {
            const std::size_t open = opens[g];
            if (open == begin || !isName(open - 1))
                continue; // `(...)` with no name before it — casts etc.
            const std::string &cand = t_[open - 1].text;
            if (cand == "noexcept" || cand == "decltype")
                continue; // trailing noexcept(...) / decltype group
            if (cand.rfind("URSA_", 0) == 0 || macroish(cand)) {
                // Annotation macro after the parameter list — keep
                // looking left. If *no* group further left qualifies,
                // fall back to the macro-generated-name idiom below.
                if (g > 0)
                    continue;
                const std::size_t close = closeParen(open);
                std::string inner;
                for (std::size_t k = open + 1; k < close; ++k) {
                    if (t_[k].kind != TokenKind::Identifier)
                        return false;
                    if (!inner.empty())
                        return false; // more than one argument token
                    inner = t_[k].text;
                }
                if (inner.empty())
                    return false;
                name = inner;
                spelledQual.clear();
                return true;
            }
            name = cand;
            std::size_t k = open - 1; // the name's index
            while (k >= 3 && doubleColon(k - 2) && isName(k - 3)) {
                spelledQual = t_[k - 3].text +
                              (spelledQual.empty() ? "" : "::") +
                              spelledQual;
                k -= 3;
            }
            return true;
        }
        return false;
    }

    /**
     * Does the brace at `at` open a lambda body? Walk back over a
     * trailing-return/qualifier tail to `](...)` or a bare `]`. Only
     * consulted inside function bodies, where the main ambiguity —
     * subscripted array initializers — errs toward `lambda`, which
     * merely weakens those call sites for the recursion rule.
     */
    bool
    isLambdaBrace(std::size_t at) const
    {
        std::size_t j = at;
        while (j > 0) {
            const Token &p = t_[j - 1];
            if (p.kind == TokenKind::Identifier ||
                (p.kind == TokenKind::Punct &&
                 (p.text[0] == '>' || p.text[0] == '-' ||
                  p.text[0] == '*' || p.text[0] == '&' ||
                  p.text[0] == ':' || p.text[0] == '<')))
                --j;
            else
                break;
        }
        if (j == 0)
            return false;
        if (punct(j - 1, ']'))
            return true;
        if (!punct(j - 1, ')'))
            return false;
        int d = 0;
        for (std::size_t k = j; k-- > 0;) {
            if (punct(k, ')'))
                ++d;
            else if (punct(k, '(') && --d == 0)
                return k > 0 && punct(k - 1, ']');
        }
        return false;
    }

    /** Classify the brace at `at`, creating a FuncDef when it opens a
     * function body. */
    Scope
    classify(std::size_t at)
    {
        if (!scopes_.empty() && (scopes_.back().kind == ScopeKind::Function ||
                                 scopes_.back().kind == ScopeKind::Other)) {
            // Inside a body (or unknown brace): nested blocks, lambdas,
            // local classes — attribute everything to the enclosing
            // function, if any.
            return {ScopeKind::Other, "", scopes_.back().func,
                    scopes_.back().lambda || isLambdaBrace(at)};
        }
        const std::size_t begin = stmtBegin(at);
        bool sawEnum = false, sawTag = false, sawNamespace = false,
             sawAssign = false;
        for (std::size_t j = begin; j < at; ++j) {
            if (punct(j, '(')) { // ignore parameter/argument lists
                const std::size_t close = closeParen(j);
                if (close != std::string::npos && close < at)
                    j = close;
                continue;
            }
            if (t_[j].kind == TokenKind::Identifier) {
                if (t_[j].text == "enum")
                    sawEnum = true;
                else if (t_[j].text == "class" || t_[j].text == "struct" ||
                         t_[j].text == "union")
                    sawTag = true;
                else if (t_[j].text == "namespace")
                    sawNamespace = true;
            } else if (punct(j, '=')) {
                sawAssign = true;
            }
        }
        if (sawEnum)
            return {ScopeKind::Enum, "", -1};
        if (sawNamespace)
            return {ScopeKind::Namespace, namespaceName(begin, at), -1};
        if (sawTag && !sawAssign)
            return {ScopeKind::Type, tagName(begin, at), -1};
        if (sawAssign || at == begin)
            return {ScopeKind::Other, "", -1};
        std::string name, spelledQual;
        if (!functionHeader(begin, at, name, spelledQual))
            return {ScopeKind::Other, "", -1};
        // An initializer-list *entry* brace (`: a_{0}`) also sees the
        // constructor header; only the brace *after* all entries is the
        // body. Walk the entries: if `at` is one of their braces, it is
        // not the body.
        for (std::size_t j = begin; j < at; ++j) {
            if (punct(j, '(')) {
                j = closeParen(j);
                continue;
            }
            if (t_[j].kind == TokenKind::Identifier &&
                (t_[j].text == "public" || t_[j].text == "protected" ||
                 t_[j].text == "private") &&
                punct(j + 1, ':')) {
                ++j; // access specifier, not an initializer list
                continue;
            }
            if (!singleColon(j))
                continue;
            for (std::size_t k = j + 1; k < at;) {
                if (!isName(k))
                    return {ScopeKind::Other, "", -1};
                while (k + 1 < at && doubleColon(k + 1) && isName(k + 3))
                    k += 3;
                ++k;
                if (punct(k, '<')) { // templated base in a ctor-init
                    int d = 0;
                    for (; k < at; ++k) {
                        if (punct(k, '<'))
                            ++d;
                        else if (punct(k, '>') && --d == 0) {
                            ++k;
                            break;
                        }
                    }
                }
                if (punct(k, '{')) {
                    if (k == at)
                        return {ScopeKind::Other, "", -1}; // entry brace
                    int d = 0;
                    for (; k < at; ++k) {
                        if (punct(k, '{'))
                            ++d;
                        else if (punct(k, '}') && --d == 0) {
                            ++k;
                            break;
                        }
                    }
                } else if (punct(k, '(')) {
                    const std::size_t close = closeParen(k);
                    if (close == std::string::npos || close >= at)
                        return {ScopeKind::Other, "", -1};
                    k = close + 1;
                } else {
                    return {ScopeKind::Other, "", -1};
                }
                if (punct(k, ','))
                    ++k;
            }
            break;
        }
        FuncDef fd;
        fd.name = name;
        fd.line = t_[at].line;
        const std::string outer = chain();
        fd.qual = outer;
        if (!spelledQual.empty())
            fd.qual += (fd.qual.empty() ? "" : "::") + spelledQual;
        if (!scopes_.empty() && scopes_.back().kind == ScopeKind::Type)
            fd.klass = scopes_.back().name;
        else if (!spelledQual.empty()) {
            const std::size_t pos = spelledQual.rfind("::");
            fd.klass = pos == std::string::npos ? spelledQual
                                                : spelledQual.substr(pos + 2);
        }
        out_.funcs.push_back(std::move(fd));
        return {ScopeKind::Function, "",
                static_cast<int>(out_.funcs.size()) - 1};
    }

    /** One identifier token inside a function body. */
    void
    bodyToken(std::size_t i, FuncDef &fd, bool inLambda)
    {
        const std::string &w = t_[i].text;
        const int line = t_[i].line;

        if (w.rfind("URSA_CHECK", 0) == 0 || w.rfind("URSA_DCHECK", 0) == 0)
            fd.checkGuard = true;
        if (w == "thread_local")
            fd.sources.push_back({TaintKind::ThreadId, line, w});
        if (kClockIdents.count(w))
            fd.sources.push_back({TaintKind::WallClock, line, w});
        if (kRandSources.count(w))
            fd.sources.push_back({TaintKind::Randomness, line, w});
        if (kIoTypes.count(w))
            fd.sources.push_back({TaintKind::Blocking, line, w});
        if (t_[i].kind != TokenKind::Identifier)
            return;

        const bool call = punct(i + 1, '(');
        const bool dotMember = i > 0 && punct(i - 1, '.');
        const bool arrowMember = i > 1 && punct(i - 1, '>') &&
                                 punct(i - 2, '-');
        const bool member = dotMember || arrowMember;
        if (call) {
            if ((w == "time" || w == "clock") && !member) {
                // time(nullptr) / time(NULL) / time(0) / clock()
                const std::size_t a = i + 2;
                if (punct(a, ')') ||
                    (t_.size() > a && (t_[a].text == "nullptr" ||
                                       t_[a].text == "NULL" ||
                                       t_[a].text == "0") &&
                     punct(a + 1, ')')))
                    fd.sources.push_back({TaintKind::WallClock, line, w});
            }
            if ((w == "rand" || w == "srand") && !member)
                fd.sources.push_back({TaintKind::Randomness, line, w});
            if (w == "get_id" && member)
                fd.sources.push_back({TaintKind::ThreadId, line, w});
            if (kSleepCalls.count(w))
                fd.sources.push_back({TaintKind::Blocking, line, w});
            if (kIoCalls.count(w) && !member)
                fd.sources.push_back({TaintKind::Blocking, line, w});
            if (w == "wait" && member)
                fd.sources.push_back(
                    {TaintKind::Blocking, line, "CondVar::wait"});
        }
        // A lock-guard declaration acquires a lock even without a
        // directly following '(': MutexLock l(mu), lock_guard<M> l(mu).
        if (kGuardTypes.count(w) && isName(i + 1) && !member)
            fd.sources.push_back({TaintKind::Blocking, line, w});
        if (kGuardTypes.count(w) && punct(i + 1, '<'))
            fd.sources.push_back({TaintKind::Blocking, line, w});

        // Range-for over an unordered container: for (decl : name).
        if (w == "for" && punct(i + 1, '(')) {
            const std::size_t close = closeParen(i + 1);
            if (close != std::string::npos) {
                std::size_t colon = std::string::npos;
                for (std::size_t j = i + 2; j < close; ++j)
                    if (singleColon(j)) {
                        colon = j;
                        break;
                    }
                for (std::size_t j = colon + 1;
                     colon != std::string::npos && j < close; ++j)
                    if (t_[j].kind == TokenKind::Identifier &&
                        unorderedNames_.count(t_[j].text)) {
                        fd.sources.push_back(
                            {TaintKind::UnorderedIter, t_[j].line,
                             t_[j].text});
                        break;
                    }
            }
        }

        // --- call-site recording ---
        if (!call || isKeyword(w))
            return;
        if (w.rfind("URSA_", 0) == 0 || macroish(w))
            return; // macros are not call-graph edges
        if (kGuardTypes.count(w))
            return;
        CallSite cs;
        cs.name = w;
        cs.line = line;
        cs.member = member;
        cs.inLambda = inLambda;
        if (arrowMember && i > 2 && t_[i - 3].kind == TokenKind::Identifier &&
            t_[i - 3].text == "this") {
            cs.member = false;
            cs.viaThis = true;
        }
        if (!member) {
            // Collect any spelled qualifier: a::b::name(...).
            std::size_t k = i;
            while (k >= 3 && doubleColon(k - 2) && isName(k - 3)) {
                cs.qual = t_[k - 3].text +
                          (cs.qual.empty() ? "" : "::") + cs.qual;
                k -= 3;
            }
            if (cs.qual.empty() && !cs.viaThis && i > 0) {
                // `Type name(...)` is a declaration, not a call.
                const Token &p = t_[i - 1];
                if ((p.kind == TokenKind::Identifier &&
                     !isKeyword(p.text)) ||
                    punct(i - 1, '>') || punct(i - 1, '*') ||
                    punct(i - 1, '&'))
                    return;
            }
        }
        fd.calls.push_back(std::move(cs));
    }

    const std::vector<Token> &t_;
    FileModel &out_;
    std::vector<Scope> scopes_;
    std::set<std::string> unorderedNames_;
};

} // namespace

int
layerLevel(const std::string &layer)
{
    static const std::map<std::string, int> kLevels = {
        {"base", 0},      {"check", 1},  {"stats", 1},
        {"exec", 2},      {"sim", 3},    {"trace", 3},
        {"workload", 3},  {"spec", 4},   {"solver", 5},
        {"ml", 5},        {"baselines", 6}, {"core", 6},
        {"apps", 7}};
    const auto it = kLevels.find(layer);
    return it == kLevels.end() ? -1 : it->second;
}

FileModel
buildFileModel(const std::string &relPath, const std::string &source)
{
    FileModel fm;
    fm.path = relPath;
    const std::size_t slash = relPath.find('/');
    fm.layer = slash == std::string::npos ? "" : relPath.substr(0, slash);
    fm.lx = lex(source);
    for (const IncludeDirective &inc : fm.lx.includes)
        fm.includes.push_back({inc.header, inc.line, -1, inc.angled});
    FuncScanner(fm.lx, fm).run();
    return fm;
}

ProjectModel
buildProjectModel(std::vector<FileModel> files)
{
    ProjectModel pm;
    pm.files = std::move(files);
    std::sort(pm.files.begin(), pm.files.end(),
              [](const FileModel &a, const FileModel &b) {
                  return a.path < b.path;
              });
    for (std::size_t i = 0; i < pm.files.size(); ++i)
        pm.byPath[pm.files[i].path] = static_cast<int>(i);
    for (FileModel &fm : pm.files) {
        const std::size_t lastSlash = fm.path.rfind('/');
        const std::string dir =
            lastSlash == std::string::npos ? ""
                                           : fm.path.substr(0, lastSlash + 1);
        for (ResolvedInclude &inc : fm.includes) {
            if (inc.angled)
                continue;
            // Quoted includes are spelled root-relative in this tree;
            // fall back to includer-relative for projects that spell
            // sibling includes bare.
            inc.target = pm.fileIndex(inc.header);
            if (inc.target == -1 && !dir.empty())
                inc.target = pm.fileIndex(dir + inc.header);
        }
    }
    return pm;
}

} // namespace ursa::lint
