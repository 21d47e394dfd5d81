/**
 * @file
 * Seeded mutation fuzz over the on-disk readers: exploration profiles
 * (core::loadAppProfile), CSV traces (workload::parseTraceCsvString),
 * and the bench caches of Sinan training samples
 * (bench::readSinanSamples) and the Fig. 11/12 grid
 * (bench::readGridCsv). Each starts from a valid checked-in file and
 * feeds it a few thousand deterministic mutants: byte flips,
 * truncations, duplicated and deleted lines, and counts or fields
 * replaced by huge, negative or non-numeric values. A mutant must
 * either load and round-trip through the matching writer, or be
 * rejected the way the reader documents. Any other exception fails the
 * test; a crash or a hang (the ctest timeout) fails the binary.
 */

#include "common.h"
#include "core/profile_io.h"
#include "stats/rng.h"
#include "workload/csv.h"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace
{

using namespace ursa;

constexpr int kMutants = 3000;
/// The Sinan cache is 15x the profile's size, and each mutant
/// re-parses all of it; a third of the mutants keeps the run short.
constexpr int kSinanMutants = kMutants / 3;

/** Replacements for a count or field: past every bound, negative,
 * past the range of any integer type, or not a number at all. */
const std::vector<std::string> kHostile = {
    "-1",
    "-9223372036854775808",
    "9223372036854775807",
    "18446744073709551615",
    "99999999999999999999999",
    "1001",
    "10001",
    "nan",
    "inf",
    "-inf",
    "1e999",
    "",
};

/** [begin, end) byte range of one token. */
using Span = std::pair<std::size_t, std::size_t>;

std::string
readFile(const std::string &path)
{
    std::ifstream in(path);
    EXPECT_TRUE(in) << path;
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

/** Byte ranges of the tokens between any of `separators`. */
std::vector<Span>
tokenSpans(const std::string &text, const std::string &separators)
{
    std::vector<Span> spans;
    std::size_t at = 0;
    while (at < text.size()) {
        const std::size_t begin = text.find_first_not_of(separators, at);
        if (begin == std::string::npos)
            break;
        std::size_t end = text.find_first_of(separators, begin);
        if (end == std::string::npos)
            end = text.size();
        spans.emplace_back(begin, end);
        at = end;
    }
    return spans;
}

/** Byte ranges of every line, newline included. */
std::vector<Span>
lineSpans(const std::string &text)
{
    std::vector<Span> spans;
    std::size_t begin = 0;
    while (begin < text.size()) {
        std::size_t end = text.find('\n', begin);
        end = end == std::string::npos ? text.size() : end + 1;
        spans.emplace_back(begin, end);
        begin = end;
    }
    return spans;
}

enum class Mutation
{
    FlipByte,
    Truncate,
    DuplicateLine,
    DeleteLine,
    HostileTarget, ///< one of the caller's targets (counts, fields)
    HostileToken,  ///< any token
    Count
};

/** One mutant of `base`; `targets` are the spans HostileTarget hits. */
std::string
mutate(const std::string &base, Mutation kind,
       const std::vector<Span> &targets, const std::vector<Span> &tokens,
       const std::vector<Span> &lines, stats::Rng &rng)
{
    std::string text = base;
    const auto pick = [&](const std::vector<Span> &from) {
        return from[rng.uniformInt(from.size())];
    };
    switch (kind) {
    case Mutation::FlipByte:
        text[rng.uniformInt(text.size())] ^=
            static_cast<char>(1 + rng.uniformInt(255));
        break;
    case Mutation::Truncate:
        text.resize(rng.uniformInt(text.size()));
        break;
    case Mutation::DuplicateLine: {
        const Span line = pick(lines);
        text.insert(line.second,
                    base.substr(line.first, line.second - line.first));
        break;
    }
    case Mutation::DeleteLine: {
        const Span line = pick(lines);
        text.erase(line.first, line.second - line.first);
        break;
    }
    case Mutation::HostileTarget:
    case Mutation::HostileToken: {
        const Span tok =
            pick(kind == Mutation::HostileTarget ? targets : tokens);
        text.replace(tok.first, tok.second - tok.first,
                     kHostile[rng.uniformInt(kHostile.size())]);
        break;
    }
    case Mutation::Count:
        break;
    }
    return text;
}

/** Spans of the counts a profile declares: grid size, service count,
 * and each service's level and class counts. */
std::vector<Span>
profileCounts(const std::string &text, const std::vector<Span> &tokens)
{
    std::vector<Span> counts;
    for (std::size_t i = 0; i < tokens.size(); ++i) {
        const std::string word = text.substr(
            tokens[i].first, tokens[i].second - tokens[i].first);
        if ((word == "grid" || word == "services") && i + 1 < tokens.size())
            counts.push_back(tokens[i + 1]);
        // service <name> <cpu> <bp> <samples> <time> <levels> <classes>
        if (word == "service" && i + 7 < tokens.size()) {
            counts.push_back(tokens[i + 6]);
            counts.push_back(tokens[i + 7]);
        }
    }
    return counts;
}

/** Whether the profile loaded; a loaded one must round-trip. */
bool
profileLoads(const std::string &text)
{
    core::AppProfile profile;
    try {
        std::istringstream in(text);
        profile = core::loadAppProfile(in);
    } catch (const std::runtime_error &) {
        return false;
    }
    std::ostringstream once;
    core::saveAppProfile(profile, once);
    std::istringstream back(once.str());
    std::ostringstream twice;
    core::saveAppProfile(core::loadAppProfile(back), twice);
    EXPECT_EQ(once.str(), twice.str());
    return true;
}

/** Whether the trace parsed; a parsed one must round-trip, and a
 * rejected one must say why. */
bool
csvParses(const std::string &text)
{
    workload::CsvError error;
    const auto trace = workload::parseTraceCsvString(text, &error);
    if (!trace) {
        EXPECT_FALSE(error.message.empty()) << error.format();
        return false;
    }
    std::ostringstream once;
    workload::writeTraceCsv(once, *trace);
    const auto back = workload::parseTraceCsvString(once.str());
    EXPECT_TRUE(back.has_value());
    std::ostringstream twice;
    if (back)
        workload::writeTraceCsv(twice, *back);
    EXPECT_EQ(once.str(), twice.str());
    return true;
}

/** Whether the Sinan cache loaded; a loaded one must round-trip. */
bool
sinanLoads(const std::string &text)
{
    static const apps::AppSpec app = bench::makeApp(bench::AppId::Social);
    const auto read = [](const std::string &from) {
        std::istringstream in(from);
        return bench::readSinanSamples(in, 500, app.services.size(),
                                       app.classes.size());
    };
    std::vector<baselines::SinanSample> samples;
    try {
        samples = read(text);
    } catch (const std::runtime_error &) {
        return false;
    }
    std::ostringstream once;
    bench::writeSinanSamples(once, samples);
    std::ostringstream twice;
    bench::writeSinanSamples(twice, read(once.str()));
    EXPECT_EQ(once.str(), twice.str());
    return true;
}

/** Whether the grid cache loaded; a loaded one must round-trip. */
bool
gridLoads(const std::string &text)
{
    std::vector<bench::GridRow> grid;
    try {
        std::istringstream in(text);
        grid = bench::readGridCsv(in);
    } catch (const std::runtime_error &) {
        return false;
    }
    std::ostringstream once;
    bench::writeGridCsv(once, grid);
    std::istringstream back(once.str());
    std::ostringstream twice;
    bench::writeGridCsv(twice, bench::readGridCsv(back));
    EXPECT_EQ(once.str(), twice.str());
    return true;
}

/** Runs `mutants` mutants of `base` through `accepts`; returns how
 * many were accepted and rejected, failing on any other exception. */
template <typename Accepts>
std::pair<int, int>
fuzz(const std::string &base, const std::vector<Span> &targets,
     const std::string &separators, std::uint64_t seed, Accepts accepts,
     bool targetsMustReject, int mutants = kMutants)
{
    const std::vector<Span> tokens = tokenSpans(base, separators);
    const std::vector<Span> lines = lineSpans(base);
    stats::Rng rng(seed);
    int accepted = 0, rejected = 0;
    for (int i = 0; i < mutants; ++i) {
        const auto kind = static_cast<Mutation>(
            i % static_cast<int>(Mutation::Count));
        const std::string text =
            mutate(base, kind, targets, tokens, lines, rng);
        try {
            const bool ok = accepts(text);
            ok ? ++accepted : ++rejected;
            if (targetsMustReject && kind == Mutation::HostileTarget) {
                EXPECT_FALSE(ok) << "mutant " << i << " loaded:\n" << text;
            }
        } catch (const std::exception &e) {
            ADD_FAILURE() << "mutant " << i << " (kind "
                          << static_cast<int>(kind) << ") threw "
                          << e.what();
        }
    }
    ::testing::Test::RecordProperty("accepted", accepted);
    ::testing::Test::RecordProperty("rejected", rejected);
    return {accepted, rejected};
}

TEST(ReaderFuzz, ProfileMutantsRoundTripOrThrowRuntimeError)
{
    const std::string base =
        readFile(URSA_SOURCE_DIR "/perfbench/profiles/social-network.txt");
    ASSERT_TRUE(profileLoads(base));
    const auto tokens = tokenSpans(base, " \n");
    const auto counts = profileCounts(base, tokens);
    ASSERT_EQ(counts.size(), 2u + 2u * 8u); // grid, services, 8 services
    // Every count mutant must be rejected: none can describe the rest
    // of the file, and the oversized ones must not size a vector.
    const auto [accepted, rejected] =
        fuzz(base, counts, " \n", 0x5eed, profileLoads, true);
    EXPECT_GT(accepted, 0);
    EXPECT_GT(rejected, 0);
    EXPECT_EQ(accepted + rejected, kMutants);
}

TEST(ReaderFuzz, CsvMutantsRoundTripOrReportAnError)
{
    const std::string base =
        readFile(URSA_WORKLOAD_TESTDATA "/sample_trace.csv");
    ASSERT_TRUE(csvParses(base));
    // Targets: every field of every data line.
    std::vector<Span> fields;
    for (const Span &line : lineSpans(base)) {
        if (base[line.first] == '#' ||
            base.compare(line.first, 15, "arrival_time_us") == 0)
            continue;
        for (Span f : tokenSpans(
                 base.substr(line.first, line.second - line.first), ",\n"))
            fields.emplace_back(line.first + f.first, line.first + f.second);
    }
    ASSERT_FALSE(fields.empty());
    // A hostile field can still parse (a huge timestamp on the last
    // line is legal), so only the round trip is required of it.
    const auto [accepted, rejected] =
        fuzz(base, fields, ",\n", 0xc5f, csvParses, false);
    EXPECT_GT(accepted, 0);
    EXPECT_GT(rejected, 0);
    EXPECT_EQ(accepted + rejected, kMutants);
}

TEST(ReaderFuzz, SinanSampleMutantsRoundTripOrThrowRuntimeError)
{
    const std::string base =
        readFile(URSA_SOURCE_DIR "/.ursa_cache/sinan_social.txt");
    ASSERT_TRUE(sinanLoads(base));
    // Targets: the three header counts. Each must match what the caller
    // expects, so every hostile count is rejected before it sizes a
    // vector.
    const auto tokens = tokenSpans(base, " \n");
    ASSERT_GE(tokens.size(), 3u);
    const std::vector<Span> counts(tokens.begin(), tokens.begin() + 3);
    const auto [accepted, rejected] =
        fuzz(base, counts, " \n", 0x51a4, sinanLoads, true, kSinanMutants);
    EXPECT_GT(accepted, 0);
    EXPECT_GT(rejected, 0);
    EXPECT_EQ(accepted + rejected, kSinanMutants);
}

TEST(ReaderFuzz, GridMutantsRoundTripOrThrowRuntimeError)
{
    const std::string base =
        readFile(URSA_SOURCE_DIR "/.ursa_cache/perf_grid_2024_30.csv");
    ASSERT_TRUE(gridLoads(base));
    // Targets: the app, load and system index of every data row. A
    // hostile index is out of range or not an integer, and a row that
    // loses its cell leaves the grid incomplete.
    std::vector<Span> cells;
    const auto lines = lineSpans(base);
    ASSERT_EQ(lines.size(), 101u); // header + 4 apps x 5 loads x 5 systems
    for (std::size_t i = 1; i < lines.size(); ++i) {
        const Span line = lines[i];
        const auto fields = tokenSpans(
            base.substr(line.first, line.second - line.first), ",\n");
        for (std::size_t f = 0; f < 3; ++f)
            cells.emplace_back(line.first + fields[f].first,
                               line.first + fields[f].second);
    }
    const auto [accepted, rejected] =
        fuzz(base, cells, ",\n", 0x9e1d, gridLoads, true);
    EXPECT_GT(accepted, 0);
    EXPECT_GT(rejected, 0);
    EXPECT_EQ(accepted + rejected, kMutants);
}

} // namespace
