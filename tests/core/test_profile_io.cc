/** @file Round-trip tests for profile serialization. */

#include "core/profile_io.h"

#include "apps/app.h"

#include <gtest/gtest.h>

#include <sstream>
#include <string>

namespace
{

using namespace ursa::core;
namespace apps = ursa::apps;

AppProfile
sampleProfile()
{
    AppProfile prof;
    prof.grid = {90.0, 99.0, 99.9};
    ServiceProfile a;
    a.serviceName = "alpha";
    a.cpuPerReplica = 2.0;
    a.bpThreshold = 0.55;
    a.samples = 40;
    a.exploreTime = 123456789;
    LprLevel l1;
    l1.replicas = 4;
    l1.cpuUtilization = 0.31;
    l1.loadPerReplica = {12.5, 0.0};
    l1.latency = {{100.0, 220.0, 480.0}, {}};
    a.levels.push_back(l1);
    LprLevel l2 = l1;
    l2.replicas = 3;
    l2.cpuUtilization = 0.42;
    l2.loadPerReplica = {16.6, 0.0};
    l2.latency = {{140.0, 300.0, 650.0}, {}};
    a.levels.push_back(l2);
    prof.services.push_back(a);

    ServiceProfile b;
    b.serviceName = "beta";
    b.cpuPerReplica = 1.0;
    b.bpThreshold = 1.0;
    b.samples = 0;
    prof.services.push_back(b); // unexplored service, no levels
    return prof;
}

TEST(ProfileIo, RoundTripPreservesEverything)
{
    const AppProfile orig = sampleProfile();
    std::stringstream ss;
    saveAppProfile(orig, ss);
    const AppProfile back = loadAppProfile(ss);

    ASSERT_EQ(back.grid, orig.grid);
    ASSERT_EQ(back.services.size(), orig.services.size());
    const auto &sa = back.services[0];
    EXPECT_EQ(sa.serviceName, "alpha");
    EXPECT_DOUBLE_EQ(sa.cpuPerReplica, 2.0);
    EXPECT_DOUBLE_EQ(sa.bpThreshold, 0.55);
    EXPECT_EQ(sa.samples, 40);
    EXPECT_EQ(sa.exploreTime, 123456789);
    ASSERT_EQ(sa.levels.size(), 2u);
    EXPECT_EQ(sa.levels[0].replicas, 4);
    EXPECT_DOUBLE_EQ(sa.levels[1].cpuUtilization, 0.42);
    EXPECT_EQ(sa.levels[0].latency[0],
              (std::vector<double>{100.0, 220.0, 480.0}));
    EXPECT_TRUE(sa.levels[0].latency[1].empty());
    EXPECT_TRUE(back.services[1].levels.empty());
}

TEST(ProfileIo, RejectsBadMagic)
{
    std::stringstream ss("not-a-profile 1 2 3");
    EXPECT_THROW(loadAppProfile(ss), std::runtime_error);
}

TEST(ProfileIo, RejectsTruncated)
{
    const AppProfile orig = sampleProfile();
    std::stringstream ss;
    saveAppProfile(orig, ss);
    std::string text = ss.str();
    text.resize(text.size() / 2);
    std::stringstream cut(text);
    EXPECT_THROW(loadAppProfile(cut), std::runtime_error);
}

TEST(ProfileIo, FileHelpers)
{
    const std::string path = "/tmp/ursa_profile_io_test.txt";
    const AppProfile orig = sampleProfile();
    ASSERT_TRUE(saveAppProfile(orig, path));
    bool ok = false;
    const AppProfile back = loadAppProfile(path, ok);
    EXPECT_TRUE(ok);
    EXPECT_EQ(back.services.size(), 2u);
    loadAppProfile("/nonexistent/nope.txt", ok);
    EXPECT_FALSE(ok);
}

std::string
sampleText()
{
    std::stringstream ss;
    saveAppProfile(sampleProfile(), ss);
    return ss.str();
}

/** `text` with the first occurrence of `from` replaced by `to`. */
std::string
replaced(std::string text, const std::string &from, const std::string &to)
{
    const std::size_t at = text.find(from);
    EXPECT_NE(at, std::string::npos) << from;
    return text.replace(at, from.size(), to);
}

void
expectRejected(const std::string &text, const std::string &why)
{
    std::stringstream in(text);
    EXPECT_THROW(loadAppProfile(in), std::runtime_error) << why;
}

TEST(ProfileIo, RejectsHugeOrNegativeCountsBeforeAllocating)
{
    // A count past the loader's bounds must fail as a parse error, not
    // as std::bad_alloc or std::length_error from sizing a vector.
    const std::string text = sampleText();
    const std::string svc = "alpha 2 0.55000000000000004 40 123456789 ";
    for (const std::string n :
         {"-1", "1000000", "18446744073709551615", "99999999999999999999"}) {
        expectRejected(replaced(text, "grid 3", "grid " + n), "grid " + n);
        expectRejected(replaced(text, "services 2", "services " + n),
                       "services " + n);
        expectRejected(replaced(text, svc + "2 2", svc + n + " 2"),
                       "levels " + n);
        expectRejected(replaced(text, svc + "2 2", svc + "2 " + n),
                       "classes " + n);
    }
}

TEST(ProfileIo, RejectsNonFiniteNumbersAndNegativeReplicas)
{
    const std::string text = sampleText();
    for (const std::string bad : {"nan", "inf", "-inf", "1e999"}) {
        expectRejected(replaced(text, "grid 3 90", "grid 3 " + bad), bad);
        expectRejected(replaced(text, "alpha 2", "alpha " + bad), bad);
        expectRejected(replaced(text, "level 4 0.31", "level 4 " + bad), bad);
        expectRejected(replaced(text, "lat 100", "lat " + bad), bad);
    }
    expectRejected(replaced(text, "level 4", "level -4"), "replicas");
    expectRejected(replaced(text, "lat 100 220", "lat 100 -220"),
                   "negative latency");
    expectRejected(replaced(text, "lat -1 -1 -1", "lat -1 -1 5"),
                   "partial no-data row");
    expectRejected(replaced(text, "grid 3 90 99", "grid 3 99 90"),
                   "descending grid");
}

TEST(ProfileIo, CheckedInProfilesLoadAndMatchTheirApps)
{
    // perfbench's checked-in profile must describe the social network:
    // the same service names in order, every level sized for its
    // classes.
    const std::string path =
        URSA_SOURCE_DIR "/perfbench/profiles/social-network.txt";
    const apps::AppSpec app = apps::makeSocialNetwork();
    bool ok = false;
    const AppProfile prof = loadAppProfile(path, ok);
    ASSERT_TRUE(ok) << path;
    ASSERT_EQ(prof.services.size(), app.services.size());
    for (std::size_t s = 0; s < app.services.size(); ++s) {
        const ServiceProfile &svc = prof.services[s];
        EXPECT_EQ(svc.serviceName, app.services[s].name);
        for (const LprLevel &level : svc.levels) {
            EXPECT_EQ(level.loadPerReplica.size(), app.classes.size())
                << svc.serviceName;
            EXPECT_EQ(level.latency.size(), app.classes.size())
                << svc.serviceName;
        }
    }
}

} // namespace
