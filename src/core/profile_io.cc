#include "core/profile_io.h"

#include "core/profile.h"
#include "sim/time.h"
#include "spec/app_spec.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <iomanip>
#include <sstream>
#include <stdexcept>

namespace ursa::core
{

namespace
{

constexpr const char *kMagic = "ursa-profile-v1";

// Bounds on the counts a profile declares, checked before anything is
// sized from them. Each is far above any real profile (the largest
// checked-in one has 7 grid points, 8 services, 12 levels and 8
// classes), so only a corrupt file reaches one.
constexpr long long kMaxGridPoints = 1000;
constexpr long long kMaxServices = 10000;
constexpr long long kMaxLevels = 10000;
constexpr long long kMaxClasses = 1000;

[[noreturn]] void
fail(const std::string &what)
{
    throw std::runtime_error("profile parse error: " + what);
}

void
expect(std::istream &in, const std::string &token)
{
    std::string got;
    in >> got;
    if (got != token)
        fail("expected '" + token + "', got '" + got + "'");
}

/** Read one value of type T; throws if the read fails. */
template <typename T>
T
read(std::istream &in, const char *what)
{
    T v{};
    if (!(in >> v))
        fail(std::string("unreadable ") + what);
    return v;
}

/** Read a count in [0, max]. */
std::size_t
readCount(std::istream &in, const char *what, long long max)
{
    const long long n = read<long long>(in, what);
    if (n < 0 || n > max)
        fail(std::string(what) + " " + std::to_string(n) +
             " outside [0, " + std::to_string(max) + "]");
    return static_cast<std::size_t>(n);
}

double
readFinite(std::istream &in, const char *what)
{
    const double v = read<double>(in, what);
    if (!std::isfinite(v))
        fail(std::string("non-finite ") + what);
    return v;
}

} // namespace

void
saveAppProfile(const AppProfile &profile, std::ostream &out)
{
    out << kMagic << "\n";
    out << std::setprecision(17);
    out << "grid " << profile.grid.size();
    for (double p : profile.grid)
        out << ' ' << p;
    out << "\nservices " << profile.services.size() << "\n";
    for (const ServiceProfile &svc : profile.services) {
        const std::size_t classes =
            svc.levels.empty() ? 0 : svc.levels.front().loadPerReplica.size();
        out << "service " << svc.serviceName << ' ' << svc.cpuPerReplica
            << ' ' << svc.bpThreshold << ' ' << svc.samples << ' '
            << svc.exploreTime << ' ' << svc.levels.size() << ' '
            << classes << "\n";
        for (const LprLevel &level : svc.levels) {
            out << "level " << level.replicas << ' '
                << level.cpuUtilization;
            for (double v : level.loadPerReplica)
                out << ' ' << v;
            out << "\n";
            for (std::size_t c = 0; c < classes; ++c) {
                out << "lat";
                if (level.latency[c].empty()) {
                    for (std::size_t g = 0; g < profile.grid.size(); ++g)
                        out << " -1";
                } else {
                    for (double v : level.latency[c])
                        out << ' ' << v;
                }
                out << "\n";
            }
        }
    }
}

bool
saveAppProfile(const AppProfile &profile, const std::string &path)
{
    std::ofstream out(path);
    if (!out)
        return false;
    saveAppProfile(profile, out);
    return static_cast<bool>(out);
}

AppProfile
loadAppProfile(std::istream &in)
{
    std::string magic;
    in >> magic;
    if (magic != kMagic)
        throw std::runtime_error("not an ursa profile (bad magic)");

    AppProfile profile;
    expect(in, "grid");
    profile.grid.resize(readCount(in, "grid size", kMaxGridPoints));
    for (std::size_t g = 0; g < profile.grid.size(); ++g) {
        const double p = readFinite(in, "grid point");
        if (p < 0.0 || p > 100.0 || (g > 0 && p <= profile.grid[g - 1]))
            fail("grid points must ascend within [0, 100]");
        profile.grid[g] = p;
    }

    expect(in, "services");
    profile.services.resize(readCount(in, "service count", kMaxServices));
    for (ServiceProfile &svc : profile.services) {
        expect(in, "service");
        svc.serviceName = read<std::string>(in, "service name");
        svc.cpuPerReplica = readFinite(in, "cpu per replica");
        svc.bpThreshold = readFinite(in, "bp threshold");
        svc.samples = read<int>(in, "sample count");
        svc.exploreTime = read<sim::SimTime>(in, "explore time");
        svc.levels.resize(readCount(in, "level count", kMaxLevels));
        const std::size_t numClasses =
            readCount(in, "class count", kMaxClasses);
        for (LprLevel &level : svc.levels) {
            expect(in, "level");
            level.replicas = read<int>(in, "replicas");
            if (level.replicas < 0)
                fail("negative replicas in service " + svc.serviceName);
            level.cpuUtilization = readFinite(in, "cpu utilization");
            level.loadPerReplica.resize(numClasses);
            for (double &v : level.loadPerReplica)
                v = readFinite(in, "load per replica");
            level.latency.assign(numClasses, {});
            for (std::vector<double> &latency : level.latency) {
                expect(in, "lat");
                // A row is all -1 (no data for the class) or all
                // nonnegative latencies.
                std::vector<double> row(profile.grid.size());
                for (double &v : row)
                    v = readFinite(in, "latency");
                if (std::all_of(row.begin(), row.end(),
                                [](double v) { return v == -1.0; }))
                    continue;
                if (std::any_of(row.begin(), row.end(),
                                [](double v) { return v < 0.0; }))
                    fail("negative latency in service " + svc.serviceName);
                latency = std::move(row);
            }
        }
    }
    return profile;
}

AppProfile
loadAppProfile(const std::string &path, bool &ok)
{
    ok = false;
    std::ifstream in(path);
    if (!in)
        return {};
    try {
        AppProfile profile = loadAppProfile(in);
        ok = true;
        return profile;
    } catch (const std::exception &) {
        return {};
    }
}

bool
profileMatches(const AppProfile &profile, const spec::AppSpec &app)
{
    if (profile.services.size() != app.services.size())
        return false;
    for (std::size_t s = 0; s < app.services.size(); ++s) {
        const ServiceProfile &svc = profile.services[s];
        if (svc.serviceName != app.services[s].name)
            return false;
        for (const LprLevel &level : svc.levels)
            if (level.loadPerReplica.size() != app.classes.size() ||
                level.latency.size() != app.classes.size())
                return false;
    }
    return true;
}

} // namespace ursa::core
