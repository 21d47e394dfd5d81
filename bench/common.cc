#include "common.h"

#include "baselines/autoscaler.h"
#include "baselines/firm.h"
#include "core/manager.h"
#include "core/profile_io.h"
#include "exec/thread_pool.h"
#include "sim/client.h"
#include "workload/arrival.h"
#include "workload/generator.h"

#include <charconv>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <stdexcept>
#include <string_view>

namespace ursa::bench
{

namespace
{

namespace fs = std::filesystem;

/** The Fig. 11/12 grid's axes, in row order (app-major). */
const std::vector<AppId> kGridApps = {AppId::Social, AppId::VanillaSocial,
                                      AppId::Media, AppId::VideoPipeline};
const std::vector<LoadKind> kGridLoads = {
    LoadKind::Constant, LoadKind::Diurnal, LoadKind::Burst,
    LoadKind::SkewedUp, LoadKind::SkewedDown};
const std::vector<System> kGridSystems = {System::Ursa, System::Sinan,
                                          System::Firm, System::AutoA,
                                          System::AutoB};

constexpr std::string_view kGridHeader =
    "app,load,system,violation,cpu,decision_us";

[[noreturn]] void
cacheFail(const std::string &what)
{
    throw std::runtime_error("cache parse error: " + what);
}

/** Read a count and require it to equal `want`, before anything is
 * sized from it. */
void
expectCount(std::istream &in, const char *what, std::size_t want)
{
    long long n = 0;
    if (!(in >> n))
        cacheFail(std::string("unreadable ") + what);
    if (n < 0 || static_cast<unsigned long long>(n) != want)
        cacheFail(std::string(what) + " " + std::to_string(n) +
                  ", expected " + std::to_string(want));
}

double
readFiniteValue(std::istream &in, const char *what)
{
    double v = 0.0;
    if (!(in >> v) || !std::isfinite(v))
        cacheFail(std::string("unreadable or non-finite ") + what);
    return v;
}

/** Parse the whole of `field` as T; false on any leftover or error. */
template <typename T>
bool
parseWhole(std::string_view field, T &out)
{
    const char *end = field.data() + field.size();
    const auto res = std::from_chars(field.data(), end, out);
    return !field.empty() && res.ec == std::errc{} && res.ptr == end;
}

/** Make the mix/profile for a (app, load) cell measurement phase. */
struct CellLoad
{
    sim::RateProfile rate;
    std::vector<double> mix;
};

CellLoad
cellLoad(const apps::AppSpec &app, AppId id, LoadKind load,
         sim::SimTime measureStart, sim::SimTime measureLen)
{
    CellLoad out;
    out.mix = app.exploreMix;
    switch (load) {
      case LoadKind::Constant:
        out.rate = workload::constantRate(app.nominalRps);
        break;
      case LoadKind::Diurnal:
        out.rate = workload::shifted(
            workload::diurnalRate(app.nominalRps, 2.0 * app.nominalRps,
                                  measureLen),
            measureStart);
        break;
      case LoadKind::Burst:
        // Sharp +100% step for a fifth of the window (paper: +50-125%).
        out.rate = workload::burstRate(app.nominalRps, 1.0,
                                       measureStart + measureLen * 2 / 5,
                                       measureLen / 5);
        break;
      case LoadKind::SkewedUp:
        out.rate = workload::constantRate(app.nominalRps);
        out.mix = skewedMix(app, id, true);
        break;
      case LoadKind::SkewedDown:
        out.rate = workload::constantRate(app.nominalRps);
        out.mix = skewedMix(app, id, false);
        break;
    }
    return out;
}

/**
 * One mutex per cache path: concurrent grid cells needing the same
 * cached artifact wait for the first computation instead of racing on
 * the file (std::map keeps each mutex pinned in place).
 */
std::mutex &
cachePathMutex(const std::string &path)
{
    static std::mutex tableMu;
    static std::map<std::string, std::mutex> table;
    std::lock_guard<std::mutex> lock(tableMu);
    return table[path];
}

core::ExplorationOptions
explorationFor(const PerfHarnessOptions &opts)
{
    return opts.exploration ? *opts.exploration
                            : paperExploration(opts.seed);
}

/**
 * The mutually-exclusive system handles of one deployment cell, alive
 * until the cell's last cluster.run(). Firm's training client: even
 * stopped, its next-arrival callback stays queued capturing `this`,
 * so it must outlive every cluster.run() of the cell — it lives here,
 * not in its switch case.
 */
struct Deployment
{
    std::unique_ptr<core::UrsaManager> ursa;
    std::unique_ptr<baselines::Autoscaler> autoscaler;
    std::unique_ptr<baselines::SinanModel> sinanModel;
    std::unique_ptr<baselines::SinanScheduler> sinanScheduler;
    std::unique_ptr<baselines::FirmController> firm;
    std::unique_ptr<sim::OpenLoopClient> trainClient;
    sim::SimTime measureStart = 0;

    double decisionLatencyUs() const
    {
        if (ursa)
            return ursa->deployDecisionLatencyUs().mean();
        if (autoscaler)
            return autoscaler->decisionLatencyUs().mean();
        if (sinanScheduler)
            return sinanScheduler->decisionLatencyUs().mean();
        if (firm)
            return firm->decisionLatencyUs().mean();
        return 0.0;
    }
};

/**
 * Instantiate and prepare one system on an already-instantiated
 * cluster: exploration/training/convergence before the measured
 * window, under the canonical mix. `deployRps`/`deployMix` are the
 * expected load the one-shot planners (Ursa) size for; the measurement
 * client is the caller's.
 */
Deployment
prepareSystem(sim::Cluster &cluster, const apps::AppSpec &app,
              const std::string &tag, System system, double deployRps,
              const std::vector<double> &deployMix, std::uint64_t seed,
              const PerfHarnessOptions &opts)
{
    // Autoscalers start cold (1 replica) and converge from below — the
    // regime where step scaling settles just under its threshold. The
    // learned systems keep the configured defaults their training also
    // started from, and Ursa applies its plan at deploy() anyway.
    if (system == System::AutoA || system == System::AutoB) {
        for (sim::ServiceId s = 0; s < cluster.numServices(); ++s)
            cluster.service(s).setReplicas(1);
    }

    Deployment dep;
    switch (system) {
      case System::Ursa: {
        const auto profile = cachedProfile(app, tag, explorationFor(opts));
        dep.ursa =
            std::make_unique<core::UrsaManager>(cluster, app, profile);
        // Thresholds computed once at the start of the experiment
        // (Sec. VII-E), from the expected load of this cell.
        if (!dep.ursa->deploy(deployRps, deployMix))
            throw std::runtime_error(std::string("Ursa infeasible on ") +
                                     tag);
        dep.measureStart = opts.warmup;
        break;
      }
      case System::AutoA:
      case System::AutoB: {
        dep.autoscaler = std::make_unique<baselines::Autoscaler>(
            cluster, system == System::AutoA ? baselines::autoAConfig()
                                             : baselines::autoBConfig());
        dep.autoscaler->start(0);
        // Extra warmup lets step scaling converge from the cold start.
        dep.measureStart = opts.warmup + 10 * sim::kMin;
        break;
      }
      case System::Sinan: {
        const auto samples =
            cachedSinanSamples(app, tag, opts.sinanSamples, opts.seed);
        const auto cfg = benchSinanConfig(app, opts.seed);
        dep.sinanModel = std::make_unique<baselines::SinanModel>(app, cfg);
        dep.sinanModel->train(samples);
        dep.sinanScheduler = std::make_unique<baselines::SinanScheduler>(
            cluster, app, *dep.sinanModel, cfg);
        dep.sinanScheduler->start(0);
        dep.measureStart = opts.warmup + 5 * sim::kMin;
        break;
      }
      case System::Firm: {
        baselines::FirmConfig cfg;
        cfg.seed = opts.seed + 3;
        dep.firm = std::make_unique<baselines::FirmController>(cluster,
                                                               app, cfg);
        // Online training under the canonical mix, then deploy.
        dep.trainClient = std::make_unique<sim::OpenLoopClient>(
            cluster, workload::constantRate(deployRps),
            sim::fixedMix(app.exploreMix), seed + 11);
        dep.trainClient->start(0);
        dep.firm->trainOnline(opts.firmTrainSteps);
        dep.trainClient->stop();
        dep.firm->start(cluster.events().now());
        dep.measureStart = cluster.events().now() + opts.warmup;
        break;
      }
    }
    return dep;
}

/** Measured-window metrics of a finished cell. */
CellResult
collectResult(const sim::Cluster &cluster, const Deployment &dep,
              sim::SimTime measureStart, sim::SimTime measureEnd)
{
    CellResult result;
    result.violationRate =
        cluster.metrics().overallSlaViolationRate(measureStart,
                                                  measureEnd);
    result.cpuCores = 0.0;
    for (sim::ServiceId s = 0; s < cluster.numServices(); ++s)
        result.cpuCores +=
            cluster.metrics().meanAllocation(s, measureStart, measureEnd);
    result.decisionLatencyUs = dep.decisionLatencyUs();
    return result;
}

} // namespace

std::string
cacheDir()
{
    const char *env = std::getenv("URSA_CACHE_DIR");
    const std::string dir = env ? env : ".ursa_cache";
    std::error_code ec;
    fs::create_directories(dir, ec);
    return dir;
}

core::ExplorationOptions
paperExploration(std::uint64_t seed)
{
    core::ExplorationOptions opts;
    opts.window = sim::kMin;  // the paper samples once per minute
    opts.windowsPerLevel = 10; // 10 samples per LPR level (Sec. VII-C)
    opts.seed = seed;
    opts.bpOptions.stepDuration = 2 * sim::kMin;
    opts.bpOptions.sampleWindow = 10 * sim::kSec;
    opts.bpOptions.maxSteps = 12;
    return opts;
}

core::AppProfile
cachedProfile(const apps::AppSpec &app, const std::string &tag,
              std::uint64_t seed)
{
    return cachedProfile(app, tag, paperExploration(seed));
}

core::AppProfile
cachedProfile(const apps::AppSpec &app, const std::string &tag,
              const core::ExplorationOptions &explore)
{
    const std::string path = cacheDir() + "/profile_" + tag + ".txt";
    std::lock_guard<std::mutex> lock(cachePathMutex(path));
    bool ok = false;
    core::AppProfile profile = core::loadAppProfile(path, ok);
    if (ok && core::profileMatches(profile, app))
        return profile;
    core::ExplorationController explorer(explore);
    profile = explorer.exploreApp(app);
    core::saveAppProfile(profile, path);
    return profile;
}

baselines::SinanConfig
benchSinanConfig(const apps::AppSpec &app, std::uint64_t seed)
{
    (void)app;
    baselines::SinanConfig cfg;
    cfg.interval = 30 * sim::kSec;
    cfg.seed = seed;
    return cfg;
}

std::vector<baselines::SinanSample>
cachedSinanSamples(const apps::AppSpec &app, const std::string &tag,
                   int count, std::uint64_t seed)
{
    const std::string path = cacheDir() + "/sinan_" + tag + ".txt";
    std::lock_guard<std::mutex> lock(cachePathMutex(path));
    {
        std::ifstream in(path);
        if (in) {
            try {
                return readSinanSamples(in, static_cast<std::size_t>(count),
                                        app.services.size(),
                                        app.classes.size());
            } catch (const std::runtime_error &) {
                // Stale or corrupt: recompute below.
            }
        }
    }
    // Collect on dedicated clusters under the canonical mix. The
    // collection is sharded into a FIXED number of independent
    // timelines (not a function of the thread count), so the sample
    // set is deterministic for any URSA_THREADS while the shards run
    // in parallel.
    const int shards = std::max(1, std::min(count, 8));
    const int base = count / shards;
    const int rem = count % shards;
    const auto parts =
        exec::parallelMap<std::vector<baselines::SinanSample>>(
            static_cast<std::size_t>(shards), [&](std::size_t k) {
                const int cnt =
                    base + (static_cast<int>(k) < rem ? 1 : 0);
                if (cnt == 0)
                    return std::vector<baselines::SinanSample>{};
                const std::uint64_t shardSeed =
                    (seed ^ 0x51a4) + 0x9e3779b9ULL * k;
                sim::Cluster cluster(shardSeed, 30 * sim::kSec);
                app.instantiate(cluster);
                sim::OpenLoopClient client(
                    cluster, workload::constantRate(app.nominalRps),
                    sim::fixedMix(app.exploreMix), shardSeed + 5);
                client.start(0);
                auto cfg = benchSinanConfig(app, seed);
                cfg.seed += 1000003ULL * k; // per-shard randomization
                baselines::SinanCollector collector(cluster, app, cfg);
                return collector.collect(cnt);
            });
    std::vector<baselines::SinanSample> samples;
    samples.reserve(count);
    for (const auto &part : parts)
        samples.insert(samples.end(), part.begin(), part.end());

    std::ofstream out(path);
    if (out && !samples.empty())
        writeSinanSamples(out, samples);
    return samples;
}

std::vector<baselines::SinanSample>
readSinanSamples(std::istream &in, std::size_t count, std::size_t services,
                 std::size_t classes)
{
    expectCount(in, "sample count", count);
    expectCount(in, "feature count", services + classes);
    expectCount(in, "ratio count", classes);
    std::vector<baselines::SinanSample> samples(count);
    for (auto &s : samples) {
        s.features.resize(services + classes);
        s.latencyRatios.resize(classes);
        for (double &v : s.features)
            v = readFiniteValue(in, "feature");
        for (double &v : s.latencyRatios)
            v = readFiniteValue(in, "latency ratio");
        int viol = 0;
        if (!(in >> viol) || (viol != 0 && viol != 1))
            cacheFail("violation flag is not 0 or 1");
        s.violation = viol != 0;
    }
    std::string rest;
    if (in >> rest)
        cacheFail("trailing data after the last sample");
    return samples;
}

void
writeSinanSamples(std::ostream &out,
                  const std::vector<baselines::SinanSample> &samples)
{
    out << samples.size() << ' '
        << (samples.empty() ? 0 : samples.front().features.size()) << ' '
        << (samples.empty() ? 0 : samples.front().latencyRatios.size())
        << "\n";
    out.precision(17);
    for (const auto &s : samples) {
        for (double v : s.features)
            out << v << ' ';
        for (double v : s.latencyRatios)
            out << v << ' ';
        out << (s.violation ? 1 : 0) << "\n";
    }
}

const char *
toString(System s)
{
    switch (s) {
      case System::Ursa:
        return "Ursa";
      case System::Sinan:
        return "Sinan";
      case System::Firm:
        return "Firm";
      case System::AutoA:
        return "Auto-a";
      case System::AutoB:
        return "Auto-b";
    }
    return "?";
}

const char *
toString(LoadKind l)
{
    switch (l) {
      case LoadKind::Constant:
        return "constant";
      case LoadKind::Diurnal:
        return "diurnal";
      case LoadKind::Burst:
        return "burst";
      case LoadKind::SkewedUp:
        return "skewed+";
      case LoadKind::SkewedDown:
        return "skewed-";
    }
    return "?";
}

const char *
toString(AppId a)
{
    switch (a) {
      case AppId::Social:
        return "social";
      case AppId::VanillaSocial:
        return "vanilla-social";
      case AppId::Media:
        return "media";
      case AppId::VideoPipeline:
        return "video-pipeline";
    }
    return "?";
}

apps::AppSpec
makeApp(AppId id)
{
    switch (id) {
      case AppId::Social:
        return apps::makeSocialNetwork(false);
      case AppId::VanillaSocial:
        return apps::makeSocialNetwork(true);
      case AppId::Media:
        return apps::makeMediaService();
      case AppId::VideoPipeline:
        return apps::makeVideoPipeline(0.25);
    }
    throw std::logic_error("bad app id");
}

std::vector<double>
skewedMix(const apps::AppSpec &app, AppId id, bool up)
{
    if (id == AppId::VideoPipeline) {
        // Paper: high:low ratios 40:60 and 60:40, unseen in exploration.
        return up ? std::vector<double>{0.6, 0.4}
                  : std::vector<double>{0.4, 0.6};
    }
    const char *cls = (id == AppId::Media) ? "upload-video"
                                           : "update-timeline";
    return apps::skewMix(app, app.exploreMix, cls, up ? 2.0 : 0.5);
}

CellResult
runCell(System system, AppId appId, LoadKind load,
        const PerfHarnessOptions &opts)
{
    const apps::AppSpec app = makeApp(appId);
    const std::string tag = toString(appId);
    const std::uint64_t seed =
        opts.seed + 131 * static_cast<int>(system) +
        17 * static_cast<int>(load) + 7 * static_cast<int>(appId);

    sim::Cluster cluster(seed);
    app.instantiate(cluster);

    // Prep phase: Ursa sizes its one-shot plan for this cell's mix at
    // the nominal rate.
    const auto deployMix = cellLoad(app, appId, load, 0, opts.measure).mix;
    const Deployment dep = prepareSystem(cluster, app, tag, system,
                                         app.nominalRps, deployMix,
                                         seed, opts);

    // Measurement phase.
    const CellLoad cell =
        cellLoad(app, appId, load, dep.measureStart, opts.measure);
    sim::OpenLoopClient client(cluster, cell.rate,
                               sim::fixedMix(cell.mix), seed + 23);
    client.start(cluster.events().now());
    const sim::SimTime measureEnd = dep.measureStart + opts.measure;
    cluster.run(measureEnd);
    return collectResult(cluster, dep, dep.measureStart, measureEnd);
}

CellResult
runTraceCell(System system, AppId appId,
             const workload::ArrivalTrace &trace,
             const PerfHarnessOptions &opts)
{
    if (trace.entries.empty())
        throw std::runtime_error("runTraceCell on an empty trace");

    const apps::AppSpec app = makeApp(appId);
    const std::string tag = toString(appId);
    const std::uint64_t seed = opts.seed +
                               131 * static_cast<int>(system) +
                               7 * static_cast<int>(appId) + 53;

    sim::Cluster cluster(seed);
    app.instantiate(cluster);

    // Deploy thresholds come from the trace itself: its realized mean
    // rate and class mix (classes it never exercises get weight 0).
    std::vector<double> mix = trace.classMix();
    if (mix.size() > static_cast<std::size_t>(cluster.numClasses()))
        throw std::runtime_error(
            std::string("trace uses request classes ") + tag +
            " does not define");
    mix.resize(static_cast<std::size_t>(cluster.numClasses()), 0.0);

    const Deployment dep = prepareSystem(cluster, app, tag, system,
                                         trace.meanRate(), mix, seed,
                                         opts);

    // Measurement phase: loop the trace so it covers warmup plus the
    // measured window regardless of its recorded duration.
    workload::TraceReplayClient client(cluster, trace, /*loop=*/true);
    client.start(cluster.events().now());
    const sim::SimTime measureEnd = dep.measureStart + opts.measure;
    cluster.run(measureEnd);
    return collectResult(cluster, dep, dep.measureStart, measureEnd);
}

std::vector<GridRow>
performanceGrid(const PerfHarnessOptions &opts)
{
    const std::string path =
        cacheDir() + "/perf_grid_" + std::to_string(opts.seed) + "_" +
        std::to_string(opts.measure / sim::kMin) + ".csv";

    {
        std::ifstream in(path);
        if (in) {
            try {
                return readGridCsv(in);
            } catch (const std::runtime_error &) {
                // Stale or corrupt: recompute below.
            }
        }
    }

    // Warm the per-app caches first (profile for Ursa, samples for
    // Sinan) so the grid cells below only read them; each app's two
    // artifacts are independent units of work.
    exec::parallelFor(kGridApps.size() * 2, [&](std::size_t i) {
        const AppId id = kGridApps[i / 2];
        const apps::AppSpec app = makeApp(id);
        if (i % 2 == 0)
            cachedProfile(app, toString(id), explorationFor(opts));
        else
            cachedSinanSamples(app, toString(id), opts.sinanSamples,
                               opts.seed);
    });

    // The 100 cells are independent simulations; fan them out. Each
    // cell owns its cluster and derives every seed from (system, app,
    // load), so the grid is bit-identical for any thread count.
    const std::size_t loads = kGridLoads.size();
    const std::size_t systems = kGridSystems.size();
    const std::size_t cells = kGridApps.size() * loads * systems;
    const auto grid = exec::parallelMap<GridRow>(cells, [&](std::size_t idx) {
        const AppId a = kGridApps[idx / (loads * systems)];
        const LoadKind l = kGridLoads[idx / systems % loads];
        const System s = kGridSystems[idx % systems];
        GridRow row;
        row.app = a;
        row.load = l;
        row.system = s;
        row.result = runCell(s, a, l, opts);
        std::fprintf(stderr,
                     "  [grid] %-14s %-9s %-7s viol=%5.1f%% cpu=%6.1f\n",
                     toString(a), toString(l), toString(s),
                     100.0 * row.result.violationRate,
                     row.result.cpuCores);
        return row;
    });

    std::ofstream out(path);
    if (out)
        writeGridCsv(out, grid);
    return grid;
}

std::vector<GridRow>
readGridCsv(std::istream &in)
{
    std::string line;
    if (!std::getline(in, line) || line != kGridHeader)
        cacheFail("missing grid header");
    const std::size_t cells =
        kGridApps.size() * kGridLoads.size() * kGridSystems.size();
    std::vector<GridRow> grid(cells);
    std::vector<bool> seen(cells, false);
    std::size_t rows = 0;
    while (std::getline(in, line)) {
        std::vector<std::string_view> fields;
        std::string_view rest(line);
        for (;;) {
            const std::size_t comma = rest.find(',');
            fields.push_back(rest.substr(0, comma));
            if (comma == std::string_view::npos)
                break;
            rest.remove_prefix(comma + 1);
        }
        int a = -1, l = -1, s = -1;
        GridRow row;
        if (fields.size() != 6 || !parseWhole(fields[0], a) ||
            !parseWhole(fields[1], l) || !parseWhole(fields[2], s) ||
            !parseWhole(fields[3], row.result.violationRate) ||
            !parseWhole(fields[4], row.result.cpuCores) ||
            !parseWhole(fields[5], row.result.decisionLatencyUs))
            cacheFail("malformed grid row '" + line + "'");
        if (a < 0 || a >= static_cast<int>(kGridApps.size()) || l < 0 ||
            l >= static_cast<int>(kGridLoads.size()) || s < 0 ||
            s >= static_cast<int>(kGridSystems.size()))
            cacheFail("grid cell out of range in '" + line + "'");
        for (double v : {row.result.violationRate, row.result.cpuCores,
                         row.result.decisionLatencyUs})
            if (!std::isfinite(v) || v < 0.0)
                cacheFail("negative or non-finite value in '" + line + "'");
        const std::size_t idx =
            (static_cast<std::size_t>(a) * kGridLoads.size() +
             static_cast<std::size_t>(l)) *
                kGridSystems.size() +
            static_cast<std::size_t>(s);
        if (seen[idx])
            cacheFail("duplicate grid cell '" + line + "'");
        seen[idx] = true;
        row.app = kGridApps[a];
        row.load = kGridLoads[l];
        row.system = kGridSystems[s];
        grid[idx] = row;
        ++rows;
    }
    if (rows != cells)
        cacheFail("grid has " + std::to_string(rows) + " of " +
                  std::to_string(cells) + " cells");
    return grid;
}

void
writeGridCsv(std::ostream &out, const std::vector<GridRow> &grid)
{
    out << kGridHeader << "\n";
    out.precision(17);
    for (const GridRow &row : grid) {
        out << static_cast<int>(row.app) << ','
            << static_cast<int>(row.load) << ','
            << static_cast<int>(row.system) << ','
            << row.result.violationRate << ',' << row.result.cpuCores << ','
            << row.result.decisionLatencyUs << "\n";
    }
}

} // namespace ursa::bench
