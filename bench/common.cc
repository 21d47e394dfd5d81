#include "common.h"

#include "baselines/autoscaler.h"
#include "baselines/firm.h"
#include "core/manager.h"
#include "core/profile_io.h"
#include "exec/thread_pool.h"
#include "sim/client.h"
#include "workload/arrival.h"
#include "workload/generator.h"

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <sstream>

namespace ursa::bench
{

namespace
{

namespace fs = std::filesystem;

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
    // Try the cache.
    {
        std::ifstream in(path);
        if (in) {
            std::size_t n = 0, fdim = 0, cdim = 0;
            in >> n >> fdim >> cdim;
            std::vector<baselines::SinanSample> samples(n);
            bool good = static_cast<bool>(in);
            for (auto &s : samples) {
                s.features.resize(fdim);
                s.latencyRatios.resize(cdim);
                int viol = 0;
                for (double &v : s.features)
                    in >> v;
                for (double &v : s.latencyRatios)
                    in >> v;
                in >> viol;
                s.violation = viol != 0;
                if (!in) {
                    good = false;
                    break;
                }
            }
            if (good && n == static_cast<std::size_t>(count))
                return samples;
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
    if (out && !samples.empty()) {
        out << samples.size() << ' ' << samples.front().features.size()
            << ' ' << samples.front().latencyRatios.size() << "\n";
        out.precision(17);
        for (const auto &s : samples) {
            for (double v : s.features)
                out << v << ' ';
            for (double v : s.latencyRatios)
                out << v << ' ';
            out << (s.violation ? 1 : 0) << "\n";
        }
    }
    return samples;
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

    std::vector<GridRow> grid;
    const std::vector<AppId> apps = {AppId::Social, AppId::VanillaSocial,
                                     AppId::Media, AppId::VideoPipeline};
    const std::vector<LoadKind> loads = {
        LoadKind::Constant, LoadKind::Diurnal, LoadKind::Burst,
        LoadKind::SkewedUp, LoadKind::SkewedDown};
    const std::vector<System> systems = {System::Ursa, System::Sinan,
                                         System::Firm, System::AutoA,
                                         System::AutoB};

    // Try the cache.
    {
        std::ifstream in(path);
        if (in) {
            std::string header;
            std::getline(in, header);
            std::string line;
            while (std::getline(in, line)) {
                std::istringstream ls(line);
                GridRow row;
                int a, l, s;
                char comma;
                ls >> a >> comma >> l >> comma >> s >> comma >>
                    row.result.violationRate >> comma >>
                    row.result.cpuCores >> comma >>
                    row.result.decisionLatencyUs;
                if (!ls)
                    break;
                row.app = static_cast<AppId>(a);
                row.load = static_cast<LoadKind>(l);
                row.system = static_cast<System>(s);
                grid.push_back(row);
            }
            if (grid.size() == apps.size() * loads.size() * systems.size())
                return grid;
            grid.clear();
        }
    }

    // Warm the per-app caches first (profile for Ursa, samples for
    // Sinan) so the grid cells below only read them; each app's two
    // artifacts are independent units of work.
    exec::parallelFor(apps.size() * 2, [&](std::size_t i) {
        const AppId id = apps[i / 2];
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
    const std::size_t cells =
        apps.size() * loads.size() * systems.size();
    grid = exec::parallelMap<GridRow>(cells, [&](std::size_t idx) {
        const AppId a = apps[idx / (loads.size() * systems.size())];
        const LoadKind l =
            loads[idx / systems.size() % loads.size()];
        const System s = systems[idx % systems.size()];
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
    if (out) {
        out << "app,load,system,violation,cpu,decision_us\n";
        out.precision(17);
        for (const GridRow &row : grid) {
            out << static_cast<int>(row.app) << ','
                << static_cast<int>(row.load) << ','
                << static_cast<int>(row.system) << ','
                << row.result.violationRate << ',' << row.result.cpuCores
                << ',' << row.result.decisionLatencyUs << "\n";
        }
    }
    return grid;
}

} // namespace ursa::bench
