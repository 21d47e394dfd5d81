/**
 * @file
 * Pipeline benchmark: the three stages of Ursa a user waits on, plus
 * the Firm baseline, each timed from the outside through the public
 * APIs of core, sim, workload, stats and baselines/ml.
 *
 *   explore-social          exploreApp at paper scale, then a sweep of
 *                           UrsaOptimizer::solve calls on its profile
 *   control-social-diurnal  UrsaManager on a checked-in profile under a
 *                           diurnal day whose second half is skewed
 *   firm-social-burst       FirmController::trainOnline, then Firm
 *                           deployed under a +100% burst
 *
 * One run repeats whole passes (set-up, prepare stage, measured run
 * stage, drain) until --seconds have elapsed. Each stage is cut into
 * units that do the same work in every pass (one exploreApp, a deploy,
 * a training step, a solve, a simulated second); a stage's host time
 * sums each unit's fastest pass, a round takes its fastest pass, and
 * set-up takes the median. Every simulated outcome and work count must
 * repeat exactly across passes. With --trace 1, passes alternate
 * untraced and traced; traced passes record spans around every call
 * into a layer, give the per-layer metrics, and are written as Chrome
 * trace_event JSON to --trace-out.
 *
 * The last line of standard output is one JSON object:
 * {"correct", "attempted", "failed", "metrics"}. The exit code is
 * non-zero when any correctness gate failed.
 */

#include "common.h"

#include "apps/app.h"
#include "baselines/firm.h"
#include "check/check.h"
#include "core/bp_profiler.h"
#include "core/explorer.h"
#include "core/manager.h"
#include "core/mip_model.h"
#include "core/profile.h"
#include "core/profile_io.h"
#include "sim/client.h"
#include "sim/cluster.h"
#include "sim/time.h"
#include "stats/rng.h"
#include "workload/arrival.h"
#include "workload/generator.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

namespace
{

using namespace ursa;
using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

// --- fixed workload shape ---------------------------------------------

constexpr sim::SimTime kInterval = 15 * sim::kSec; ///< control interval
constexpr sim::SimTime kStep = sim::kSec;          ///< timed run unit
constexpr sim::SimTime kDay = 30 * sim::kMin;      ///< diurnal day
constexpr sim::SimTime kBurstWindow = 25 * sim::kMin; ///< 100 rounds
constexpr int kFirmTrainSteps = 60;
constexpr int kSweepLoads = 400; ///< load points per mix (x3 mixes)
constexpr int kSweepReps = 5;
constexpr int kExploreSetupReps = 25;
/**
 * Seed of the offline stages: exploration (explore-social and
 * profiles/social-network.txt) and Firm's training. Their work adapts
 * to what they measure, so it moves with the seed far more than any
 * code change would: exploreApp took 3.9-5.8 s over seeds 1-5, and
 * Firm's training left it at 171-330 allocated cores. --seed draws the
 * inputs of the online stages instead.
 */
constexpr std::uint64_t kOfflineSeed = 2024;
constexpr double kSweepMinScale = 0.25;
constexpr double kSweepMaxScale = 2.5;
constexpr sim::SimTime kDrainLimit = 10 * sim::kMin;
constexpr int kMaxPasses = 64;

const char *const kExplore = "explore-social";
const char *const kControl = "control-social-diurnal";
const char *const kFirm = "firm-social-burst";

// --- spans -------------------------------------------------------------

/**
 * In-memory span recorder: name, start, end and parent of every timed
 * call a traced pass makes into a layer. Written once at exit.
 */
class SpanLog
{
  public:
    int open(const std::string &name, int parent)
    {
        spans_.push_back({name, parent, Clock::now(), {}});
        return static_cast<int>(spans_.size()) - 1;
    }

    void close(int id)
    {
        spans_[static_cast<std::size_t>(id)].end = Clock::now();
    }

    /** Summed duration (s) of the spans named `name` opened at or
     * after span `from`. */
    double seconds(const std::string &name, int from) const
    {
        double total = 0.0;
        for (std::size_t i = static_cast<std::size_t>(from); i < spans_.size();
             ++i)
            if (spans_[i].name == name)
                total += duration(spans_[i]);
        return total;
    }

    int size() const { return static_cast<int>(spans_.size()); }

    /** Chrome trace_event JSON array, the format ursa::trace exports. */
    void writeChrome(std::ostream &out) const
    {
        out << "[\n";
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            const auto us = [this](Clock::time_point t) {
                return std::chrono::duration<double, std::micro>(t - origin_)
                    .count();
            };
            char buf[96];
            std::snprintf(buf, sizeof buf, "%.3f,\"dur\":%.3f", us(s.start),
                          us(s.end) - us(s.start));
            out << "{\"name\":\"" << s.name << "\",\"ph\":\"X\",\"ts\":" << buf
                << ",\"pid\":1,\"tid\":1,\"args\":{\"id\":" << i
                << ",\"parent\":" << s.parent << "}}"
                << (i + 1 < spans_.size() ? ",\n" : "\n");
        }
        out << "]\n";
    }

  private:
    struct Span
    {
        std::string name;
        int parent;
        Clock::time_point start, end;
    };

    static double duration(const Span &s)
    {
        return std::chrono::duration<double>(s.end - s.start).count();
    }

    Clock::time_point origin_ = Clock::now();
    std::vector<Span> spans_;
};

/** RAII span; a no-op when `log` is null (untraced passes), which then
 * pay for no string inside the units they time. */
class Scope
{
  public:
    Scope(SpanLog *log, const char *name, int parent)
        : log_(log), id_(log ? log->open(name, parent) : -1)
    {
    }
    ~Scope()
    {
        if (log_)
            log_->close(id_);
    }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

    int id() const { return id_; }

  private:
    SpanLog *log_;
    int id_;
};

// --- gates and results ---------------------------------------------------

/** Correctness gates: every check is one attempted operation. */
struct Gates
{
    long attempted = 0;
    long failed = 0;

    void check(bool ok, const std::string &what)
    {
        ++attempted;
        if (!ok) {
            ++failed;
            std::cerr << "perfbench: gate failed: " << what << "\n";
        }
    }
};

/** One pass of a workload. */
struct Pass
{
    bool traced = false;
    /** Host seconds of each set-up in the pass. */
    std::vector<double> setupS;
    /**
     * Host seconds of each unit of the prepare and run stages: a unit
     * is one deterministic piece of work (exploreApp, a deploy, a
     * training step, a solve call, a control interval), the same in
     * every pass.
     */
    std::vector<double> prepareUnits;
    std::vector<double> runUnits;
    /** Host us per round (solve call or control interval). */
    std::vector<double> roundUs;
    /** Deterministic counts and simulated outcomes; must repeat. */
    std::string fingerprint;
    /** Per-layer metrics (filled on every pass, timed ones traced). */
    std::map<std::string, double> layer;

    double prepareS() const
    {
        return std::accumulate(prepareUnits.begin(), prepareUnits.end(), 0.0);
    }
    double runS() const
    {
        return std::accumulate(runUnits.begin(), runUnits.end(), 0.0);
    }
};

double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double rank = p / 100.0 * static_cast<double>(v.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(rank);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (rank - static_cast<double>(lo));
}

std::uint64_t
fnv1a(const std::string &s)
{
    std::uint64_t h = 1469598103934665603ULL;
    for (unsigned char c : s) {
        h ^= c;
        h *= 1099511628211ULL;
    }
    return h;
}

std::string
serialize(const core::AppProfile &profile)
{
    std::ostringstream out;
    core::saveAppProfile(profile, out);
    return out.str();
}

/** Profile loaded from the benchmark's own file, checked against the app. */
core::AppProfile
loadProfile(const std::string &path, const apps::AppSpec &app, Gates &gates)
{
    bool ok = false;
    core::AppProfile profile = core::loadAppProfile(path, ok);
    gates.check(ok, "profile " + path + " loads");
    bool match = profile.services.size() == app.services.size();
    for (std::size_t s = 0; match && s < app.services.size(); ++s)
        match = profile.services[s].serviceName == app.services[s].name;
    gates.check(match, "profile services match " + app.name);
    if (!ok || !match)
        throw std::runtime_error("unusable profile " + path);
    return profile;
}

/** Arrival trace from a Poisson profile generator, recorded to `until`. */
workload::ArrivalTrace
makeTrace(sim::RateProfile rate, sim::ClassPicker picker, std::uint64_t seed,
          sim::SimTime until)
{
    workload::ProfileGenerator gen(std::move(rate), std::move(picker), seed);
    return workload::recordTrace(gen, until);
}

/** Replica count of every service, for scale-event counting. */
std::vector<int>
replicaCounts(const sim::Cluster &cluster)
{
    std::vector<int> out;
    for (sim::ServiceId s = 0; s < cluster.numServices(); ++s)
        out.push_back(cluster.service(s).activeReplicas());
    return out;
}

int
countChanges(const std::vector<int> &a, const std::vector<int> &b)
{
    int n = 0;
    for (std::size_t i = 0; i < a.size(); ++i)
        n += a[i] != b[i];
    return n;
}

/**
 * Stop the arrivals, let the cluster drain, and gate on request
 * conservation (every submitted request completed, queues empty).
 */
void
drain(sim::Cluster &cluster, Gates &gates, const std::string &what)
{
    const sim::SimTime limit = cluster.events().now() + kDrainLimit;
    while (cluster.inFlight() > 0 && cluster.events().now() < limit)
        cluster.run(cluster.events().now() + kInterval);
    gates.check(cluster.submitted() == cluster.completed(),
                what + ": submitted == completed after drain");
    cluster.auditConservation(true);
}

double
totalMeanAllocation(const sim::Cluster &cluster, sim::SimTime from,
                    sim::SimTime to)
{
    double cores = 0.0;
    for (sim::ServiceId s = 0; s < cluster.numServices(); ++s)
        cores += cluster.metrics().meanAllocation(s, from, to);
    return cores;
}

std::string
fmt(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

// --- explore-social ------------------------------------------------------

/**
 * Traced exploreApp: the same per-service profileBackpressureThreshold +
 * exploreService calls with exploreApp's own seeds, one span each.
 */
core::AppProfile
exploreTraced(const apps::AppSpec &app, const core::ExplorationOptions &opts,
              SpanLog &log, int parent, Pass &pass)
{
    const core::ExplorationController explorer(opts);
    core::AppProfile profile;
    double critical = 0.0;
    for (std::size_t s = 0; s < app.services.size(); ++s) {
        const std::string svcSpan = "core.explorer." + app.services[s].name;
        const int first = log.size();
        {
            Scope svc(&log, svcSpan.c_str(), parent);
            const std::vector<double> rates =
                explorer.localRates(app, static_cast<int>(s));
            double bpThreshold = 1.0;
            if (!app.services[s].mqConsumer) {
                Scope bpSpan(&log, "core.bp_profiler", svc.id());
                const core::BpProfileResult bp =
                    core::profileBackpressureThreshold(
                        app, static_cast<int>(s), rates,
                        opts.seed + 31ULL * (s + 1), opts.bpOptions);
                bpThreshold = bp.threshold;
                pass.layer["core.bp_profiler.steps"] +=
                    static_cast<double>(bp.steps.size());
                pass.layer["core.bp_profiler.converged"] += bp.converged;
            }
            Scope exploreSpan(&log, "core.explorer.service", svc.id());
            profile.services.push_back(explorer.exploreService(
                app, static_cast<int>(s), bpThreshold, rates, profile.grid));
        }
        const double svcS = log.seconds(svcSpan, first);
        pass.layer[svcSpan + ".s"] = svcS;
        critical = std::max(critical, svcS);
    }
    pass.layer["core.explorer.critical_s"] = critical;
    return profile;
}

/** Everything explore-social needs before exploring. */
struct ExploreInputs
{
    apps::AppSpec app;
    core::ExplorationOptions opts;
    std::vector<sim::SlaSpec> slas;
    std::vector<std::vector<double>> slaVisits;
    /** Per-solve service-local loads, loads[service][class]. */
    std::vector<std::vector<std::vector<double>>> sweep;
};

/**
 * The app, the exploration settings and the sweep's expected loads:
 * kSweepLoads loads drawn uniformly from 0.25x to 2.5x nominal, from
 * `seed`, under each of the explore, skewed+ and skewed- mixes.
 * Exploration itself runs at kOfflineSeed whatever `seed` is.
 */
ExploreInputs
makeExploreInputs(std::uint64_t seed)
{
    ExploreInputs in;
    in.app = apps::makeSocialNetwork();
    const apps::AppSpec &app = in.app;
    in.opts = bench::paperExploration(kOfflineSeed);
    in.slaVisits = core::computeSlaVisitCounts(app);
    for (const auto &cls : app.classes)
        in.slas.push_back(cls.sla);
    const auto visits = core::computeVisitCounts(app);
    const std::vector<std::vector<double>> mixes = {
        app.exploreMix,
        apps::skewMix(app, app.exploreMix, "update-timeline", 2.0),
        apps::skewMix(app, app.exploreMix, "update-timeline", 0.5),
    };
    stats::Rng rng(seed);
    for (const auto &mix : mixes) {
        const double total = std::accumulate(mix.begin(), mix.end(), 0.0);
        for (int i = 0; i < kSweepLoads; ++i) {
            const double rps =
                app.nominalRps *
                (kSweepMinScale +
                 (kSweepMaxScale - kSweepMinScale) * rng.uniform());
            std::vector<std::vector<double>> loads(
                app.services.size(),
                std::vector<double>(app.classes.size(), 0.0));
            for (std::size_t s = 0; s < app.services.size(); ++s)
                for (std::size_t c = 0; c < app.classes.size(); ++c)
                    loads[s][c] = rps * mix[c] / total * visits[s][c];
            in.sweep.push_back(std::move(loads));
        }
    }
    return in;
}

void
runExplore(std::uint64_t seed, SpanLog *log, Gates &gates, Pass &pass)
{
    const int root = log ? log->open("pass.explore", -1) : -1;

    // Set-up takes about a millisecond, so it is repeated to give the
    // median a sample of its own in every pass.
    ExploreInputs in;
    for (int rep = 0; rep < kExploreSetupReps; ++rep) {
        const auto t0 = Clock::now();
        in = makeExploreInputs(seed);
        pass.setupS.push_back(secondsSince(t0));
    }
    const apps::AppSpec &app = in.app;
    const core::ExplorationOptions &opts = in.opts;

    // Prepare: exploration (decomposed into spans when traced).
    core::AppProfile profile;
    const auto t0 = Clock::now();
    if (log) {
        Scope prep(log, "prepare", root);
        profile = exploreTraced(app, opts, *log, prep.id(), pass);
    } else {
        profile = core::ExplorationController(opts).exploreApp(app);
    }
    pass.prepareUnits.push_back(secondsSince(t0));
    if (log) {
        pass.layer["core.bp_profiler.s"] =
            log->seconds("core.bp_profiler", root);
        pass.layer["core.explorer.s"] =
            log->seconds("core.explorer.service", root);
    }

    int levels = 0, samples = 0;
    for (const auto &svc : profile.services) {
        levels += static_cast<int>(svc.levels.size());
        samples += svc.samples;
    }
    pass.layer["core.explorer.levels"] = levels;
    pass.layer["core.explorer.samples"] = samples;
    pass.layer["core.explorer.useful_ratio"] =
        samples ? static_cast<double>(levels) * opts.windowsPerLevel / samples
                : 0.0;

    // Run: the load x mix sweep of solves on the fresh profile,
    // kSweepReps times over; each solve keeps its fastest repetition.
    const core::UrsaOptimizer optimizer;
    core::ModelInput input;
    input.profile = &profile;
    input.slas = in.slas;
    input.slaVisits = in.slaVisits;
    std::size_t nodes = 0;
    int infeasible = 0;
    double cores = 0.0;
    pass.roundUs.assign(in.sweep.size(),
                        std::numeric_limits<double>::infinity());
    {
        Scope run(log, "run", root);
        for (int rep = 0; rep < kSweepReps; ++rep) {
            for (std::size_t i = 0; i < in.sweep.size(); ++i) {
                input.loads = in.sweep[i];
                Scope solveSpan(log, "core.optimizer.solve", run.id());
                const auto s0 = Clock::now();
                const core::ModelOutput out = optimizer.solve(input);
                const double us = std::chrono::duration<double, std::micro>(
                                      Clock::now() - s0)
                                      .count();
                pass.roundUs[i] = std::min(pass.roundUs[i], us);
                if (rep > 0)
                    continue;
                nodes += out.nodesExplored;
                cores += out.totalCpuCores;
                infeasible += !out.feasible;
                gates.check(out.feasible, "sweep solve feasible");
            }
        }
    }
    for (double us : pass.roundUs)
        pass.runUnits.push_back(us * 1e-6);
    const double planCores = cores / static_cast<double>(in.sweep.size());
    pass.layer["core.optimizer.plan_cores_mean"] = planCores;
    pass.layer["core.optimizer.solves"] = static_cast<double>(in.sweep.size());
    pass.layer["core.optimizer.nodes"] = static_cast<double>(nodes);
    pass.layer["core.optimizer.infeasible"] = infeasible;

    pass.fingerprint = "profile=" + std::to_string(fnv1a(serialize(profile))) +
                       " levels=" + std::to_string(levels) +
                       " samples=" + std::to_string(samples) +
                       " nodes=" + std::to_string(nodes) +
                       " infeasible=" + std::to_string(infeasible) +
                       " cores=" + fmt(planCores);
    if (log)
        log->close(root);
}

// --- online stages ----------------------------------------------------------

/**
 * Advance `cluster` from `from` to `to` in kStep units, each timed into
 * pass.runUnits, calling `round` after every kInterval. Short units let
 * each one's fastest pass find the host at full speed; stepping does
 * not change the simulation, which processes events in time order
 * whatever the run() boundaries.
 */
template <typename Round>
void
stepCluster(sim::Cluster &cluster, sim::SimTime from, sim::SimTime to,
            SpanLog *log, int parent, Pass &pass, Round round)
{
    Scope run(log, "run", parent);
    for (sim::SimTime t = from + kStep; t <= to; t += kStep) {
        const auto s0 = Clock::now();
        {
            Scope step(log, "sim.step", run.id());
            cluster.run(t);
        }
        pass.runUnits.push_back(secondsSince(s0));
        if ((t - from) % kInterval == 0)
            round();
    }
}

// --- control-social-diurnal ----------------------------------------------

void
runControl(std::uint64_t seed, const std::string &profilePath, SpanLog *log,
           Gates &gates, Pass &pass)
{
    const int root = log ? log->open("pass.control", -1) : -1;

    // Set-up: app, seeded day trace, checked-in profile, cluster.
    auto t0 = Clock::now();
    const apps::AppSpec app = apps::makeSocialNetwork();
    workload::ArrivalTrace trace;
    {
        Scope gen(log, "workload.gen", root);
        const auto g0 = Clock::now();
        const sim::ClassPicker planned = sim::fixedMix(app.exploreMix);
        const sim::ClassPicker skewed = sim::fixedMix(
            apps::skewMix(app, app.exploreMix, "update-timeline", 2.0));
        // First half of the day under the planned mix, second half
        // under the update-heavy one the plan never saw.
        sim::ClassPicker picker = [planned, skewed](stats::Rng &rng,
                                                    sim::SimTime t) {
            return t < kDay / 2 ? planned(rng, t) : skewed(rng, t);
        };
        trace = makeTrace(workload::diurnalRate(app.nominalRps,
                                                2.0 * app.nominalRps, kDay),
                          std::move(picker), seed + 1, kDay);
        pass.layer["workload.gen_s"] = secondsSince(g0);
    }
    pass.layer["workload.arrivals"] = static_cast<double>(trace.entries.size());
    core::AppProfile profile;
    {
        Scope load(log, "core.profile_load", root);
        profile = loadProfile(profilePath, app, gates);
    }
    sim::Cluster cluster(seed);
    app.instantiate(cluster);
    workload::TraceReplayClient client(cluster, std::move(trace));
    client.start(0);
    pass.setupS.push_back(secondsSince(t0));

    // Prepare: Ursa plans for the explore mix at nominal load.
    t0 = Clock::now();
    std::unique_ptr<core::UrsaManager> manager;
    {
        Scope deploy(log, "core.deploy", root);
        manager = std::make_unique<core::UrsaManager>(cluster, app, profile);
        gates.check(manager->deploy(app.nominalRps, app.exploreMix),
                    "Ursa deploy feasible");
    }
    pass.prepareUnits.push_back(secondsSince(t0));
    const double resolveSum0 = manager->updateLatencyUs().sum();
    const std::size_t resolveCount0 = manager->updateLatencyUs().count();

    // Run: the day. A round is one control interval: the controllers'
    // tick time it added, plus re-solves for the control busy time.
    const std::uint64_t events0 = cluster.events().processed();
    double busyUs = 0.0;
    int scaleEvents = 0;
    double decided0 = manager->deployDecisionLatencyUs().sum();
    double resolved0 = manager->updateLatencyUs().sum();
    std::vector<int> replicas = replicaCounts(cluster);
    stepCluster(cluster, 0, kDay, log, root, pass, [&] {
        const double decided = manager->deployDecisionLatencyUs().sum();
        const double resolved = manager->updateLatencyUs().sum();
        pass.roundUs.push_back(decided - decided0);
        busyUs += decided - decided0 + resolved - resolved0;
        decided0 = decided;
        resolved0 = resolved;
        const std::vector<int> now = replicaCounts(cluster);
        scaleEvents += countChanges(replicas, now);
        replicas = now;
    });
    const std::uint64_t events = cluster.events().processed() - events0;
    const std::uint64_t requests = cluster.submitted();
    const double viol =
        100.0 * cluster.metrics().overallSlaViolationRate(0, kDay);
    const double cores = totalMeanAllocation(cluster, 0, kDay);
    const int recalcs = manager->recalculations();
    const std::size_t resolves =
        manager->updateLatencyUs().count() - resolveCount0;

    pass.layer["core.control.rounds"] =
        static_cast<double>(pass.roundUs.size());
    pass.layer["core.control.busy_s"] = busyUs * 1e-6;
    pass.layer["core.control.scale_events"] = scaleEvents;
    pass.layer["core.control.recalcs"] = recalcs;
    pass.layer["core.control.resolve_us_mean"] =
        resolves ? (manager->updateLatencyUs().sum() - resolveSum0) /
                       static_cast<double>(resolves)
                 : 0.0;
    pass.layer["sim.events"] = static_cast<double>(events);
    pass.layer["sim.requests"] = static_cast<double>(requests);
    pass.layer["sim.inflight_end"] = static_cast<double>(cluster.inFlight());
    pass.layer["sim.events_per_request"] =
        static_cast<double>(events) / static_cast<double>(requests);
    pass.layer["sim.self_s"] = pass.runS() - busyUs * 1e-6;
    pass.layer["sim.ns_per_event"] =
        pass.layer["sim.self_s"] * 1e9 / static_cast<double>(events);
    pass.layer["sim.viol_pct"] = viol;
    pass.layer["sim.cpu_cores"] = cores;

    pass.fingerprint = "events=" + std::to_string(events) +
                       " requests=" + std::to_string(requests) +
                       " inflight=" + std::to_string(cluster.inFlight()) +
                       " scale=" + std::to_string(scaleEvents) +
                       " recalcs=" + std::to_string(recalcs) +
                       " viol=" + fmt(viol) + " cores=" + fmt(cores);

    client.stop();
    drain(cluster, gates, kControl);
    if (log)
        log->close(root);
}

// --- firm-social-burst -----------------------------------------------------

/**
 * The query Firm makes for every class at every step: the class's
 * end-to-end SLA percentile over the last two intervals. Timed by the
 * benchmark in traced passes only; it reads and does not perturb.
 */
int
timeWindowQueries(const sim::Cluster &cluster, const apps::AppSpec &app,
                  SpanLog &log, int parent)
{
    const sim::SimTime now = cluster.events().now();
    const sim::SimTime from = std::max<sim::SimTime>(0, now - 2 * kInterval);
    for (int c = 0; c < cluster.numClasses(); ++c) {
        Scope q(&log, "stats.window_pctl", parent);
        const auto samples = cluster.metrics().endToEnd(c).collect(from, now);
        if (!samples.empty())
            (void)samples.percentile(app.classes[c].sla.percentile);
    }
    return cluster.numClasses();
}

void
runFirm(std::uint64_t seed, SpanLog *log, Gates &gates, Pass &pass)
{
    const int root = log ? log->open("pass.firm", -1) : -1;

    // Set-up: app, training and seeded burst traces, cluster, Firm.
    // Training (cluster, trace, agents) runs at kOfflineSeed.
    const auto t0 = Clock::now();
    const apps::AppSpec app = apps::makeSocialNetwork();
    workload::ArrivalTrace trainTrace, burstTrace;
    {
        Scope gen(log, "workload.gen", root);
        const auto g0 = Clock::now();
        trainTrace = makeTrace(workload::constantRate(app.nominalRps),
                               sim::fixedMix(app.exploreMix), kOfflineSeed + 11,
                               kFirmTrainSteps * kInterval);
        // +100% load for the middle fifth of the window.
        burstTrace = makeTrace(
            workload::burstRate(app.nominalRps, 1.0, kBurstWindow * 2 / 5,
                                kBurstWindow / 5),
            sim::fixedMix(app.exploreMix), seed + 13, kBurstWindow);
        pass.layer["workload.gen_s"] = secondsSince(g0);
    }
    pass.layer["workload.arrivals"] = static_cast<double>(
        trainTrace.entries.size() + burstTrace.entries.size());
    sim::Cluster cluster(kOfflineSeed);
    app.instantiate(cluster);
    workload::TraceReplayClient trainClient(cluster, std::move(trainTrace));
    workload::TraceReplayClient burstClient(cluster, std::move(burstTrace));
    baselines::FirmConfig cfg;
    cfg.seed = kOfflineSeed + 3;
    cfg.interval = kInterval;
    baselines::FirmController firm(cluster, app, cfg);
    pass.setupS.push_back(secondsSince(t0));

    // Prepare: online training under the constant trace, one step per
    // trainOnline call. trainOnline(n) keeps no state between its steps
    // beyond the controller's own, so this is the same sequence of
    // steps as trainOnline(kFirmTrainSteps), with each step timed.
    int queries = 0;
    trainClient.start(0);
    {
        Scope prep(log, "prepare", root);
        for (int step = 0; step < kFirmTrainSteps; ++step) {
            const auto s0 = Clock::now();
            {
                Scope s(log, "baselines.firm_train_step", prep.id());
                firm.trainOnline(1);
            }
            pass.prepareUnits.push_back(secondsSince(s0));
            if (log)
                queries += timeWindowQueries(cluster, app, *log, prep.id());
        }
    }
    trainClient.stop();
    const std::uint64_t trainEvents = cluster.events().processed();

    // Run: Firm deployed under the burst, one interval at a time. Its
    // first decision comes one interval in, like Ursa's first tick.
    const sim::SimTime start = cluster.events().now();
    const std::uint64_t requests0 = cluster.submitted();
    firm.start(start + kInterval);
    burstClient.start(start);
    double decided0 = firm.decisionLatencyUs().sum();
    stepCluster(cluster, start, start + kBurstWindow, log, root, pass, [&] {
        const double decided = firm.decisionLatencyUs().sum();
        pass.roundUs.push_back(decided - decided0);
        decided0 = decided;
        if (log)
            queries += timeWindowQueries(cluster, app, *log, root);
    });
    const std::uint64_t events = cluster.events().processed() - trainEvents;
    const std::uint64_t requests = cluster.submitted() - requests0;
    const sim::SimTime end = start + kBurstWindow;
    const double viol =
        100.0 * cluster.metrics().overallSlaViolationRate(start, end);
    const double cores = totalMeanAllocation(cluster, start, end);
    const double decisionBusyS = firm.decisionLatencyUs().sum() * 1e-6;

    pass.layer["baselines.firm_train_steps"] = firm.trainingSteps();
    pass.layer["ml.rl_train_s"] = firm.trainStepLatencyUs().sum() * 1e-6;
    pass.layer["baselines.firm_decisions"] =
        static_cast<double>(firm.decisionLatencyUs().count());
    pass.layer["baselines.firm_decision_busy_s"] = decisionBusyS;
    pass.layer["sim.train_events"] = static_cast<double>(trainEvents);
    pass.layer["sim.events"] = static_cast<double>(events);
    pass.layer["sim.requests"] = static_cast<double>(requests);
    pass.layer["sim.inflight_end"] = static_cast<double>(cluster.inFlight());
    pass.layer["sim.events_per_request"] =
        static_cast<double>(events) / static_cast<double>(requests);
    pass.layer["sim.self_s"] = pass.runS() - decisionBusyS;
    pass.layer["sim.ns_per_event"] =
        pass.layer["sim.self_s"] * 1e9 / static_cast<double>(events);
    pass.layer["sim.viol_pct"] = viol;
    pass.layer["sim.cpu_cores"] = cores;
    if (log)
        pass.layer["stats.window_pctl_us"] =
            log->seconds("stats.window_pctl", root) * 1e6 / queries;

    pass.fingerprint =
        "train_steps=" + std::to_string(firm.trainingSteps()) +
        " train_events=" + std::to_string(trainEvents) +
        " events=" + std::to_string(events) +
        " requests=" + std::to_string(requests) +
        " inflight=" + std::to_string(cluster.inFlight()) +
        " decisions=" + std::to_string(firm.decisionLatencyUs().count()) +
        " viol=" + fmt(viol) + " cores=" + fmt(cores);

    burstClient.stop();
    drain(cluster, gates, kFirm);
    if (log)
        log->close(root);
}

// --- main ------------------------------------------------------------------

struct Options
{
    std::string workload;
    std::uint64_t seed = 2024;
    double seconds = 30.0;
    bool trace = false;
    std::string traceOut;
    std::string profile;
    std::string makeProfile;
};

[[noreturn]] void
usage(const std::string &msg)
{
    std::cerr << "perfbench: " << msg << "\n"
              << "usage: perfbench --workload {" << kExplore << "|" << kControl
              << "|" << kFirm << "} [--seed N] [--seconds S] [--trace 0|1]\n"
              << "                 [--trace-out FILE] [--profile FILE]\n"
              << "       perfbench --make-profile FILE\n";
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + a);
        const std::string v = argv[++i];
        if (a == "--workload")
            o.workload = v;
        else if (a == "--seed")
            o.seed = std::stoull(v);
        else if (a == "--seconds")
            o.seconds = std::stod(v);
        else if (a == "--trace")
            o.trace = v == "1";
        else if (a == "--trace-out")
            o.traceOut = v;
        else if (a == "--profile")
            o.profile = v;
        else if (a == "--make-profile")
            o.makeProfile = v;
        else
            usage("unknown option " + a);
    }
    if (o.makeProfile.empty() && o.workload != kExplore &&
        o.workload != kControl && o.workload != kFirm)
        usage("unknown workload '" + o.workload + "'");
    if (o.workload == kControl && o.profile.empty())
        usage(std::string(kControl) + " needs --profile");
    return o;
}

Pass
runPass(const Options &o, SpanLog *log, Gates &gates)
{
    Pass pass;
    pass.traced = log != nullptr;
    const std::uint64_t violations0 = check::violationCount();
    if (o.workload == kExplore)
        runExplore(o.seed, log, gates, pass);
    else if (o.workload == kControl)
        runControl(o.seed, o.profile, log, gates, pass);
    else
        runFirm(o.seed, log, gates, pass);
    pass.layer["check.violations"] =
        static_cast<double>(check::violationCount() - violations0);
    gates.check(check::violationCount() == violations0,
                "no ursa::check violations");
    return pass;
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // ru_maxrss is KiB
}

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

/**
 * Every per-layer metric, in report order, with its unit. A workload
 * whose passes never touch a layer reports that layer's metrics as 0.
 */
std::vector<std::pair<std::string, std::string>>
layerMetricNames()
{
    std::vector<std::pair<std::string, std::string>> names = {
        {"core.bp_profiler.s", "s"},
        {"core.bp_profiler.steps", "count"},
        {"core.bp_profiler.converged", "count"},
        {"core.explorer.s", "s"},
    };
    for (const auto &svc : apps::makeSocialNetwork().services)
        names.push_back({"core.explorer." + svc.name + ".s", "s"});
    const std::vector<std::pair<std::string, std::string>> rest = {
        {"core.explorer.critical_s", "s"},
        {"core.explorer.levels", "count"},
        {"core.explorer.samples", "count"},
        {"core.explorer.useful_ratio", "ratio"},
        {"core.optimizer.solves", "count"},
        {"core.optimizer.nodes", "count"},
        {"core.optimizer.infeasible", "count"},
        {"core.optimizer.solve_us_p50", "us"},
        {"core.optimizer.solve_us_p99", "us"},
        {"core.optimizer.plan_cores_mean", "cores"},
        {"core.control.rounds", "count"},
        {"core.control.busy_s", "s"},
        {"core.control.scale_events", "count"},
        {"core.control.recalcs", "count"},
        {"core.control.resolve_us_mean", "us"},
        {"core.control.decision_us_p50", "us"},
        {"core.control.decision_us_p90", "us"},
        {"sim.events", "count"},
        {"sim.requests", "count"},
        {"sim.inflight_end", "count"},
        {"sim.events_per_request", "ratio"},
        {"sim.ns_per_event", "ns"},
        {"sim.self_s", "s"},
        {"sim.train_events", "count"},
        {"sim.viol_pct", "%"},
        {"sim.cpu_cores", "cores"},
        {"workload.gen_s", "s"},
        {"workload.arrivals", "count"},
        {"stats.window_pctl_us", "us"},
        {"baselines.firm_train_steps", "count"},
        {"ml.rl_train_s", "s"},
        {"baselines.firm_decisions", "count"},
        {"baselines.firm_decision_busy_s", "s"},
        {"baselines.firm_decision_us_p50", "us"},
        {"baselines.firm_decision_us_p90", "us"},
        {"check.violations", "count"},
        {"bench.trace_overhead_s", "s"},
    };
    names.insert(names.end(), rest.begin(), rest.end());
    return names;
}

/**
 * Each unit's fastest pass: units are the same work in every pass, so
 * this drops interference unit by unit. Passes with a different unit
 * count (a failed gate) are skipped.
 */
std::vector<double>
fastestUnits(const std::vector<const Pass *> &passes,
             std::vector<double> Pass::*units)
{
    std::vector<double> fastest = passes.front()->*units;
    for (const Pass *p : passes)
        if ((p->*units).size() == fastest.size())
            for (std::size_t u = 0; u < fastest.size(); ++u)
                fastest[u] = std::min(fastest[u], (p->*units)[u]);
    return fastest;
}

double
sumOfFastest(const std::vector<const Pass *> &passes,
             std::vector<double> Pass::*units)
{
    const std::vector<double> fastest = fastestUnits(passes, units);
    return std::accumulate(fastest.begin(), fastest.end(), 0.0);
}

/** The untraced end-to-end metrics of a run's passes. */
std::vector<Metric>
endToEnd(const std::vector<const Pass *> &passes)
{
    std::vector<double> setup;
    for (const Pass *p : passes)
        setup.insert(setup.end(), p->setupS.begin(), p->setupS.end());
    return {
        {"setup_s", percentile(setup, 50), "s"},
        {"prepare_s", sumOfFastest(passes, &Pass::prepareUnits), "s"},
        {"run_s", sumOfFastest(passes, &Pass::runUnits), "s"},
        {"peak_rss_mb", peakRssMb(), "MB"},
    };
}

/**
 * Per-layer metrics: counts from any pass, times from the fastest
 * traced pass, tracing overhead against the fastest untraced pass, and
 * round latencies (each round's fastest pass, traced or not: spans sit
 * outside the managers' own accounting) under the workload's layer.
 */
std::vector<Metric>
perLayer(const std::string &workload, const std::vector<Pass> &passes)
{
    const Pass *fastTraced = nullptr, *fastPlain = nullptr;
    for (const Pass &p : passes) {
        const Pass *&slot = p.traced ? fastTraced : fastPlain;
        if (!slot || p.prepareS() + p.runS() < slot->prepareS() + slot->runS())
            slot = &p;
    }
    std::map<std::string, double> values = fastTraced->layer;
    std::vector<const Pass *> all;
    for (const Pass &p : passes)
        all.push_back(&p);
    const std::vector<double> rounds = fastestUnits(all, &Pass::roundUs);
    if (workload == kExplore) {
        values["core.optimizer.solve_us_p50"] = percentile(rounds, 50);
        values["core.optimizer.solve_us_p99"] = percentile(rounds, 99);
    } else {
        const std::string layer =
            workload == kControl ? "core.control." : "baselines.firm_";
        values[layer + "decision_us_p50"] = percentile(rounds, 50);
        values[layer + "decision_us_p90"] = percentile(rounds, 90);
    }
    values["bench.trace_overhead_s"] =
        fastTraced->prepareS() + fastTraced->runS() -
        (fastPlain->prepareS() + fastPlain->runS());
    std::vector<Metric> out;
    for (const auto &[name, unit] : layerMetricNames()) {
        const auto it = values.find(name);
        out.push_back({name, it == values.end() ? 0.0 : it->second, unit});
    }
    return out;
}

void
printResult(const Gates &gates, const std::vector<Metric> &metrics)
{
    std::cout << "{\"correct\": " << (gates.failed == 0 ? "true" : "false")
              << ", \"attempted\": " << gates.attempted
              << ", \"failed\": " << gates.failed << ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i)
        std::cout << (i ? ", " : "") << "\"" << metrics[i].name
                  << "\": {\"value\": " << fmt(metrics[i].value)
                  << ", \"unit\": \"" << metrics[i].unit << "\"}";
    std::cout << "}}" << std::endl;
}

int
makeProfile(const Options &o)
{
    const apps::AppSpec app = apps::makeSocialNetwork();
    const core::AppProfile profile =
        core::ExplorationController(bench::paperExploration(kOfflineSeed))
            .exploreApp(app);
    if (!core::saveAppProfile(profile, o.makeProfile)) {
        std::cerr << "perfbench: cannot write " << o.makeProfile << "\n";
        return 1;
    }
    std::cout << "wrote " << o.makeProfile << " (" << profile.totalSamples()
              << " samples)\n";
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    // Every workload is single-threaded: exploreApp's parallelMap claims
    // indices in order, so at more threads its timing depends on which
    // service starts when.
    setenv("URSA_THREADS", "1", 1);
    const Options o = parseArgs(argc, argv);
    if (!o.makeProfile.empty())
        return makeProfile(o);

    // Trap check violations so each is counted as a failed gate
    // instead of aborting the run.
    check::ScopedCapture trap;
    Gates gates;
    SpanLog log;
    std::vector<Pass> passes;
    const auto start = Clock::now();
    try {
        while (passes.size() < static_cast<std::size_t>(kMaxPasses) &&
               (passes.size() < 2 || secondsSince(start) < o.seconds)) {
            const bool traced = o.trace && passes.size() % 2 == 1;
            passes.push_back(runPass(o, traced ? &log : nullptr, gates));
            const Pass &p = passes.back();
            std::cout << "pass " << passes.size() << (traced ? " traced" : "")
                      << ": setup " << fmt(percentile(p.setupS, 50))
                      << " s, prepare " << fmt(p.prepareS()) << " s, run "
                      << fmt(p.runS())
                      << " s | " << p.fingerprint << "\n";
        }
    } catch (const std::exception &e) {
        std::cerr << "perfbench: " << e.what() << "\n";
        return 1;
    }

    // Every count and simulated outcome repeats exactly, traced or not
    // (a traced explore pass must rebuild exploreApp's profile bit for
    // bit), and every pass cuts its stages into the same units.
    for (std::size_t i = 1; i < passes.size(); ++i)
        gates.check(passes[i].fingerprint == passes[0].fingerprint,
                    "pass " + std::to_string(i + 1) +
                        (passes[i].traced ? " (traced)" : "") +
                        " repeats pass 1's counts and outcomes");
    for (const Pass &p : passes)
        gates.check(p.roundUs.size() == passes[0].roundUs.size() &&
                        p.prepareUnits.size() ==
                            passes[0].prepareUnits.size() &&
                        p.runUnits.size() == passes[0].runUnits.size() &&
                        p.roundUs.size() >= 100,
                    "at least 100 rounds, same units in every pass");

    std::vector<const Pass *> plain;
    for (const Pass &p : passes)
        if (!p.traced)
            plain.push_back(&p);

    if (o.trace && !o.traceOut.empty()) {
        std::ofstream out(o.traceOut);
        log.writeChrome(out);
        gates.check(static_cast<bool>(out), "trace written to " + o.traceOut);
    }
    printResult(gates, o.trace ? perLayer(o.workload, passes)
                               : endToEnd(plain));
    return gates.failed == 0 ? 0 : 1;
}
