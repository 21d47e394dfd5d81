/**
 * @file
 * Shared infrastructure for the reproduction benchmarks: paper-scale
 * exploration settings, Sinan training-sample collection, the 5-system
 * deployment harness behind Figs. 11-12, and small table-printing
 * helpers.
 *
 * Nothing is stored between runs: every bench computes the profiles
 * and samples it reads in the process that prints its results.
 */

#ifndef URSA_BENCH_COMMON_H
#define URSA_BENCH_COMMON_H

#include "apps/app.h"
#include "baselines/sinan.h"
#include "core/explorer.h"
#include "core/profile.h"
#include "workload/trace.h"

#include <optional>
#include <vector>

namespace ursa::bench
{

/** Paper-scale exploration settings (1-minute windows, 10 per level). */
core::ExplorationOptions paperExploration(std::uint64_t seed);

/** Sinan config used across benches. */
baselines::SinanConfig benchSinanConfig(const apps::AppSpec &app,
                                        std::uint64_t seed);

/**
 * Sinan training samples for an app: `count` samples at the config's
 * interval, collected on dedicated clusters under the canonical mix.
 * The collection is split into a fixed 8 shards, so the samples are
 * bit-identical for any URSA_THREADS.
 */
std::vector<baselines::SinanSample>
collectSinanSamples(const apps::AppSpec &app, int count,
                    std::uint64_t seed);

// --- the Fig. 11/12 deployment harness ------------------------------

/** Managed systems under comparison (paper Sec. VII-B). */
enum class System
{
    Ursa,
    Sinan,
    Firm,
    AutoA,
    AutoB,
};

/** Evaluation loads (paper Sec. VII-E). */
enum class LoadKind
{
    Constant,
    Diurnal,
    Burst,
    SkewedUp,   ///< update-heavy / high-priority-heavy mix
    SkewedDown, ///< update-light / low-priority-heavy mix
};

const char *toString(System s);
const char *toString(LoadKind l);

/** Which of the four paper applications. */
enum class AppId
{
    Social,
    VanillaSocial,
    Media,
    VideoPipeline,
};

const char *toString(AppId a);
apps::AppSpec makeApp(AppId id);

/** Result of one (system, app, load) deployment cell. */
struct CellResult
{
    double violationRate = 0.0; ///< window-based SLA violation rate
    double cpuCores = 0.0;      ///< mean total allocated cores
    double decisionLatencyUs = 0.0; ///< mean control decision latency
};

/** Harness tuning. */
struct PerfHarnessOptions
{
    sim::SimTime warmup = 5 * sim::kMin;
    sim::SimTime measure = 30 * sim::kMin;
    /** Firm online-training decision steps before measurement. */
    int firmTrainSteps = 400;
    /** Sinan training samples (paper prescribes 10k; see Table V
     * bench for the prescription vs what we run here). */
    int sinanSamples = 500;
    std::uint64_t seed = 2024;
    /**
     * Exploration settings behind Ursa's profile; unset means
     * paperExploration(seed). The determinism regression test dials
     * this down to keep a full grid run cheap.
     */
    std::optional<core::ExplorationOptions> exploration;
};

/**
 * Run one deployment cell. `profile` is the app's exploration profile
 * (read by Ursa) and `sinanSamples` its Sinan training samples (read by
 * Sinan). Deterministic per (system, app, load, opts.seed).
 */
CellResult runCell(System system, AppId app, LoadKind load,
                   const core::AppProfile &profile,
                   const std::vector<baselines::SinanSample> &sinanSamples,
                   const PerfHarnessOptions &opts);

/**
 * Run one deployment cell driven by a recorded arrival trace instead
 * of a synthetic load profile. The trace loops for warmup plus the
 * measured window; deploy-time thresholds come from the trace's own
 * mean rate and class mix (classes it never exercises get weight 0).
 * Throws if the trace is empty or uses classes the app lacks.
 * Deterministic per (system, app, trace, opts.seed).
 */
CellResult runTraceCell(System system, AppId app,
                        const workload::ArrivalTrace &trace,
                        const core::AppProfile &profile,
                        const std::vector<baselines::SinanSample> &sinanSamples,
                        const PerfHarnessOptions &opts);

/**
 * All cells of the Fig. 11/12 grid. Each app's profile and Sinan
 * samples are computed once, then every cell of that app reads them.
 * Row order: app-major, then load, then system. Cells are independent
 * simulations and run on the ursa::exec pool (URSA_THREADS ways); the
 * result is bit-identical for any thread count.
 */
struct GridRow
{
    AppId app;
    LoadKind load;
    System system;
    CellResult result;
};
std::vector<GridRow> performanceGrid(const PerfHarnessOptions &opts);

/** The skewed mix of an app (factor applied to its update class). */
std::vector<double> skewedMix(const apps::AppSpec &app, AppId id,
                              bool up);

} // namespace ursa::bench

#endif // URSA_BENCH_COMMON_H
