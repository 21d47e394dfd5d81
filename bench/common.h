/**
 * @file
 * Shared infrastructure for the reproduction benchmarks: paper-scale
 * exploration settings, on-disk caching of exploration profiles and
 * Sinan training data (so the expensive offline phases run once across
 * bench binaries), the 5-system deployment harness behind Figs. 11-12,
 * and small table-printing helpers.
 *
 * Cache files live under ./.ursa_cache (override with URSA_CACHE_DIR).
 * Delete the directory to force full recomputation.
 */

#ifndef URSA_BENCH_COMMON_H
#define URSA_BENCH_COMMON_H

#include "apps/app.h"
#include "baselines/sinan.h"
#include "core/explorer.h"
#include "core/profile.h"
#include "workload/trace.h"

#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

namespace ursa::bench
{

/** Directory for cached artifacts (created on demand). */
std::string cacheDir();

/** Paper-scale exploration settings (1-minute windows, 10 per level). */
core::ExplorationOptions paperExploration(std::uint64_t seed);

/**
 * Exploration profile for an app, loaded from cache or computed (and
 * cached). `tag` names the cache entry. Thread-safe: concurrent calls
 * for the same tag compute the profile once.
 */
core::AppProfile cachedProfile(const apps::AppSpec &app,
                               const std::string &tag, std::uint64_t seed);

/** Same, with explicit exploration settings instead of paper scale. */
core::AppProfile cachedProfile(const apps::AppSpec &app,
                               const std::string &tag,
                               const core::ExplorationOptions &explore);

/** Sinan config used across benches. */
baselines::SinanConfig benchSinanConfig(const apps::AppSpec &app,
                                        std::uint64_t seed);

/**
 * Sinan training samples for an app (collected on a dedicated cluster
 * under the canonical mix), cached on disk. `count` samples at the
 * config's interval.
 */
std::vector<baselines::SinanSample>
cachedSinanSamples(const apps::AppSpec &app, const std::string &tag,
                   int count, std::uint64_t seed);

/**
 * Read a Sinan sample cache: a "count features ratios" header, then one
 * line per sample of features, latency ratios and a 0/1 violation
 * flag. The header must declare exactly `count` samples,
 * `services + classes` features and `classes` ratios (checked before
 * anything is sized from it); every value must be finite, and nothing
 * may follow the last sample.
 * @throws std::runtime_error at the first mismatch or malformed value.
 */
std::vector<baselines::SinanSample>
readSinanSamples(std::istream &in, std::size_t count, std::size_t services,
                 std::size_t classes);

/** Write samples in the format readSinanSamples reads. */
void writeSinanSamples(std::ostream &out,
                       const std::vector<baselines::SinanSample> &samples);

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
     * Exploration settings behind Ursa's cached profile; unset means
     * paperExploration(seed). The determinism regression test dials
     * this down to keep a full grid run cheap.
     */
    std::optional<core::ExplorationOptions> exploration;
};

/**
 * Run one deployment cell. Deterministic per (system, app, load,
 * opts.seed).
 */
CellResult runCell(System system, AppId app, LoadKind load,
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
                        const PerfHarnessOptions &opts);

/**
 * All cells of the Fig. 11/12 grid, cached on disk so the two bench
 * binaries don't re-simulate. Row order: app-major, then load, then
 * system. Cells are independent simulations and run on the ursa::exec
 * pool (URSA_THREADS ways); the result is bit-identical for any
 * thread count.
 */
struct GridRow
{
    AppId app;
    LoadKind load;
    System system;
    CellResult result;
};
std::vector<GridRow> performanceGrid(const PerfHarnessOptions &opts);

/**
 * Read the grid's cache CSV: the header line, then one row per cell of
 * app, load and system indices, violation rate, CPU cores and decision
 * latency. Indices must be in range, values finite and non-negative,
 * and every (app, load, system) cell must appear exactly once. Rows
 * come back in performanceGrid's order.
 * @throws std::runtime_error at the first malformed or missing cell.
 */
std::vector<GridRow> readGridCsv(std::istream &in);

/** Write grid rows in the format readGridCsv reads. */
void writeGridCsv(std::ostream &out, const std::vector<GridRow> &grid);

/** The skewed mix of an app (factor applied to its update class). */
std::vector<double> skewedMix(const apps::AppSpec &app, AppId id,
                              bool up);

} // namespace ursa::bench

#endif // URSA_BENCH_COMMON_H
