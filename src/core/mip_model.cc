#include "core/mip_model.h"

#include "check/check.h"
#include "core/profile.h"
#include "core/theorem.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <stdexcept>

namespace ursa::core
{

namespace
{

constexpr double kInf = std::numeric_limits<double>::infinity();

/** A class's latency stages: (service, level-independent repeats). */
struct ClassPath
{
    std::vector<int> services; ///< one entry per visit (repeats included)
};

/** Validated, pre-digested solve context shared by the B&B. */
struct Context
{
    const ModelInput &in;
    const AppProfile &prof;
    bool evenSplit = false;
    int numServices;
    int numClasses;
    /** Services that actually have levels to choose. */
    std::vector<int> active;
    /** Per class: stage list (service index per visit). */
    std::vector<ClassPath> paths;
    /** Resource (cores) of service s at level l under current loads. */
    std::vector<std::vector<double>> resource;
    /** Replicas of service s at level l under current loads. */
    std::vector<std::vector<int>> reps;
    /** Element-wise min latency over levels, per service/class/grid. */
    std::vector<std::vector<std::vector<double>>> minLatency;

    explicit Context(const ModelInput &input)
        : in(input), prof(*input.profile)
    {
        numServices = static_cast<int>(prof.services.size());
        numClasses = static_cast<int>(input.slas.size());
        if (static_cast<int>(input.loads.size()) != numServices ||
            static_cast<int>(input.slaVisits.size()) != numServices)
            throw std::invalid_argument("model input size mismatch");

        // Profile/load validation: a NaN or negative latency entry
        // would silently pass through the percentile-split DP and
        // produce a bogus "feasible" allocation.
        for (const ServiceProfile &svc : prof.services)
            for (const LprLevel &lvl : svc.levels)
                for (const auto &row : lvl.latency)
                    for (double v : row)
                        URSA_CHECK(std::isfinite(v) && v >= 0.0,
                                   "core.mip",
                                   "profiled latency entry not finite "
                                   "and non-negative");
        for (const auto &row : input.loads)
            for (double v : row)
                URSA_CHECK(std::isfinite(v) && v >= 0.0, "core.mip",
                           "load entry not finite and non-negative");
        for (const auto &row : input.slaVisits)
            for (double v : row)
                URSA_CHECK(std::isfinite(v) && v >= 0.0, "core.mip",
                           "SLA visit count not finite and non-negative");

        for (int s = 0; s < numServices; ++s)
            if (!prof.services[s].levels.empty())
                active.push_back(s);

        paths.resize(numClasses);
        for (int c = 0; c < numClasses; ++c) {
            for (int s = 0; s < numServices; ++s) {
                if (!prof.services[s].handlesClass(c))
                    continue;
                // Only services on the class's SLA path contribute
                // latency stages; zero SLA visits = load only.
                const int repeats = static_cast<int>(
                    std::lround(in.slaVisits[s][c]));
                for (int r = 0; r < repeats; ++r)
                    paths[c].services.push_back(s);
            }
        }

        resource.resize(numServices);
        reps.resize(numServices);
        minLatency.resize(numServices);
        for (int s = 0; s < numServices; ++s) {
            const ServiceProfile &svc = prof.services[s];
            const int nl = static_cast<int>(svc.levels.size());
            resource[s].resize(nl);
            reps[s].resize(nl);
            for (int l = 0; l < nl; ++l) {
                reps[s][l] =
                    UrsaOptimizer::replicasNeeded(svc, l, in.loads[s]);
                resource[s][l] = reps[s][l] * svc.cpuPerReplica;
            }
            // Min latency over levels per class/grid point, for
            // optimistic feasibility pruning.
            if (nl > 0) {
                minLatency[s].resize(numClasses);
                for (int c = 0; c < numClasses; ++c) {
                    if (!svc.handlesClass(c))
                        continue;
                    const std::size_t g = prof.grid.size();
                    minLatency[s][c].assign(g, kInf);
                    for (int l = 0; l < nl; ++l) {
                        const auto &row = svc.levels[l].latency[c];
                        for (std::size_t k = 0; k < g; ++k)
                            minLatency[s][c][k] =
                                std::min(minLatency[s][c][k], row[k]);
                    }
                }
            }
        }
    }

    /** Minimal resource of service s over its levels (0 if no levels). */
    double
    minResource(int s) const
    {
        if (resource[s].empty())
            return 0.0;
        return *std::min_element(resource[s].begin(), resource[s].end());
    }

    /**
     * Feasibility check: with `level[s]` fixed (>= 0) for decided
     * services and optimistic (min) latencies elsewhere, does every
     * class admit a residual-feasible percentile split within its SLA?
     * When every service is decided this is the exact check.
     * @param upperBound When non-null and feasible, receives the
     *        latency-sum upper bound per class.
     */
    bool
    feasible(const std::vector<int> &level,
             std::vector<double> *upperBound) const
    {
        if (upperBound)
            upperBound->assign(numClasses, 0.0);
        for (int c = 0; c < numClasses; ++c) {
            if (paths[c].services.empty())
                continue;
            std::vector<std::vector<double>> stageLat;
            stageLat.reserve(paths[c].services.size());
            for (int s : paths[c].services) {
                if (level[s] >= 0) {
                    stageLat.push_back(
                        prof.services[s].levels[level[s]].latency[c]);
                } else if (!minLatency[s].empty() &&
                           !minLatency[s][c].empty()) {
                    stageLat.push_back(minLatency[s][c]);
                } else {
                    // Service without exploration data on this path:
                    // treat as free (it is not being managed).
                    continue;
                }
            }
            if (stageLat.empty())
                continue;
            SplitResult split;
            if (evenSplit) {
                // Naive policy: every stage gets residual/n; pick the
                // largest grid percentile fitting that share.
                const double share =
                    (100.0 - in.slas[c].percentile) /
                    static_cast<double>(stageLat.size());
                int gidx = -1;
                for (std::size_t g = 0; g < prof.grid.size(); ++g)
                    if (100.0 - prof.grid[g] <= share + 1e-12)
                        gidx = static_cast<int>(g);
                if (gidx < 0) {
                    split.feasible = false;
                } else {
                    split.feasible = true;
                    for (const auto &row : stageLat) {
                        if (!std::isfinite(row[gidx])) {
                            split.feasible = false;
                            break;
                        }
                        split.totalLatency += row[gidx];
                    }
                }
            } else {
                split = optimizePercentileSplit(stageLat, prof.grid,
                                                in.slas[c].percentile);
            }
            if (!split.feasible ||
                split.totalLatency >
                    static_cast<double>(in.slas[c].targetUs))
                return false;
            if (upperBound)
                (*upperBound)[c] = split.totalLatency;
        }
        return true;
    }
};

} // namespace

int
UrsaOptimizer::replicasNeeded(const ServiceProfile &svc, int lvl,
                              const std::vector<double> &loads)
{
    const LprLevel &level = svc.levels.at(lvl);
    int needed = 1;
    for (std::size_t c = 0; c < level.loadPerReplica.size(); ++c) {
        const double a = level.loadPerReplica[c];
        if (a <= 0.0)
            continue;
        const double load = c < loads.size() ? loads[c] : 0.0;
        if (load <= 0.0)
            continue;
        needed = std::max(
            needed, static_cast<int>(std::ceil(load / a - 1e-9)));
    }
    return needed;
}

ModelOutput
UrsaOptimizer::solve(const ModelInput &input) const
{
    if (input.profile == nullptr)
        throw std::invalid_argument("model input missing profile");
    Context ctx(input);
    ctx.evenSplit = opts_.evenSplit;

    ModelOutput out;
    out.level.assign(ctx.numServices, -1);
    out.replicas.assign(ctx.numServices, 0);
    out.upperBoundUs.assign(ctx.numClasses, 0.0);

    // Order decisions by descending resource spread so pruning bites
    // early on the services that matter.
    std::vector<int> order = ctx.active;
    std::sort(order.begin(), order.end(), [&](int a, int b) {
        auto spread = [&](int s) {
            const auto &r = ctx.resource[s];
            return *std::max_element(r.begin(), r.end()) -
                   *std::min_element(r.begin(), r.end());
        };
        return spread(a) > spread(b);
    });

    double incumbent = kInf;
    std::vector<int> bestLevel;
    std::vector<double> bestUpper;
    std::size_t nodes = 0;
    bool hitLimit = false;

    // Suffix sums of minimal remaining resource for bounding.
    std::vector<double> minSuffix(order.size() + 1, 0.0);
    for (std::size_t i = order.size(); i-- > 0;)
        minSuffix[i] = minSuffix[i + 1] + ctx.minResource(order[i]);

    std::vector<int> level(ctx.numServices, -1);
    std::function<void(std::size_t, double)> recurse =
        [&](std::size_t depth, double used) {
            if (++nodes > opts_.maxNodes) {
                hitLimit = true;
                return;
            }
            if (used + minSuffix[depth] >= incumbent)
                return; // resource bound
            if (depth == order.size()) {
                std::vector<double> upper;
                if (ctx.feasible(level, &upper)) {
                    incumbent = used;
                    bestLevel = level;
                    bestUpper = std::move(upper);
                }
                return;
            }
            if (!ctx.feasible(level, nullptr))
                return; // optimistic latency already violates an SLA
            const int s = order[depth];
            // Cheapest-resource levels first: the first feasible leaf
            // tends to be optimal, giving a tight incumbent early.
            std::vector<int> byResource(ctx.resource[s].size());
            for (std::size_t i = 0; i < byResource.size(); ++i)
                byResource[i] = static_cast<int>(i);
            std::sort(byResource.begin(), byResource.end(),
                      [&](int a, int b) {
                          return ctx.resource[s][a] < ctx.resource[s][b];
                      });
            for (int l : byResource) {
                level[s] = l;
                recurse(depth + 1, used + ctx.resource[s][l]);
                if (hitLimit)
                    break;
            }
            level[s] = -1;
        };
    recurse(0, 0.0);

    out.nodesExplored = nodes;
    out.hitNodeLimit = hitLimit;
    if (!std::isfinite(incumbent))
        return out; // infeasible

    out.feasible = true;
    out.level = bestLevel;
    out.upperBoundUs = bestUpper;
    out.totalCpuCores = 0.0;
    for (int s = 0; s < ctx.numServices; ++s) {
        if (out.level[s] >= 0) {
            out.replicas[s] = ctx.reps[s][out.level[s]];
            out.totalCpuCores += ctx.resource[s][out.level[s]];
        }
    }

    // Feasibility re-check of the returned incumbent: the exact split
    // must still fit every class's SLA, every decided service must
    // carry its load with >= 1 replica, and the objective must equal
    // the recomputed resource sum. Catches B&B bookkeeping bugs
    // (stale incumbent, wrong bound ordering) at the API boundary.
    std::vector<double> recheck;
    URSA_CHECK(ctx.feasible(out.level, &recheck), "core.mip",
               "returned solution fails the exact feasibility re-check");
    for (int c = 0; c < ctx.numClasses; ++c) {
        if (!recheck.empty())
            URSA_CHECK(recheck[c] <=
                           static_cast<double>(input.slas[c].targetUs) +
                               1e-6,
                       "core.mip",
                       "returned solution's latency bound exceeds the "
                       "class SLA");
    }
    for (int s : ctx.active)
        URSA_CHECK(out.level[s] >= 0 && out.replicas[s] >= 1, "core.mip",
                   "active service left undecided or with no replicas");
    URSA_CHECK(std::fabs(out.totalCpuCores - incumbent) <= 1e-6,
               "core.mip",
               "objective drifted from the recomputed resource sum");
    return out;
}

} // namespace ursa::core
