/**
 * @file
 * Reproduces paper Fig. 9: estimated vs measured p99 latency of four
 * representative social-network request types (post, update-timeline,
 * object-detect, sentiment-analysis) over 150 minutes in 5-minute
 * windows, with resource allocations changing dynamically (the Ursa
 * controller scales under a diurnal load).
 *
 * The estimate is the paper's calibrated bound: per window we locate
 * each service's current operating LPR in the exploration data, sum
 * per-stage latencies under the Theorem-1 percentile split, and scale
 * by the EWMA overestimation ratio observed so far (Sec. IV /
 * Sec. VII-D). The paper reports estimated/measured ratios of
 * 0.97-1.05.
 */

#include "common.h"

#include "core/manager.h"
#include "core/theorem.h"
#include "sim/client.h"
#include "workload/arrival.h"

#include <cmath>
#include <cstdio>
#include <vector>

using namespace ursa;
using namespace ursa::bench;
using namespace ursa::sim;

namespace
{

/** Level of `svc` whose total LPR is nearest the current one. */
int
nearestLevel(const core::ServiceProfile &svc,
             const std::vector<double> &loads, int replicas)
{
    if (svc.levels.empty() || replicas <= 0)
        return -1;
    double current = 0.0;
    for (double l : loads)
        current += l / replicas;
    int best = 0;
    double bestDiff = 1e300;
    for (std::size_t l = 0; l < svc.levels.size(); ++l) {
        double total = 0.0;
        for (double v : svc.levels[l].loadPerReplica)
            total += v;
        const double diff = std::fabs(total - current);
        if (diff < bestDiff) {
            bestDiff = diff;
            best = static_cast<int>(l);
        }
    }
    return best;
}

} // namespace

int
main()
{
    std::printf("Fig. 9 reproduction: estimated vs measured p99 latency, "
                "social network, 5-minute\nwindows over 150 minutes "
                "under a diurnal load with live scaling.\n\n");

    const apps::AppSpec app = makeApp(AppId::Social);
    const auto profile =
        core::ExplorationController(paperExploration(2024))
            .exploreApp(app);
    const auto slaVisits = core::computeSlaVisitCounts(app);

    Cluster cluster(555);
    app.instantiate(cluster);
    core::UrsaManager manager(cluster, app, profile);
    if (!manager.deploy(app.nominalRps, app.exploreMix)) {
        std::printf("model infeasible\n");
        return 1;
    }
    OpenLoopClient client(
        cluster,
        workload::diurnalRate(0.8 * app.nominalRps, 1.6 * app.nominalRps,
                              75 * kMin),
        fixedMix(app.exploreMix), 5);
    client.start(0);

    const std::vector<std::string> shown = {
        "post", "update-timeline", "object-detect", "sentiment-analysis"};
    std::vector<int> classIdx;
    for (const auto &name : shown)
        classIdx.push_back(app.classIndex(name));

    std::printf("%-5s", "min");
    for (const auto &name : shown)
        std::printf("  %13s est/meas(ms)", name.c_str());
    std::printf("\n");

    std::vector<double> ratio(app.classes.size(), 1.0);
    std::vector<bool> seeded(app.classes.size(), false);
    std::vector<double> ratioSum(app.classes.size(), 0.0);
    std::vector<int> ratioCount(app.classes.size(), 0);

    const SimTime step = 5 * kMin;
    for (SimTime t = 0; t < 150 * kMin; t += step) {
        cluster.run(t + step);

        // Current operating level per service.
        std::vector<int> level(app.services.size(), -1);
        for (std::size_t s = 0; s < app.services.size(); ++s) {
            std::vector<double> loads(app.classes.size(), 0.0);
            for (std::size_t c = 0; c < app.classes.size(); ++c)
                loads[c] = cluster.metrics().arrivalRate(
                    static_cast<ServiceId>(s), static_cast<int>(c), t,
                    t + step);
            level[s] = nearestLevel(
                profile.services[s], loads,
                cluster.service(static_cast<ServiceId>(s))
                    .activeReplicas());
        }

        std::printf("%-5lld", (long long)((t + step) / kMin));
        for (std::size_t k = 0; k < classIdx.size(); ++k) {
            const int c = classIdx[k];
            // Upper bound from the current operating levels.
            std::vector<std::vector<double>> stages;
            for (std::size_t s = 0; s < app.services.size(); ++s) {
                const int repeats = static_cast<int>(
                    std::lround(slaVisits[s][c]));
                if (repeats <= 0 || level[s] < 0)
                    continue;
                if (!profile.services[s].handlesClass(c))
                    continue;
                for (int r = 0; r < repeats; ++r)
                    stages.push_back(
                        profile.services[s].levels[level[s]].latency[c]);
            }
            const auto split = core::optimizePercentileSplit(
                stages, profile.grid, app.classes[c].sla.percentile);
            const double ub =
                split.feasible ? split.totalLatency : 0.0;
            const double est = ub * ratio[c];

            const auto meas =
                cluster.metrics().endToEnd(c).collect(t, t + step);
            const double measured =
                meas.empty() ? 0.0
                             : meas.percentile(
                                   app.classes[c].sla.percentile);
            std::printf("  %12.1f/%-12.1f", est / 1000.0,
                        measured / 1000.0);
            if (ub > 0.0 && measured > 0.0) {
                if (t >= 10 * kMin) { // causal ratio established
                    ratioSum[c] += est / measured;
                    ++ratioCount[c];
                }
                const double r = measured / ub;
                ratio[c] = seeded[c] ? 0.5 * ratio[c] + 0.5 * r : r;
                seeded[c] = true;
            }
        }
        std::printf("\n");
    }

    std::printf("\naverage estimated/measured ratio (paper: "
                "0.97-1.05):\n");
    for (std::size_t k = 0; k < classIdx.size(); ++k) {
        const int c = classIdx[k];
        std::printf("  %-20s %.3f\n", shown[k].c_str(),
                    ratioCount[c] ? ratioSum[c] / ratioCount[c] : 0.0);
    }
    return 0;
}
