/**
 * @file
 * Reproduces paper Fig. 10: estimated vs measured latency of the video
 * processing pipeline's two priorities over 150 minutes (5-minute
 * windows), with SLAs at p99 (high priority) and p50 (low priority).
 * The paper reports mean estimated/measured ratios of 1.00 (high) and
 * 0.96 (low). The estimation machinery is the same as Fig. 9's.
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
    std::printf("Fig. 10 reproduction: estimated vs measured latency, "
                "video pipeline (p99 of the\nhigh priority, p50 of the "
                "low priority), 150 minutes in 5-minute windows.\n\n");

    const apps::AppSpec app = makeApp(AppId::VideoPipeline);
    const auto profile =
        core::ExplorationController(paperExploration(2024))
            .exploreApp(app);
    const auto slaVisits = core::computeSlaVisitCounts(app);

    Cluster cluster(777);
    app.instantiate(cluster);
    core::UrsaManager manager(cluster, app, profile);
    if (!manager.deploy(app.nominalRps, app.exploreMix)) {
        std::printf("model infeasible\n");
        return 1;
    }
    OpenLoopClient client(
        cluster,
        workload::diurnalRate(0.8 * app.nominalRps, 1.5 * app.nominalRps,
                              75 * kMin),
        fixedMix(app.exploreMix), 5);
    client.start(0);

    std::printf("%-5s %22s %22s\n", "min", "high est/meas (s)",
                "low est/meas (s)");

    std::vector<double> ratio(app.classes.size(), 1.0);
    std::vector<bool> seeded(app.classes.size(), false);
    std::vector<double> ratioSum(app.classes.size(), 0.0);
    std::vector<int> ratioCount(app.classes.size(), 0);

    const SimTime step = 5 * kMin;
    for (SimTime t = 0; t < 150 * kMin; t += step) {
        cluster.run(t + step);
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
        for (std::size_t c = 0; c < app.classes.size(); ++c) {
            std::vector<std::vector<double>> stages;
            for (std::size_t s = 0; s < app.services.size(); ++s) {
                const int repeats = static_cast<int>(
                    std::lround(slaVisits[s][c]));
                if (repeats <= 0 || level[s] < 0 ||
                    !profile.services[s].handlesClass(
                        static_cast<int>(c)))
                    continue;
                for (int r = 0; r < repeats; ++r)
                    stages.push_back(
                        profile.services[s].levels[level[s]].latency[c]);
            }
            const auto split = core::optimizePercentileSplit(
                stages, profile.grid, app.classes[c].sla.percentile);
            const double ub = split.feasible ? split.totalLatency : 0.0;
            const double est = ub * ratio[c];
            const auto meas = cluster.metrics()
                                  .endToEnd(static_cast<int>(c))
                                  .collect(t, t + step);
            const double measured =
                meas.empty() ? 0.0
                             : meas.percentile(
                                   app.classes[c].sla.percentile);
            std::printf("        %7.2f/%-7.2f", est / 1e6,
                        measured / 1e6);
            if (ub > 0.0 && measured > 0.0) {
                if (t >= 10 * kMin) {
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

    std::printf("\naverage estimated/measured ratio (paper: high 1.00, "
                "low 0.96):\n");
    for (std::size_t c = 0; c < app.classes.size(); ++c) {
        std::printf("  %-14s %.3f\n", app.classes[c].name.c_str(),
                    ratioCount[c] ? ratioSum[c] / ratioCount[c] : 0.0);
    }
    return 0;
}
