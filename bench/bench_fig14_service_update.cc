/**
 * @file
 * Reproduces paper Fig. 14 (Sec. VII-G): adapting to a business-logic
 * update. The social network's object-detection service swaps its
 * model from a DETR-scale network to a lightweight MobileNet-scale one
 * (compute mean 1800 ms -> 400 ms). The exploration controller
 * re-explores ONLY the modified service (partial exploration), the
 * optimization engine recalculates the thresholds, and we compare the
 * end-to-end object-detect latency CDF before and after.
 *
 * Paper reference: the partial exploration collected 75 samples in
 * 1.25 h with a 5.3% violation rate; post-update SLA violation rates
 * were 0.62% (original) vs 0.50% (updated).
 */

#include "common.h"

#include "core/explorer.h"
#include "core/manager.h"
#include "sim/client.h"
#include "stats/quantile.h"
#include "workload/arrival.h"

#include <cstdio>

using namespace ursa;
using namespace ursa::bench;
using namespace ursa::sim;

namespace
{

struct RunResult
{
    stats::SampleSet latencies{0, 7};
    double violationRate = 0.0;
};

RunResult
deployAndMeasure(const apps::AppSpec &app, const core::AppProfile &profile,
                 std::uint64_t seed)
{
    Cluster cluster(seed);
    app.instantiate(cluster);
    core::UrsaManager manager(cluster, app, profile);
    if (!manager.deploy(app.nominalRps, app.exploreMix))
        throw std::runtime_error("infeasible");
    OpenLoopClient client(cluster, workload::constantRate(app.nominalRps),
                          fixedMix(app.exploreMix), seed + 1);
    client.start(0);
    cluster.run(35 * kMin);

    RunResult res;
    const int detect = app.classIndex("object-detect");
    res.latencies =
        cluster.metrics().endToEnd(detect).collect(5 * kMin, 35 * kMin);
    res.violationRate =
        cluster.metrics().slaViolationRate(detect, 5 * kMin, 35 * kMin);
    return res;
}

void
printCdf(const stats::SampleSet &samples, double slaMs)
{
    stats::EmpiricalCdf cdf(samples.samples());
    std::printf("    %8s %8s\n", "ms", "CDF");
    for (double q :
         {0.05, 0.2, 0.4, 0.6, 0.8, 0.9, 0.95, 0.99, 0.999}) {
        std::printf("    %8.0f %8.3f\n", cdf.quantile(q) / 1000.0, q);
    }
    std::printf("    SLA line: %.0f ms -> CDF %.4f\n", slaMs,
                cdf.at(slaMs * 1000.0));
}

} // namespace

int
main()
{
    std::printf("Fig. 14 reproduction: adapting to a service-logic "
                "update (object detection model\nDETR -> MobileNet, "
                "compute 1800 ms -> 400 ms), with partial "
                "re-exploration.\n\n");

    apps::AppSpec app = makeApp(AppId::Social);
    const double slaMs = sim::toMs(
        app.classes[app.classIndex("object-detect")].sla.targetUs);
    const core::AppProfile profile =
        core::ExplorationController(paperExploration(2024))
            .exploreApp(app);

    std::printf("== original service mesh (DETR-scale model)\n");
    const RunResult before = deployAndMeasure(app, profile, 811);
    printCdf(before.latencies, slaMs);
    std::printf("    SLA violation rate: %.2f%%\n\n",
                100.0 * before.violationRate);

    // The business-logic update.
    apps::AppSpec updated = app;
    const int detectSvc = updated.serviceIndex("object-detect");
    const int detectCls = updated.classIndex("object-detect");
    updated.services[detectSvc].behaviors[detectCls].computeMeanUs =
        400000.0;

    // Partial exploration: only the modified service is re-profiled.
    core::ExplorationController explorer(paperExploration(33));
    const int samplesBefore = profile.totalSamples();
    core::AppProfile updatedProfile = profile;
    explorer.reexploreService(updated, detectSvc, updatedProfile);
    const auto &svcProf = updatedProfile.services[detectSvc];
    std::printf("== partial re-exploration of object-detect only\n");
    std::printf("    samples: %d (whole-app exploration had %d), "
                "time: %.2f h, levels: %zu\n\n",
                svcProf.samples, samplesBefore,
                sim::toSec(svcProf.exploreTime) / 3600.0,
                svcProf.levels.size());

    std::printf("== updated service mesh (MobileNet-scale model)\n");
    const RunResult after = deployAndMeasure(updated, updatedProfile, 813);
    printCdf(after.latencies, slaMs);
    std::printf("    SLA violation rate: %.2f%%\n\n",
                100.0 * after.violationRate);

    std::printf("Paper reference: 75 samples / 1.25 h partial "
                "exploration; violation rates 0.62%%\n(original) vs "
                "0.50%% (updated). Shape to verify: the updated CDF "
                "shifts left and\nboth violation rates stay low.\n");
    return 0;
}
