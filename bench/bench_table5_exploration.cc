/**
 * @file
 * Reproduces paper Table V: exploration overhead (samples collected and
 * exploration time) of Ursa vs the ML-driven systems on the three
 * benchmark applications.
 *
 * Ursa's numbers are *measured*: the full Algorithm-1 exploration (plus
 * Sec.-III backpressure profiling) actually runs here at the paper's
 * sampling frequency (one sample per minute, 10 per LPR level); the
 * wall-clock column is simulated time, with per-service explorations
 * running in parallel as in the paper. Sinan/Firm are charged their
 * papers' prescribed budget — 10,000 samples at the same once-per-
 * minute frequency = 166.7 hours — exactly as the paper charges them.
 * The video pipeline is explored under the paper's four priority
 * mixes (5:95, 25:75, 50:50, 75:25).
 */

#include "common.h"

#include "core/explorer.h"

#include <cstdio>
#include <vector>

using namespace ursa;
using namespace ursa::bench;

int
main()
{
    std::printf("Table V reproduction: exploration overheads\n\n");
    std::printf("%-10s %-12s %10s %10s %10s %10s\n", "App", "System",
                "Samples", "Time(h)", "ratio(S)", "ratio(T)");

    struct Row
    {
        const char *name;
        int samples;
        double hours;
    };
    std::vector<Row> rows;
    const core::ExplorationController explorer(paperExploration(2024));

    // Social network.
    {
        const auto app = makeApp(AppId::Social);
        const auto prof = explorer.exploreApp(app);
        rows.push_back({"Social", prof.totalSamples(),
                        sim::toSec(prof.wallClockExploreTime()) / 3600.0});
    }
    // Media service.
    {
        const auto app = makeApp(AppId::Media);
        const auto prof = explorer.exploreApp(app);
        rows.push_back({"Media", prof.totalSamples(),
                        sim::toSec(prof.wallClockExploreTime()) / 3600.0});
    }
    // Video pipeline: the paper explores four priority mixes; samples
    // accumulate, wall-clock time is the max (mixes explored one after
    // another per service, services in parallel).
    {
        int samples = 0;
        sim::SimTime serial = 0;
        const double fracs[] = {0.05, 0.25, 0.50, 0.75};
        for (double frac : fracs) {
            const auto app = apps::makeVideoPipeline(frac);
            const auto prof = explorer.exploreApp(app);
            samples += prof.totalSamples();
            serial += prof.wallClockExploreTime();
        }
        rows.push_back({"Video", samples, sim::toSec(serial) / 3600.0});
    }

    const double mlSamples = 10000.0;
    const double mlHours = 10000.0 / 60.0; // one sample per minute
    for (const Row &row : rows) {
        std::printf("%-10s %-12s %10d %10.1f %10s %10s\n", row.name,
                    "Ursa", row.samples, row.hours, "", "");
        std::printf("%-10s %-12s %10.0f %10.1f %9.1fx %9.1fx\n", "",
                    "Sinan/Firm", mlSamples, mlHours,
                    mlSamples / row.samples, mlHours / row.hours);
    }

    std::printf("\nPaper reference: Ursa 390-600 samples / 0.8-1.2 h; "
                "sample-size reduction 16.7-25.6x,\nexploration-time "
                "reduction 128.2-208.4x.\n");
    return 0;
}
