/**
 * @file
 * Trace-replay comparison: record a long low-rate diurnal arrival
 * trace, extract its arrival curve, compress it 100x with
 * scaleTrace() (WorkloadCompactor-style: a day-scale trace becomes a
 * minutes-scale stress replay at the social network's nominal rate),
 * and replay it through all five managed systems — the Fig. 11/12
 * harness driven by a recorded trace instead of a synthetic profile.
 */

#include "common.h"

#include "workload/arrival.h"
#include "workload/arrival_curve.h"
#include "workload/generator.h"

#include <cstdio>

using namespace ursa;
using namespace ursa::bench;
using namespace ursa::sim;

namespace
{

void
printCurve(const char *title, const workload::ArrivalCurve &curve)
{
    std::printf("%s\n", title);
    std::printf("  %-12s %12s %14s %10s\n", "window", "max arrivals",
                "r (req/s)", "b (req)");
    const auto rb = curve.rb();
    for (std::size_t i = 0; i < curve.points.size(); ++i) {
        const auto &p = curve.points[i];
        std::printf("  %9.3f s %12zu", toSec(p.window), p.maxArrivals);
        if (i < rb.size())
            std::printf(" %14.1f %10.1f", rb[i].ratePerSec, rb[i].burst);
        std::printf("\n");
    }
}

} // namespace

int
main()
{
    const double kScale = 100.0;
    PerfHarnessOptions opts;
    opts.measure = 10 * kMin;

    const apps::AppSpec app = makeApp(AppId::Social);

    // Record at 1/100th of the nominal rate over 100x the measured
    // window, so the compressed replay spans one measurement window at
    // the nominal rate.
    const SimTime span = static_cast<SimTime>(kScale) * opts.measure;
    const double lowRps = app.nominalRps / kScale;
    workload::ProfileGenerator gen(
        workload::diurnalRate(lowRps, 2.0 * lowRps, span),
        fixedMix(app.exploreMix), 71);
    const auto trace = workload::recordTrace(gen, span);

    std::printf("Trace replay through the Fig. 11/12 harness (social "
                "network).\nRecorded %zu arrivals over %.1f h at %.1f "
                "rps mean; replayed at %.0fx.\n\n",
                trace.entries.size(), toSec(trace.duration()) / 3600.0,
                trace.meanRate(), kScale);

    printCurve("arrival curve of the recorded trace:",
               workload::extractCurve(trace));

    const auto scaled = workload::scaleTrace(trace, kScale);
    std::printf("\nscaled trace: %.1f rps mean over %.1f min "
                "(curve at window w maps to the\noriginal's at %.0fw)\n\n",
                scaled.meanRate(), toSec(scaled.duration()) / 60.0,
                kScale);

    // The offline artifacts, computed once for all five systems.
    const auto profile =
        core::ExplorationController(paperExploration(opts.seed))
            .exploreApp(app);
    const auto sinanSamples =
        collectSinanSamples(app, opts.sinanSamples, opts.seed);

    const System systems[] = {System::Ursa, System::Sinan, System::Firm,
                              System::AutoA, System::AutoB};
    std::printf("%-8s %14s %12s %16s\n", "system", "SLA-viol rate",
                "CPU cores", "decision us");
    for (const System s : systems) {
        const CellResult r = runTraceCell(s, AppId::Social, scaled, profile,
                                          sinanSamples, opts);
        std::printf("%-8s %13.1f%% %12.1f %16.1f\n", toString(s),
                    100.0 * r.violationRate, r.cpuCores,
                    r.decisionLatencyUs);
    }

    std::printf("\nExpected shape (paper Sec. VII-E): Ursa holds the "
                "lowest violation rate at\nmoderate CPU; Auto-a "
                "under-provisions, Auto-b over-provisions.\n");
    return 0;
}
