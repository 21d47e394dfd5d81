/**
 * @file
 * The simulation kernel against exact queueing theory. One service
 * serves one class: Poisson arrivals (OpenLoopClient at a constant
 * rate) and lognormal demand with a 10 ms mean. Three models have
 * closed-form mean sojourn times:
 *
 *  - M/G/1 processor sharing (1 core, 10,000 worker threads):
 *    E[S] / (1 - rho), whatever the demand distribution;
 *  - 4-core processor sharing, each job capped at one core: a
 *    symmetric queue, insensitive to the demand distribution, so its
 *    mean is the M/M/4 mean (Erlang C);
 *  - M/G/1 FIFO (1 worker thread): Pollaczek-Khinchine.
 *
 * Little's law is checked at one point by sampling the in-flight count
 * on a fixed sim-time grid.
 *
 * Each point runs a 2 sim-min warm-up, then splits the measured span
 * into 20 equal batches. Batch means come from the exact per-window
 * OnlineStats of the end-to-end aggregator (1-minute windows). The
 * closed form must lie inside the 99% batch-means t-interval, and the
 * half-width must be at most 8% of the mean, so no point passes by
 * being vague. Seeds, points and run lengths are fixed.
 */

#include "sim/client.h"
#include "sim/cluster.h"
#include "stats/online.h"
#include "workload/arrival.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

namespace
{

using namespace ursa;
using sim::SimTime;

constexpr double kMeanDemandUs = 10000.0;
constexpr SimTime kWarmup = 2 * sim::kMin;
constexpr int kBatches = 20;
/// Two-sided 99% Student t quantile at kBatches - 1 = 19 d.o.f.
constexpr double kT99 = 2.860935;
constexpr double kMaxRelHalfWidth = 0.08;

enum class Model
{
    Ps1,  ///< M/G/1 processor sharing
    Ps4,  ///< 4-core processor sharing
    Fifo, ///< M/G/1 first-come first-served
};

struct Point
{
    const char *name;
    Model model;
    double rho;
    double cv;
    SimTime measure;
    std::uint64_t seed;
};

/** gtest prints a failing point by name, not as raw bytes. */
void
PrintTo(const Point &p, std::ostream *os)
{
    *os << p.name;
}

int
cores(Model m)
{
    return m == Model::Ps4 ? 4 : 1;
}

/** Arrival rate (per us) that loads the service to `p.rho`. */
double
lambdaPerUs(const Point &p)
{
    return p.rho * cores(p.model) / kMeanDemandUs;
}

/** Closed-form mean sojourn time in us. */
double
closedFormMeanUs(const Point &p)
{
    const double s = kMeanDemandUs;
    switch (p.model) {
    case Model::Ps1:
        return s / (1.0 - p.rho);
    case Model::Ps4: {
        const int c = cores(p.model);
        const double a = p.rho * c; // offered load in servers
        double term = 1.0, below = 0.0;
        for (int k = 0; k < c; ++k) {
            below += term;
            term *= a / (k + 1);
        }
        const double top = term * c / (c - a);
        const double erlangC = top / (below + top);
        return s + erlangC * s / (c - a);
    }
    case Model::Fifo: {
        const double second = (1.0 + p.cv * p.cv) * s * s;
        return s + lambdaPerUs(p) * second / (2.0 * (1.0 - p.rho));
    }
    }
    return 0.0;
}

/** A batch-means estimate: grand mean and 99% half-width. */
struct Estimate
{
    double mean = 0.0;
    double halfWidth = 0.0;
};

Estimate
batchMeans(const std::vector<double> &batch)
{
    stats::OnlineStats over;
    for (double m : batch)
        over.add(m);
    const double n = static_cast<double>(batch.size());
    return {over.mean(), kT99 * over.stddev() / std::sqrt(n)};
}

/** One simulated point: per-batch mean sojourn and in-flight count. */
struct Measured
{
    std::vector<double> sojournUs;
    std::vector<double> inFlight;
    double throughputPerUs = 0.0;
};

Measured
simulate(const Point &p)
{
    sim::Cluster cluster(p.seed);
    sim::ServiceConfig cfg;
    cfg.name = "svc";
    cfg.cpuPerReplica = cores(p.model);
    cfg.threads = p.model == Model::Fifo ? 1 : 10000;
    sim::ClassBehavior b;
    b.computeMeanUs = kMeanDemandUs;
    b.computeCv = p.cv;
    cfg.behaviors[0] = b;
    cluster.addService(cfg);
    sim::RequestClassSpec spec;
    spec.name = "req";
    spec.rootService = "svc";
    cluster.addClass(spec);
    cluster.finalize();

    sim::OpenLoopClient client(
        cluster, workload::constantRate(lambdaPerUs(p) * 1e6),
        sim::fixedMix({1.0}), p.seed + 1);
    client.start(0);

    // In-flight samples every 10 sim-ms, binned by batch.
    const SimTime batchLen = p.measure / kBatches;
    const SimTime end = kWarmup + p.measure;
    std::vector<stats::OnlineStats> inFlight(kBatches);
    struct Sampler
    {
        sim::Cluster &cluster;
        std::vector<stats::OnlineStats> &bins;
        SimTime batchLen;

        void
        tick()
        {
            const SimTime t = cluster.events().now() - kWarmup;
            if (t >= 0 && t / batchLen < kBatches)
                bins[t / batchLen].add(
                    static_cast<double>(cluster.inFlight()));
            cluster.events().scheduleIn(10 * sim::kMsec,
                                        [this] { tick(); });
        }
    } sampler{cluster, inFlight, batchLen};
    cluster.events().schedule(kWarmup, [&sampler] { sampler.tick(); });
    cluster.run(end);

    // Completions in the measured span, from the exact window stats.
    std::vector<stats::OnlineStats> sojourn(kBatches);
    std::uint64_t completed = 0;
    for (const auto &w : cluster.metrics().endToEnd(0).windows()) {
        const SimTime t = w.start - kWarmup;
        if (t < 0 || w.start >= end)
            continue;
        sojourn[t / batchLen].merge(w.stats);
        completed += w.stats.count();
    }

    Measured run;
    for (int k = 0; k < kBatches; ++k) {
        EXPECT_GT(sojourn[k].count(), 0u) << "batch " << k;
        run.sojournUs.push_back(sojourn[k].mean());
        run.inFlight.push_back(inFlight[k].mean());
    }
    run.throughputPerUs =
        static_cast<double>(completed) / static_cast<double>(p.measure);
    return run;
}

void
expectCovers(const Estimate &e, double truth, const std::string &what)
{
    ::testing::Test::RecordProperty(what + " ratio",
                                    std::to_string(e.mean / truth));
    ::testing::Test::RecordProperty(
        what + " half-width %", std::to_string(100.0 * e.halfWidth / e.mean));
    EXPECT_LE(std::fabs(e.mean - truth), e.halfWidth)
        << what << ": estimate " << e.mean << " +- " << e.halfWidth
        << ", closed form " << truth << " (ratio " << e.mean / truth
        << ")";
    EXPECT_LE(e.halfWidth, kMaxRelHalfWidth * e.mean)
        << what << ": half-width " << e.halfWidth << " of mean "
        << e.mean;
}

class QueueingTheory : public ::testing::TestWithParam<Point>
{
};

TEST_P(QueueingTheory, MeanSojournMatchesClosedForm)
{
    const Point &p = GetParam();
    // The batch length must be a whole number of metric windows.
    ASSERT_EQ(p.measure % (kBatches * sim::kMin), 0);
    const Measured run = simulate(p);
    expectCovers(batchMeans(run.sojournUs), closedFormMeanUs(p),
                 "mean sojourn");
}

constexpr SimTime kLong = 60 * sim::kMin;
constexpr SimTime kShort = 20 * sim::kMin;

INSTANTIATE_TEST_SUITE_P(
    Models, QueueingTheory,
    ::testing::Values(
        Point{"ps1_rho50_cv0", Model::Ps1, 0.5, 0.0, kLong, 101},
        Point{"ps1_rho50_cv1", Model::Ps1, 0.5, 1.0, kLong, 102},
        Point{"ps1_rho80_cv0", Model::Ps1, 0.8, 0.0, kLong, 103},
        Point{"ps1_rho80_cv1", Model::Ps1, 0.8, 1.0, kLong, 104},
        Point{"ps4_rho50_cv1", Model::Ps4, 0.5, 1.0, kShort, 105},
        Point{"ps4_rho50_cv2", Model::Ps4, 0.5, 2.0, kShort, 106},
        Point{"ps4_rho80_cv1", Model::Ps4, 0.8, 1.0, kShort, 107},
        Point{"ps4_rho80_cv2", Model::Ps4, 0.8, 2.0, kShort, 108},
        Point{"fifo_rho50_cv0", Model::Fifo, 0.5, 0.0, kLong, 109},
        Point{"fifo_rho50_cv1", Model::Fifo, 0.5, 1.0, kLong, 110},
        Point{"fifo_rho80_cv0", Model::Fifo, 0.8, 0.0, kLong, 111},
        Point{"fifo_rho80_cv1", Model::Fifo, 0.8, 1.0, kLong, 112}),
    [](const ::testing::TestParamInfo<Point> &info) {
        return std::string(info.param.name);
    });

// Little's law, L = lambda * W, at M/G/1 processor sharing with rho 0.8
// and cv 1: the time-average in-flight count must match both the
// closed form rho / (1 - rho) and the measured throughput times the
// measured mean sojourn.
TEST(QueueingTheoryLittle, InFlightMatchesThroughputTimesSojourn)
{
    const Point p{"little", Model::Ps1, 0.8, 1.0, kLong, 113};
    const Measured run = simulate(p);
    const Estimate inFlight = batchMeans(run.inFlight);
    expectCovers(inFlight, lambdaPerUs(p) * closedFormMeanUs(p),
                 "in-flight");
    const double measured =
        run.throughputPerUs * batchMeans(run.sojournUs).mean;
    EXPECT_LE(std::fabs(inFlight.mean - measured), inFlight.halfWidth)
        << "in-flight " << inFlight.mean << " +- " << inFlight.halfWidth
        << ", throughput x sojourn " << measured;
}

} // namespace
