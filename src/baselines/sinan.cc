#include "baselines/sinan.h"

#include "spec/app_spec.h"
#include "ml/gbdt.h"
#include "ml/mlp.h"
#include "sim/cluster.h"
#include "sim/service.h"
#include "sim/time.h"
#include "sim/types.h"

#include <algorithm>
#include <chrono>
#include <cmath>

namespace ursa::baselines
{

namespace
{

/** Latency ratios are clipped here for regression stability. */
constexpr double kRatioClip = 5.0;

/** Measured per-class latency/SLA ratios over [from, to). */
std::vector<double>
measuredRatios(const sim::Cluster &cluster, const spec::AppSpec &app,
               sim::SimTime from, sim::SimTime to)
{
    std::vector<double> ratios(app.classes.size(), 0.0);
    for (std::size_t c = 0; c < app.classes.size(); ++c) {
        const auto samples = cluster.metrics()
                                 .endToEnd(static_cast<int>(c))
                                 .collect(from, to);
        if (samples.empty())
            continue;
        const double lat =
            samples.percentile(app.classes[c].sla.percentile);
        ratios[c] = std::min(
            kRatioClip,
            lat / static_cast<double>(app.classes[c].sla.targetUs));
    }
    return ratios;
}

} // namespace

SinanModel::SinanModel(const spec::AppSpec &app, SinanConfig cfg)
    : cfg_(cfg), numServices_(static_cast<int>(app.services.size())),
      numClasses_(static_cast<int>(app.classes.size())),
      loadScale_(std::max(1.0, app.nominalRps))
{
    std::vector<int> sizes;
    sizes.push_back(numServices_ + numClasses_);
    for (int h : cfg_.hidden)
        sizes.push_back(h);
    sizes.push_back(numClasses_);
    latencyNet_ =
        std::make_unique<ml::Mlp>(sizes, cfg_.seed, cfg_.learningRate);
    violationGbdt_ = std::make_unique<ml::Gbdt>(cfg_.violationModel);
}

std::vector<double>
SinanModel::features(const std::vector<int> &replicas,
                     const std::vector<double> &classLoads) const
{
    std::vector<double> x;
    x.reserve(static_cast<std::size_t>(numServices_ + numClasses_));
    for (int r : replicas)
        x.push_back(static_cast<double>(r) /
                    static_cast<double>(cfg_.maxReplicas));
    for (double l : classLoads)
        x.push_back(l / loadScale_);
    return x;
}

void
SinanModel::train(const std::vector<SinanSample> &samples)
{
    std::vector<std::vector<double>> xs, ys;
    std::vector<double> labels;
    for (const SinanSample &s : samples) {
        xs.push_back(s.features);
        ys.push_back(s.latencyRatios);
        labels.push_back(s.violation ? 1.0 : 0.0);
    }
    latencyNet_->fit(xs, ys, ml::Loss::MeanSquared, cfg_.epochs,
                     cfg_.batchSize, cfg_.seed + 1);
    violationGbdt_->fit(xs, labels);
    trained_ = true;
}

std::vector<double>
SinanModel::predictRatios(const std::vector<double> &x) const
{
    return latencyNet_->forward(x);
}

double
SinanModel::violationProbability(const std::vector<double> &x) const
{
    return violationGbdt_->predict(x);
}

SinanCollector::SinanCollector(sim::Cluster &cluster,
                               const spec::AppSpec &app, SinanConfig cfg)
    : cluster_(cluster), app_(app), cfg_(cfg), rng_(cfg.seed ^ 0xc0ffee)
{
}

std::vector<SinanSample>
SinanCollector::collect(int numSamples)
{
    SinanModel featureBuilder(app_, cfg_);
    std::vector<SinanSample> samples;
    samples.reserve(static_cast<std::size_t>(numSamples));
    int violations = 0;

    for (int k = 0; k < numSamples; ++k) {
        // Bias allocations so the label mix stays near 1:1 (the Sinan
        // paper's data-collection goal): too few violations -> drift
        // allocations down; too many -> drift up.
        const double violFrac =
            samples.empty()
                ? 0.5
                : static_cast<double>(violations) /
                      static_cast<double>(samples.size());
        const double downBias = violFrac < 0.5 ? 0.55 : 0.25;

        std::vector<int> replicas(app_.services.size());
        for (std::size_t s = 0; s < app_.services.size(); ++s) {
            sim::Service &svc =
                cluster_.service(static_cast<sim::ServiceId>(s));
            int r = svc.activeReplicas();
            const double u = rng_.uniform();
            if (u < downBias)
                r -= 1 + static_cast<int>(rng_.uniformInt(2));
            else if (u < downBias + 0.3)
                r += 1 + static_cast<int>(rng_.uniformInt(2));
            r = std::clamp(r, 1, cfg_.maxReplicas);
            svc.setReplicas(r);
            replicas[s] = r;
        }

        const sim::SimTime from = cluster_.events().now();
        const sim::SimTime to = from + cfg_.interval;
        cluster_.run(to);

        std::vector<double> loads(app_.classes.size(), 0.0);
        for (std::size_t c = 0; c < app_.classes.size(); ++c) {
            const sim::ServiceId root =
                cluster_.serviceId(app_.classes[c].rootService);
            loads[c] = cluster_.metrics().arrivalRate(
                root, static_cast<int>(c), from, to);
        }

        SinanSample sample;
        sample.features = featureBuilder.features(replicas, loads);
        sample.latencyRatios = measuredRatios(cluster_, app_, from, to);
        sample.violation =
            std::any_of(sample.latencyRatios.begin(),
                        sample.latencyRatios.end(),
                        [](double r) { return r > 1.0; });
        if (sample.violation)
            ++violations;
        samples.push_back(std::move(sample));
    }
    return samples;
}

SinanScheduler::SinanScheduler(sim::Cluster &cluster,
                               const spec::AppSpec &app,
                               const SinanModel &model, SinanConfig cfg)
    : cluster_(cluster), app_(app), model_(model), cfg_(cfg)
{
}

void
SinanScheduler::start(sim::SimTime at)
{
    stop();
    next_ = cluster_.events().schedule(at, [this] { tick(); });
}

std::vector<double>
SinanScheduler::measuredClassLoads() const
{
    const sim::SimTime now = cluster_.events().now();
    const sim::SimTime from =
        std::max<sim::SimTime>(0, now - 2 * cfg_.interval);
    std::vector<double> loads(app_.classes.size(), 0.0);
    for (std::size_t c = 0; c < app_.classes.size(); ++c) {
        const sim::ServiceId root =
            cluster_.serviceId(app_.classes[c].rootService);
        loads[c] = cluster_.metrics().arrivalRate(
            root, static_cast<int>(c), from, now);
    }
    return loads;
}

void
SinanScheduler::tick()
{
    const auto wallStart = std::chrono::steady_clock::now();

    const std::vector<double> loads = measuredClassLoads();
    std::vector<int> current(app_.services.size());
    for (std::size_t s = 0; s < app_.services.size(); ++s)
        current[s] = cluster_.service(static_cast<sim::ServiceId>(s))
                         .activeReplicas();

    // Measured-violation override: Sinan's violation predictor models
    // queue build-up; when the system is already violating, the real
    // system scales the implicated tiers up immediately. Our stand-in
    // uses the observed signal directly: bump the most utilized
    // services and skip the model for this tick.
    {
        const sim::SimTime now = cluster_.events().now();
        const sim::SimTime from =
            std::max<sim::SimTime>(0, now - 2 * cfg_.interval);
        const double viol =
            cluster_.metrics().overallSlaViolationRate(from, now);
        if (viol > 0.0) {
            std::vector<std::pair<double, std::size_t>> byUtil;
            for (std::size_t s = 0; s < current.size(); ++s)
                byUtil.emplace_back(
                    cluster_.metrics().cpuUtilization(
                        static_cast<sim::ServiceId>(s), from, now),
                    s);
            std::sort(byUtil.rbegin(), byUtil.rend());
            for (std::size_t k = 0; k < byUtil.size() && k < 2; ++k) {
                const std::size_t s = byUtil[k].second;
                const int next =
                    std::min(cfg_.maxReplicas, current[s] + 1);
                if (next != current[s])
                    cluster_.service(static_cast<sim::ServiceId>(s))
                        .setReplicas(next);
            }
            decisionLatency_.add(
                std::chrono::duration<double, std::micro>(
                    std::chrono::steady_clock::now() - wallStart)
                    .count());
            next_ = cluster_.events().scheduleIn(cfg_.interval,
                                                 [this] { tick(); });
            return;
        }
    }

    // Candidate allocations: keep, and +/-1 per service.
    std::vector<std::vector<int>> candidates;
    candidates.push_back(current);
    for (std::size_t s = 0; s < current.size(); ++s) {
        for (int d : {-1, +1}) {
            std::vector<int> cand = current;
            cand[s] = std::clamp(cand[s] + d, 1, cfg_.maxReplicas);
            if (cand[s] != current[s])
                candidates.push_back(std::move(cand));
        }
    }

    auto cpuOf = [&](const std::vector<int> &r) {
        double total = 0.0;
        for (std::size_t s = 0; s < r.size(); ++s)
            total += r[s] * app_.services[s].cpuPerReplica;
        return total;
    };
    auto safe = [&](const std::vector<int> &r, double *worst) {
        const auto x = model_.features(r, loads);
        const auto ratios = model_.predictRatios(x);
        double w = 0.0;
        for (double v : ratios)
            w = std::max(w, v);
        if (worst)
            *worst = w;
        if (w >= cfg_.safeLatencyRatio)
            return false;
        return model_.violationProbability(x) <
               cfg_.violationProbThreshold;
    };

    // Cheapest safe candidate; if none, the candidate with the lowest
    // predicted worst latency ratio (scaling up toward safety).
    const std::vector<int> *best = nullptr;
    double bestCpu = 0.0;
    const std::vector<int> *leastBad = nullptr;
    double leastBadRatio = 0.0;
    for (const auto &cand : candidates) {
        double worst = 0.0;
        const bool ok = safe(cand, &worst);
        if (ok) {
            const double cpu = cpuOf(cand);
            if (best == nullptr || cpu < bestCpu) {
                best = &cand;
                bestCpu = cpu;
            }
        }
        if (leastBad == nullptr || worst < leastBadRatio) {
            leastBad = &cand;
            leastBadRatio = worst;
        }
    }
    const std::vector<int> &chosen = best ? *best : *leastBad;

    decisionLatency_.add(std::chrono::duration<double, std::micro>(
                             std::chrono::steady_clock::now() - wallStart)
                             .count());

    for (std::size_t s = 0; s < chosen.size(); ++s) {
        if (chosen[s] !=
            cluster_.service(static_cast<sim::ServiceId>(s))
                .activeReplicas())
            cluster_.service(static_cast<sim::ServiceId>(s))
                .setReplicas(chosen[s]);
    }
    next_ = cluster_.events().scheduleIn(cfg_.interval, [this] { tick(); });
}

} // namespace ursa::baselines
