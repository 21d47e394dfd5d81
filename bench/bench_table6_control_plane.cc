/**
 * @file
 * Reproduces paper Table VI: wall-clock control-plane latency of the
 * four approaches, for the two decision paths —
 *
 *   deployment: the periodic scaling decision
 *     Ursa   = per-service threshold check (Welch t-test on loads)
 *     Sinan  = NN + GBDT inference over the candidate allocations
 *     Firm   = per-service RL agent (Q-network) inference
 *     Auto   = a single utilization comparison
 *
 *   update: adapting the model to changed logic / load mixes
 *     Ursa   = one MIP solve (specialized exact solver)
 *     Sinan  = full retraining (the paper reports minutes / N/A)
 *     Firm   = one RL training iteration (thousands may be needed)
 *
 * Uses google-benchmark; absolute values depend on the host, but the
 * ordering (Auto < Ursa << Firm < Sinan for deployment; Ursa solving
 * once vs Firm needing many iterations for update) is the paper's
 * result.
 */

#include "common.h"

#include "baselines/firm.h"
#include "core/manager.h"
#include "ml/rl.h"
#include "sim/client.h"
#include "workload/arrival.h"

#include <benchmark/benchmark.h>

using namespace ursa;
using namespace ursa::bench;

namespace
{

/** Shared fixtures built once: a loaded social-network cluster with
 * its exploration profile, Sinan's training samples and trained model,
 * and Firm-style agents. */
struct Fixtures
{
    apps::AppSpec app = makeApp(AppId::Social);
    core::AppProfile profile;
    std::unique_ptr<sim::Cluster> cluster;
    std::unique_ptr<sim::OpenLoopClient> client;
    std::unique_ptr<core::UrsaManager> manager;
    std::vector<baselines::SinanSample> sinanSamples;
    std::unique_ptr<baselines::SinanModel> sinan;
    std::vector<double> sinanLoads;
    std::unique_ptr<ml::QAgent> firmAgent;
    core::ModelInput modelInput;

    Fixtures()
    {
        profile = core::ExplorationController(paperExploration(2024))
                      .exploreApp(app);
        cluster = std::make_unique<sim::Cluster>(42);
        app.instantiate(*cluster);
        manager = std::make_unique<core::UrsaManager>(*cluster, app,
                                                      profile);
        if (!manager->deploy(app.nominalRps, app.exploreMix))
            throw std::runtime_error("infeasible");
        client = std::make_unique<sim::OpenLoopClient>(
            *cluster, workload::constantRate(app.nominalRps),
            sim::fixedMix(app.exploreMix), 7);
        client->start(0);
        cluster->run(10 * sim::kMin); // populate metrics

        sinanSamples = collectSinanSamples(app, 500, 2024);
        sinan = std::make_unique<baselines::SinanModel>(
            app, benchSinanConfig(app, 2024));
        sinan->train(sinanSamples);
        sinanLoads.assign(app.classes.size(), 0.0);
        for (std::size_t c = 0; c < app.classes.size(); ++c)
            sinanLoads[c] = app.nominalRps * app.exploreMix[c];

        baselines::FirmConfig firmCfg;
        firmAgent = std::make_unique<ml::QAgent>(firmCfg.agent, 7);
        for (int i = 0; i < 64; ++i)
            firmAgent->observe({{0.5, 0.2, 1.0, 0.1},
                                i % 5,
                                0.1,
                                {0.5, 0.2, 1.0, 0.1}});

        modelInput.profile = &profile;
        for (const auto &cls : app.classes)
            modelInput.slas.push_back(cls.sla);
        modelInput.slaVisits = core::computeSlaVisitCounts(app);
        const auto visits = core::computeVisitCounts(app);
        modelInput.loads.assign(
            app.services.size(),
            std::vector<double>(app.classes.size(), 0.0));
        double total = 0.0;
        for (double w : app.exploreMix)
            total += w;
        for (std::size_t s = 0; s < app.services.size(); ++s)
            for (std::size_t c = 0; c < app.classes.size(); ++c)
                modelInput.loads[s][c] = app.nominalRps *
                                         app.exploreMix[c] / total *
                                         visits[s][c];
    }
};

Fixtures &
fixtures()
{
    static Fixtures f;
    return f;
}

void
BM_Deploy_Ursa_ThresholdCheck(benchmark::State &state)
{
    // One full manager pass: a Welch-t-test threshold check per
    // service (the entire critical path of an Ursa scaling decision).
    Fixtures &f = fixtures();
    core::ResourceController ctl(*f.cluster, f.cluster->serviceId(
                                                 "post-storage"));
    ctl.setThresholds(f.manager->thresholds()[f.cluster->serviceId(
        "post-storage")]);
    for (auto _ : state)
        benchmark::DoNotOptimize(ctl.tick());
}

void
BM_Deploy_Sinan_ModelInference(benchmark::State &state)
{
    // Candidate sweep through the latency NN + violation GBDT, as one
    // scheduler tick performs.
    Fixtures &f = fixtures();
    std::vector<int> replicas(f.app.services.size(), 4);
    for (auto _ : state) {
        double acc = 0.0;
        for (std::size_t s = 0; s < replicas.size(); ++s) {
            for (int d : {-1, 0, 1}) {
                auto cand = replicas;
                cand[s] = std::max(1, cand[s] + d);
                const auto x = f.sinan->features(cand, f.sinanLoads);
                for (double v : f.sinan->predictRatios(x))
                    acc += v;
                acc += f.sinan->violationProbability(x);
            }
        }
        benchmark::DoNotOptimize(acc);
    }
}

void
BM_Deploy_Firm_AgentInference(benchmark::State &state)
{
    // Greedy Q-network inference, one per service.
    Fixtures &f = fixtures();
    const std::vector<double> s = {0.4, 0.3, 1.0, 0.2};
    for (auto _ : state) {
        int acc = 0;
        for (std::size_t i = 0; i < f.app.services.size(); ++i)
            acc += f.firmAgent->act(s, false);
        benchmark::DoNotOptimize(acc);
    }
}

void
BM_Deploy_Autoscaling_ThresholdCheck(benchmark::State &state)
{
    // A single utilization-vs-threshold comparison.
    double util = 0.57;
    for (auto _ : state) {
        benchmark::DoNotOptimize(util > 0.6 ? 1 : (util < 0.3 ? -1 : 0));
        util += 1e-9;
    }
}

void
BM_Update_Ursa_MipSolve(benchmark::State &state)
{
    // Full optimization-model recomputation (thresholds for every
    // service) — Ursa adapts to a changed mix in ONE such solve.
    Fixtures &f = fixtures();
    core::UrsaOptimizer optimizer;
    for (auto _ : state) {
        const auto out = optimizer.solve(f.modelInput);
        benchmark::DoNotOptimize(out.feasible);
    }
}

void
BM_Update_Firm_TrainIteration(benchmark::State &state)
{
    // One RL training iteration; Firm may need thousands to adapt.
    Fixtures &f = fixtures();
    for (auto _ : state)
        benchmark::DoNotOptimize(f.firmAgent->trainStep());
}

void
BM_Update_Sinan_FullRetrain(benchmark::State &state)
{
    // Sinan's update path is a full retrain over the dataset (the
    // paper lists it as N/A / minutes on a GPU).
    Fixtures &f = fixtures();
    for (auto _ : state) {
        baselines::SinanModel model(f.app,
                                    benchSinanConfig(f.app, 2024));
        model.train(f.sinanSamples);
        benchmark::DoNotOptimize(model.trained());
    }
}

BENCHMARK(BM_Deploy_Autoscaling_ThresholdCheck);
BENCHMARK(BM_Deploy_Ursa_ThresholdCheck);
BENCHMARK(BM_Deploy_Firm_AgentInference);
BENCHMARK(BM_Deploy_Sinan_ModelInference);
BENCHMARK(BM_Update_Ursa_MipSolve)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Update_Firm_TrainIteration)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Update_Sinan_FullRetrain)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(3);

} // namespace

int
main(int argc, char **argv)
{
    std::printf("Table VI reproduction: control-plane latency. The "
                "paper's ordering to verify:\n  deployment:  "
                "Autoscaling < Ursa << Firm < Sinan\n  update:      "
                "Ursa (one solve) vs Firm (per-iteration; needs many) "
                "vs Sinan (full retrain)\n\n");
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
