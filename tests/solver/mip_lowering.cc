#include "solver/mip_lowering.h"

#include "core/profile.h"
#include "solver/lp.h"
#include "solver/mip.h"

#include <cmath>
#include <stdexcept>
#include <utility>
#include <vector>

namespace ursa::solver
{

core::ModelOutput
solveViaGenericMip(const core::ModelInput &input, std::size_t maxNodes)
{
    if (input.profile == nullptr)
        throw std::invalid_argument("model input missing profile");
    const core::AppProfile &prof = *input.profile;
    const int numServices = static_cast<int>(prof.services.size());
    const int numClasses = static_cast<int>(input.slas.size());
    if (static_cast<int>(input.loads.size()) != numServices ||
        static_cast<int>(input.slaVisits.size()) != numServices)
        throw std::invalid_argument("model input size mismatch");
    const core::PercentileGrid &grid = prof.grid;
    const int G = static_cast<int>(grid.size());

    // Replicas each service needs at each level.
    std::vector<std::vector<int>> reps(numServices);
    for (int s = 0; s < numServices; ++s) {
        const core::ServiceProfile &svc = prof.services[s];
        for (std::size_t l = 0; l < svc.levels.size(); ++l)
            reps[s].push_back(core::UrsaOptimizer::replicasNeeded(
                svc, static_cast<int>(l), input.loads[s]));
    }

    // One latency stage per SLA visit of a service with levels.
    struct StageRef
    {
        int cls;
        int svc;
    };
    std::vector<StageRef> stages;
    for (int c = 0; c < numClasses; ++c) {
        for (int s = 0; s < numServices; ++s) {
            if (!prof.services[s].handlesClass(c))
                continue;
            const long repeats = std::lround(input.slaVisits[s][c]);
            for (long r = 0; r < repeats; ++r)
                stages.push_back({c, s});
        }
    }

    // Variable layout:
    //   delta[s][l]            one-hot level choice (binary)
    //   gamma[stage(c,k)][g]   one-hot percentile choice per stage
    //   z[stage(c,k)][l][g]    linearized product (continuous [0,1])
    std::vector<std::vector<std::size_t>> deltaIdx(numServices);
    std::size_t nv = 0;
    for (int s = 0; s < numServices; ++s) {
        deltaIdx[s].resize(prof.services[s].levels.size());
        for (auto &idx : deltaIdx[s])
            idx = nv++;
    }
    std::vector<std::size_t> gammaBase(stages.size());
    for (std::size_t k = 0; k < stages.size(); ++k) {
        gammaBase[k] = nv;
        nv += G;
    }
    std::vector<std::size_t> zBase(stages.size());
    for (std::size_t k = 0; k < stages.size(); ++k) {
        zBase[k] = nv;
        nv += prof.services[stages[k].svc].levels.size() * G;
    }

    MipProblem mip(nv);
    for (int s = 0; s < numServices; ++s) {
        if (deltaIdx[s].empty())
            continue;
        std::vector<std::pair<std::size_t, double>> onehot;
        for (std::size_t l = 0; l < deltaIdx[s].size(); ++l) {
            mip.setBinary(deltaIdx[s][l]);
            mip.lp.setCost(deltaIdx[s][l],
                           reps[s][l] * prof.services[s].cpuPerReplica);
            onehot.emplace_back(deltaIdx[s][l], 1.0);
        }
        mip.lp.addSparseConstraint(onehot, Rel::Equal, 1.0);
    }
    for (std::size_t k = 0; k < stages.size(); ++k) {
        std::vector<std::pair<std::size_t, double>> onehot;
        for (int g = 0; g < G; ++g) {
            mip.setBinary(gammaBase[k] + g);
            onehot.emplace_back(gammaBase[k] + g, 1.0);
        }
        mip.lp.addSparseConstraint(onehot, Rel::Equal, 1.0);
    }
    // z linking: z >= delta + gamma - 1, z <= delta, z <= gamma.
    for (std::size_t k = 0; k < stages.size(); ++k) {
        const int s = stages[k].svc;
        const int nl = static_cast<int>(prof.services[s].levels.size());
        for (int l = 0; l < nl; ++l) {
            for (int g = 0; g < G; ++g) {
                const std::size_t z = zBase[k] + l * G + g;
                mip.lp.setBounds(z, 0.0, 1.0);
                mip.lp.addSparseConstraint({{z, 1.0},
                                            {deltaIdx[s][l], -1.0},
                                            {gammaBase[k] + g, -1.0}},
                                           Rel::GreaterEq, -1.0);
                mip.lp.addSparseConstraint(
                    {{z, 1.0}, {deltaIdx[s][l], -1.0}}, Rel::LessEq, 0.0);
                mip.lp.addSparseConstraint(
                    {{z, 1.0}, {gammaBase[k] + g, -1.0}}, Rel::LessEq,
                    0.0);
            }
        }
    }
    // Constraint 1 (latency) and 2 (residual budget) per class.
    for (int c = 0; c < numClasses; ++c) {
        std::vector<std::pair<std::size_t, double>> latencyRow;
        std::vector<std::pair<std::size_t, double>> residualRow;
        for (std::size_t k = 0; k < stages.size(); ++k) {
            if (stages[k].cls != c)
                continue;
            const auto &svc = prof.services[stages[k].svc];
            const int nl = static_cast<int>(svc.levels.size());
            for (int l = 0; l < nl; ++l)
                for (int g = 0; g < G; ++g)
                    latencyRow.emplace_back(zBase[k] + l * G + g,
                                            svc.levels[l].latency[c][g]);
            for (int g = 0; g < G; ++g)
                residualRow.emplace_back(gammaBase[k] + g,
                                         100.0 - grid[g]);
        }
        if (latencyRow.empty())
            continue;
        mip.lp.addSparseConstraint(
            latencyRow, Rel::LessEq,
            static_cast<double>(input.slas[c].targetUs));
        mip.lp.addSparseConstraint(residualRow, Rel::LessEq,
                                   100.0 - input.slas[c].percentile);
    }

    MipOptions opts;
    opts.maxNodes = maxNodes;
    const MipResult res = solveMip(mip, opts);

    core::ModelOutput out;
    out.level.assign(numServices, -1);
    out.replicas.assign(numServices, 0);
    out.upperBoundUs.assign(numClasses, 0.0);
    out.nodesExplored = res.nodesExplored;
    out.hitNodeLimit = res.hitNodeLimit;
    if (res.status != LpStatus::Optimal)
        return out;
    out.feasible = true;
    out.totalCpuCores = res.objective;
    for (int s = 0; s < numServices; ++s) {
        for (std::size_t l = 0; l < deltaIdx[s].size(); ++l) {
            if (res.x[deltaIdx[s][l]] > 0.5) {
                out.level[s] = static_cast<int>(l);
                out.replicas[s] = reps[s][l];
            }
        }
    }
    for (std::size_t k = 0; k < stages.size(); ++k) {
        const int c = stages[k].cls;
        const auto &svc = prof.services[stages[k].svc];
        for (std::size_t l = 0; l < svc.levels.size(); ++l)
            for (int g = 0; g < G; ++g)
                if (res.x[zBase[k] + l * G + g] > 0.5)
                    out.upperBoundUs[c] += svc.levels[l].latency[c][g];
    }
    return out;
}

} // namespace ursa::solver
