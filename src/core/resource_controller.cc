#include "core/resource_controller.h"

#include "sim/cluster.h"
#include "sim/service.h"
#include "sim/time.h"
#include "sim/types.h"
#include "stats/online.h"
#include "stats/welch.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>

namespace ursa::core
{

ResourceController::ResourceController(sim::Cluster &cluster,
                                       sim::ServiceId service,
                                       ResourceControllerOptions opts)
    : cluster_(cluster), service_(service), opts_(opts)
{
}

void
ResourceController::setThresholds(std::vector<double> lpr)
{
    lpr_ = std::move(lpr);
}

int
ResourceController::tick()
{
    // ursa-lint: allow(wall-clock) control-plane overhead (Table 6)
    const auto wallStart = std::chrono::steady_clock::now();

    sim::Service &svc = cluster_.service(service_);
    const int current = svc.activeReplicas();
    const sim::SimTime now = cluster_.events().now();
    const auto &metrics = cluster_.metrics();
    const double windowSec = sim::toSec(metrics.window());

    // Per-class load statistics over the recent history windows.
    int target = opts_.minReplicas;
    bool exceeds = false;
    bool allFitBelow = true;
    for (std::size_t c = 0; c < lpr_.size(); ++c) {
        if (lpr_[c] <= 0.0)
            continue;
        stats::OnlineStats load;
        for (const std::uint64_t n : metrics.arrivalCounts(
                 service_, static_cast<int>(c), now,
                 static_cast<std::size_t>(opts_.historyWindows)))
            load.add(static_cast<double>(n) / windowSec);
        if (load.count() == 0)
            continue;

        target = std::max(
            target,
            static_cast<int>(std::ceil(load.mean() / lpr_[c] - 1e-9)));
        // Scale-out trigger: load significantly above current capacity.
        if (stats::meanExceedsValue(load, current * lpr_[c], opts_.alpha))
            exceeds = true;
        // Scale-in gate: load must fit significantly below the shrunk
        // capacity for EVERY class.
        const double shrunk =
            (current - 1) * lpr_[c] * opts_.scaleInSafety;
        if (!stats::meanBelowValue(load, shrunk, opts_.alpha))
            allFitBelow = false;
    }

    int next = current;
    if (exceeds && target > current) {
        next = target;
    } else if (allFitBelow && target < current) {
        next = std::max(target, current - 1); // step down conservatively
    }
    next = std::clamp(next, opts_.minReplicas, opts_.maxReplicas);

    // ursa-lint: allow(wall-clock) control-plane overhead (Table 6)
    const auto wallEnd = std::chrono::steady_clock::now();
    decisionLatency_.add(
        std::chrono::duration<double, std::micro>(wallEnd - wallStart)
            .count());

    if (next != current) {
        svc.setReplicas(next);
        ++scaleEvents_;
    }
    return next;
}

} // namespace ursa::core
