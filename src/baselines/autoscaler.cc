#include "baselines/autoscaler.h"

#include "sim/cluster.h"
#include "sim/service.h"
#include "sim/time.h"
#include "sim/types.h"

#include <algorithm>
#include <chrono>
#include <cmath>

namespace ursa::baselines
{

AutoscalerConfig
autoAConfig()
{
    return {}; // 60 / 30 defaults
}

AutoscalerConfig
autoBConfig()
{
    AutoscalerConfig cfg;
    cfg.upThreshold = 0.35;
    cfg.downThreshold = 0.12;
    return cfg;
}

Autoscaler::Autoscaler(sim::Cluster &cluster, AutoscalerConfig cfg)
    : cluster_(cluster), cfg_(cfg)
{
}

void
Autoscaler::start(sim::SimTime at)
{
    stop();
    next_ = cluster_.events().schedule(at, [this] { tick(); });
}

void
Autoscaler::tick()
{
    const sim::SimTime now = cluster_.events().now();
    const sim::SimTime from =
        std::max<sim::SimTime>(0, now - cfg_.lookback);

    for (sim::ServiceId s = 0; s < cluster_.numServices(); ++s) {
        const auto wallStart = std::chrono::steady_clock::now();

        const double util =
            cluster_.metrics().cpuUtilization(s, from, now);
        sim::Service &svc = cluster_.service(s);
        const int r = svc.activeReplicas();
        int next = r;
        if (util > cfg_.upThreshold) {
            // AWS-style step scaling: one step per breach, a bigger
            // step on a severe breach. Converging from below leaves
            // utilization just under the scale-out threshold.
            next = r + (util > 1.33 * cfg_.upThreshold ? 2 : 1);
        } else if (util < cfg_.downThreshold && r > cfg_.minReplicas) {
            next = r - 1;
        }
        next = std::clamp(next, cfg_.minReplicas, cfg_.maxReplicas);

        decisionLatency_.add(std::chrono::duration<double, std::micro>(
                                 std::chrono::steady_clock::now() -
                                 wallStart)
                                 .count());
        if (next != r) {
            svc.setReplicas(next);
            ++scaleEvents_;
        }
    }
    next_ = cluster_.events().scheduleIn(cfg_.interval, [this] { tick(); });
}

} // namespace ursa::baselines
