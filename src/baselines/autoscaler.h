/**
 * @file
 * CPU-utilization step autoscaling (paper Sec. VII-B): the Auto-a
 * configuration mirrors the AWS step-scaling defaults (scale out above
 * 60% CPU, scale in below 30%); Auto-b is the manually tuned
 * conservative configuration that protects SLAs at the cost of extra
 * resources.
 */

#ifndef URSA_BASELINES_AUTOSCALER_H
#define URSA_BASELINES_AUTOSCALER_H

#include "sim/cluster.h"
#include "sim/event_queue.h"
#include "sim/time.h"
#include "stats/online.h"

#include <vector>

namespace ursa::baselines
{

/** Step-scaling configuration. */
struct AutoscalerConfig
{
    double upThreshold = 0.60;   ///< scale out above this utilization
    double downThreshold = 0.30; ///< scale in below this utilization
    sim::SimTime interval = 30 * sim::kSec;
    /** Look-back horizon for the utilization measurement. */
    sim::SimTime lookback = sim::kMin;
    int minReplicas = 1;
    int maxReplicas = 256;
};

/** The paper's Auto-a (AWS step-scaling defaults). */
AutoscalerConfig autoAConfig();

/** The paper's Auto-b (manually tuned to preserve SLAs). */
AutoscalerConfig autoBConfig();

/** Utilization-threshold autoscaler over every service of a cluster. */
class Autoscaler
{
  public:
    Autoscaler(sim::Cluster &cluster, AutoscalerConfig cfg);

    /** Stops scaling; the cluster must still be alive. */
    ~Autoscaler() { stop(); }

    /** Begin periodic scaling at absolute time `at` (restarts). */
    void start(sim::SimTime at);

    /** Stop scaling. */
    void stop() { cluster_.events().cancel(next_); }

    /** Wall-clock decision latency (Table VI). */
    const stats::OnlineStats &decisionLatencyUs() const
    {
        return decisionLatency_;
    }

    /** Scaling actions taken. */
    int scaleEvents() const { return scaleEvents_; }

  private:
    void tick();

    sim::Cluster &cluster_;
    AutoscalerConfig cfg_;
    sim::EventId next_; ///< the next tick's event
    stats::OnlineStats decisionLatency_;
    int scaleEvents_ = 0;
};

} // namespace ursa::baselines

#endif // URSA_BASELINES_AUTOSCALER_H
