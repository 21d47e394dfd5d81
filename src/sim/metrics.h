/**
 * @file
 * MetricsRegistry — the tracing substrate (the paper's Prometheus).
 *
 * Collects, per window: per-service/per-class response times (the S0-R0
 * tier latency of Sec. III), per-class end-to-end latencies with SLA
 * violation tracking, per-service/per-class arrival counts, and
 * per-service CPU allocation / busy integrals and replica counts.
 * Each window keeps only what its readers use: latency windows keep
 * moments and a reservoir for percentile queries, arrival windows keep
 * a count.
 */

#ifndef URSA_SIM_METRICS_H
#define URSA_SIM_METRICS_H

#include "sim/time.h"
#include "sim/types.h"
#include "stats/timeseries.h"

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

namespace ursa::sim
{

/**
 * Central, windowed metrics store for one cluster.
 *
 * The per-event recording calls (tier latency, end-to-end, arrival —
 * several per simulated request) are the hot path. An arrival only
 * bumps the count of its (service, class) window in place. A latency
 * record lands in a windowed aggregator behind two bounds-checked
 * lookups; to keep the dispatch loop lean it is staged into a small
 * POD buffer and applied in order at batch boundaries: when the
 * buffer fills, at every busy-sample tick, and lazily before any query
 * reads a latency aggregate. The flush preserves recording order
 * exactly, so every aggregate (and every reservoir-sampling RNG draw)
 * is bit-identical to unbatched recording — batching moves work, it
 * never changes results.
 */
class MetricsRegistry
{
  public:
    /**
     * @param window Aggregation window width (default: one simulated
     *        minute, the paper's sampling frequency).
     */
    explicit MetricsRegistry(SimTime window = kMin);

    /** Window width. */
    SimTime window() const { return window_; }

    /** Register a service; must be called in ServiceId order. */
    void addService(const std::string &name);

    /** Register a class; must be called in ClassId order. */
    void addClass(const std::string &name, const SlaSpec &sla);

    // --- recording -------------------------------------------------

    /** Per-tier response time (queue wait + compute, excl. downstream). */
    void recordTierLatency(ServiceId s, ClassId c, SimTime at, SimTime lat);

    /** End-to-end latency of a finished request of class `c`. */
    void recordEndToEnd(ClassId c, SimTime at, SimTime lat);

    /**
     * One request of class `c` arrived at service `s`. `at` must not
     * fall in an earlier window than the pair's previous arrival.
     */
    void recordArrival(ServiceId s, ClassId c, SimTime at);

    /** Cumulative busy core-us of service `s`, sampled at `at`. */
    void recordBusySample(ServiceId s, SimTime at, double cumBusyCoreUs);

    /** Total allocated cores of service `s` changed to `cores`. */
    void recordAllocation(ServiceId s, SimTime at, double cores);

    /** Active replica count of service `s` changed to `n`. */
    void recordReplicaCount(ServiceId s, SimTime at, int n);

    // --- queries ---------------------------------------------------

    /** Tier-latency windows for (service, class). */
    const stats::WindowAggregator &tierLatency(ServiceId s, ClassId c) const;

    /** End-to-end latency windows for a class. */
    const stats::WindowAggregator &endToEnd(ClassId c) const;

    /**
     * Arrival counts of class `c` at service `s` in the last `n`
     * windows before the one containing `time`, oldest first. A window
     * exists only once something arrived in it, so minutes without
     * arrivals are skipped, not counted as zero; fewer than `n` counts
     * come back when the history is shorter.
     */
    std::vector<std::uint64_t> arrivalCounts(ServiceId s, ClassId c,
                                             SimTime time,
                                             std::size_t n) const;

    /** Arrivals per second of class `c` at service `s` over [from,to). */
    double arrivalRate(ServiceId s, ClassId c, SimTime from,
                       SimTime to) const;

    /** Mean CPU utilization of service `s` over [from, to), in [0,1]. */
    double cpuUtilization(ServiceId s, SimTime from, SimTime to) const;

    /** Time-averaged allocated cores of `s` over [from, to). */
    double meanAllocation(ServiceId s, SimTime from, SimTime to) const;

    /** Replica-count time series. */
    const stats::TimeSeries &replicaSeries(ServiceId s) const;

    /**
     * SLA violation rate of class `c` over [from, to): the fraction of
     * sampling windows whose latency at the class's SLA percentile
     * exceeds the SLA target. This is the paper's metric — it treats
     * p50 and p99 SLAs uniformly (Tables II-IV, Sec. VII-E).
     */
    double slaViolationRate(ClassId c, SimTime from, SimTime to) const;

    /**
     * Aggregate window-based SLA violation rate over all classes in
     * [from, to): violating (class, window) pairs / all pairs.
     */
    double overallSlaViolationRate(SimTime from, SimTime to) const;

    /** Number of registered services / classes. */
    int numServices() const { return static_cast<int>(services_.size()); }
    int numClasses() const { return static_cast<int>(classes_.size()); }

    /** Names (for printing). */
    const std::string &serviceName(ServiceId s) const;
    const std::string &className(ClassId c) const;

    /** SLA of class `c`. */
    const SlaSpec &sla(ClassId c) const;

  private:
    struct PerClass
    {
        std::string name;
        SlaSpec sla;
        stats::WindowAggregator e2e;
    };
    /// Arrivals of one (service, class) pair in one window.
    struct ArrivalWindow
    {
        SimTime start;
        std::uint64_t count;
    };
    struct PerService
    {
        std::string name;
        std::vector<stats::WindowAggregator> tierLat; ///< per class
        /// Per class: the non-empty windows in time order.
        std::vector<std::vector<ArrivalWindow>> arrivals;
        stats::TimeSeries busy;       ///< cumulative busy core-us samples
        stats::TimeSeries allocation; ///< allocated cores (step series)
        stats::TimeSeries replicas;
    };

    void growClassVectors();

    /// One staged latency record (recording order == buffer order).
    struct PendingRec
    {
        SimTime at;
        SimTime lat;
        ServiceId service; ///< unused for EndToEnd
        ClassId classId;
        enum class Kind : std::uint8_t
        {
            TierLatency,
            EndToEnd,
        } kind;
    };
    /// Flush threshold: ~6 KiB of staged records, small enough to stay
    /// cache-resident, large enough to amortize the aggregator walks.
    static constexpr std::size_t kPendingFlush = 256;

    /** Apply every staged record, in order. */
    void flushPending() const
    {
        if (!pending_.empty())
            const_cast<MetricsRegistry *>(this)->applyPending();
    }

    void applyPending();

    /**
     * Eager id validation at record time. Staging defers the aggregator
     * walk (and its bounds-checked `.at()`) to the flush, which would
     * turn a caller's bad id into a delayed, hard-to-attribute throw;
     * two compares here keep the original throwing contract at the call
     * site while staying branch-predictable in the hot path.
     */
    void
    checkIds(ServiceId s, ClassId c) const
    {
        if (s >= 0 && static_cast<std::size_t>(s) >= services_.size())
            throw std::out_of_range("MetricsRegistry: service id out of range");
        if (c < 0 || static_cast<std::size_t>(c) >= classes_.size())
            throw std::out_of_range("MetricsRegistry: class id out of range");
    }

    void
    stage(const PendingRec &rec)
    {
        pending_.push_back(rec);
        if (pending_.size() >= kPendingFlush)
            applyPending();
    }

    SimTime window_;
    std::vector<PerService> services_;
    std::vector<PerClass> classes_;
    std::vector<PendingRec> pending_;
};

} // namespace ursa::sim

#endif // URSA_SIM_METRICS_H
