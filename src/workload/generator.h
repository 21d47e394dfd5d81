/**
 * @file
 * Pluggable workload generators: one interface, many generators, in
 * the style of codes-workload. A Generator is a pull-based stream of
 * arrivals (time + request class); GeneratorClient drives any of them
 * into a cluster. The synthetic profiles of workload/arrival.h plug in
 * through ProfileGenerator, recorded traces through TraceGenerator,
 * and arrival-curve re-synthesis through workload/arrival_curve.h —
 * all replayable by the same client, and all recordable into an
 * ArrivalTrace with recordTrace().
 */

#ifndef URSA_WORKLOAD_GENERATOR_H
#define URSA_WORKLOAD_GENERATOR_H

#include "sim/client.h"
#include "sim/cluster.h"
#include "sim/event_queue.h"
#include "sim/time.h"
#include "sim/types.h"
#include "stats/rng.h"
#include "workload/trace.h"

#include <cstdint>
#include <memory>
#include <optional>
#include <utility>

namespace ursa::workload
{

/**
 * A deterministic arrival stream. Implementations yield arrivals with
 * nondecreasing absolute times (us from the replay origin); nullopt
 * marks the end of a finite stream. reset() rewinds to the first
 * arrival and must reproduce the identical stream — replay is how the
 * whole reproduction stays bit-for-bit deterministic.
 */
class Generator
{
  public:
    virtual ~Generator() = default;

    /** Generator kind, for logs and demos (e.g. "poisson-profile"). */
    virtual const char *name() const = 0;

    /** Rewind to the first arrival (idempotent, deterministic). */
    virtual void reset() = 0;

    /** Next arrival, or nullopt once the stream is exhausted. */
    virtual std::optional<TraceEntry> next() = 0;
};

/**
 * Poisson arrivals whose rate follows a RateProfile (constant,
 * diurnal, burst, ... — workload/arrival.h) and whose classes follow
 * a ClassPicker. The stream is infinite unless the profile stays at
 * zero for kMaxIdleScan of simulated time, which ends it. Gaps are
 * accumulated in floating point before rounding to the microsecond
 * clock, so the realized rate is unbiased; like OpenLoopClient, a
 * time-varying rate is sampled at the previous arrival (exact for
 * piecewise-constant profiles, a first-order approximation for
 * continuously varying ones).
 */
class ProfileGenerator final : public Generator
{
  public:
    ProfileGenerator(sim::RateProfile rate, sim::ClassPicker picker,
                     std::uint64_t seed);

    const char *name() const override { return "poisson-profile"; }
    void reset() override;
    std::optional<TraceEntry> next() override;

    /** Idle span after which a zero-rate profile counts as ended. */
    static constexpr sim::SimTime kMaxIdleScan = 30L * 24 * sim::kHour;

  private:
    sim::RateProfile rate_;
    sim::ClassPicker picker_;
    std::uint64_t seed_;
    stats::Rng rng_;
    double tExact_ = 0.0;
    sim::SimTime t_ = 0;
};

/**
 * Replays a recorded ArrivalTrace, optionally looping and rate
 * scaling (rateScale > 1 compresses time). When looping, cycle k
 * starts at k * span where span is the scaled trace duration, so a
 * trace whose first arrival sits one mean gap from the origin loops
 * with no rate glitch at the seam.
 */
class TraceGenerator final : public Generator
{
  public:
    TraceGenerator(ArrivalTrace trace, bool loop = false,
                   double rateScale = 1.0);

    const char *name() const override { return "trace-replay"; }
    void reset() override;
    std::optional<TraceEntry> next() override;

    const ArrivalTrace &trace() const { return trace_; }

  private:
    ArrivalTrace trace_;
    bool loop_;
    double rateScale_;
    sim::SimTime span_;
    std::size_t idx_ = 0;
    std::uint64_t cycle_ = 0;
};

/**
 * Materialize a generator's stream up to `until` (inclusive) into an
 * ArrivalTrace. Resets the generator first.
 */
ArrivalTrace recordTrace(Generator &gen, sim::SimTime until);

/**
 * Drives any Generator into a cluster. start() resets the generator
 * and begins submitting its arrivals relative to the start time;
 * stop() halts; start() again replays from the beginning. The client
 * holds the id of its one pending arrival, so stop() and a restart
 * cancel it and a superseded run can never submit.
 */
class GeneratorClient
{
  public:
    GeneratorClient(sim::Cluster &cluster, std::unique_ptr<Generator> gen);

    /** Stops the client; the cluster must still be alive. */
    ~GeneratorClient() { stop(); }

    /** Begin replay at absolute time `at`. */
    void start(sim::SimTime at = 0);

    /** Stop issuing new arrivals. */
    void stop() { cluster_.events().cancel(next_); }

    /** Requests submitted so far (across all starts). */
    std::uint64_t submitted() const { return submitted_; }

    Generator &generator() { return *gen_; }

  private:
    void scheduleNext(sim::SimTime base);

    sim::Cluster &cluster_;
    std::unique_ptr<Generator> gen_;
    sim::EventId next_; ///< the next arrival's event
    std::uint64_t submitted_ = 0;
};

/**
 * Replays a trace into a cluster: a GeneratorClient over a
 * TraceGenerator, kept as a named convenience for the common case.
 */
class TraceReplayClient
{
  public:
    /**
     * @param loop When true, the trace restarts after its last entry.
     * @param rateScale >1 compresses time (higher load), <1 stretches.
     */
    TraceReplayClient(sim::Cluster &cluster, ArrivalTrace trace,
                      bool loop = false, double rateScale = 1.0)
        : client_(cluster, std::make_unique<TraceGenerator>(
                               std::move(trace), loop, rateScale))
    {
    }

    /** Begin replay at absolute time `at`. */
    void start(sim::SimTime at = 0) { client_.start(at); }

    /** Stop issuing new arrivals. */
    void stop() { client_.stop(); }

    /** Requests submitted so far. */
    std::uint64_t submitted() const { return client_.submitted(); }

  private:
    GeneratorClient client_;
};

} // namespace ursa::workload

#endif // URSA_WORKLOAD_GENERATOR_H
