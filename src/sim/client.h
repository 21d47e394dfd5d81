/**
 * @file
 * Load drivers: the open-loop Poisson client (the paper's Locust setup,
 * Sec. VII-A) and a closed-loop client (finite users with think time)
 * used by the backpressure case study of Sec. III.
 *
 * Tracing: every request a client injects goes through
 * Cluster::submit(), which applies the tracer's deterministic
 * hash-of-request-id sampling gate and emits the client-side root span
 * (submit until fully done) on the request's behalf — the hop spans of
 * the service tiers all descend from it.
 */

#ifndef URSA_SIM_CLIENT_H
#define URSA_SIM_CLIENT_H

#include "sim/cluster.h"
#include "sim/event_queue.h"
#include "sim/time.h"
#include "sim/types.h"
#include "stats/rng.h"

#include <functional>
#include <vector>

namespace ursa::sim
{

/** Picks the class of the next request (may depend on time). */
using ClassPicker = std::function<ClassId(stats::Rng &, SimTime)>;

/** Request rate in requests/second as a function of time. */
using RateProfile = std::function<double(SimTime)>;

/** Build a picker from fixed weights over classes 0..n-1. */
ClassPicker fixedMix(std::vector<double> weights);

/**
 * Open-loop client: Poisson arrivals whose rate follows a profile.
 * Arrivals are independent of responses, as with Locust in the paper.
 */
class OpenLoopClient
{
  public:
    /**
     * @param cluster Target cluster (must be finalized before start()).
     * @param rate Arrival-rate profile (requests/second).
     * @param picker Class mix.
     * @param seed Client-local RNG seed.
     */
    OpenLoopClient(Cluster &cluster, RateProfile rate, ClassPicker picker,
                   std::uint64_t seed);

    /** Stops the client; the cluster must still be alive. */
    ~OpenLoopClient() { stop(); }

    /**
     * Begin generating load at absolute time `at`, replacing any
     * arrival chain already running.
     */
    void start(SimTime at = 0);

    /** Stop generating load (in-flight requests still complete). */
    void stop() { cluster_.events().cancel(next_); }

    /** Requests submitted so far. */
    std::uint64_t submitted() const { return submitted_; }

  private:
    void scheduleNext();

    Cluster &cluster_;
    RateProfile rate_;
    ClassPicker picker_;
    stats::Rng rng_;
    EventId next_; ///< the next arrival (or profile re-check) event
    std::uint64_t submitted_ = 0;
};

/**
 * Closed-loop client: a fixed population of users; each user submits,
 * waits for the synchronous response, thinks, and repeats. Bounding
 * in-flight requests this way is what lets backlog cascade tier by
 * tier in the backpressure study.
 */
class ClosedLoopClient
{
  public:
    /**
     * @param users Concurrent user count.
     * @param thinkMeanUs Mean exponential think time between requests.
     */
    ClosedLoopClient(Cluster &cluster, int users, SimTime thinkMeanUs,
                     ClassPicker picker, std::uint64_t seed);

    /** Start all users, staggered over the first second. */
    void start(SimTime at = 0);

    /** Stop issuing new requests. */
    void stop() { running_ = false; }

    /** Requests submitted so far. */
    std::uint64_t submitted() const { return submitted_; }

  private:
    void userLoop();

    Cluster &cluster_;
    int users_;
    SimTime thinkMeanUs_;
    ClassPicker picker_;
    stats::Rng rng_;
    /// A flag, not a cancelled event: each user's next step hangs on
    /// its in-flight request's continuation, not in the event queue.
    bool running_ = false;
    std::uint64_t submitted_ = 0;
};

} // namespace ursa::sim

#endif // URSA_SIM_CLIENT_H
