#include "sim/client.h"

#include "check/check.h"
#include "sim/cluster.h"
#include "sim/time.h"
#include "sim/types.h"
#include "stats/rng.h"

#include <utility>

namespace ursa::sim
{

ClassPicker
fixedMix(std::vector<double> weights)
{
    return [w = std::move(weights)](stats::Rng &rng, SimTime) {
        return static_cast<ClassId>(rng.weightedChoice(w));
    };
}

OpenLoopClient::OpenLoopClient(Cluster &cluster, RateProfile rate,
                               ClassPicker picker, std::uint64_t seed)
    : cluster_(cluster), rate_(std::move(rate)), picker_(std::move(picker)),
      rng_(seed)
{
}

void
OpenLoopClient::start(SimTime at)
{
    stop();
    next_ = cluster_.events().schedule(at, [this] { scheduleNext(); });
}

void
OpenLoopClient::scheduleNext()
{
    const SimTime now = cluster_.events().now();
    const double rps = rate_(now);
    if (rps <= 0.0) {
        // Idle period: re-check the profile shortly.
        next_ =
            cluster_.events().scheduleIn(kSec, [this] { scheduleNext(); });
        return;
    }
    const double gapUs = rng_.exponential(1e6 / rps);
    next_ = cluster_.events().scheduleIn(
        static_cast<SimTime>(gapUs) + 1, [this] {
            const ClassId c = picker_(rng_, cluster_.events().now());
            cluster_.submit(c);
            ++submitted_;
            scheduleNext();
        });
}

ClosedLoopClient::ClosedLoopClient(Cluster &cluster, int users,
                                   SimTime thinkMeanUs, ClassPicker picker,
                                   std::uint64_t seed)
    : cluster_(cluster), users_(users), thinkMeanUs_(thinkMeanUs),
      picker_(std::move(picker)), rng_(seed)
{
    URSA_CHECK(users_ > 0, "sim.client",
               "closed-loop client with no users");
}

void
ClosedLoopClient::start(SimTime at)
{
    running_ = true;
    for (int u = 0; u < users_; ++u) {
        const SimTime offset =
            static_cast<SimTime>(rng_.uniform(0.0, 1e6));
        cluster_.events().schedule(at + offset, [this] { userLoop(); });
    }
}

void
ClosedLoopClient::userLoop()
{
    if (!running_)
        return;
    const ClassId c = picker_(rng_, cluster_.events().now());
    RequestPtr req = cluster_.submit(c);
    ++submitted_;
    req->onSyncDone = [this](Request &) {
        if (!running_)
            return;
        const SimTime think =
            static_cast<SimTime>(rng_.exponential(
                static_cast<double>(thinkMeanUs_))) + 1;
        cluster_.events().scheduleIn(think, [this] { userLoop(); });
    };
}

} // namespace ursa::sim
