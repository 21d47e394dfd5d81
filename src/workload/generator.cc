#include "workload/generator.h"

#include "check/check.h"
#include "sim/client.h"
#include "sim/cluster.h"
#include "sim/time.h"
#include "stats/rng.h"
#include "workload/trace.h"

#include <algorithm>
#include <cmath>

namespace ursa::workload
{

ProfileGenerator::ProfileGenerator(sim::RateProfile rate,
                                   sim::ClassPicker picker,
                                   std::uint64_t seed)
    : rate_(std::move(rate)), picker_(std::move(picker)), seed_(seed),
      rng_(seed)
{
}

void
ProfileGenerator::reset()
{
    rng_ = stats::Rng(seed_);
    tExact_ = 0.0;
    t_ = 0;
}

std::optional<TraceEntry>
ProfileGenerator::next()
{
    // Skip idle spans (zero rate) in 1-second probes, like
    // OpenLoopClient's idle re-check; a profile that stays at zero for
    // kMaxIdleScan ends the stream instead of spinning forever.
    sim::SimTime probe = t_;
    double rps = rate_(probe);
    while (rps <= 0.0) {
        probe += sim::kSec;
        if (probe - t_ > kMaxIdleScan)
            return std::nullopt;
        rps = rate_(probe);
    }
    tExact_ = std::max(tExact_, static_cast<double>(probe));
    tExact_ += rng_.exponential(1e6 / rps);
    t_ = std::max(t_ + 1,
                  static_cast<sim::SimTime>(std::llround(tExact_)));
    return TraceEntry{t_, picker_(rng_, t_)};
}

TraceGenerator::TraceGenerator(ArrivalTrace trace, bool loop,
                               double rateScale)
    : trace_(std::move(trace)), loop_(loop), rateScale_(rateScale),
      span_(static_cast<sim::SimTime>(
          static_cast<double>(trace_.duration()) / rateScale_))
{
    URSA_CHECK(rateScale_ > 0.0, "workload.generator",
               "trace replay with a non-positive rate scale");
}

void
TraceGenerator::reset()
{
    idx_ = 0;
    cycle_ = 0;
}

std::optional<TraceEntry>
TraceGenerator::next()
{
    if (trace_.entries.empty())
        return std::nullopt;
    if (idx_ == trace_.entries.size()) {
        if (!loop_ || span_ == 0)
            return std::nullopt;
        idx_ = 0;
        ++cycle_;
    }
    const TraceEntry &e = trace_.entries[idx_++];
    const sim::SimTime at =
        static_cast<sim::SimTime>(cycle_) * span_ +
        static_cast<sim::SimTime>(static_cast<double>(e.at) / rateScale_);
    return TraceEntry{at, e.classId};
}

ArrivalTrace
recordTrace(Generator &gen, sim::SimTime until)
{
    gen.reset();
    ArrivalTrace trace;
    while (auto e = gen.next()) {
        if (e->at > until)
            break;
        trace.entries.push_back(*e);
    }
    return trace;
}

GeneratorClient::GeneratorClient(sim::Cluster &cluster,
                                 std::unique_ptr<Generator> gen)
    : cluster_(cluster), gen_(std::move(gen))
{
    URSA_CHECK(gen_ != nullptr, "workload.generator",
               "generator client without a generator");
}

void
GeneratorClient::start(sim::SimTime at)
{
    stop();
    gen_->reset();
    scheduleNext(at);
}

void
GeneratorClient::scheduleNext(sim::SimTime base)
{
    const auto e = gen_->next();
    if (!e)
        return;
    next_ = cluster_.events().schedule(
        std::max(base + e->at, cluster_.events().now()),
        [this, base, c = e->classId] {
            cluster_.submit(c);
            ++submitted_;
            scheduleNext(base);
        });
}

} // namespace ursa::workload
