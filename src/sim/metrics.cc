#include "sim/metrics.h"

#include "check/check.h"
#include "sim/time.h"
#include "sim/types.h"
#include "stats/timeseries.h"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <stdexcept>

namespace ursa::sim
{

MetricsRegistry::MetricsRegistry(SimTime window) : window_(window)
{
    URSA_CHECK(window_ > 0, "sim.metrics",
               "metrics registry with a non-positive window");
}

void
MetricsRegistry::addService(const std::string &name)
{
    services_.push_back({});
    services_.back().name = name;
    growClassVectors();
}

void
MetricsRegistry::addClass(const std::string &name, const SlaSpec &sla)
{
    classes_.push_back({name, sla, stats::WindowAggregator(window_)});
    growClassVectors();
}

void
MetricsRegistry::growClassVectors()
{
    for (PerService &s : services_) {
        while (s.tierLat.size() < classes_.size())
            s.tierLat.emplace_back(window_);
        s.arrivals.resize(classes_.size());
    }
}

void
MetricsRegistry::recordTierLatency(ServiceId s, ClassId c, SimTime at,
                                   SimTime lat)
{
    checkIds(s, c);
    stage({at, lat, s, c, PendingRec::Kind::TierLatency});
}

void
MetricsRegistry::recordEndToEnd(ClassId c, SimTime at, SimTime lat)
{
    checkIds(-1, c);
    stage({at, lat, -1, c, PendingRec::Kind::EndToEnd});
}

void
MetricsRegistry::recordArrival(ServiceId s, ClassId c, SimTime at)
{
    std::vector<ArrivalWindow> &windows = services_.at(s).arrivals.at(c);
    const SimTime start = stats::windowStart(at, window_);
    if (!windows.empty() && windows.back().start == start)
        ++windows.back().count;
    else if (windows.empty() || windows.back().start < start)
        windows.push_back({start, 1});
    else
        throw std::logic_error(
            "MetricsRegistry: arrival time moved backwards");
}

void
MetricsRegistry::applyPending()
{
    for (const PendingRec &rec : pending_) {
        switch (rec.kind) {
        case PendingRec::Kind::TierLatency:
            services_.at(rec.service)
                .tierLat.at(rec.classId)
                .add(rec.at, static_cast<double>(rec.lat));
            break;
        case PendingRec::Kind::EndToEnd:
            classes_.at(rec.classId)
                .e2e.add(rec.at, static_cast<double>(rec.lat));
            break;
        }
    }
    pending_.clear();
}

void
MetricsRegistry::recordBusySample(ServiceId s, SimTime at,
                                  double cumBusyCoreUs)
{
    // Sampler ticks are the periodic batch boundary: bound the staged
    // buffer's staleness even when nothing queries between windows.
    flushPending();
    services_.at(s).busy.append(at, cumBusyCoreUs);
}

void
MetricsRegistry::recordAllocation(ServiceId s, SimTime at, double cores)
{
    services_.at(s).allocation.append(at, cores);
}

void
MetricsRegistry::recordReplicaCount(ServiceId s, SimTime at, int n)
{
    services_.at(s).replicas.append(at, static_cast<double>(n));
}

const stats::WindowAggregator &
MetricsRegistry::tierLatency(ServiceId s, ClassId c) const
{
    flushPending();
    return services_.at(s).tierLat.at(c);
}

const stats::WindowAggregator &
MetricsRegistry::endToEnd(ClassId c) const
{
    flushPending();
    return classes_.at(c).e2e;
}

std::vector<std::uint64_t>
MetricsRegistry::arrivalCounts(ServiceId s, ClassId c, SimTime time,
                               std::size_t n) const
{
    const std::vector<ArrivalWindow> &windows = services_.at(s).arrivals.at(c);
    const SimTime cutoff = stats::windowStart(time, window_);
    const auto end = std::lower_bound(
        windows.begin(), windows.end(), cutoff,
        [](const ArrivalWindow &w, SimTime t) { return w.start < t; });
    const auto taken = std::min(
        n, static_cast<std::size_t>(end - windows.begin()));
    std::vector<std::uint64_t> out;
    out.reserve(taken);
    for (auto it = end - static_cast<std::ptrdiff_t>(taken); it != end; ++it)
        out.push_back(it->count);
    return out;
}

double
MetricsRegistry::arrivalRate(ServiceId s, ClassId c, SimTime from,
                             SimTime to) const
{
    if (to <= from)
        return 0.0;
    // Edge windows overlap the range only partially; counting them in
    // full while dividing by the clipped span inflates the rate, so
    // clip their contribution pro-rata to the overlap fraction.
    double count = 0.0;
    for (const ArrivalWindow &w : services_.at(s).arrivals.at(c)) {
        const SimTime overlap =
            std::min(to, w.start + window_) - std::max(from, w.start);
        if (overlap <= 0)
            continue;
        count += static_cast<double>(w.count) *
                 static_cast<double>(overlap) /
                 static_cast<double>(window_);
    }
    return count / toSec(to - from);
}

double
MetricsRegistry::cpuUtilization(ServiceId s, SimTime from, SimTime to) const
{
    if (to <= from)
        return 0.0;
    const PerService &ps = services_.at(s);
    // Busy samples are cumulative core-us; take the difference of the
    // nearest samples inside the range.
    const auto pts = ps.busy.range(from, to + 1);
    if (pts.size() < 2)
        return 0.0;
    const double busy = pts.back().value - pts.front().value;
    const double span =
        static_cast<double>(pts.back().time - pts.front().time);
    const double alloc = ps.allocation.timeAverage(
        pts.front().time, pts.back().time);
    if (span <= 0.0 || alloc <= 0.0)
        return 0.0;
    return busy / (alloc * span);
}

double
MetricsRegistry::meanAllocation(ServiceId s, SimTime from, SimTime to) const
{
    return services_.at(s).allocation.timeAverage(from, to);
}

const stats::TimeSeries &
MetricsRegistry::replicaSeries(ServiceId s) const
{
    return services_.at(s).replicas;
}

namespace
{

/**
 * Weighted (windows, violating windows) of one class over [from, to).
 * Edge windows that only partially overlap the range contribute
 * fractionally, mirroring the pro-rata clipping of arrivalRate — a
 * range cutting a violating window in half should not count a full
 * bad window against a half-sized denominator.
 */
std::pair<double, double>
windowViolations(const stats::WindowAggregator &agg, const SlaSpec &sla,
                 SimTime window, SimTime from, SimTime to)
{
    double total = 0.0, bad = 0.0;
    for (const auto &w : agg.windows()) {
        const SimTime overlap =
            std::min(to, w.start + window) - std::max(from, w.start);
        if (overlap <= 0 || w.samples.empty())
            continue;
        const double weight = static_cast<double>(overlap) /
                              static_cast<double>(window);
        total += weight;
        if (w.samples.percentile(sla.percentile) >
            static_cast<double>(sla.targetUs))
            bad += weight;
    }
    return {total, bad};
}

} // namespace

double
MetricsRegistry::slaViolationRate(ClassId c, SimTime from, SimTime to) const
{
    flushPending();
    const PerClass &pc = classes_.at(c);
    const auto [total, bad] =
        windowViolations(pc.e2e, pc.sla, window_, from, to);
    return total > 0.0 ? bad / total : 0.0;
}

double
MetricsRegistry::overallSlaViolationRate(SimTime from, SimTime to) const
{
    flushPending();
    double total = 0.0, bad = 0.0;
    for (const PerClass &pc : classes_) {
        const auto [t, b] =
            windowViolations(pc.e2e, pc.sla, window_, from, to);
        total += t;
        bad += b;
    }
    return total > 0.0 ? bad / total : 0.0;
}

const std::string &
MetricsRegistry::serviceName(ServiceId s) const
{
    return services_.at(s).name;
}

const std::string &
MetricsRegistry::className(ClassId c) const
{
    return classes_.at(c).name;
}

const SlaSpec &
MetricsRegistry::sla(ClassId c) const
{
    return classes_.at(c).sla;
}

} // namespace ursa::sim
