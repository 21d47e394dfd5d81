#include "sim/report.h"

#include "sim/cluster.h"
#include "sim/metrics.h"
#include "sim/time.h"
#include "sim/types.h"

#include <iomanip>
#include <ostream>

namespace ursa::sim
{

ExperimentSummary
summarize(const Cluster &cluster, SimTime from, SimTime to)
{
    const MetricsRegistry &m = cluster.metrics();
    ExperimentSummary out;
    out.from = from;
    out.to = to;
    out.overallViolationRate = m.overallSlaViolationRate(from, to);
    for (ServiceId s = 0; s < cluster.numServices(); ++s)
        out.totalCpuCores += m.meanAllocation(s, from, to);

    for (ClassId c = 0; c < cluster.numClasses(); ++c) {
        ExperimentSummary::PerClass pc;
        pc.name = m.className(c);
        pc.slaPercentile = m.sla(c).percentile;
        pc.slaTargetMs = toMs(m.sla(c).targetUs);
        pc.violationRate = m.slaViolationRate(c, from, to);
        for (const auto &w : m.endToEnd(c).windows()) {
            if (w.start < from || w.start + m.window() > to)
                continue;
            pc.completed += w.stats.count();
        }
        const auto samples = m.endToEnd(c).collect(from, to);
        if (!samples.empty()) {
            const auto ps =
                samples.percentiles({pc.slaPercentile, 50.0, 99.0});
            pc.latencyAtSlaPctMs = ps[0] / 1000.0;
            pc.p50Ms = ps[1] / 1000.0;
            pc.p99Ms = ps[2] / 1000.0;
        }
        out.requestsCompleted += pc.completed;
        out.classes.push_back(std::move(pc));
    }
    return out;
}

void
printSummary(const ExperimentSummary &s, std::ostream &out)
{
    out << "experiment summary [" << toSec(s.from) / 60.0 << ".."
        << toSec(s.to) / 60.0 << " min]\n";
    out << "  requests completed: " << s.requestsCompleted
        << ", mean CPU allocation: " << std::fixed
        << std::setprecision(1) << s.totalCpuCores
        << " cores, SLA violation rate: " << std::setprecision(2)
        << 100.0 * s.overallViolationRate << "%\n";
    for (const auto &pc : s.classes) {
        out << "  " << std::left << std::setw(20) << pc.name
            << " p" << std::setprecision(0) << pc.slaPercentile << " "
            << std::setprecision(1) << pc.latencyAtSlaPctMs << " ms (SLA "
            << pc.slaTargetMs << " ms), p50 " << pc.p50Ms << ", p99 "
            << pc.p99Ms << ", viol " << std::setprecision(2)
            << 100.0 * pc.violationRate << "%\n";
    }
}

void
writeClassSeriesCsv(const Cluster &cluster, SimTime from, SimTime to,
                    std::ostream &out)
{
    const MetricsRegistry &m = cluster.metrics();
    out << "minute,class,count,p50_ms,p99_ms,lat_at_sla_ms,violated\n";
    for (ClassId c = 0; c < cluster.numClasses(); ++c) {
        const auto &sla = m.sla(c);
        for (const auto &w : m.endToEnd(c).windows()) {
            if (w.start < from || w.start >= to || w.samples.empty())
                continue;
            const auto ps =
                w.samples.percentiles({50.0, 99.0, sla.percentile});
            const double atSla = ps[2];
            out << toSec(w.start) / 60.0 << ',' << m.className(c) << ','
                << w.stats.count() << ',' << ps[0] / 1000.0 << ','
                << ps[1] / 1000.0 << ',' << atSla / 1000.0 << ','
                << (atSla > static_cast<double>(sla.targetUs) ? 1 : 0)
                << "\n";
        }
    }
}

void
writeServiceSeriesCsv(const Cluster &cluster, SimTime from, SimTime to,
                      std::ostream &out)
{
    const MetricsRegistry &m = cluster.metrics();
    const SimTime w = m.window();
    out << "minute,service,rps,utilization,alloc_cores,replicas\n";
    for (ServiceId s = 0; s < cluster.numServices(); ++s) {
        for (SimTime t = from; t + w <= to; t += w) {
            double rps = 0.0;
            for (ClassId c = 0; c < cluster.numClasses(); ++c)
                rps += m.arrivalRate(s, c, t, t + w);
            out << toSec(t) / 60.0 << ',' << m.serviceName(s) << ','
                << rps << ',' << m.cpuUtilization(s, t, t + w) << ','
                << m.meanAllocation(s, t, t + w) << ','
                << m.replicaSeries(s).last(0.0) << "\n";
        }
    }
}

} // namespace ursa::sim
