#include "stats/timeseries.h"

#include "check/check.h"
#include "stats/quantile.h"

#include <algorithm>
#include <stdexcept>

namespace ursa::stats
{

std::int64_t
windowStart(std::int64_t time, std::int64_t width)
{
    std::int64_t q = time / width;
    if (time < 0 && time % width != 0)
        --q;
    return q * width;
}

void
TimeSeries::append(std::int64_t time, double value)
{
    if (!points_.empty() && time < points_.back().time)
        throw std::logic_error("TimeSeries timestamps must not decrease");
    points_.push_back({time, value});
}

std::vector<Point>
TimeSeries::range(std::int64_t from, std::int64_t to) const
{
    std::vector<Point> out;
    const auto lo = std::lower_bound(
        points_.begin(), points_.end(), from,
        [](const Point &p, std::int64_t t) { return p.time < t; });
    for (auto it = lo; it != points_.end() && it->time < to; ++it)
        out.push_back(*it);
    return out;
}

double
TimeSeries::timeAverage(std::int64_t from, std::int64_t to) const
{
    if (points_.empty() || to <= from)
        return 0.0;
    // Step interpolation: value holds from its timestamp until the next.
    double weighted = 0.0;
    std::int64_t covered_from = from;
    // Find the value in effect at `from`: last point with time <= from.
    auto it = std::upper_bound(
        points_.begin(), points_.end(), from,
        [](std::int64_t t, const Point &p) { return t < p.time; });
    double current = 0.0;
    if (it != points_.begin())
        current = std::prev(it)->value;
    for (; it != points_.end() && it->time < to; ++it) {
        weighted += current * static_cast<double>(it->time - covered_from);
        covered_from = it->time;
        current = it->value;
    }
    weighted += current * static_cast<double>(to - covered_from);
    return weighted / static_cast<double>(to - from);
}

double
TimeSeries::mean(std::int64_t from, std::int64_t to) const
{
    double sum = 0.0;
    std::size_t n = 0;
    for (const Point &p : range(from, to)) {
        sum += p.value;
        ++n;
    }
    return n ? sum / static_cast<double>(n) : 0.0;
}

double
TimeSeries::last(double fallback) const
{
    return points_.empty() ? fallback : points_.back().value;
}

WindowAggregator::WindowAggregator(std::int64_t width,
                                   std::size_t sampleCapacity)
    : width_(width), sampleCapacity_(sampleCapacity)
{
    URSA_CHECK(width_ > 0, "stats.timeseries",
               "window aggregator with a non-positive width");
}

void
WindowAggregator::add(std::int64_t time, double value)
{
    const std::int64_t start = windowStart(time, width_);
    if (windows_.empty() || windows_.back().start < start) {
        windows_.emplace_back(start, sampleCapacity_);
    } else if (windows_.back().start > start) {
        throw std::logic_error("WindowAggregator: time moved backwards");
    }
    Window &w = windows_.back();
    w.stats.add(value);
    w.samples.add(value);
}

const WindowAggregator::Window *
WindowAggregator::windowAt(std::int64_t time) const
{
    const std::int64_t start = windowStart(time, width_);
    const auto it = std::lower_bound(
        windows_.begin(), windows_.end(), start,
        [](const Window &w, std::int64_t s) { return w.start < s; });
    if (it == windows_.end() || it->start != start)
        return nullptr;
    return &*it;
}

std::vector<const WindowAggregator::Window *>
WindowAggregator::lastWindowsBefore(std::int64_t time, std::size_t n) const
{
    std::vector<const Window *> out;
    const std::int64_t cutoff = windowStart(time, width_);
    for (auto it = windows_.rbegin(); it != windows_.rend() && out.size() < n;
         ++it) {
        if (it->start < cutoff)
            out.push_back(&*it);
    }
    std::reverse(out.begin(), out.end());
    return out;
}

SampleSet
WindowAggregator::collect(std::int64_t from, std::int64_t to) const
{
    SampleSet out(0, 11);
    for (const Window &w : windows_) {
        if (w.start + width_ <= from || w.start >= to)
            continue;
        for (double v : w.samples.samples())
            out.add(v);
    }
    return out;
}

} // namespace ursa::stats
