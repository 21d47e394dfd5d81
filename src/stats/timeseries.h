/**
 * @file
 * Time-indexed metric containers: an append-only point series and a
 * fixed-width window aggregator. Together with SampleSet these form the
 * storage layer of the tracing substrate (the Prometheus stand-in).
 */

#ifndef URSA_STATS_TIMESERIES_H
#define URSA_STATS_TIMESERIES_H

#include "stats/online.h"
#include "stats/quantile.h"

#include <cstdint>
#include <deque>
#include <vector>

namespace ursa::stats
{

/** Start of the `width`-wide window containing `time` (floor division). */
std::int64_t windowStart(std::int64_t time, std::int64_t width);

/** One (timestamp, value) observation. */
struct Point
{
    std::int64_t time;
    double value;
};

/**
 * Append-only series of (time, value) points with range queries.
 * Timestamps must be non-decreasing (simulation time always is).
 */
class TimeSeries
{
  public:
    /** Append a point; `time` must be >= the last appended time. */
    void append(std::int64_t time, double value);

    /** All points in [from, to). */
    std::vector<Point> range(std::int64_t from, std::int64_t to) const;

    /** Time-weighted average over [from, to) (step interpolation). */
    double timeAverage(std::int64_t from, std::int64_t to) const;

    /** Plain mean of point values in [from, to). */
    double mean(std::int64_t from, std::int64_t to) const;

    /** Last appended value, or `fallback` when empty. */
    double last(double fallback = 0.0) const;

    /** Number of points. */
    std::size_t size() const { return points_.size(); }

    const std::vector<Point> &points() const { return points_; }

  private:
    std::vector<Point> points_;
};

/**
 * Fixed-width tumbling-window aggregator. Each window keeps summary
 * stats and a latency reservoir; old windows are retained (they are
 * small) so whole-experiment queries remain possible.
 */
class WindowAggregator
{
  public:
    /** Per-window aggregate. */
    struct Window
    {
        std::int64_t start = 0;
        OnlineStats stats;
        SampleSet samples;

        Window(std::int64_t s, std::size_t cap)
            : start(s), samples(cap, static_cast<std::uint64_t>(s) + 7)
        {
        }
    };

    /**
     * @param width Window width in the caller's time unit (>0).
     * @param sampleCapacity Reservoir capacity per window (0: unbounded).
     */
    explicit WindowAggregator(std::int64_t width,
                              std::size_t sampleCapacity = 4096);

    /** Record an observation at `time`. */
    void add(std::int64_t time, double value);

    /** Window width. */
    std::int64_t width() const { return width_; }

    /** All completed-or-open windows in chronological order. */
    const std::deque<Window> &windows() const { return windows_; }

    /**
     * Pointer to the window covering `time`, or nullptr if no
     * observation has created it.
     */
    const Window *windowAt(std::int64_t time) const;

    /**
     * The last `n` windows strictly before `time` (most recent last);
     * fewer are returned if history is shorter.
     */
    std::vector<const Window *> lastWindowsBefore(std::int64_t time,
                                                  std::size_t n) const;

    /** Merge all samples in [from, to) into one SampleSet. */
    SampleSet collect(std::int64_t from, std::int64_t to) const;

  private:
    std::int64_t width_;
    std::size_t sampleCapacity_;
    std::deque<Window> windows_;
};

} // namespace ursa::stats

#endif // URSA_STATS_TIMESERIES_H
