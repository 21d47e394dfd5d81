/**
 * @file
 * Latency-distribution containers: an exact (optionally reservoir-capped)
 * sample set with percentile queries, and an empirical CDF.
 *
 * Percentile queries use the "linear interpolation between closest
 * ranks" definition (type-7 in R / NumPy's default), which is also what
 * Prometheus-style histograms approximate.
 */

#ifndef URSA_STATS_QUANTILE_H
#define URSA_STATS_QUANTILE_H

#include <cstddef>
#include <cstdint>
#include <vector>

namespace ursa::stats
{

class Rng;

/**
 * A set of latency samples supporting percentile queries.
 *
 * Stores all samples exactly up to `capacity`, then switches to uniform
 * reservoir sampling so long experiments stay bounded in memory while
 * percentile estimates remain unbiased.
 */
class SampleSet
{
  public:
    /**
     * @param capacity Maximum retained samples; 0 means unbounded.
     * @param seed Seed for the reservoir-replacement stream.
     */
    explicit SampleSet(std::size_t capacity = 0, std::uint64_t seed = 1);

    /** Record one sample. */
    void add(double x);

    /** Number of samples *observed* (not merely retained). */
    std::size_t count() const { return observed_; }

    /** Whether no samples have been observed. */
    bool empty() const { return observed_ == 0; }

    /**
     * Percentile in [0, 100]. Requires at least one sample.
     * Linear interpolation between closest ranks, found by selection
     * on a scratch copy in O(n); samples() keeps its order.
     */
    double percentile(double p) const;

    /**
     * Several percentiles from one sorted scratch copy; each equals
     * percentile(p) bit for bit. Requires at least one sample.
     */
    std::vector<double> percentiles(const std::vector<double> &ps) const;

    /** Mean of retained samples. */
    double mean() const;

    /** Fraction of observed samples with value > threshold. */
    double fractionAbove(double threshold) const;

    /** Retained samples, unsorted. */
    const std::vector<double> &samples() const { return samples_; }

    /** Drop all samples. */
    void reset();

    /**
     * Merge another set into this one. Exact counters (observed,
     * threshold exceedances) fold first, so fractionAbove stays exact
     * after the merge even when the other set's reservoir dropped the
     * exceeding samples. When the union of retained samples overflows
     * the capacity, the merged reservoir is drawn by weighted sampling
     * without replacement with each retained sample weighted by its
     * source's observed/retained ratio — both streams end up
     * represented in proportion to what they observed, not to what
     * they happened to retain.
     */
    void merge(const SampleSet &other);

  private:
    std::size_t capacity_;
    std::size_t observed_ = 0;
    std::size_t aboveCount_ = 0;
    double aboveThreshold_ = 0.0;
    bool trackAbove_ = false;
    std::uint64_t rngState_;
    std::vector<double> samples_;

  public:
    /**
     * Arm exact above-threshold counting (used for SLA-violation rates;
     * unlike `fractionAbove` on a capped reservoir this never loses
     * tail samples). Must be called before the first add().
     */
    void trackThreshold(double threshold);
};

/**
 * Empirical CDF over a sample vector; used to print Fig.-14-style
 * distribution curves.
 */
class EmpiricalCdf
{
  public:
    /** Build from samples (copied and sorted). */
    explicit EmpiricalCdf(std::vector<double> samples);

    /** P(X <= x). */
    double at(double x) const;

    /** Inverse CDF (quantile), q in [0, 1]. */
    double quantile(double q) const;

    /** Number of points. */
    std::size_t size() const { return sorted_.size(); }

    /**
     * Evenly-spaced (x, cdf) pairs for plotting, `points` of them
     * spanning [min, max].
     */
    std::vector<std::pair<double, double>> curve(std::size_t points) const;

  private:
    std::vector<double> sorted_;
};

/** Percentile of a raw vector (copies + sorts; for tests and tools). */
double percentileOf(std::vector<double> values, double p);

} // namespace ursa::stats

#endif // URSA_STATS_QUANTILE_H
