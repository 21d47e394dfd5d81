#include "stats/quantile.h"

#include "check/check.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace ursa::stats
{

namespace
{

std::uint64_t
nextState(std::uint64_t &s)
{
    // SplitMix64: enough quality for reservoir replacement indices.
    s += 0x9e3779b97f4a7c15ULL;
    std::uint64_t z = s;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

/// The two closest ranks of percentile `p` in (0, 100) among `n`
/// sorted values, and the interpolation weight between them.
struct Ranks
{
    std::size_t lo;
    std::size_t hi;
    double frac;
};

Ranks
ranksOf(std::size_t n, double p)
{
    const double rank = p / 100.0 * (static_cast<double>(n) - 1);
    const auto lo = static_cast<std::size_t>(std::floor(rank));
    const auto hi = static_cast<std::size_t>(std::ceil(rank));
    return {lo, hi, rank - static_cast<double>(lo)};
}

double
interpolatedPercentile(const std::vector<double> &sorted, double p)
{
    URSA_CHECK(!sorted.empty(), "stats.quantile",
               "percentile of an empty sample set");
    if (p <= 0.0)
        return sorted.front();
    if (p >= 100.0)
        return sorted.back();
    const Ranks r = ranksOf(sorted.size(), p);
    return sorted[r.lo] + r.frac * (sorted[r.hi] - sorted[r.lo]);
}

} // namespace

SampleSet::SampleSet(std::size_t capacity, std::uint64_t seed)
    : capacity_(capacity), rngState_(seed)
{
}

void
SampleSet::trackThreshold(double threshold)
{
    URSA_CHECK(observed_ == 0, "stats.quantile",
               "trackThreshold after samples were observed");
    trackAbove_ = true;
    aboveThreshold_ = threshold;
}

void
SampleSet::add(double x)
{
    ++observed_;
    if (trackAbove_ && x > aboveThreshold_)
        ++aboveCount_;
    if (capacity_ == 0 || samples_.size() < capacity_) {
        samples_.push_back(x);
    } else {
        // Vitter's Algorithm R: replace with probability capacity/observed.
        const std::uint64_t slot = nextState(rngState_) % observed_;
        if (slot < capacity_)
            samples_[slot] = x;
    }
}

double
SampleSet::percentile(double p) const
{
    if (samples_.empty())
        throw std::logic_error("percentile of empty SampleSet");
    if (p <= 0.0)
        return *std::min_element(samples_.begin(), samples_.end());
    if (p >= 100.0)
        return *std::max_element(samples_.begin(), samples_.end());
    // Select on a scratch copy, never on samples_: reservoir
    // replacement indexes into samples_, so reordering it would change
    // which sample every later add() overwrites.
    std::vector<double> scratch = samples_;
    const Ranks r = ranksOf(scratch.size(), p);
    const auto lo = scratch.begin() + static_cast<std::ptrdiff_t>(r.lo);
    std::nth_element(scratch.begin(), lo, scratch.end());
    // Everything after `lo` is >= *lo, so the next order statistic is
    // the smallest of them: the same two values a full sort would
    // interpolate between, hence the same result.
    const double atHi =
        r.hi == r.lo ? *lo : *std::min_element(lo + 1, scratch.end());
    return *lo + r.frac * (atHi - *lo);
}

std::vector<double>
SampleSet::percentiles(const std::vector<double> &ps) const
{
    if (samples_.empty())
        throw std::logic_error("percentile of empty SampleSet");
    std::vector<double> sorted = samples_;
    std::sort(sorted.begin(), sorted.end());
    std::vector<double> out;
    out.reserve(ps.size());
    for (double p : ps)
        out.push_back(interpolatedPercentile(sorted, p));
    return out;
}

double
SampleSet::mean() const
{
    if (samples_.empty())
        return 0.0;
    double s = 0.0;
    for (double v : samples_)
        s += v;
    return s / static_cast<double>(samples_.size());
}

double
SampleSet::fractionAbove(double threshold) const
{
    if (observed_ == 0)
        return 0.0;
    if (trackAbove_ && threshold == aboveThreshold_)
        return static_cast<double>(aboveCount_) /
               static_cast<double>(observed_);
    if (samples_.empty())
        return 0.0;
    std::size_t above = 0;
    for (double v : samples_)
        if (v > threshold)
            ++above;
    return static_cast<double>(above) / static_cast<double>(samples_.size());
}

void
SampleSet::reset()
{
    observed_ = 0;
    aboveCount_ = 0;
    samples_.clear();
}

void
SampleSet::merge(const SampleSet &other)
{
    if (other.observed_ == 0)
        return;

    // Fold the exact counters first: threshold exceedances the other
    // set observed but did not retain in its reservoir must survive the
    // merge, or fractionAbove undercounts.
    const std::size_t selfObserved = observed_;
    const std::size_t otherObserved = other.observed_;
    observed_ = selfObserved + otherObserved;
    if (trackAbove_) {
        if (other.trackAbove_ && other.aboveThreshold_ == aboveThreshold_) {
            aboveCount_ += other.aboveCount_;
        } else if (!other.samples_.empty()) {
            // The other set tracked no (or a different) threshold: the
            // best available estimate scales its retained exceedances
            // to its observed count.
            std::size_t above = 0;
            for (double v : other.samples_)
                if (v > aboveThreshold_)
                    ++above;
            aboveCount_ += above * otherObserved / other.samples_.size();
        }
    }

    // Reservoir union. Each retained sample stands for observed/retained
    // observations of its source stream; feeding the other set through
    // add() would weight it by the local observed_ instead, starving
    // whichever set is merged second.
    if (capacity_ == 0 ||
        samples_.size() + other.samples_.size() <= capacity_) {
        samples_.insert(samples_.end(), other.samples_.begin(),
                        other.samples_.end());
        return;
    }
    // Weighted sampling without replacement (Efraimidis-Spirakis): keep
    // the `capacity_` candidates with the largest u^(1/w), where w is
    // the per-sample representation weight. Draws come from the local
    // deterministic stream, so merges stay reproducible.
    struct Candidate
    {
        double key;
        double value;
    };
    std::vector<Candidate> pool;
    pool.reserve(samples_.size() + other.samples_.size());
    auto push = [&](const std::vector<double> &vals, std::size_t observed) {
        if (vals.empty())
            return;
        const double w = static_cast<double>(observed) /
                         static_cast<double>(vals.size());
        for (double v : vals) {
            // u in (0, 1]; key = u^(1/w) compared via log for stability.
            const double u =
                (static_cast<double>(nextState(rngState_) >> 11) + 1.0) *
                0x1.0p-53;
            pool.push_back({std::log(u) / w, v});
        }
    };
    push(samples_, selfObserved);
    push(other.samples_, otherObserved);
    std::nth_element(pool.begin(), pool.begin() + capacity_, pool.end(),
                     [](const Candidate &a, const Candidate &b) {
                         return a.key > b.key;
                     });
    samples_.clear();
    for (std::size_t i = 0; i < capacity_; ++i)
        samples_.push_back(pool[i].value);
}

EmpiricalCdf::EmpiricalCdf(std::vector<double> samples)
    : sorted_(std::move(samples))
{
    std::sort(sorted_.begin(), sorted_.end());
}

double
EmpiricalCdf::at(double x) const
{
    if (sorted_.empty())
        return 0.0;
    const auto it = std::upper_bound(sorted_.begin(), sorted_.end(), x);
    return static_cast<double>(it - sorted_.begin()) /
           static_cast<double>(sorted_.size());
}

double
EmpiricalCdf::quantile(double q) const
{
    if (sorted_.empty())
        throw std::logic_error("quantile of empty EmpiricalCdf");
    return interpolatedPercentile(sorted_, q * 100.0);
}

std::vector<std::pair<double, double>>
EmpiricalCdf::curve(std::size_t points) const
{
    std::vector<std::pair<double, double>> out;
    if (sorted_.empty() || points < 2)
        return out;
    const double lo = sorted_.front();
    const double hi = sorted_.back();
    out.reserve(points);
    for (std::size_t i = 0; i < points; ++i) {
        const double x =
            lo + (hi - lo) * static_cast<double>(i) /
                     static_cast<double>(points - 1);
        out.emplace_back(x, at(x));
    }
    return out;
}

double
percentileOf(std::vector<double> values, double p)
{
    if (values.empty())
        throw std::logic_error("percentileOf empty vector");
    std::sort(values.begin(), values.end());
    return interpolatedPercentile(values, p);
}

} // namespace ursa::stats
