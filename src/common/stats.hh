/**
 * @file
 * Statistics containers used by the live-register accounting.
 *
 * The paper's headline metric is the "90th percentile number of live
 * registers", computed by (footnote 2 of the paper):
 *   1. recording, per benchmark, how many cycles each live-register
 *      count was observed;
 *   2. normalizing each benchmark's distribution by its own run time;
 *   3. averaging the normalized distributions of all benchmarks;
 *   4. reading the register count that covers 90% of the average.
 * Histogram implements step 1-2 and the free functions implement 3-4.
 */

#ifndef DRSIM_COMMON_STATS_HH
#define DRSIM_COMMON_STATS_HH

#include <cstdint>
#include <vector>

namespace drsim {

/**
 * Dense histogram over small non-negative integer values (e.g. the
 * number of live registers in a cycle).
 */
class Histogram
{
  public:
    /** Record one observation of @p value (one cycle at that count). */
    void
    addSample(std::uint64_t value)
    {
        if (value >= counts_.size())
            counts_.resize(value + 1, 0);
        ++counts_[value];
        ++total_;
    }

    /** Record @p n observations of @p value at once — equivalent to
     *  calling addSample(value) @p n times (histogram decoding and the
     *  static bounds use it to add a whole bucket in one update). */
    void
    addSamples(std::uint64_t value, std::uint64_t n)
    {
        if (n == 0)
            return;
        if (value >= counts_.size())
            counts_.resize(value + 1, 0);
        counts_[value] += n;
        total_ += n;
    }

    /** Total number of recorded samples. */
    std::uint64_t totalSamples() const { return total_; }

    /** Largest value observed (0 if empty). */
    std::uint64_t
    maxValue() const
    {
        return counts_.empty() ? 0 : counts_.size() - 1;
    }

    /** Raw per-value sample counts. */
    const std::vector<std::uint64_t> &counts() const { return counts_; }

    /**
     * Distribution normalized by the total sample count so it sums
     * to 1 (empty histogram yields an empty density).
     */
    std::vector<double> normalized() const;

    /**
     * Smallest value v such that at least @p fraction of the samples
     * are <= v.  @p fraction must be in (0, 1].
     */
    std::uint64_t percentile(double fraction) const;

    /** Mean of the recorded samples (0 if empty). */
    double mean() const;

    void
    merge(const Histogram &other)
    {
        if (other.counts_.size() > counts_.size())
            counts_.resize(other.counts_.size(), 0);
        for (std::size_t i = 0; i < other.counts_.size(); ++i)
            counts_[i] += other.counts_[i];
        total_ += other.total_;
    }

  private:
    std::vector<std::uint64_t> counts_;
    std::uint64_t total_ = 0;
};

/**
 * Average several normalized distributions point-wise (the paper's
 * cross-benchmark averaging step).  Inputs may have different lengths.
 */
std::vector<double>
averageDensities(const std::vector<std::vector<double>> &densities);

/**
 * Smallest index v such that the cumulative density through v is at
 * least @p fraction.  Returns the last index if the density mass is
 * short of @p fraction (within rounding).
 */
std::uint64_t
densityPercentile(const std::vector<double> &density, double fraction);

/**
 * Cumulative run-time-coverage curve: element v is the fraction of
 * run time with at most v live registers (the y-axis of the paper's
 * Figures 4, 5 and 8).
 */
std::vector<double> coverageCurve(const std::vector<double> &density);

/**
 * Two-sided 95% Student-t critical value for @p dof degrees of
 * freedom (tabulated through 30, the normal quantile 1.96 beyond).
 * The sampling driver uses it for per-window IPC confidence
 * intervals; @p dof must be >= 1.
 */
double tCritical95(std::size_t dof);

/**
 * Half-width of the 95% confidence interval of the mean of
 * @p samples (t-distribution, sample standard deviation).  Returns
 * 0 for fewer than two samples — one window gives no variance
 * estimate, and reporting 0 keeps the field well-defined.
 */
double ci95HalfWidth(const std::vector<double> &samples);

} // namespace drsim

#endif // DRSIM_COMMON_STATS_HH
