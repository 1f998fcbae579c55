#include "stats.hh"

#include <algorithm>
#include <cmath>

#include "logging.hh"

namespace drsim {

std::vector<double>
Histogram::normalized() const
{
    std::vector<double> density(counts_.size(), 0.0);
    if (total_ == 0)
        return density;
    const double inv = 1.0 / static_cast<double>(total_);
    for (std::size_t i = 0; i < counts_.size(); ++i)
        density[i] = static_cast<double>(counts_[i]) * inv;
    return density;
}

std::uint64_t
Histogram::percentile(double fraction) const
{
    // An empty histogram's density is all zeros; walking an empty one
    // instead still rejects a bad fraction and yields 0.
    if (total_ == 0)
        return densityPercentile({}, fraction);
    return densityPercentile(normalized(), fraction);
}

double
Histogram::mean() const
{
    if (total_ == 0)
        return 0.0;
    double sum = 0.0;
    for (std::size_t i = 0; i < counts_.size(); ++i)
        sum += static_cast<double>(i) * static_cast<double>(counts_[i]);
    return sum / static_cast<double>(total_);
}

std::vector<double>
averageDensities(const std::vector<std::vector<double>> &densities)
{
    std::size_t len = 0;
    for (const auto &d : densities)
        len = std::max(len, d.size());
    std::vector<double> avg(len, 0.0);
    if (densities.empty())
        return avg;
    for (const auto &d : densities)
        for (std::size_t i = 0; i < d.size(); ++i)
            avg[i] += d[i];
    const double inv = 1.0 / static_cast<double>(densities.size());
    for (double &v : avg)
        v *= inv;
    return avg;
}

std::uint64_t
densityPercentile(const std::vector<double> &density, double fraction)
{
    if (fraction <= 0.0 || fraction > 1.0)
        fatal("percentile fraction ", fraction, " outside (0, 1]");
    double running = 0.0;
    for (std::size_t i = 0; i < density.size(); ++i) {
        running += density[i];
        // Tiny epsilon absorbs float rounding when fraction == 1.0.
        if (running + 1e-12 >= fraction)
            return i;
    }
    return density.empty() ? 0 : density.size() - 1;
}

double
tCritical95(std::size_t dof)
{
    // Two-sided 95% quantiles of the t distribution, dof 1..30.
    static constexpr double kTable[30] = {
        12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306,
        2.262,  2.228, 2.201, 2.179, 2.160, 2.145, 2.131, 2.120,
        2.110,  2.101, 2.093, 2.086, 2.080, 2.074, 2.069, 2.064,
        2.060,  2.056, 2.052, 2.048, 2.045, 2.042,
    };
    if (dof < 1)
        fatal("t distribution needs at least one degree of freedom");
    if (dof <= 30)
        return kTable[dof - 1];
    return 1.96;
}

double
ci95HalfWidth(const std::vector<double> &samples)
{
    const std::size_t n = samples.size();
    if (n < 2)
        return 0.0;
    double sum = 0.0;
    for (double s : samples)
        sum += s;
    const double mean = sum / double(n);
    double ss = 0.0;
    for (double s : samples)
        ss += (s - mean) * (s - mean);
    const double variance = ss / double(n - 1);
    return tCritical95(n - 1) * std::sqrt(variance / double(n));
}

std::vector<double>
coverageCurve(const std::vector<double> &density)
{
    std::vector<double> curve(density.size(), 0.0);
    double running = 0.0;
    for (std::size_t i = 0; i < density.size(); ++i) {
        running += density[i];
        curve[i] = std::min(running, 1.0);
    }
    return curve;
}

} // namespace drsim
