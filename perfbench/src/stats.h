/**
 * @file
 * Statistics helpers of the benchmark harness: order statistics over
 * repeated host timings, the tail-percentile choice, ratios with an
 * explicit base, and the FNV fold behind the simulated-result digest.
 */
#ifndef PERFBENCH_STATS_H
#define PERFBENCH_STATS_H

#include <cstdint>
#include <vector>

namespace perfbench {

/** Median of @p v (mean of the two middle values for even sizes);
 *  0 for an empty set. */
double median(std::vector<double> v);

/** Quartile cut points as Python's statistics.quantiles(v, n=4)
 *  computes them (its default "exclusive" method); needs >= 2 values. */
struct Quartiles
{
    double q1 = 0, q2 = 0, q3 = 0;
};
Quartiles quartiles(std::vector<double> v);

/** Interquartile distance as a share of the median (0 when the median
 *  is 0). This is the run-to-run spread the bounds are judged on. */
double relative_iqr(const std::vector<double>& v);

/**
 * Percentile @p pct in [0, 100] of an ascending-sorted sample, by
 * linear interpolation between closest ranks — the same rule as
 * fld::sim::Histogram::percentile. 0 for an empty sample.
 */
double percentile_sorted(const std::vector<double>& sorted, double pct);

/** Samples strictly beyond the @p pct percentile of @p n samples:
 *  n - ceil(n * pct / 100). */
uint64_t samples_beyond(uint64_t n, double pct);

/**
 * Highest percentile of the ladder 99.99, 99.9, 99, 90, 50 that has at
 * least @p min_beyond samples beyond it, or 0 when even the median
 * has fewer. A reported tail is only as good as the samples past it.
 */
double tail_percentile(uint64_t n, uint64_t min_beyond = 10);

/** num / den, with a zero base reading 0 (layer not exercised). */
double ratio(double num, double den);

/** failed / attempted; nothing attempted counts as total failure. */
double failure_ratio(uint64_t failed, uint64_t attempted);

/** FNV-1a 64 fold of raw bytes, for the simulated-result digest. */
uint64_t fnv_fold(uint64_t h, const void* data, std::size_t len);
constexpr uint64_t kFnvSeed = 0xcbf29ce484222325ull;

} // namespace perfbench

#endif // PERFBENCH_STATS_H
