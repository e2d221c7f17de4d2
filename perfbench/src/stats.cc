#include "stats.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

Quartiles
quartiles(std::vector<double> v)
{
    Quartiles q;
    if (v.size() < 2)
        return q;
    std::sort(v.begin(), v.end());
    // statistics.quantiles(method="exclusive"): m = n + 1; for cut i,
    // j = floor(i * m / 4) clamped to [1, n-1], delta = i * m - j * 4,
    // and the point is (data[j-1] * (4 - delta) + data[j] * delta) / 4
    // (extrapolating past the ends for tiny samples, as Python does).
    const long n = long(v.size());
    auto cut = [&](long i) {
        long m = n + 1;
        long j = std::clamp(i * m / 4, 1L, n - 1);
        long delta = i * m - j * 4;
        return (v[size_t(j - 1)] * double(4 - delta) +
                v[size_t(j)] * double(delta)) /
               4.0;
    };
    q.q1 = cut(1);
    q.q2 = cut(2);
    q.q3 = cut(3);
    return q;
}

double
relative_iqr(const std::vector<double>& v)
{
    Quartiles q = quartiles(v);
    return ratio(q.q3 - q.q1, std::fabs(q.q2));
}

double
percentile_sorted(const std::vector<double>& sorted, double pct)
{
    if (sorted.empty())
        return 0.0;
    double rank = std::clamp(pct, 0.0, 100.0) / 100.0 *
                  double(sorted.size() - 1);
    size_t lo = size_t(std::floor(rank));
    size_t hi = std::min(lo + 1, sorted.size() - 1);
    double frac = rank - double(lo);
    return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

uint64_t
samples_beyond(uint64_t n, double pct)
{
    // Integer form of ceil(n * pct / 100) on a 1/100-percent grid, so
    // 99.9 of 10000 is exactly 9990 and not 9990.000000000002.
    uint64_t milli = uint64_t(std::llround(pct * 100.0)); // pct * 100
    uint64_t at = (n * milli + 9999) / 10000;
    return at >= n ? 0 : n - at;
}

double
tail_percentile(uint64_t n, uint64_t min_beyond)
{
    for (double pct : {99.99, 99.9, 99.0, 90.0, 50.0})
        if (samples_beyond(n, pct) >= min_beyond)
            return pct;
    return 0.0;
}

double
ratio(double num, double den)
{
    return den == 0.0 ? 0.0 : num / den;
}

double
failure_ratio(uint64_t failed, uint64_t attempted)
{
    if (attempted == 0)
        return 1.0;
    return double(std::min(failed, attempted)) / double(attempted);
}

uint64_t
fnv_fold(uint64_t h, const void* data, std::size_t len)
{
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < len; ++i) {
        h ^= p[i];
        h *= 0x00000100000001b3ull;
    }
    return h;
}

} // namespace perfbench
