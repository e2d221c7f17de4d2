// Self-tests of the benchmark's statistics helpers and stage ledger.
// Build and run: cmake --build <dir> --target perfbench_selftest,
// then ctest in <dir> (or run the binary directly).
#include <cstdio>
#include <vector>

#include "check.h"
#include "stats.h"

using namespace perfbench;

void run_stage_ledger_tests();

namespace {

void
test_median()
{
    CHECK(median({}) == 0.0);
    CHECK(median({3.0}) == 3.0);
    CHECK(median({4.0, 1.0, 3.0}) == 3.0);
    CHECK(median({4.0, 1.0, 3.0, 2.0}) == 2.5);
}

void
test_quartiles_match_python()
{
    // Reference values from Python's statistics.quantiles(v, n=4).
    Quartiles a = quartiles({1, 2, 3, 4, 5, 6, 7, 8, 9, 10});
    CHECK_NEAR(a.q1, 2.75, 1e-12);
    CHECK_NEAR(a.q2, 5.5, 1e-12);
    CHECK_NEAR(a.q3, 8.25, 1e-12);
    Quartiles b = quartiles({5, 1, 4, 2, 3});
    CHECK_NEAR(b.q1, 1.5, 1e-12);
    CHECK_NEAR(b.q2, 3.0, 1e-12);
    CHECK_NEAR(b.q3, 4.5, 1e-12);
    // Two samples: Python extrapolates past the ends.
    Quartiles c = quartiles({3.5, 1.25});
    CHECK_NEAR(c.q1, 0.6875, 1e-12);
    CHECK_NEAR(c.q3, 4.0625, 1e-12);
    CHECK_NEAR(relative_iqr({0.9, 1.1, 1.0, 1.3}), (1.25 - 0.925) / 1.05,
               1e-12);
    CHECK(relative_iqr({0.0, 0.0, 0.0}) == 0.0);
}

void
test_percentile_interpolates()
{
    std::vector<double> v = {10, 20, 30, 40, 50};
    CHECK(percentile_sorted(v, 0) == 10);
    CHECK(percentile_sorted(v, 50) == 30);
    CHECK(percentile_sorted(v, 100) == 50);
    CHECK_NEAR(percentile_sorted(v, 90), 46.0, 1e-12);
    CHECK(percentile_sorted({}, 50) == 0.0);
    CHECK(percentile_sorted({7}, 99) == 7);
}

void
test_tail_choice_needs_ten_beyond()
{
    CHECK(samples_beyond(1000, 99.0) == 10);
    CHECK(samples_beyond(999, 99.0) == 9);
    CHECK(samples_beyond(10000, 99.9) == 10);
    CHECK(samples_beyond(100000, 99.99) == 10);
    CHECK(samples_beyond(10, 50.0) == 5);
    // The highest percentile with >= 10 samples strictly beyond it.
    CHECK(tail_percentile(1000) == 99.0);
    CHECK(tail_percentile(999) == 90.0);
    CHECK(tail_percentile(9999) == 99.0);
    CHECK(tail_percentile(10000) == 99.9);
    CHECK(tail_percentile(100000) == 99.99);
    CHECK(tail_percentile(100) == 90.0);
    CHECK(tail_percentile(99) == 50.0);
    CHECK(tail_percentile(20) == 50.0);
    CHECK(tail_percentile(19) == 0.0);
    CHECK(tail_percentile(0) == 0.0);
    CHECK(tail_percentile(100, 50) == 50.0);
}

void
test_ratio_bases()
{
    CHECK(ratio(3, 4) == 0.75);
    CHECK(ratio(5, 0) == 0.0); // zero base: layer not exercised
    CHECK(ratio(0, 0) == 0.0);
    CHECK(failure_ratio(0, 100) == 0.0);
    CHECK(failure_ratio(1, 4) == 0.25);
    CHECK(failure_ratio(7, 4) == 1.0); // capped at the attempts
    CHECK(failure_ratio(0, 0) == 1.0); // nothing attempted = failed
}

void
test_fnv_fold()
{
    const char abc[] = "abc";
    CHECK(fnv_fold(kFnvSeed, abc, 3) == 0xe71fa2190541574bull);
    CHECK(fnv_fold(kFnvSeed, abc, 0) == kFnvSeed);
}

} // namespace

int
main()
{
    test_median();
    test_quartiles_match_python();
    test_percentile_interpolates();
    test_tail_choice_needs_ten_beyond();
    test_ratio_bases();
    test_fnv_fold();
    run_stage_ledger_tests();
    if (g_failures)
        std::fprintf(stderr, "%d check(s) failed\n", g_failures);
    else
        std::printf("perfbench self-tests passed\n");
    return g_failures ? 1 : 0;
}
