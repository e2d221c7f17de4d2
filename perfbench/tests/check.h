/**
 * @file
 * Minimal assertion helpers for the benchmark's self-tests (kept free
 * of test frameworks so the benchmark package builds with the
 * compiler alone).
 */
#ifndef PERFBENCH_TESTS_CHECK_H
#define PERFBENCH_TESTS_CHECK_H

#include <cmath>
#include <cstdio>

inline int g_failures = 0;

#define CHECK(cond)                                                       \
    do {                                                                  \
        if (!(cond)) {                                                    \
            std::fprintf(stderr, "%s:%d: CHECK(%s) failed\n", __FILE__,   \
                         __LINE__, #cond);                                \
            ++g_failures;                                                 \
        }                                                                 \
    } while (0)

#define CHECK_NEAR(a, b, tol) CHECK(std::fabs(double(a) - double(b)) <= (tol))

#endif // PERFBENCH_TESTS_CHECK_H
