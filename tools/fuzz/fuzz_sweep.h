/**
 * @file
 * Parallel seed-sweep core shared by every fld_fuzz mode.
 *
 * Shards a contiguous seed range across a worker thread pool. The
 * caller supplies one thread-safe predicate, ok(seed); workers share
 * nothing but the seed counter and the lowest failure seen.
 *
 * Determinism contract: for a fixed seed range, the sweep's verdict is
 * identical for any jobs value, provided ok(seed) is a pure function of
 * the seed. Workers claim seed indices from an atomic counter and keep
 * the *lowest* failing index, which is exactly the seed a serial sweep
 * would have stopped at. Workers stop claiming indices above the
 * lowest failure seen so far, so a parallel sweep does not burn time
 * past the answer. Budget-bounded sweeps (budget_sec > 0) are the
 * documented exception: how many seeds fit in the budget is timing-
 * dependent, so only per-seed results (not the count) are stable.
 *
 * The core returns only the failing seed. To get its scenario, verdict
 * and artifacts the caller runs that seed again — seeds are pure, so
 * the rerun reproduces the failure exactly (`fld_fuzz --replay` relies
 * on the same property).
 */
#ifndef FLD_TOOLS_FUZZ_FUZZ_SWEEP_H
#define FLD_TOOLS_FUZZ_FUZZ_SWEEP_H

#include <cstdint>
#include <functional>

namespace fld::apps {

struct SweepOptions
{
    uint64_t seed0 = 1;
    uint64_t seeds = 100;
    /** > 0: stop claiming new seeds after this many wall-clock
     *  seconds instead of after `seeds` (soak mode). */
    double budget_sec = 0;
    /** Worker threads; clamped to at least 1. */
    unsigned jobs = 1;
};

struct SweepResult
{
    /** Seeds actually run (may exceed the failing index: workers past
     *  it finish their current seed before stopping). */
    uint64_t ran = 0;
    bool found_failure = false;
    /** Lowest failing seed — identical to the seed a serial sweep
     *  stops at. Valid only when found_failure. */
    uint64_t failing_seed = 0;
};

/** Per-seed verdict: true when @p seed passes. Called concurrently
 *  from every worker, so it must be thread-safe. */
using SeedCheck = std::function<bool(uint64_t seed)>;

/** Run the sweep. Blocks until all workers have joined. */
SweepResult run_sweep(const SweepOptions& opt, const SeedCheck& ok);

} // namespace fld::apps

#endif // FLD_TOOLS_FUZZ_FUZZ_SWEEP_H
