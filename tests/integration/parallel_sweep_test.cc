/**
 * @file
 * Parallel sweep determinism: every fld_fuzz mode swept over a seed
 * range with several workers must produce exactly the per-seed
 * verdicts and transcript (or churn state) hashes of a one-worker
 * sweep, and the lowest-failing-seed merge must match what a serial
 * sweep stops at — including when the failure is found out of order.
 */
#include <gtest/gtest.h>

#include <chrono>
#include <map>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "tools/fuzz/fuzz_modes.h"
#include "tools/fuzz/fuzz_sweep.h"

namespace fld::apps {
namespace {

/** A seed's verdict and its transcript (or churn state) hash. */
using Outcome = std::pair<bool, uint64_t>;

/** Sweep [seed0, seed0+n) of @p family through the core, running each
 *  seed exactly as fld_fuzz does and collecting its outcome. */
std::map<uint64_t, Outcome>
sweep_family(FuzzFamily family, unsigned jobs, uint64_t seed0, uint64_t n)
{
    const FuzzRunOptions ropt = fuzz_runner_options();
    std::mutex mu;
    std::map<uint64_t, Outcome> outcomes;
    SweepResult r = run_sweep(
        {.seed0 = seed0, .seeds = n, .jobs = jobs}, [&](uint64_t seed) {
            Outcome o;
            if (family == FuzzFamily::Churn) {
                ChurnReport rep = run_churn_seed(seed);
                o = {rep.ok(), rep.state_hash};
            } else {
                FuzzVerdict v =
                    FuzzRunner(ropt).run(family_scenario(family, seed));
                o = {v.ok, v.transcript_hash};
            }
            std::lock_guard<std::mutex> lock(mu);
            outcomes[seed] = o;
            return o.first;
        });
    EXPECT_FALSE(r.found_failure);
    EXPECT_EQ(r.ran, n);
    return outcomes;
}

/** A @p jobs-worker sweep must reproduce the one-worker sweep seed
 *  for seed, and every seed must pass. */
void
expect_matches_serial(FuzzFamily family, unsigned jobs, uint64_t seed0,
                      uint64_t n)
{
    auto serial = sweep_family(family, /*jobs=*/1, seed0, n);
    auto parallel = sweep_family(family, jobs, seed0, n);
    ASSERT_EQ(serial.size(), n);
    EXPECT_EQ(serial, parallel);
    for (const auto& [seed, outcome] : serial) {
        EXPECT_TRUE(outcome.first) << "seed " << seed;
        EXPECT_NE(outcome.second, 0u) << "seed " << seed;
    }
}

TEST(ParallelSweep, Jobs8MatchesJobs1PerSeedTranscripts)
{
    expect_matches_serial(FuzzFamily::Datapath, /*jobs=*/8, /*seed0=*/1,
                          /*n=*/12);
}

TEST(ParallelSweep, RepeatedParallelSweepsAreBitIdentical)
{
    auto a = sweep_family(FuzzFamily::Datapath, /*jobs=*/8, 40, 8);
    auto b = sweep_family(FuzzFamily::Datapath, /*jobs=*/8, 40, 8);
    EXPECT_EQ(a, b);
}

TEST(ParallelSweep, ConnJobs4MatchesJobs1)
{
    expect_matches_serial(FuzzFamily::Conn, /*jobs=*/4, /*seed0=*/1,
                          /*n=*/6);
}

TEST(ParallelSweep, RpcJobs4MatchesJobs1)
{
    expect_matches_serial(FuzzFamily::Rpc, /*jobs=*/4, /*seed0=*/1,
                          /*n=*/6);
}

TEST(ParallelSweep, PipelineJobs4MatchesJobs1)
{
    expect_matches_serial(FuzzFamily::Pipeline, /*jobs=*/4, /*seed0=*/1,
                          /*n=*/8);
}

TEST(ParallelSweep, ChurnJobs4MatchesJobs1)
{
    expect_matches_serial(FuzzFamily::Churn, /*jobs=*/4, /*seed0=*/1,
                          /*n=*/8);
}

/** Synthetic per-seed check: seeds in @p bad fail, all others pass. */
SeedCheck
synthetic_check(std::vector<uint64_t> bad)
{
    return [bad = std::move(bad)](uint64_t seed) {
        for (uint64_t b : bad)
            if (seed == b)
                return false;
        return true;
    };
}

TEST(ParallelSweep, LowestFailingSeedWinsRegardlessOfJobs)
{
    // Several seeds fail; every jobs value must report the lowest one,
    // exactly like a serial sweep stopping at its first failure.
    for (unsigned jobs : {1u, 2u, 8u}) {
        SweepResult r = run_sweep({.seed0 = 1, .seeds = 64, .jobs = jobs},
                                  synthetic_check({57, 23, 41}));
        EXPECT_TRUE(r.found_failure) << "jobs=" << jobs;
        EXPECT_EQ(r.failing_seed, 23u) << "jobs=" << jobs;
    }
}

TEST(ParallelSweep, WorkersStopClaimingPastAFailure)
{
    // With the failure at the very first seed, the sweep must not run
    // anywhere near the full range. Publication of the failure races
    // with other workers claiming seeds, so clean runs are slowed a
    // touch to keep the bound safe under sanitizers' scheduling.
    SeedCheck inner = synthetic_check({1});
    SweepResult r = run_sweep(
        {.seed0 = 1, .seeds = 4096, .jobs = 8}, [&](uint64_t seed) {
            bool ok = inner(seed);
            if (ok)
                std::this_thread::sleep_for(std::chrono::microseconds(200));
            return ok;
        });
    EXPECT_TRUE(r.found_failure);
    EXPECT_EQ(r.failing_seed, 1u);
    EXPECT_LT(r.ran, 512u);
}

TEST(ParallelSweep, CleanRangeRunsEverySeedExactlyOnce)
{
    std::mutex mu;
    std::map<uint64_t, int> runs;
    SweepResult r = run_sweep({.seed0 = 1, .seeds = 128, .jobs = 8},
                              [&](uint64_t seed) {
                                  std::lock_guard<std::mutex> lock(mu);
                                  runs[seed]++;
                                  return true;
                              });
    EXPECT_FALSE(r.found_failure);
    EXPECT_EQ(r.ran, 128u);
    ASSERT_EQ(runs.size(), 128u);
    for (const auto& [seed, count] : runs)
        EXPECT_EQ(count, 1) << "seed " << seed;
}

} // namespace
} // namespace fld::apps
