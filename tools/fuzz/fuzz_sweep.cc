#include "tools/fuzz/fuzz_sweep.h"

#include <atomic>
#include <chrono>
#include <limits>
#include <thread>
#include <vector>

namespace fld::apps {

SweepResult
run_sweep(const SweepOptions& opt, const SeedCheck& ok)
{
    constexpr uint64_t kNoFailure = std::numeric_limits<uint64_t>::max();
    std::atomic<uint64_t> next_index{0};
    /** Lowest failing seed *index* seen so far; kNoFailure if clean.
     *  Workers stop claiming indices at or above this. */
    std::atomic<uint64_t> min_fail_index{kNoFailure};
    std::atomic<uint64_t> ran{0};

    const unsigned jobs = opt.jobs < 1 ? 1 : opt.jobs;
    const auto start = std::chrono::steady_clock::now();
    auto out_of_budget = [&] {
        return std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - start)
                   .count() >= opt.budget_sec;
    };

    auto worker = [&] {
        for (;;) {
            uint64_t i = next_index.fetch_add(1, std::memory_order_relaxed);
            if (opt.budget_sec > 0 ? out_of_budget() : i >= opt.seeds)
                return;
            // A lower seed already failed: anything we could find at
            // or above it cannot change the merged verdict.
            if (i >= min_fail_index.load(std::memory_order_acquire))
                return;

            bool passed = ok(opt.seed0 + i);
            ran.fetch_add(1, std::memory_order_relaxed);
            if (passed)
                continue;
            // Keep the lowest failing index; ties are impossible
            // (each index is claimed exactly once).
            uint64_t prev = min_fail_index.load(std::memory_order_acquire);
            while (i < prev && !min_fail_index.compare_exchange_weak(
                                   prev, i, std::memory_order_acq_rel)) {
            }
        }
    };

    if (jobs == 1) {
        worker();
    } else {
        std::vector<std::thread> pool;
        pool.reserve(jobs);
        for (unsigned t = 0; t < jobs; ++t)
            pool.emplace_back(worker);
        for (auto& th : pool)
            th.join();
    }

    SweepResult r;
    r.ran = ran.load();
    uint64_t fail = min_fail_index.load();
    if (fail != kNoFailure) {
        r.found_failure = true;
        r.failing_seed = opt.seed0 + fail;
    }
    return r;
}

} // namespace fld::apps
