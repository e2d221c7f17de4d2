/** @file Vector-backed FIFO tests, checked against std::deque. */
#include "util/fifo.h"

#include <gtest/gtest.h>

#include <deque>
#include <memory>
#include <vector>

#include "util/rng.h"

namespace fld {
namespace {

template <typename T>
std::vector<T>
contents(const Fifo<T>& f)
{
    return std::vector<T>(f.begin(), f.end());
}

TEST(Fifo, StartsEmpty)
{
    Fifo<int> f;
    EXPECT_TRUE(f.empty());
    EXPECT_EQ(f.size(), 0u);
    EXPECT_EQ(f.begin(), f.end());
}

TEST(Fifo, InterleavedPushPopKeepsOrderAcrossCompaction)
{
    // Random bursts grow and drain the queue through many compactions
    // (partial drains leave the head deep in the buffer, then a push
    // at capacity slides the live part down); every step is checked
    // against a std::deque.
    Fifo<uint64_t> f;
    std::deque<uint64_t> ref;
    Rng rng(7);
    uint64_t next = 0;
    for (int step = 0; step < 20000; ++step) {
        // Alternate push-heavy and pop-heavy phases.
        const uint64_t push_pct = (step / 400) % 2 ? 30 : 70;
        if (rng.uniform(100) < push_pct) {
            f.push_back(next);
            ref.push_back(next);
            ++next;
        } else if (!ref.empty()) {
            ASSERT_EQ(f.front(), ref.front()) << "step " << step;
            f.pop_front();
            ref.pop_front();
        }
        ASSERT_EQ(f.size(), ref.size());
        ASSERT_EQ(f.empty(), ref.empty());
        if (!ref.empty()) {
            ASSERT_EQ(f.front(), ref.front());
        }
        if (step % 97 == 0) {
            ASSERT_EQ(contents(f),
                      std::vector<uint64_t>(ref.begin(), ref.end()))
                << "step " << step;
        }
    }
    EXPECT_EQ(contents(f), std::vector<uint64_t>(ref.begin(), ref.end()));
}

TEST(Fifo, HoldsMoveOnlyElements)
{
    Fifo<std::unique_ptr<int>> f;
    for (int i = 0; i < 100; ++i) {
        f.push_back(std::make_unique<int>(i));
        if (i % 3 == 2) {
            // Leave the head inside the buffer so later pushes compact
            // by moving live unique_ptrs.
            f.pop_front();
        }
    }
    int expect = 33;
    for (const auto& p : f)
        EXPECT_EQ(*p, expect++);
    EXPECT_EQ(expect, 100);
    auto owned = std::move(f.front());
    f.pop_front();
    EXPECT_EQ(*owned, 33);
    EXPECT_EQ(*f.front(), 34);
}

TEST(Fifo, PopReleasesTheElement)
{
    auto shared = std::make_shared<int>(5);
    Fifo<std::shared_ptr<int>> f;
    f.push_back(shared);
    f.push_back(shared);
    EXPECT_EQ(shared.use_count(), 3);
    f.pop_front();
    EXPECT_EQ(shared.use_count(), 2); // freed at the pop, not later
    f.pop_front();
    EXPECT_EQ(shared.use_count(), 1);
}

TEST(Fifo, ClearEmptiesAndStaysUsable)
{
    Fifo<int> f;
    for (int i = 0; i < 10; ++i)
        f.push_back(i);
    f.pop_front();
    f.clear();
    EXPECT_TRUE(f.empty());
    EXPECT_EQ(f.size(), 0u);
    EXPECT_EQ(f.begin(), f.end());
    f.push_back(42);
    f.push_back(43);
    EXPECT_EQ(contents(f), (std::vector<int>{42, 43}));
}

TEST(Fifo, IterationMatchesDequeAfterEveryMutation)
{
    Fifo<int> f;
    std::deque<int> ref;
    Rng rng(99);
    for (int step = 0; step < 3000; ++step) {
        uint32_t op = uint32_t(rng.uniform(100));
        if (op < 60) {
            int v = int(rng.uniform(1 << 20));
            f.push_back(v);
            ref.push_back(v);
        } else if (op < 98) {
            if (!ref.empty()) {
                f.pop_front();
                ref.pop_front();
            }
        } else {
            f.clear();
            ref.clear();
        }
        // Writes through front() land on the element iteration sees.
        if (!ref.empty() && step % 11 == 0) {
            f.front() += 1;
            ref.front() += 1;
        }
        ASSERT_EQ(contents(f), std::vector<int>(ref.begin(), ref.end()))
            << "step " << step;
    }
}

} // namespace
} // namespace fld
