/**
 * @file
 * Differential tests: the word-at-a-time ZUC, 128-EEA3 and 128-EIA3
 * against the specification-form reference in
 * tests/crypto/reference_zuc.h, over random keys, IVs and lengths.
 */
#include <gtest/gtest.h>

#include <vector>

#include "crypto/zuc.h"
#include "tests/crypto/reference_zuc.h"
#include "util/rng.h"

namespace fld::crypto {
namespace {

template <typename A>
A random_array(Rng& rng)
{
    A a;
    for (uint8_t& b : a)
        b = uint8_t(rng.next());
    return a;
}

std::vector<uint8_t> random_bytes(Rng& rng, size_t n)
{
    std::vector<uint8_t> v(n);
    for (uint8_t& b : v)
        b = uint8_t(rng.next());
    return v;
}

TEST(ZucDiff, KeystreamMatchesReference)
{
    Rng rng(0x2a);
    for (int pair = 0; pair < 64; ++pair) {
        auto key = random_array<Zuc::Key>(rng);
        auto iv = random_array<Zuc::Iv>(rng);
        Zuc fast(key, iv);
        reference::Zuc ref(key, iv);
        // 100 words cross six 16-word blocks and end mid-block.
        for (int i = 0; i < 100; ++i)
            ASSERT_EQ(fast.next(), ref.next())
                << "pair " << pair << " word " << i;
    }
}

TEST(ZucDiff, GenerateMatchesReference)
{
    Rng rng(7);
    for (size_t n : {1, 15, 16, 17, 32, 33, 300}) {
        auto key = random_array<Zuc::Key>(rng);
        auto iv = random_array<Zuc::Iv>(rng);
        Zuc fast(key, iv);
        reference::Zuc ref(key, iv);
        EXPECT_EQ(fast.generate(n), ref.generate(n)) << "n=" << n;
    }
}

TEST(ZucDiff, InterleavedNextAndGenerateMatchReference)
{
    Rng rng(8);
    auto key = random_array<Zuc::Key>(rng);
    auto iv = random_array<Zuc::Iv>(rng);
    Zuc fast(key, iv);
    reference::Zuc ref(key, iv);
    for (int round = 0; round < 40; ++round) {
        size_t n = rng.uniform(40);
        if (round % 2 == 0) {
            for (size_t i = 0; i < n; ++i)
                ASSERT_EQ(fast.next(), ref.next()) << "round " << round;
        } else {
            ASSERT_EQ(fast.generate(n), ref.generate(n))
                << "round " << round << " n=" << n;
        }
    }
    // Re-initializing mid-block restarts from the new key/IV.
    fast.init(iv, key);
    reference::Zuc fresh(iv, key);
    for (int i = 0; i < 20; ++i)
        ASSERT_EQ(fast.next(), fresh.next());
}

/** Encrypt @p length_bits with both implementations over a buffer
 *  followed by canary bytes and require identical buffers. Bearer and
 *  direction are full random bytes, so they exercise the masking. */
void expect_eea3_matches(Rng& rng, size_t length_bits)
{
    constexpr size_t kCanary = 8;
    auto key = random_array<Zuc::Key>(rng);
    uint32_t count = uint32_t(rng.next());
    uint8_t bearer = uint8_t(rng.next());
    uint8_t direction = uint8_t(rng.next());
    size_t nbytes = (length_bits + 7) / 8;
    std::vector<uint8_t> fast = random_bytes(rng, nbytes + kCanary);
    std::vector<uint8_t> ref = fast;
    const std::vector<uint8_t> canary(fast.begin() + long(nbytes),
                                      fast.end());

    eea3_crypt(key, count, bearer, direction, fast.data(), length_bits);
    reference::eea3_crypt(key, count, bearer, direction, ref.data(),
                          length_bits);
    ASSERT_EQ(fast, ref) << "length_bits=" << length_bits;
    ASSERT_EQ(std::vector<uint8_t>(fast.begin() + long(nbytes), fast.end()),
              canary)
        << "wrote past the message at length_bits=" << length_bits;
}

TEST(ZucDiff, Eea3EveryBitLengthTo1100)
{
    Rng rng(11);
    for (size_t bits = 0; bits <= 1100; ++bits)
        expect_eea3_matches(rng, bits);
}

TEST(ZucDiff, Eea3RandomLengthsTo8800)
{
    Rng rng(12);
    for (int i = 0; i < 200; ++i)
        expect_eea3_matches(rng, rng.uniform(8801));
}

TEST(ZucDiff, Eea3MasksBearerAndDirection)
{
    Rng rng(13);
    auto key = random_array<Zuc::Key>(rng);
    std::vector<uint8_t> msg = random_bytes(rng, 100);
    std::vector<uint8_t> wide = msg, masked = msg;
    eea3_crypt(key, 99, 0xe7, 0xfe, wide.data(), 797);
    eea3_crypt(key, 99, 0xe7 & 0x1f, 0xfe & 1, masked.data(), 797);
    EXPECT_EQ(wide, masked);
}

TEST(ZucDiff, Eia3RandomLengthsTo4096)
{
    Rng rng(14);
    for (int i = 0; i < 200; ++i) {
        size_t bits = i == 0 ? 0 : rng.uniform(4097);
        auto key = random_array<Zuc::Key>(rng);
        uint32_t count = uint32_t(rng.next());
        uint8_t bearer = uint8_t(rng.next());
        uint8_t direction = uint8_t(rng.next());
        std::vector<uint8_t> msg = random_bytes(rng, (bits + 7) / 8);
        ASSERT_EQ(
            eia3_mac(key, count, bearer, direction, msg.data(), bits),
            reference::eia3_mac(key, count, bearer, direction, msg.data(),
                                bits))
            << "length_bits=" << bits;
    }
}

} // namespace
} // namespace fld::crypto
