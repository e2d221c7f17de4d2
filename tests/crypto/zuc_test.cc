/**
 * @file
 * ZUC keystream, 128-EEA3 and 128-EIA3 tests against the ETSI/SAGE
 * specification test vectors plus algebraic property checks.
 */
#include "crypto/zuc.h"

#include <gtest/gtest.h>

#include <cstring>
#include <numeric>

#include "tests/crypto/reference_zuc.h"

namespace fld::crypto {
namespace {

Zuc::Key key_of(std::initializer_list<uint8_t> bytes)
{
    Zuc::Key k{};
    size_t i = 0;
    for (uint8_t b : bytes)
        k[i++] = b;
    return k;
}

// ZUC spec (v1.6) test set 1: all-zero key and IV.
TEST(Zuc, KeystreamAllZero)
{
    Zuc::Key key{};
    Zuc::Iv iv{};
    Zuc zuc(key, iv);
    EXPECT_EQ(zuc.next(), 0x27bede74u);
    EXPECT_EQ(zuc.next(), 0x018082dau);
}

// ZUC spec test set 2: all-0xff key and IV.
TEST(Zuc, KeystreamAllFf)
{
    Zuc::Key key;
    key.fill(0xff);
    Zuc::Iv iv;
    iv.fill(0xff);
    Zuc zuc(key, iv);
    EXPECT_EQ(zuc.next(), 0x0657cfa0u);
    EXPECT_EQ(zuc.next(), 0x7096398bu);
}

// ZUC spec test set 3: random key/IV.
TEST(Zuc, KeystreamRandomVector)
{
    Zuc::Key key = {0x3d, 0x4c, 0x4b, 0xe9, 0x6a, 0x82, 0xfd, 0xae,
                    0xb5, 0x8f, 0x64, 0x1d, 0xb1, 0x7b, 0x45, 0x5b};
    Zuc::Iv iv = {0x84, 0x31, 0x9a, 0xa8, 0xde, 0x69, 0x15, 0xca,
                  0x1f, 0x6b, 0xda, 0x6b, 0xfb, 0xd8, 0xc7, 0x66};
    Zuc zuc(key, iv);
    EXPECT_EQ(zuc.next(), 0x14f1c272u);
    EXPECT_EQ(zuc.next(), 0x3279c419u);
}

TEST(Zuc, GenerateMatchesRepeatedNext)
{
    Zuc::Key key{};
    key[0] = 1;
    Zuc::Iv iv{};
    iv[15] = 2;
    Zuc a(key, iv);
    Zuc b(key, iv);
    auto words = a.generate(64);
    for (uint32_t w : words)
        EXPECT_EQ(w, b.next());
}

TEST(Zuc, ReinitIsDeterministic)
{
    Zuc::Key key = key_of({9, 8, 7});
    Zuc::Iv iv{};
    Zuc zuc(key, iv);
    uint32_t first = zuc.next();
    zuc.init(key, iv);
    EXPECT_EQ(zuc.next(), first);
}

TEST(Eea3, RoundTripIsIdentity)
{
    Zuc::Key key = key_of({0x17, 0x3d, 0x14, 0xba});
    std::vector<uint8_t> msg(257);
    std::iota(msg.begin(), msg.end(), 0);
    std::vector<uint8_t> original = msg;

    eea3_crypt(key, 0x12345678, 0x0a, 1, msg.data(), msg.size() * 8);
    EXPECT_NE(msg, original);
    eea3_crypt(key, 0x12345678, 0x0a, 1, msg.data(), msg.size() * 8);
    EXPECT_EQ(msg, original);
}

TEST(Eea3, DifferentCountsGiveDifferentStreams)
{
    Zuc::Key key{};
    std::vector<uint8_t> a(64, 0), b(64, 0);
    eea3_crypt(key, 1, 0, 0, a.data(), a.size() * 8);
    eea3_crypt(key, 2, 0, 0, b.data(), b.size() * 8);
    EXPECT_NE(a, b);
}

TEST(Eea3, PartialBitLengthMasksTail)
{
    Zuc::Key key{};
    std::vector<uint8_t> data(8, 0xff);
    // 35 bits: 4 full bytes + 3 bits of the 5th byte.
    eea3_crypt(key, 0, 0, 0, data.data(), 35);
    // Bits below the 3 kept bits of byte 4 must be zeroed by the spec.
    EXPECT_EQ(data[4] & 0x1f, 0);
    // Bytes beyond the message must be untouched.
    EXPECT_EQ(data[5], 0xff);
    EXPECT_EQ(data[6], 0xff);
    EXPECT_EQ(data[7], 0xff);
}

TEST(Eea3, ZeroLengthLeavesBufferUntouched)
{
    Zuc::Key key = key_of({0x5a});
    std::vector<uint8_t> data(9, 0xa5);
    eea3_crypt(key, 3, 4, 1, data.data() + 1, 0);
    EXPECT_EQ(data, std::vector<uint8_t>(9, 0xa5))
        << "no byte before, at or after an empty message may change";
    eea3_crypt(key, 3, 4, 1, nullptr, 0);
}

/** Encrypt @p length_bits of a 0xff-filled 16-byte buffer with both
 *  the kernel and the reference; return whether they agree. */
::testing::AssertionResult masks_like_reference(size_t length_bits)
{
    Zuc::Key key = key_of({0x11, 0x22, 0x33});
    std::vector<uint8_t> fast(16, 0xff), ref(16, 0xff);
    eea3_crypt(key, 0xabcdef01, 0x1f, 1, fast.data(), length_bits);
    reference::eea3_crypt(key, 0xabcdef01, 0x1f, 1, ref.data(),
                          length_bits);
    if (fast == ref)
        return ::testing::AssertionSuccess();
    return ::testing::AssertionFailure()
           << "length_bits=" << length_bits << " differs from reference";
}

TEST(Eea3, SubByteLengthsMaskLikeReference)
{
    for (size_t bits = 1; bits <= 7; ++bits) {
        EXPECT_TRUE(masks_like_reference(bits));
        std::vector<uint8_t> data(2, 0xff);
        eea3_crypt(key_of({0x11}), 0, 0, 0, data.data(), bits);
        EXPECT_EQ(data[0] & (0xff >> bits), 0) << "bits=" << bits;
        EXPECT_EQ(data[1], 0xff) << "bits=" << bits;
    }
}

TEST(Eea3, WordTailLengthsMaskLikeReference)
{
    // 4n+1 .. 4n+3 whole bytes leave a one- to three-byte word tail;
    // add every partial-bit count on top of each.
    for (size_t n = 0; n < 3; ++n) {
        for (size_t tail = 1; tail <= 3; ++tail) {
            for (size_t extra = 0; extra < 8; ++extra)
                EXPECT_TRUE(masks_like_reference((4 * n + tail) * 8 + extra));
        }
    }
}

// 128-EEA3 spec test set 1.
TEST(Eea3, SpecVector1)
{
    Zuc::Key key = {0x17, 0x3d, 0x14, 0xba, 0x50, 0x03, 0x73, 0x1d,
                    0x7a, 0x60, 0x04, 0x94, 0x70, 0xf0, 0x0a, 0x29};
    uint32_t count = 0x66035492;
    uint8_t bearer = 0xf;
    uint8_t direction = 0;
    size_t length_bits = 193;
    uint8_t data[28] = {0x6c, 0xf6, 0x53, 0x40, 0x73, 0x55, 0x52,
                        0xab, 0x0c, 0x97, 0x52, 0xfa, 0x6f, 0x90,
                        0x25, 0xfe, 0x0b, 0xd6, 0x75, 0xd9, 0x00,
                        0x58, 0x75, 0xb2, 0x00, 0x00, 0x00, 0x00};
    const uint8_t expect[28] = {
        0xa6, 0xc8, 0x5f, 0xc6, 0x6a, 0xfb, 0x85, 0x33, 0xaa, 0xfc,
        0x25, 0x18, 0xdf, 0xe7, 0x84, 0x94, 0x0e, 0xe1, 0xe4, 0xb0,
        0x30, 0x23, 0x8c, 0xc8, 0x00, 0x00, 0x00, 0x00};
    eea3_crypt(key, count, bearer, direction, data, length_bits);
    EXPECT_EQ(std::memcmp(data, expect, 25), 0)
        << "first 200 bits of ciphertext differ";
}

// 128-EIA3 spec test set 1: all-zero key, zero-length-ish message.
TEST(Eia3, SpecVector1)
{
    Zuc::Key key{};
    uint8_t data[4] = {0, 0, 0, 0};
    uint32_t mac = eia3_mac(key, 0, 0, 0, data, 1);
    EXPECT_EQ(mac, 0xc8a9595eu);
}

TEST(Eia3, MacChangesWithMessageBit)
{
    Zuc::Key key = key_of({1, 2, 3, 4});
    uint8_t a[8] = {};
    uint8_t b[8] = {};
    b[7] = 0x01;
    EXPECT_NE(eia3_mac(key, 5, 3, 0, a, 64), eia3_mac(key, 5, 3, 0, b, 64));
}

TEST(Eia3, MacChangesWithDirection)
{
    Zuc::Key key = key_of({1});
    uint8_t data[4] = {0xde, 0xad, 0xbe, 0xef};
    EXPECT_NE(eia3_mac(key, 0, 0, 0, data, 32),
              eia3_mac(key, 0, 0, 1, data, 32));
}

TEST(Eia3, DeterministicMac)
{
    Zuc::Key key = key_of({0xaa, 0xbb});
    uint8_t data[16] = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15};
    EXPECT_EQ(eia3_mac(key, 7, 2, 1, data, 128),
              eia3_mac(key, 7, 2, 1, data, 128));
}

} // namespace
} // namespace fld::crypto
