#include "crypto/zuc.h"

#include <algorithm>
#include <iterator>
#include <utility>

#include "util/bitops.h"

namespace fld::crypto {

namespace {

// S-boxes S0 and S1 from the ZUC specification (ETSI/SAGE v1.6).
constexpr uint8_t kS0[256] = {
    0x3e, 0x72, 0x5b, 0x47, 0xca, 0xe0, 0x00, 0x33, 0x04, 0xd1, 0x54,
    0x98, 0x09, 0xb9, 0x6d, 0xcb, 0x7b, 0x1b, 0xf9, 0x32, 0xaf, 0x9d,
    0x6a, 0xa5, 0xb8, 0x2d, 0xfc, 0x1d, 0x08, 0x53, 0x03, 0x90, 0x4d,
    0x4e, 0x84, 0x99, 0xe4, 0xce, 0xd9, 0x91, 0xdd, 0xb6, 0x85, 0x48,
    0x8b, 0x29, 0x6e, 0xac, 0xcd, 0xc1, 0xf8, 0x1e, 0x73, 0x43, 0x69,
    0xc6, 0xb5, 0xbd, 0xfd, 0x39, 0x63, 0x20, 0xd4, 0x38, 0x76, 0x7d,
    0xb2, 0xa7, 0xcf, 0xed, 0x57, 0xc5, 0xf3, 0x2c, 0xbb, 0x14, 0x21,
    0x06, 0x55, 0x9b, 0xe3, 0xef, 0x5e, 0x31, 0x4f, 0x7f, 0x5a, 0xa4,
    0x0d, 0x82, 0x51, 0x49, 0x5f, 0xba, 0x58, 0x1c, 0x4a, 0x16, 0xd5,
    0x17, 0xa8, 0x92, 0x24, 0x1f, 0x8c, 0xff, 0xd8, 0xae, 0x2e, 0x01,
    0xd3, 0xad, 0x3b, 0x4b, 0xda, 0x46, 0xeb, 0xc9, 0xde, 0x9a, 0x8f,
    0x87, 0xd7, 0x3a, 0x80, 0x6f, 0x2f, 0xc8, 0xb1, 0xb4, 0x37, 0xf7,
    0x0a, 0x22, 0x13, 0x28, 0x7c, 0xcc, 0x3c, 0x89, 0xc7, 0xc3, 0x96,
    0x56, 0x07, 0xbf, 0x7e, 0xf0, 0x0b, 0x2b, 0x97, 0x52, 0x35, 0x41,
    0x79, 0x61, 0xa6, 0x4c, 0x10, 0xfe, 0xbc, 0x26, 0x95, 0x88, 0x8a,
    0xb0, 0xa3, 0xfb, 0xc0, 0x18, 0x94, 0xf2, 0xe1, 0xe5, 0xe9, 0x5d,
    0xd0, 0xdc, 0x11, 0x66, 0x64, 0x5c, 0xec, 0x59, 0x42, 0x75, 0x12,
    0xf5, 0x74, 0x9c, 0xaa, 0x23, 0x0e, 0x86, 0xab, 0xbe, 0x2a, 0x02,
    0xe7, 0x67, 0xe6, 0x44, 0xa2, 0x6c, 0xc2, 0x93, 0x9f, 0xf1, 0xf6,
    0xfa, 0x36, 0xd2, 0x50, 0x68, 0x9e, 0x62, 0x71, 0x15, 0x3d, 0xd6,
    0x40, 0xc4, 0xe2, 0x0f, 0x8e, 0x83, 0x77, 0x6b, 0x25, 0x05, 0x3f,
    0x0c, 0x30, 0xea, 0x70, 0xb7, 0xa1, 0xe8, 0xa9, 0x65, 0x8d, 0x27,
    0x1a, 0xdb, 0x81, 0xb3, 0xa0, 0xf4, 0x45, 0x7a, 0x19, 0xdf, 0xee,
    0x78, 0x34, 0x60,
};

constexpr uint8_t kS1[256] = {
    0x55, 0xc2, 0x63, 0x71, 0x3b, 0xc8, 0x47, 0x86, 0x9f, 0x3c, 0xda,
    0x5b, 0x29, 0xaa, 0xfd, 0x77, 0x8c, 0xc5, 0x94, 0x0c, 0xa6, 0x1a,
    0x13, 0x00, 0xe3, 0xa8, 0x16, 0x72, 0x40, 0xf9, 0xf8, 0x42, 0x44,
    0x26, 0x68, 0x96, 0x81, 0xd9, 0x45, 0x3e, 0x10, 0x76, 0xc6, 0xa7,
    0x8b, 0x39, 0x43, 0xe1, 0x3a, 0xb5, 0x56, 0x2a, 0xc0, 0x6d, 0xb3,
    0x05, 0x22, 0x66, 0xbf, 0xdc, 0x0b, 0xfa, 0x62, 0x48, 0xdd, 0x20,
    0x11, 0x06, 0x36, 0xc9, 0xc1, 0xcf, 0xf6, 0x27, 0x52, 0xbb, 0x69,
    0xf5, 0xd4, 0x87, 0x7f, 0x84, 0x4c, 0xd2, 0x9c, 0x57, 0xa4, 0xbc,
    0x4f, 0x9a, 0xdf, 0xfe, 0xd6, 0x8d, 0x7a, 0xeb, 0x2b, 0x53, 0xd8,
    0x5c, 0xa1, 0x14, 0x17, 0xfb, 0x23, 0xd5, 0x7d, 0x30, 0x67, 0x73,
    0x08, 0x09, 0xee, 0xb7, 0x70, 0x3f, 0x61, 0xb2, 0x19, 0x8e, 0x4e,
    0xe5, 0x4b, 0x93, 0x8f, 0x5d, 0xdb, 0xa9, 0xad, 0xf1, 0xae, 0x2e,
    0xcb, 0x0d, 0xfc, 0xf4, 0x2d, 0x46, 0x6e, 0x1d, 0x97, 0xe8, 0xd1,
    0xe9, 0x4d, 0x37, 0xa5, 0x75, 0x5e, 0x83, 0x9e, 0xab, 0x82, 0x9d,
    0xb9, 0x1c, 0xe0, 0xcd, 0x49, 0x89, 0x01, 0xb6, 0xbd, 0x58, 0x24,
    0xa2, 0x5f, 0x38, 0x78, 0x99, 0x15, 0x90, 0x50, 0xb8, 0x95, 0xe4,
    0xd0, 0x91, 0xc7, 0xce, 0xed, 0x0f, 0xb4, 0x6f, 0xa0, 0xcc, 0xf0,
    0x02, 0x4a, 0x79, 0xc3, 0xde, 0xa3, 0xef, 0xea, 0x51, 0xe6, 0x6b,
    0x18, 0xec, 0x1b, 0x2c, 0x80, 0xf7, 0x74, 0xe7, 0xff, 0x21, 0x5a,
    0x6a, 0x54, 0x1e, 0x41, 0x31, 0x92, 0x35, 0xc4, 0x33, 0x07, 0x0a,
    0xba, 0x7e, 0x0e, 0x34, 0x88, 0xb1, 0x98, 0x7c, 0xf3, 0x3d, 0x60,
    0x6c, 0x7b, 0xca, 0xd3, 0x1f, 0x32, 0x65, 0x04, 0x28, 0x64, 0xbe,
    0x85, 0x9b, 0x2f, 0x59, 0x8a, 0xd7, 0xb0, 0x25, 0xac, 0xaf, 0x12,
    0x03, 0xe2, 0xf2,
};

// 15-bit key-loading constants d0..d15.
constexpr uint16_t kD[16] = {
    0x44d7, 0x26bc, 0x626b, 0x135e, 0x5789, 0x35e2, 0x7135, 0x09af,
    0x4d78, 0x2f13, 0x6bc4, 0x1af1, 0x5e26, 0x3c4d, 0x789a, 0x47ac,
};

inline uint32_t
l1(uint32_t x)
{
    return x ^ rotl32(x, 2) ^ rotl32(x, 10) ^ rotl32(x, 18) ^ rotl32(x, 24);
}

inline uint32_t
l2(uint32_t x)
{
    return x ^ rotl32(x, 8) ^ rotl32(x, 14) ^ rotl32(x, 22) ^ rotl32(x, 30);
}

/** The byte-wise S-box S = (S0, S1, S0, S1) as four tables whose
 *  entries already sit in their output byte lane. */
struct SboxLanes
{
    uint32_t lane[4][256];
};

constexpr SboxLanes
make_sbox_lanes()
{
    SboxLanes t{};
    for (int b = 0; b < 256; ++b) {
        t.lane[0][b] = uint32_t(kS0[b]) << 24;
        t.lane[1][b] = uint32_t(kS1[b]) << 16;
        t.lane[2][b] = uint32_t(kS0[b]) << 8;
        t.lane[3][b] = uint32_t(kS1[b]);
    }
    return t;
}

constexpr SboxLanes kSbox = make_sbox_lanes();

inline uint32_t
sbox(uint32_t x)
{
    return kSbox.lane[0][x >> 24] | kSbox.lane[1][(x >> 16) & 0xff] |
           kSbox.lane[2][(x >> 8) & 0xff] | kSbox.lane[3][x & 0xff];
}

/**
 * One ZUC round over the window whose cell s_i sits at s[(J + i) & 15]:
 * bit reorganization, the nonlinear function F, then the LFSR step,
 * which writes s_16 into s_0's slot s[J]. Initialization mode adds
 * W >> 1 to the feedback. Returns the keystream word Z = W ^ X3.
 */
template <unsigned J, bool Init>
inline uint32_t
step(uint32_t* s, uint32_t& r1, uint32_t& r2)
{
    auto cell = [s](unsigned i) { return s[(J + i) & 15]; };

    // X0 = s15H||s14L, X1 = s11L||s9H, X2 = s7L||s5H, X3 = s2L||s0H,
    // with H the cell's bits 30..15 and L its bits 15..0.
    uint32_t x0 = (cell(15) & 0x7fff8000) << 1 | (cell(14) & 0xffff);
    uint32_t x1 = cell(11) << 16 | cell(9) >> 15;
    uint32_t x2 = cell(7) << 16 | cell(5) >> 15;
    uint32_t x3 = cell(2) << 16 | cell(0) >> 15;

    uint32_t w = (x0 ^ r1) + r2; // mod 2^32
    uint32_t w1 = r1 + x1;
    uint32_t w2 = r2 ^ x2;
    r1 = sbox(l1(w1 << 16 | w2 >> 16));
    r2 = sbox(l2(w2 << 16 | w1 >> 16));

    // s16 = 2^15 s15 + 2^17 s13 + 2^21 s10 + 2^20 s4 + (1 + 2^8) s0
    // (+ W >> 1) mod 2^31 - 1, summed as plain integers: with 31-bit
    // cells the 2^21 term is below 2^52 and the rest add up to less
    // than 2^52, so the sum stays below 2^53. Since 2^31 = 1 mod
    // 2^31 - 1, adding the bits above bit 30 back in keeps the residue.
    // The first fold leaves less than 2^31 + 2^22, the second lands in
    // [0, 2^31 - 1], and 0 stands for 2^31 - 1 as in the spec.
    uint64_t v = (uint64_t(cell(15)) << 15) + (uint64_t(cell(13)) << 17) +
                 (uint64_t(cell(10)) << 21) + (uint64_t(cell(4)) << 20) +
                 (uint64_t(cell(0)) << 8) + cell(0);
    if constexpr (Init)
        v += w >> 1;
    uint32_t f = uint32_t((v & 0x7fffffff) + (v >> 31));
    f = (f & 0x7fffffff) + (f >> 31);
    s[J] = f == 0 ? 0x7fffffff : f;
    return w ^ x3;
}

/** 16 consecutive rounds, the first on the window starting at s[Start];
 *  round K's keystream word goes to z[K]. */
template <unsigned Start, bool Init, size_t... K>
inline void
rounds(uint32_t* s, uint32_t& r1, uint32_t& r2, uint32_t* z,
       std::index_sequence<K...>)
{
    ((z[K] = step<(Start + K) & 15, Init>(s, r1, r2)), ...);
}

constexpr auto kSixteen = std::make_index_sequence<16>{};

} // namespace

void
Zuc::init(const Key& key, const Iv& iv)
{
    // Key loading: s_i = k_i || d_i || iv_i (8 + 15 + 8 = 31 bits).
    uint32_t s[16];
    for (int i = 0; i < 16; ++i) {
        s[i] = uint32_t(key[i]) << 23 | uint32_t(kD[i]) << 8 |
               uint32_t(iv[i]);
    }
    uint32_t r1 = 0, r2 = 0;

    // 32 initialization rounds feed W >> 1 back into the LFSR.
    uint32_t unused[16];
    rounds<0, true>(s, r1, r2, unused, kSixteen);
    rounds<0, true>(s, r1, r2, unused, kSixteen);
    // The first working-mode round discards its output and leaves the
    // window starting at s[1], where refill() expects it.
    (void)step<0, false>(s, r1, r2);
    save(s, r1, r2);
    pos_ = kBlock;
}

void
Zuc::refill()
{
    // The rounds run on locals, so the block_ stores cannot alias the
    // state and it stays in registers.
    uint32_t s[16];
    std::copy(std::begin(lfsr_), std::end(lfsr_), s);
    uint32_t r1 = r1_, r2 = r2_;
    rounds<1, false>(s, r1, r2, block_, kSixteen);
    save(s, r1, r2);
    pos_ = 0;
}

void
Zuc::save(const uint32_t* s, uint32_t r1, uint32_t r2)
{
    std::copy(s, s + 16, lfsr_);
    r1_ = r1;
    r2_ = r2;
}

std::vector<uint32_t>
Zuc::generate(size_t n)
{
    std::vector<uint32_t> out(n);
    for (auto& w : out)
        w = next();
    return out;
}

void
eea3_crypt(const Zuc::Key& key, uint32_t count, uint8_t bearer,
           uint8_t direction, uint8_t* data, size_t length_bits)
{
    Zuc::Iv iv{};
    iv[0] = uint8_t(count >> 24);
    iv[1] = uint8_t(count >> 16);
    iv[2] = uint8_t(count >> 8);
    iv[3] = uint8_t(count);
    iv[4] = uint8_t(((bearer & 0x1f) << 3) | ((direction & 1) << 2));
    iv[5] = iv[6] = iv[7] = 0;
    for (int i = 0; i < 8; ++i)
        iv[8 + i] = iv[i];

    Zuc zuc(key, iv);
    // Four message bytes per big-endian keystream word; the last one to
    // three bytes take the top bytes of one more word.
    size_t nbytes = (length_bits + 7) / 8;
    uint8_t* p = data;
    for (uint8_t* end = data + nbytes / 4 * 4; p != end; p += 4)
        store_be32(p, load_be32(p) ^ zuc.next());
    if (size_t tail = nbytes % 4) {
        uint32_t z = zuc.next();
        for (size_t b = 0; b < tail; ++b)
            p[b] ^= uint8_t(z >> (24 - 8 * b));
    }
    // A partial final byte keeps only its top length_bits % 8 bits.
    if (unsigned keep = length_bits % 8)
        data[nbytes - 1] &= uint8_t(0xff << (8 - keep));
}

namespace {
/**
 * EIA3's contribution of one 32-bit message word @p m: the XOR, over
 * every set bit j of m counted from the most significant, of the
 * keystream word starting j bits into the 64-bit window @p win (a
 * carry-less multiply). It runs a nibble at a time: tab[n] is the XOR
 * of win << i over the set bits i of nibble n, i counted from the
 * nibble's top bit, so nibble p of m contributes tab[n] shifted down
 * by 32 - 4p. The bits win << i drops off the top are never needed.
 */
inline uint32_t
mac_word(uint32_t m, uint64_t win)
{
    uint64_t tab[16];
    tab[0] = 0;
    tab[1] = win << 3;
    tab[2] = win << 2;
    tab[4] = win << 1;
    tab[8] = win;
    for (unsigned n = 3; n < 16; ++n)
        if (n & (n - 1))
            tab[n] = tab[n & (n - 1)] ^ tab[n & (0u - n)];
    uint32_t t = 0;
    for (unsigned p = 0; p < 8; ++p)
        t ^= uint32_t(tab[(m >> (28 - 4 * p)) & 15] >> (32 - 4 * p));
    return t;
}
} // namespace

uint32_t
eia3_mac(const Zuc::Key& key, uint32_t count, uint8_t bearer,
         uint8_t direction, const uint8_t* data, size_t length_bits)
{
    Zuc::Iv iv{};
    iv[0] = uint8_t(count >> 24);
    iv[1] = uint8_t(count >> 16);
    iv[2] = uint8_t(count >> 8);
    iv[3] = uint8_t(count);
    iv[4] = uint8_t((bearer & 0x1f) << 3);
    iv[5] = iv[6] = iv[7] = 0;
    iv[8] = uint8_t(iv[0] ^ ((direction & 1) << 7));
    iv[9] = iv[1];
    iv[10] = iv[2];
    iv[11] = iv[3];
    iv[12] = iv[4];
    iv[13] = iv[5];
    iv[14] = uint8_t(iv[6] ^ ((direction & 1) << 7));
    iv[15] = iv[7];

    Zuc zuc(key, iv);
    // win holds keystream words z[w], z[w + 1] while message word w is
    // folded in; each full word slides it on by one keystream word.
    uint64_t win = uint64_t(zuc.next()) << 32;
    win |= zuc.next();
    uint32_t t = 0;
    const size_t full = length_bits / 32;
    for (size_t w = 0; w < full; ++w, data += 4) {
        t ^= mac_word(load_be32(data), win);
        win = win << 32 | zuc.next();
    }
    // A partial last word: its bytes, with bits past the end cleared.
    const unsigned rest = length_bits % 32;
    if (rest) {
        uint32_t m = 0;
        for (unsigned b = 0; b < (rest + 7) / 8; ++b)
            m |= uint32_t(data[b]) << (24 - 8 * b);
        t ^= mac_word(m & ~(0xffffffffu >> rest), win);
    }
    // T ^= the keystream word at bit length_bits; the MAC is that
    // T ^ z[ceil(length_bits / 32) + 1].
    t ^= uint32_t(win >> (32 - rest));
    return t ^ (rest ? zuc.next() : uint32_t(win));
}

} // namespace fld::crypto
