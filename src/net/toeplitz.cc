#include "net/toeplitz.h"

#include "util/bitops.h"

namespace fld::net {

const RssKey&
default_rss_key()
{
    // Verbatim from the Microsoft RSS specification; also the default
    // key of mlx5, ixgbe and most other drivers.
    static const RssKey key = {
        0x6d, 0x5a, 0x56, 0xda, 0x25, 0x5b, 0x0e, 0xc2, 0x41, 0x67,
        0x25, 0x3d, 0x43, 0xa3, 0x8f, 0xb0, 0xd0, 0xca, 0x2b, 0xcb,
        0xae, 0x7b, 0x30, 0xb4, 0x77, 0xcb, 0x2d, 0xa3, 0x80, 0x30,
        0xf2, 0x0c, 0x6a, 0x42, 0xb7, 0x3b, 0xbe, 0xac, 0x01, 0xfa,
    };
    return key;
}

ToeplitzTable::ToeplitzTable(const RssKey& key)
{
    // Input bit b (0 = MSB) of byte i XORs in the 32 key bits starting
    // at bit 8i + b; key bits past the end are zero.
    auto window = [&key](size_t bit) {
        uint64_t w = 0;
        for (size_t k = 0; k < 8; ++k) {
            size_t idx = bit / 8 + k;
            w = w << 8 | (idx < kRssKeyLen ? key[idx] : 0);
        }
        return uint32_t(w >> (32 - bit % 8));
    };
    for (size_t i = 0; i < kRssKeyLen; ++i) {
        auto& t = table_[i];
        t[0] = 0;
        for (int b = 0; b < 8; ++b)
            t[0x80u >> b] = window(8 * i + size_t(b));
        for (uint32_t v = 1; v < 256; ++v) {
            uint32_t low = v & -v;
            if (v != low)
                t[v] = t[v & (v - 1)] ^ t[low];
        }
    }
}

uint32_t
ToeplitzTable::hash(const uint8_t* input, size_t len) const
{
    uint32_t result = 0;
    if (len > kRssKeyLen)
        len = kRssKeyLen;
    for (size_t i = 0; i < len; ++i)
        result ^= table_[i][input[i]];
    return result;
}

uint32_t
ToeplitzTable::ipv4(uint32_t src_ip, uint32_t dst_ip, uint16_t sport,
                    uint16_t dport) const
{
    uint8_t input[12];
    store_be32(input, src_ip);
    store_be32(input + 4, dst_ip);
    store_be16(input + 8, sport);
    store_be16(input + 10, dport);
    return hash(input, sizeof(input));
}

const ToeplitzTable&
default_rss_table()
{
    static const ToeplitzTable table(default_rss_key());
    return table;
}

} // namespace fld::net
