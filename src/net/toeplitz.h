/**
 * @file
 * Toeplitz hash used by receive-side scaling (RSS).
 *
 * The NIC model hashes the IPv4 5-tuple with the standard Microsoft
 * RSS key to select a receive queue / host core. The defragmentation
 * experiment (§8.2.2) hinges on this hash being unavailable for IP
 * fragments, which collapses traffic onto a single core.
 */
#ifndef FLD_NET_TOEPLITZ_H
#define FLD_NET_TOEPLITZ_H

#include <array>
#include <cstdint>
#include <cstddef>

namespace fld::net {

constexpr size_t kRssKeyLen = 40;
using RssKey = std::array<uint8_t, kRssKeyLen>;

/** The de-facto standard Microsoft RSS hash key. */
const RssKey& default_rss_key();

/**
 * Toeplitz hash tables for one key. Toeplitz is linear over XOR, so
 * each input byte contributes table[position][value] independently;
 * hashing is one lookup per input byte. Input bytes past the key's
 * window (position >= kRssKeyLen) meet only zero key bits and
 * contribute nothing.
 */
class ToeplitzTable
{
  public:
    explicit ToeplitzTable(const RssKey& key);

    /** Toeplitz hash over an arbitrary input byte string. */
    uint32_t hash(const uint8_t* input, size_t len) const;
    /** Hash over the IPv4 4-tuple (src, dst, sport, dport). */
    uint32_t ipv4(uint32_t src_ip, uint32_t dst_ip, uint16_t sport,
                  uint16_t dport) const;

  private:
    std::array<std::array<uint32_t, 256>, kRssKeyLen> table_;
};

/** Tables for default_rss_key(), built once. */
const ToeplitzTable& default_rss_table();

} // namespace fld::net

#endif // FLD_NET_TOEPLITZ_H
