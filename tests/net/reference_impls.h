/**
 * @file
 * Reference implementations the production code is checked against:
 * the original optional-per-header packet parser and the bit-serial
 * Toeplitz hash. They live only under tests/ so src/ keeps exactly one
 * header walk (net::parse) and one Toeplitz (net::ToeplitzTable).
 */
#ifndef FLD_TESTS_NET_REFERENCE_IMPLS_H
#define FLD_TESTS_NET_REFERENCE_IMPLS_H

#include <cstddef>
#include <cstdint>
#include <optional>

#include "net/headers.h"
#include "net/toeplitz.h"

namespace fld::net::reference {

/** Header copies plus payload offsets; parse failures leave the
 *  corresponding optional empty. */
struct ParsedPacket
{
    std::optional<EthHeader> eth;
    std::optional<Ipv4Header> ipv4;
    std::optional<UdpHeader> udp;
    std::optional<TcpHeader> tcp;
    std::optional<VxlanHeader> vxlan;

    size_t l3_offset = 0;
    size_t l4_offset = 0;
    size_t payload_offset = 0;
    size_t payload_len = 0;
};

/** Parse Ethernet/IPv4/{UDP,TCP} starting at @p offset. Checks only the
 *  first 20 bytes of the IPv4 header, whatever its IHL says. */
ParsedPacket parse_at(const Packet& pkt, size_t offset);

/** Bit-serial Toeplitz: one branch per input bit. */
uint32_t toeplitz_hash(const RssKey& key, const uint8_t* input,
                       size_t len);

} // namespace fld::net::reference

#endif // FLD_TESTS_NET_REFERENCE_IMPLS_H
