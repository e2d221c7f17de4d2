/**
 * @file
 * Protocol header codecs: Ethernet, IPv4, UDP, TCP, VXLAN.
 *
 * Headers are encoded to/decoded from real network-order bytes so that
 * checksum offloads, RSS hashing, and defragmentation operate on
 * faithful wire formats.
 */
#ifndef FLD_NET_HEADERS_H
#define FLD_NET_HEADERS_H

#include <array>
#include <cstdint>
#include <optional>

#include "net/packet.h"

namespace fld::net {

using MacAddr = std::array<uint8_t, 6>;

constexpr uint16_t kEtherTypeIpv4 = 0x0800;
constexpr uint16_t kEtherTypeArp = 0x0806;

constexpr uint8_t kIpProtoTcp = 6;
constexpr uint8_t kIpProtoUdp = 17;

constexpr uint16_t kVxlanPort = 4789;
constexpr uint16_t kCoapPort = 5683;

constexpr size_t kEthHeaderLen = 14;
constexpr size_t kIpv4HeaderLen = 20; // without options
constexpr size_t kUdpHeaderLen = 8;
constexpr size_t kTcpHeaderLen = 20; // without options
constexpr size_t kVxlanHeaderLen = 8;

/** Ethernet II header. */
struct EthHeader
{
    MacAddr dst{};
    MacAddr src{};
    uint16_t ethertype = kEtherTypeIpv4;

    void encode(uint8_t* out) const;
    static EthHeader decode(const uint8_t* in);
};

/** IPv4 header (no options). */
struct Ipv4Header
{
    uint8_t tos = 0;
    uint16_t total_len = 0;
    uint16_t id = 0;
    bool dont_fragment = false;
    bool more_fragments = false;
    uint16_t frag_offset = 0; ///< in 8-byte units
    uint8_t ttl = 64;
    uint8_t proto = kIpProtoUdp;
    uint16_t checksum = 0;
    uint32_t src = 0;
    uint32_t dst = 0;

    bool is_fragment() const { return more_fragments || frag_offset != 0; }

    /** Encode; when @p fill_checksum, compute the header checksum. */
    void encode(uint8_t* out, bool fill_checksum = true) const;
    static Ipv4Header decode(const uint8_t* in);
};

/** UDP header. */
struct UdpHeader
{
    uint16_t sport = 0;
    uint16_t dport = 0;
    uint16_t length = 0;
    uint16_t checksum = 0;

    void encode(uint8_t* out) const;
    static UdpHeader decode(const uint8_t* in);
};

/** TCP header (no options). */
struct TcpHeader
{
    uint16_t sport = 0;
    uint16_t dport = 0;
    uint32_t seq = 0;
    uint32_t ack = 0;
    uint8_t flags = 0; ///< FIN=1 SYN=2 RST=4 PSH=8 ACK=16
    uint16_t window = 0xffff;
    uint16_t checksum = 0;

    void encode(uint8_t* out) const;
    static TcpHeader decode(const uint8_t* in);
};

/** VXLAN header (RFC 7348). */
struct VxlanHeader
{
    uint32_t vni = 0;

    void encode(uint8_t* out) const;
    static VxlanHeader decode(const uint8_t* in);
};

constexpr size_t kArpLen = 28; ///< Ethernet/IPv4 ARP body

/** ARP for IPv4 over Ethernet (RFC 826), carried after an Ethernet
 *  header with ethertype kEtherTypeArp. */
struct ArpHeader
{
    static constexpr uint16_t kRequest = 1;
    static constexpr uint16_t kReply = 2;

    uint16_t oper = kRequest;
    MacAddr sender_mac{};
    uint32_t sender_ip = 0;
    MacAddr target_mac{}; ///< all-zero in requests
    uint32_t target_ip = 0;

    void encode(uint8_t* out) const;
    /** Empty when htype/ptype/hlen/plen are not Ethernet/IPv4. */
    static std::optional<ArpHeader> decode(const uint8_t* in, size_t len);
};

/**
 * The one header walk: offsets plus the fields the datapath steers,
 * hashes and checksums on. Callers that need a full header object
 * (TCP seq/flags, IP id, MACs) decode it at the returned offset, e.g.
 * TcpHeader::decode(pkt.bytes() + pp.l4_offset). A layer that did not
 * parse leaves its has_* flag false and its fields zero.
 */
struct ParsedPacket
{
    bool has_eth = false;
    bool has_ipv4 = false;
    bool has_udp = false;
    bool has_tcp = false;
    bool has_vxlan = false;

    uint16_t ethertype = 0;    ///< with has_eth
    uint8_t ihl = 0;           ///< IPv4 header bytes (20..60)
    uint8_t proto = 0;         ///< with has_ipv4
    uint16_t total_len = 0;    ///< IPv4 total length, as on the wire
    bool more_fragments = false;
    uint16_t frag_offset = 0;  ///< in 8-byte units
    uint32_t src_ip = 0;
    uint32_t dst_ip = 0;
    uint16_t sport = 0;        ///< with has_udp or has_tcp
    uint16_t dport = 0;
    uint32_t vni = 0;          ///< with has_vxlan

    size_t l3_offset = 0;      ///< start of IPv4 header
    size_t l4_offset = 0;      ///< start of UDP/TCP header
    size_t payload_offset = 0; ///< start of L4 payload
    size_t payload_len = 0;

    bool has_l4() const { return has_udp || has_tcp; }
    bool is_ip_fragment() const
    {
        return has_ipv4 && (more_fragments || frag_offset != 0);
    }
};

/**
 * Parse Ethernet/IPv4/{UDP,TCP}/VXLAN in one pass. Does not look
 * inside VXLAN; parse the decapsulated frame for that. For IP
 * fragments with non-zero offset, L4 headers are not parsed (they are
 * only present in the first fragment). A frame whose IHL is below 5,
 * or whose IPv4 header runs past the frame, is not IPv4: every
 * consumer of has_ipv4 may read ihl bytes at l3_offset.
 */
ParsedPacket parse(const Packet& pkt);

/**
 * Convenience builder assembling Ethernet/IPv4/{UDP,TCP}/payload
 * packets with correct lengths and checksums.
 */
class PacketBuilder
{
  public:
    PacketBuilder& eth(const MacAddr& src, const MacAddr& dst);
    PacketBuilder& ipv4(uint32_t src, uint32_t dst, uint8_t proto,
                        uint16_t id = 0, uint8_t ttl = 64);
    PacketBuilder& udp(uint16_t sport, uint16_t dport);
    PacketBuilder& tcp(uint16_t sport, uint16_t dport, uint32_t seq,
                       uint32_t ack, uint8_t flags);
    PacketBuilder& payload(const uint8_t* data, size_t len);
    PacketBuilder& payload(const std::vector<uint8_t>& data)
    {
        return payload(data.data(), data.size());
    }

    /** Assemble bytes, fix lengths, compute checksums. */
    Packet build() const;

  private:
    std::optional<EthHeader> eth_;
    std::optional<Ipv4Header> ip_;
    std::optional<UdpHeader> udp_;
    std::optional<TcpHeader> tcp_;
    std::vector<uint8_t> payload_;
};

/**
 * Encapsulate @p inner (a full Ethernet frame) in
 * outer-Eth/IPv4/UDP/VXLAN. @p decapsulate reverses it, returning the
 * inner frame (meta.tunneled/vni set).
 */
Packet vxlan_encapsulate(const Packet& inner, uint32_t vni,
                         uint32_t outer_src_ip, uint32_t outer_dst_ip,
                         const MacAddr& outer_src_mac,
                         const MacAddr& outer_dst_mac);
std::optional<Packet> vxlan_decapsulate(const Packet& outer);

/** Build an IPv4 address from dotted components. */
constexpr uint32_t ipv4_addr(uint8_t a, uint8_t b, uint8_t c, uint8_t d)
{
    return uint32_t(a) << 24 | uint32_t(b) << 16 | uint32_t(c) << 8 | d;
}

} // namespace fld::net

#endif // FLD_NET_HEADERS_H
