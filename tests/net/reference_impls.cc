#include "tests/net/reference_impls.h"

#include <algorithm>

#include "util/bitops.h"

namespace fld::net::reference {

ParsedPacket
parse_at(const Packet& pkt, size_t offset)
{
    ParsedPacket out;
    const uint8_t* p = pkt.bytes();
    size_t len = pkt.size();

    if (offset + kEthHeaderLen > len)
        return out;
    out.eth = EthHeader::decode(p + offset);
    size_t pos = offset + kEthHeaderLen;
    if (out.eth->ethertype != kEtherTypeIpv4) {
        out.payload_offset = pos;
        out.payload_len = len - pos;
        return out;
    }

    if (pos + kIpv4HeaderLen > len)
        return out;
    out.l3_offset = pos;
    out.ipv4 = Ipv4Header::decode(p + pos);
    size_t ihl = (p[pos] & 0x0f) * 4;
    size_t ip_payload = std::min<size_t>(out.ipv4->total_len, len - pos);
    ip_payload = ip_payload >= ihl ? ip_payload - ihl : 0;
    pos += ihl;
    out.l4_offset = pos;

    // Non-first fragments carry no L4 header.
    if (out.ipv4->frag_offset != 0) {
        out.payload_offset = pos;
        out.payload_len = ip_payload;
        return out;
    }

    if (out.ipv4->proto == kIpProtoUdp && pos + kUdpHeaderLen <= len) {
        out.udp = UdpHeader::decode(p + pos);
        out.payload_offset = pos + kUdpHeaderLen;
        out.payload_len = ip_payload >= kUdpHeaderLen
                              ? ip_payload - kUdpHeaderLen : 0;
        if (out.udp->dport == kVxlanPort &&
            out.payload_offset + kVxlanHeaderLen <= len) {
            out.vxlan = VxlanHeader::decode(p + out.payload_offset);
        }
    } else if (out.ipv4->proto == kIpProtoTcp &&
               pos + kTcpHeaderLen <= len) {
        out.tcp = TcpHeader::decode(p + pos);
        size_t doff = (p[pos + 12] >> 4) * 4;
        out.payload_offset = pos + doff;
        out.payload_len = ip_payload >= doff ? ip_payload - doff : 0;
    } else {
        out.payload_offset = pos;
        out.payload_len = ip_payload;
    }
    return out;
}

uint32_t
toeplitz_hash(const RssKey& key, const uint8_t* input, size_t len)
{
    uint32_t result = 0;
    // Sliding 32-bit window over the key, one bit per input bit.
    uint32_t window = load_be32(key.data());
    size_t key_bit = 32;
    for (size_t i = 0; i < len; ++i) {
        uint8_t byte = input[i];
        for (int b = 7; b >= 0; --b) {
            if ((byte >> b) & 1)
                result ^= window;
            // Shift the window left by one, pulling in the next key bit.
            uint8_t next = key_bit < kRssKeyLen * 8
                               ? (key[key_bit / 8] >> (7 - key_bit % 8)) & 1
                               : 0;
            window = window << 1 | next;
            ++key_bit;
        }
    }
    return result;
}

} // namespace fld::net::reference
