/**
 * @file
 * Differential tests: net::parse against the original optional-per-
 * header parser, and the table-driven Toeplitz against the bit-serial
 * one (both references in tests/net/reference_impls.h).
 */
#include <gtest/gtest.h>

#include <vector>

#include "net/headers.h"
#include "net/ip_reassembly.h"
#include "net/toeplitz.h"
#include "tests/net/reference_impls.h"
#include "util/bitops.h"
#include "util/rng.h"

namespace fld::net {
namespace {

const MacAddr kMacA = {0x02, 0, 0, 0, 0, 0xaa};
const MacAddr kMacB = {0x02, 0, 0, 0, 0, 0xbb};

std::vector<uint8_t> random_bytes(Rng& rng, size_t n)
{
    std::vector<uint8_t> v(n);
    for (uint8_t& b : v)
        b = uint8_t(rng.next());
    return v;
}

Packet udp_frame(Rng& rng, uint16_t dport, size_t payload)
{
    return PacketBuilder()
        .eth(kMacA, kMacB)
        .ipv4(uint32_t(rng.next()), uint32_t(rng.next()), kIpProtoUdp,
              uint16_t(rng.next()))
        .udp(uint16_t(rng.next()), dport)
        .payload(random_bytes(rng, payload))
        .build();
}

Packet tcp_frame(Rng& rng, size_t payload)
{
    return PacketBuilder()
        .eth(kMacA, kMacB)
        .ipv4(uint32_t(rng.next()), uint32_t(rng.next()), kIpProtoTcp)
        .tcp(uint16_t(rng.next()), uint16_t(rng.next()),
             uint32_t(rng.next()), uint32_t(rng.next()), 0x18)
        .payload(random_bytes(rng, payload))
        .build();
}

Packet arp_frame(Rng& rng)
{
    Packet pkt;
    pkt.data.resize(kEthHeaderLen + kArpLen);
    EthHeader eh;
    eh.src = kMacA;
    eh.dst = kMacB;
    eh.ethertype = kEtherTypeArp;
    eh.encode(pkt.bytes());
    ArpHeader arp;
    arp.sender_ip = uint32_t(rng.next());
    arp.target_ip = uint32_t(rng.next());
    arp.encode(pkt.bytes() + kEthHeaderLen);
    return pkt;
}

/** Insert @p words of IPv4 options after the fixed header. */
Packet with_ip_options(Packet pkt, size_t words)
{
    uint8_t* ip = pkt.bytes() + kEthHeaderLen;
    ip[0] = uint8_t(0x40 | (5 + words));
    store_be16(ip + 2, uint16_t(load_be16(ip + 2) + 4 * words));
    pkt.data.insert(pkt.data.begin() + kEthHeaderLen + kIpv4HeaderLen,
                    4 * words, uint8_t(0x01)); // NOP options
    return pkt;
}

/** The reference accepted an IPv4 header whose IHL is below 5 or that
 *  runs past the frame; net::parse treats such a frame as not IPv4. */
bool malformed_ihl(const Packet& pkt, const reference::ParsedPacket& r)
{
    if (!r.ipv4)
        return false;
    size_t ihl = (pkt.bytes()[r.l3_offset] & 0x0f) * 4;
    return ihl < kIpv4HeaderLen || r.l3_offset + ihl > pkt.size();
}

/** Every offset and field net::parse reports must match the reference. */
void expect_agrees(const Packet& pkt, const char* what)
{
    SCOPED_TRACE(::testing::Message() << what << ", " << pkt.size()
                                      << " bytes");
    reference::ParsedPacket r = reference::parse_at(pkt, 0);
    ParsedPacket p = parse(pkt);

    ASSERT_EQ(p.has_eth, r.eth.has_value());
    if (r.eth) {
        EXPECT_EQ(p.ethertype, r.eth->ethertype);
    }
    if (malformed_ihl(pkt, r)) {
        // The one named exception: same as an IPv4 frame truncated
        // inside its fixed header.
        EXPECT_FALSE(p.has_ipv4);
        EXPECT_FALSE(p.has_udp || p.has_tcp || p.has_vxlan);
        EXPECT_EQ(p.l3_offset, 0u);
        EXPECT_EQ(p.l4_offset, 0u);
        EXPECT_EQ(p.payload_offset, 0u);
        EXPECT_EQ(p.payload_len, 0u);
        return;
    }
    ASSERT_EQ(p.has_ipv4, r.ipv4.has_value());
    if (r.ipv4) {
        EXPECT_EQ(p.ihl, (pkt.bytes()[r.l3_offset] & 0x0f) * 4);
        EXPECT_EQ(p.proto, r.ipv4->proto);
        EXPECT_EQ(p.total_len, r.ipv4->total_len);
        EXPECT_EQ(p.more_fragments, r.ipv4->more_fragments);
        EXPECT_EQ(p.frag_offset, r.ipv4->frag_offset);
        EXPECT_EQ(p.src_ip, r.ipv4->src);
        EXPECT_EQ(p.dst_ip, r.ipv4->dst);
        EXPECT_EQ(p.is_ip_fragment(), r.ipv4->is_fragment());
    }
    ASSERT_EQ(p.has_udp, r.udp.has_value());
    ASSERT_EQ(p.has_tcp, r.tcp.has_value());
    if (r.udp) {
        EXPECT_EQ(p.sport, r.udp->sport);
        EXPECT_EQ(p.dport, r.udp->dport);
    } else if (r.tcp) {
        EXPECT_EQ(p.sport, r.tcp->sport);
        EXPECT_EQ(p.dport, r.tcp->dport);
    } else {
        EXPECT_EQ(p.sport, 0);
        EXPECT_EQ(p.dport, 0);
    }
    ASSERT_EQ(p.has_vxlan, r.vxlan.has_value());
    if (r.vxlan) {
        EXPECT_EQ(p.vni, r.vxlan->vni);
    }
    EXPECT_EQ(p.l3_offset, r.l3_offset);
    EXPECT_EQ(p.l4_offset, r.l4_offset);
    EXPECT_EQ(p.payload_offset, r.payload_offset);
    EXPECT_EQ(p.payload_len, r.payload_len);
}

/** Check @p pkt and every truncation of it. */
void expect_agrees_truncated(const Packet& pkt, const char* what)
{
    for (size_t n = 0; n <= pkt.size(); ++n) {
        Packet cut(std::vector<uint8_t>(pkt.data.begin(),
                                        pkt.data.begin() + long(n)));
        expect_agrees(cut, what);
        if (::testing::Test::HasFatalFailure())
            return;
    }
}

TEST(ParseDiff, WellFormedFramesTruncatedAtEveryByte)
{
    Rng rng(0x9a75e);
    for (int i = 0; i < 20; ++i) {
        expect_agrees_truncated(udp_frame(rng, uint16_t(rng.next()),
                                          rng.uniform(64)),
                                "udp");
        expect_agrees_truncated(tcp_frame(rng, rng.uniform(64)), "tcp");
        Packet inner = udp_frame(rng, 80, rng.uniform(32));
        expect_agrees_truncated(
            vxlan_encapsulate(inner, uint32_t(rng.uniform(1 << 24)),
                              uint32_t(rng.next()), uint32_t(rng.next()),
                              kMacA, kMacB),
            "vxlan");
        expect_agrees_truncated(arp_frame(rng), "arp");
        expect_agrees_truncated(
            with_ip_options(udp_frame(rng, 53, rng.uniform(32)),
                            1 + rng.uniform(10)),
            "ip options");
    }
}

TEST(ParseDiff, FragmentsAndForgedFragmentBits)
{
    Rng rng(0xf4a6);
    for (int i = 0; i < 10; ++i) {
        Packet big = udp_frame(rng, 9000, 600 + rng.uniform(1400));
        for (const Packet& f : ip_fragment(big, 256 + rng.uniform(512)))
            expect_agrees_truncated(f, "fragment");
        Packet forged = tcp_frame(rng, rng.uniform(40));
        uint8_t* ip = forged.bytes() + kEthHeaderLen;
        store_be16(ip + 6, uint16_t(rng.next()));
        expect_agrees_truncated(forged, "forged frag bits");
    }
}

TEST(ParseDiff, EveryTcpDataOffset)
{
    Rng rng(0x7cd0);
    for (uint8_t doff = 0; doff < 16; ++doff) {
        Packet pkt = tcp_frame(rng, rng.uniform(80));
        uint8_t* tcp = pkt.bytes() + kEthHeaderLen + kIpv4HeaderLen;
        tcp[12] = uint8_t(doff << 4);
        expect_agrees_truncated(pkt, "tcp doff");
    }
}

TEST(ParseDiff, EveryIhlAndTotalLength)
{
    // IHL 0-15 against short and long frames and total_len both below
    // and above the header: covers the malformed-IHL exception.
    Rng rng(0x1417);
    for (uint8_t ihl = 0; ihl < 16; ++ihl) {
        for (int rep = 0; rep < 4; ++rep) {
            Packet pkt = rng.chance(0.5) ? udp_frame(rng, 7, 40)
                                         : tcp_frame(rng, 40);
            uint8_t* ip = pkt.bytes() + kEthHeaderLen;
            ip[0] = uint8_t(0x40 | ihl);
            store_be16(ip + 2, uint16_t(rng.uniform(120)));
            expect_agrees_truncated(pkt, "ihl sweep");
        }
    }
}

TEST(ParseDiff, RandomBytes)
{
    Rng rng(0xabcdef);
    for (int i = 0; i < 4000; ++i) {
        Packet pkt(random_bytes(rng, rng.uniform(128)));
        // Steer most frames into the IPv4/L4 branches.
        if (pkt.size() > 14 && rng.chance(0.8)) {
            store_be16(pkt.bytes() + 12, kEtherTypeIpv4);
            pkt.bytes()[14] = uint8_t(0x40 | rng.uniform(16));
            if (pkt.size() > 23)
                pkt.bytes()[23] = rng.chance(0.5) ? kIpProtoUdp
                                                  : kIpProtoTcp;
        }
        expect_agrees(pkt, "random");
        if (HasFatalFailure())
            return;
    }
}

TEST(ToeplitzDiff, TablesMatchBitSerialForRandomKeys)
{
    Rng rng(0x70e9);
    for (int k = 0; k < 24; ++k) {
        RssKey key;
        for (uint8_t& b : key)
            b = uint8_t(rng.next());
        if (k == 0)
            key = default_rss_key();
        ToeplitzTable table(key);
        for (size_t len = 0; len <= 36; ++len) {
            for (int rep = 0; rep < 8; ++rep) {
                std::vector<uint8_t> in = random_bytes(rng, len);
                uint32_t want =
                    reference::toeplitz_hash(key, in.data(), len);
                ASSERT_EQ(table.hash(in.data(), len), want)
                    << "key " << k << " len " << len;
            }
        }
    }
}

TEST(ToeplitzDiff, LongInputsMatchBitSerial)
{
    Rng rng(0x4e7);
    const ToeplitzTable& table = default_rss_table();
    for (size_t len = 37; len <= 64; ++len) {
        std::vector<uint8_t> in = random_bytes(rng, len);
        EXPECT_EQ(table.hash(in.data(), len),
                  reference::toeplitz_hash(default_rss_key(), in.data(),
                                           len))
            << "len " << len;
    }
}

TEST(ToeplitzDiff, Ipv4HelperMatchesByteString)
{
    Rng rng(0x1e4);
    const ToeplitzTable& table = default_rss_table();
    for (int i = 0; i < 200; ++i) {
        uint32_t src = uint32_t(rng.next()), dst = uint32_t(rng.next());
        uint16_t sp = uint16_t(rng.next()), dp = uint16_t(rng.next());
        uint8_t in[12];
        store_be32(in, src);
        store_be32(in + 4, dst);
        store_be16(in + 8, sp);
        store_be16(in + 10, dp);
        const RssKey& key = default_rss_key();
        EXPECT_EQ(table.ipv4(src, dst, sp, dp),
                  reference::toeplitz_hash(key, in, 12));
    }
}

} // namespace
} // namespace fld::net
