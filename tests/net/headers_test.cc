/** @file Header codec, builder, parser, and VXLAN tunnel tests. */
#include "net/headers.h"

#include <gtest/gtest.h>

#include "net/checksum.h"

namespace fld::net {
namespace {

const MacAddr kMacA = {0x02, 0, 0, 0, 0, 0xaa};
const MacAddr kMacB = {0x02, 0, 0, 0, 0, 0xbb};

std::vector<uint8_t> bytes_of(const std::string& s)
{
    return {s.begin(), s.end()};
}

TEST(EthHeader, RoundTrip)
{
    EthHeader h;
    h.src = kMacA;
    h.dst = kMacB;
    h.ethertype = kEtherTypeIpv4;
    uint8_t buf[kEthHeaderLen];
    h.encode(buf);
    EthHeader d = EthHeader::decode(buf);
    EXPECT_EQ(d.src, kMacA);
    EXPECT_EQ(d.dst, kMacB);
    EXPECT_EQ(d.ethertype, kEtherTypeIpv4);
}

TEST(Ipv4Header, RoundTripWithFragments)
{
    Ipv4Header h;
    h.src = ipv4_addr(10, 0, 0, 1);
    h.dst = ipv4_addr(10, 0, 0, 2);
    h.proto = kIpProtoUdp;
    h.total_len = 1500;
    h.id = 0x1234;
    h.more_fragments = true;
    h.frag_offset = 185;
    uint8_t buf[kIpv4HeaderLen];
    h.encode(buf, true);
    Ipv4Header d = Ipv4Header::decode(buf);
    EXPECT_EQ(d.src, h.src);
    EXPECT_EQ(d.dst, h.dst);
    EXPECT_EQ(d.total_len, 1500);
    EXPECT_EQ(d.id, 0x1234);
    EXPECT_TRUE(d.more_fragments);
    EXPECT_FALSE(d.dont_fragment);
    EXPECT_EQ(d.frag_offset, 185);
    EXPECT_TRUE(d.is_fragment());
    // Encoded checksum must validate to zero over the header.
    EXPECT_EQ(internet_checksum(buf, kIpv4HeaderLen), 0);
}

TEST(Ipv4Header, NonFragmentByDefault)
{
    Ipv4Header h;
    EXPECT_FALSE(h.is_fragment());
}

TEST(PacketBuilder, UdpPacketParsesBack)
{
    auto payload = bytes_of("hello flexdriver");
    Packet pkt = PacketBuilder()
                     .eth(kMacA, kMacB)
                     .ipv4(ipv4_addr(192, 168, 1, 1),
                           ipv4_addr(192, 168, 1, 2), kIpProtoUdp)
                     .udp(1111, 2222)
                     .payload(payload)
                     .build();
    ASSERT_EQ(pkt.size(),
              kEthHeaderLen + kIpv4HeaderLen + kUdpHeaderLen +
                  payload.size());

    ParsedPacket pp = parse(pkt);
    ASSERT_TRUE(pp.has_eth && pp.has_ipv4 && pp.has_udp);
    EXPECT_FALSE(pp.has_tcp);
    EXPECT_EQ(pp.sport, 1111);
    EXPECT_EQ(pp.dport, 2222);
    EXPECT_EQ(pp.payload_len, payload.size());
    EXPECT_EQ(std::vector<uint8_t>(
                  pkt.bytes() + pp.payload_offset,
                  pkt.bytes() + pp.payload_offset + pp.payload_len),
              payload);
}

TEST(PacketBuilder, UdpChecksumValidates)
{
    Packet pkt = PacketBuilder()
                     .eth(kMacA, kMacB)
                     .ipv4(ipv4_addr(1, 2, 3, 4), ipv4_addr(5, 6, 7, 8),
                           kIpProtoUdp)
                     .udp(5000, 6000)
                     .payload(bytes_of("checksum me"))
                     .build();
    ParsedPacket pp = parse(pkt);
    ASSERT_TRUE(pp.has_udp);
    // Recomputing over the wire bytes with the embedded checksum in
    // place folds to zero (0xffff before inversion).
    std::vector<uint8_t> l4(pkt.bytes() + pp.l4_offset,
                            pkt.bytes() + pkt.size());
    uint32_t acc = 0;
    acc += pp.src_ip >> 16;
    acc += pp.src_ip & 0xffff;
    acc += pp.dst_ip >> 16;
    acc += pp.dst_ip & 0xffff;
    acc += kIpProtoUdp;
    acc += uint32_t(l4.size());
    acc = checksum_partial(l4.data(), l4.size(), acc);
    EXPECT_EQ(checksum_fold(acc), 0);
}

TEST(PacketBuilder, TcpPacketParsesBack)
{
    Packet pkt = PacketBuilder()
                     .eth(kMacA, kMacB)
                     .ipv4(ipv4_addr(10, 1, 1, 1), ipv4_addr(10, 1, 1, 2),
                           kIpProtoTcp)
                     .tcp(80, 12345, 1000, 2000, 0x18 /*PSH|ACK*/)
                     .payload(bytes_of("GET /"))
                     .build();
    ParsedPacket pp = parse(pkt);
    ASSERT_TRUE(pp.has_tcp);
    EXPECT_EQ(pp.sport, 80);
    TcpHeader th = TcpHeader::decode(pkt.bytes() + pp.l4_offset);
    EXPECT_EQ(th.seq, 1000u);
    EXPECT_EQ(th.flags, 0x18);
    EXPECT_EQ(pp.payload_len, 5u);
}

TEST(Parse, TruncatedPacketsAreSafe)
{
    Packet tiny(std::vector<uint8_t>(6, 0));
    ParsedPacket pp = parse(tiny);
    EXPECT_FALSE(pp.has_eth);
    EXPECT_FALSE(pp.has_ipv4);

    Packet eth_only(std::vector<uint8_t>(kEthHeaderLen, 0));
    eth_only.data[12] = 0x08; // IPv4 ethertype, but no IP header
    pp = parse(eth_only);
    EXPECT_TRUE(pp.has_eth);
    EXPECT_FALSE(pp.has_ipv4);
}

TEST(Parse, NonFirstFragmentSkipsL4)
{
    Packet pkt = PacketBuilder()
                     .eth(kMacA, kMacB)
                     .ipv4(ipv4_addr(1, 1, 1, 1), ipv4_addr(2, 2, 2, 2),
                           kIpProtoUdp)
                     .udp(1, 2)
                     .payload(std::vector<uint8_t>(100, 0xab))
                     .build();
    // Forge a fragment offset.
    Ipv4Header ih = Ipv4Header::decode(pkt.bytes() + kEthHeaderLen);
    ih.frag_offset = 10;
    ih.encode(pkt.bytes() + kEthHeaderLen, true);

    ParsedPacket pp = parse(pkt);
    ASSERT_TRUE(pp.has_ipv4);
    EXPECT_TRUE(pp.is_ip_fragment());
    EXPECT_FALSE(pp.has_udp) << "L4 must not be parsed on offset fragments";
}

TEST(Vxlan, EncapDecapRoundTrip)
{
    Packet inner = PacketBuilder()
                       .eth(kMacA, kMacB)
                       .ipv4(ipv4_addr(172, 16, 0, 1),
                             ipv4_addr(172, 16, 0, 2), kIpProtoUdp)
                       .udp(7, 8)
                       .payload(bytes_of("inner payload"))
                       .build();
    Packet outer = vxlan_encapsulate(inner, 0x123456,
                                     ipv4_addr(10, 0, 0, 1),
                                     ipv4_addr(10, 0, 0, 2), kMacB, kMacA);

    ParsedPacket opp = parse(outer);
    ASSERT_TRUE(opp.has_udp);
    EXPECT_EQ(opp.dport, kVxlanPort);
    ASSERT_TRUE(opp.has_vxlan);
    EXPECT_EQ(opp.vni, 0x123456u);

    auto decap = vxlan_decapsulate(outer);
    ASSERT_TRUE(decap.has_value());
    EXPECT_EQ(decap->data, inner.data);
    EXPECT_TRUE(decap->meta.tunneled);
    EXPECT_EQ(decap->meta.vni, 0x123456u);
}

TEST(Vxlan, DecapRejectsNonVxlan)
{
    Packet plain = PacketBuilder()
                       .eth(kMacA, kMacB)
                       .ipv4(1, 2, kIpProtoUdp)
                       .udp(100, 200)
                       .payload(bytes_of("x"))
                       .build();
    EXPECT_FALSE(vxlan_decapsulate(plain).has_value());
}

} // namespace
} // namespace fld::net
