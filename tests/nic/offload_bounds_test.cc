/**
 * @file
 * Checksum offloads on malformed IPv4 headers: the TX offload must not
 * derive an L4 extent from a total length below the header length, and
 * neither offload may read a header the frame does not hold. Run under
 * the asan-ubsan preset to catch any out-of-bounds read.
 */
#include <gtest/gtest.h>

#include <numeric>

#include "net/checksum.h"
#include "net/headers.h"
#include "nic/nic.h"
#include "tests/nic/nic_test_fixture.h"
#include "util/bitops.h"

namespace fld::nic {
namespace {

using namespace fld::nic::testing;
using net::ipv4_addr;

std::vector<uint8_t> udp_frame(size_t payload_len)
{
    std::vector<uint8_t> payload(payload_len);
    std::iota(payload.begin(), payload.end(), 1);
    return net::PacketBuilder()
        .eth({2, 0, 0, 0, 0, 0xaa}, {2, 0, 0, 0, 0, 0xbb})
        .ipv4(ipv4_addr(10, 0, 0, 1), ipv4_addr(10, 0, 0, 2),
              net::kIpProtoUdp)
        .udp(1234, 7777)
        .payload(payload)
        .build()
        .data;
}

/** One NIC looping vport v to the wire and the wire back to an RQ, so
 *  a frame crosses the TX offload and then the RX offload. */
struct LoopRig
{
    Testbed tb;
    NicHarness& h = *tb.a;
    VportId v = h.nic->add_vport();
    std::vector<Cqe> tx_cqes;
    std::vector<Cqe> rx_cqes;
    NicHarness::Sq sq;
    NicHarness::Rq rq;
    std::vector<net::Packet> wire;

    LoopRig()
    {
        sq = h.make_sq(128, h.make_cq(128, &tx_cqes), v);
        rq = h.make_rq(64, h.make_cq(128, &rx_cqes));
        h.post_rx_buffers(rq, 8, /*strides=*/16, /*stride_shift=*/7);
        tb.eq.run();
        FlowMatch from_v;
        from_v.in_vport = v;
        h.nic->add_rule(0, 0, from_v, {fwd_vport(kUplinkVport)});
        FlowMatch from_wire;
        from_wire.in_vport = kUplinkVport;
        h.nic->add_rule(0, 0, from_wire, {fwd_vport(v)});
        h.nic->set_vport_default_tir(v, h.nic->create_tir({{rq.rqn}}));
        h.nic->uplink().set_tx_hook(
            [this](net::Packet&& p) { wire.push_back(std::move(p)); });
    }
};

TEST(NicOffload, TxChecksumWithTotalLenBelowIhl)
{
    LoopRig rig;
    auto frame = udp_frame(32);
    // total_len 10 < IHL 20: the L4 extent would be negative.
    store_be16(frame.data() + net::kEthHeaderLen + 2, 10);
    rig.h.post_tx(rig.sq, frame);
    rig.tb.eq.run();

    ASSERT_EQ(rig.wire.size(), 1u);
    ASSERT_EQ(rig.tx_cqes.size(), 1u);
    net::ParsedPacket pp = net::parse(rig.wire[0]);
    ASSERT_TRUE(pp.has_ipv4);
    // The IP header checksum is still offloaded; the UDP bytes are not
    // touched.
    EXPECT_EQ(net::internet_checksum(rig.wire[0].bytes() + pp.l3_offset,
                                     pp.ihl),
              0);
    EXPECT_TRUE(std::equal(frame.begin() + long(pp.l4_offset), frame.end(),
                           rig.wire[0].data.begin() + long(pp.l4_offset)));

    rig.h.nic->uplink().deliver(std::move(rig.wire[0]));
    rig.tb.eq.run();
    ASSERT_EQ(rig.rx_cqes.size(), 1u);
    EXPECT_TRUE(rig.rx_cqes[0].flags & kCqeL3Ok);
    EXPECT_FALSE(rig.rx_cqes[0].flags & kCqeL4Ok);
}

TEST(NicOffload, IhlSweepOverShortFrames)
{
    for (uint8_t ihl = 0; ihl < 16; ++ihl) {
        SCOPED_TRACE(::testing::Message() << "ihl " << int(ihl));
        LoopRig rig;
        std::vector<std::vector<uint8_t>> sent;
        for (size_t len = 34; len <= 94; ++len) {
            std::vector<uint8_t> frame = udp_frame(94 - 42);
            frame.resize(len);
            uint8_t* ip = frame.data() + net::kEthHeaderLen;
            ip[0] = uint8_t(0x40 | ihl);
            store_be16(ip + 2, uint16_t(len - net::kEthHeaderLen));
            rig.h.post_tx(rig.sq, frame);
            sent.push_back(frame);
        }
        rig.tb.eq.run();
        ASSERT_EQ(rig.wire.size(), sent.size());
        ASSERT_EQ(rig.tx_cqes.size(), sent.size());

        for (size_t i = 0; i < sent.size(); ++i) {
            const net::Packet& out = rig.wire[i];
            size_t hdr = size_t(ihl) * 4;
            bool ipv4 = hdr >= net::kIpv4HeaderLen &&
                        net::kEthHeaderLen + hdr <= out.size();
            net::ParsedPacket pp = net::parse(out);
            EXPECT_EQ(pp.has_ipv4, ipv4) << "len " << out.size();
            if (ipv4) {
                EXPECT_EQ(net::internet_checksum(out.bytes() +
                                                     pp.l3_offset, hdr),
                          0)
                    << "len " << out.size();
            } else {
                EXPECT_EQ(out.data, sent[i]) << "not IPv4: untouched";
            }
            rig.h.nic->uplink().deliver(net::Packet(out.data));
        }
        rig.tb.eq.run();
        ASSERT_EQ(rig.rx_cqes.size(), sent.size());
        for (size_t i = 0; i < sent.size(); ++i) {
            net::ParsedPacket pp = net::parse(rig.wire[i]);
            EXPECT_EQ(bool(rig.rx_cqes[i].flags & kCqeL3Ok), pp.has_ipv4)
                << "len " << rig.wire[i].size();
            EXPECT_EQ(bool(rig.rx_cqes[i].flags & kCqeL4Ok), pp.has_udp)
                << "len " << rig.wire[i].size();
        }
    }
}

} // namespace
} // namespace fld::nic
