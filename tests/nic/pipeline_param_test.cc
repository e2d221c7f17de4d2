/**
 * @file
 * Match-action pipeline chain tests: VXLAN encap action, multi-table
 * goto chains, tag-based dispatch, and a parameterized sweep of
 * packet shapes through decap + steering.
 */
#include <gtest/gtest.h>

#include "net/checksum.h"
#include "net/headers.h"
#include "nic/nic.h"
#include "tests/nic/nic_test_fixture.h"

namespace fld::nic {
namespace {

using namespace fld::nic::testing;
using net::ipv4_addr;

const net::MacAddr kMacA = {2, 0, 0, 0, 0, 1};
const net::MacAddr kMacB = {2, 0, 0, 0, 0, 2};

net::Packet udp_pkt(size_t payload, uint16_t dport, uint16_t sport = 999)
{
    return net::PacketBuilder()
        .eth(kMacA, kMacB)
        .ipv4(ipv4_addr(10, 1, 0, 1), ipv4_addr(10, 1, 0, 2),
              net::kIpProtoUdp)
        .udp(sport, dport)
        .payload(std::vector<uint8_t>(payload, 0x61))
        .build();
}

TEST(PipelineChain, VxlanEncapActionWrapsEgress)
{
    Testbed tb;
    auto& h = *tb.a;
    VportId v = h.nic->add_vport();
    std::vector<Cqe> cqes;
    uint32_t cqn = h.make_cq(64, &cqes);
    auto sq = h.make_sq(64, cqn, v);

    FlowMatch m;
    m.in_vport = v;
    h.nic->add_rule(0, 0, m,
                    {vxlan_encap(0x777, ipv4_addr(192, 168, 5, 1),
                                 ipv4_addr(192, 168, 5, 2)),
                     fwd_vport(kUplinkVport)});

    std::vector<net::Packet> wire;
    h.nic->uplink().set_tx_hook(
        [&](net::Packet&& p) { wire.push_back(std::move(p)); });

    net::Packet inner = udp_pkt(200, 7000);
    h.post_tx(sq, inner.data);
    tb.eq.run();

    ASSERT_EQ(wire.size(), 1u);
    net::ParsedPacket pp = net::parse(wire[0]);
    ASSERT_TRUE(pp.has_udp);
    EXPECT_EQ(pp.dport, net::kVxlanPort);
    ASSERT_TRUE(pp.has_vxlan);
    EXPECT_EQ(pp.vni, 0x777u);
    EXPECT_EQ(pp.dst_ip, ipv4_addr(192, 168, 5, 2));

    auto decap = net::vxlan_decapsulate(wire[0]);
    ASSERT_TRUE(decap.has_value());
    EXPECT_EQ(decap->data, inner.data);
}

TEST(PipelineChain, EncapThenRemoteDecapRoundTrip)
{
    // NIC A encapsulates on egress; NIC B decapsulates on ingress and
    // queues the inner frame: a full hardware tunnel path.
    Testbed tb(true);
    auto& a = *tb.a;
    auto& b = *tb.b;
    VportId av = a.nic->add_vport();
    VportId bv = b.nic->add_vport();

    std::vector<Cqe> a_cqes, b_cqes;
    uint32_t a_cqn = a.make_cq(64, &a_cqes);
    auto a_sq = a.make_sq(64, a_cqn, av);

    uint32_t b_cqn = b.make_cq(64, &b_cqes);
    auto b_rq = b.make_rq(64, b_cqn);
    b.post_rx_buffers(b_rq, 4, 16, 11);

    FlowMatch from_a;
    from_a.in_vport = av;
    a.nic->add_rule(0, 0, from_a,
                    {vxlan_encap(0x42, ipv4_addr(1, 1, 1, 1),
                                 ipv4_addr(2, 2, 2, 2)),
                     fwd_vport(kUplinkVport)});

    FlowMatch vxlan_in;
    vxlan_in.in_vport = kUplinkVport;
    vxlan_in.dport = net::kVxlanPort;
    b.nic->add_rule(0, 10, vxlan_in,
                    {vxlan_decap(), goto_table(3)});
    FlowMatch tagged;
    tagged.vni = 0x42;
    b.nic->add_rule(3, 0, tagged,
                    {set_tag(0x42), fwd_queue(b_rq.rqn)});
    (void)bv;
    tb.eq.run();

    net::Packet inner = udp_pkt(321, 8080);
    a.post_tx(a_sq, inner.data);
    tb.eq.run();

    ASSERT_EQ(b_cqes.size(), 1u);
    EXPECT_EQ(b_cqes[0].byte_count, inner.size());
    EXPECT_TRUE(b_cqes[0].flags & kCqeTunneled);
    EXPECT_EQ(b_cqes[0].flow_tag, 0x42u);
    // Inner bytes landed intact.
    std::vector<uint8_t> got(inner.size());
    tb.hostmem.bar_read(b_rq.buffers[0], got.data(), got.size());
    EXPECT_EQ(got, inner.data);
}

TEST(PipelineChain, MultiTableGotoChainAppliesAllStages)
{
    Testbed tb;
    auto& h = *tb.a;
    std::vector<Cqe> cqes;
    uint32_t cqn = h.make_cq(64, &cqes);
    auto rq = h.make_rq(64, cqn);
    h.post_rx_buffers(rq, 2, 16, 11);
    tb.eq.run();

    // Table 0 counts and jumps, table 1 tags and jumps, table 2
    // queues — the classic multi-stage rte_flow layout.
    FlowMatch any;
    any.in_vport = kUplinkVport;
    h.nic->add_rule(0, 0, any, {count_action(1), goto_table(1)});
    h.nic->add_rule(1, 0, {}, {set_tag(0xab), goto_table(2)});
    FlowMatch tagged;
    tagged.flow_tag = 0xab;
    h.nic->add_rule(2, 0, tagged, {count_action(2), fwd_queue(rq.rqn)});

    net::Packet pkt = udp_pkt(400, 1234);
    size_t len = pkt.size();
    h.nic->uplink().deliver(std::move(pkt));
    tb.eq.run();

    ASSERT_EQ(cqes.size(), 1u);
    EXPECT_EQ(cqes[0].flow_tag, 0xabu);
    EXPECT_EQ(h.nic->flows().counter(1), len);
    EXPECT_EQ(h.nic->flows().counter(2), len);
}

TEST(PipelineChain, PriorityDispatchByPort)
{
    Testbed tb;
    auto& h = *tb.a;
    std::vector<Cqe> cqes;
    uint32_t cqn = h.make_cq(256, &cqes);
    auto rq_a = h.make_rq(64, cqn);
    auto rq_b = h.make_rq(64, cqn);
    h.post_rx_buffers(rq_a, 4, 16, 11);
    h.post_rx_buffers(rq_b, 4, 16, 11);
    tb.eq.run();

    FlowMatch coap;
    coap.in_vport = kUplinkVport;
    coap.dport = 5683;
    h.nic->add_rule(0, 10, coap, {set_tag(1), fwd_queue(rq_a.rqn)});
    FlowMatch rest;
    rest.in_vport = kUplinkVport;
    h.nic->add_rule(0, 0, rest, {set_tag(2), fwd_queue(rq_b.rqn)});

    h.nic->uplink().deliver(udp_pkt(100, 5683));
    h.nic->uplink().deliver(udp_pkt(100, 80));
    h.nic->uplink().deliver(udp_pkt(100, 5683));
    tb.eq.run();

    ASSERT_EQ(cqes.size(), 3u);
    int coap_count = 0, other = 0;
    for (const auto& c : cqes) {
        coap_count += c.flow_tag == 1;
        other += c.flow_tag == 2;
    }
    EXPECT_EQ(coap_count, 2);
    EXPECT_EQ(other, 1);
}

// ---------------------------------------------------------------------
// Parameterized: packet shapes through decap + steering stay intact.
// ---------------------------------------------------------------------

class TunnelShapeSweep
    : public ::testing::TestWithParam<std::tuple<size_t, uint32_t>>
{};

TEST_P(TunnelShapeSweep, DecapPreservesInnerBytes)
{
    auto [payload, vni] = GetParam();
    Testbed tb;
    auto& h = *tb.a;
    std::vector<Cqe> cqes;
    uint32_t cqn = h.make_cq(64, &cqes);
    auto rq = h.make_rq(64, cqn);
    h.post_rx_buffers(rq, 4, 32, 11);
    tb.eq.run();

    FlowMatch vx;
    vx.in_vport = kUplinkVport;
    vx.dport = net::kVxlanPort;
    h.nic->add_rule(0, 10, vx, {vxlan_decap(), goto_table(7)});
    FlowMatch byvni;
    byvni.vni = vni;
    h.nic->add_rule(7, 0, byvni, {fwd_queue(rq.rqn)});

    net::Packet inner = udp_pkt(payload, 4444);
    net::Packet outer = net::vxlan_encapsulate(
        inner, vni, ipv4_addr(9, 9, 9, 1), ipv4_addr(9, 9, 9, 2),
        kMacA, kMacB);
    h.nic->uplink().deliver(std::move(outer));
    tb.eq.run();

    ASSERT_EQ(cqes.size(), 1u);
    EXPECT_EQ(cqes[0].byte_count, inner.size());
    EXPECT_TRUE(cqes[0].flags & kCqeL4Ok)
        << "inner checksum must validate after decap";
    std::vector<uint8_t> got(inner.size());
    tb.hostmem.bar_read(rq.buffers[0], got.data(), got.size());
    EXPECT_EQ(got, inner.data);
}

INSTANTIATE_TEST_SUITE_P(
    PayloadsAndVnis, TunnelShapeSweep,
    ::testing::Combine(::testing::Values<size_t>(1, 64, 500, 1400),
                       ::testing::Values<uint32_t>(1, 0x42,
                                                   0xffffff)));

} // namespace
} // namespace fld::nic
