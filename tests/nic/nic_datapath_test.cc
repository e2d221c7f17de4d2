/**
 * @file
 * End-to-end NIC datapath tests: doorbells -> WQE fetch -> payload DMA
 * -> eSwitch pipeline -> wire/RQ delivery -> CQE writeback, driven
 * exactly like a driver drives real hardware.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "net/checksum.h"
#include "net/headers.h"
#include "nic/nic.h"
#include "sim/fault.h"
#include "sim/trace.h"
#include "tests/nic/nic_test_fixture.h"

namespace fld::nic {
namespace {

using namespace fld::nic::testing;
using net::ipv4_addr;

const net::MacAddr kMacA = {2, 0, 0, 0, 0, 0xaa};
const net::MacAddr kMacB = {2, 0, 0, 0, 0, 0xbb};

std::vector<uint8_t> udp_frame(size_t payload_len, uint16_t dport = 7777)
{
    std::vector<uint8_t> payload(payload_len);
    std::iota(payload.begin(), payload.end(), 1);
    return net::PacketBuilder()
        .eth(kMacA, kMacB)
        .ipv4(ipv4_addr(10, 0, 0, 1), ipv4_addr(10, 0, 0, 2),
              net::kIpProtoUdp)
        .udp(1234, dport)
        .payload(payload)
        .build()
        .data;
}

TEST(NicTx, FrameReachesUplink)
{
    Testbed tb;
    auto& h = *tb.a;
    VportId v = h.nic->add_vport();
    std::vector<Cqe> cqes;
    uint32_t cqn = h.make_cq(64, &cqes);
    auto sq = h.make_sq(64, cqn, v);

    // FDB: everything from vport v goes to the wire.
    FlowMatch m;
    m.in_vport = v;
    h.nic->add_rule(0, 0, m, {fwd_vport(kUplinkVport)});

    std::vector<net::Packet> wire;
    h.nic->uplink().set_tx_hook(
        [&](net::Packet&& p) { wire.push_back(std::move(p)); });

    auto frame = udp_frame(200);
    h.post_tx(sq, frame);
    tb.eq.run();

    ASSERT_EQ(wire.size(), 1u);
    EXPECT_EQ(wire[0].data, frame);
    ASSERT_EQ(cqes.size(), 1u);
    EXPECT_EQ(cqes[0].opcode, CqeOpcode::TxOk);
    EXPECT_EQ(cqes[0].byte_count, frame.size());
    EXPECT_EQ(h.nic->stats().tx_packets, 1u);
}

TEST(NicTx, UnsignaledWqeProducesNoCqe)
{
    Testbed tb;
    auto& h = *tb.a;
    VportId v = h.nic->add_vport();
    std::vector<Cqe> cqes;
    uint32_t cqn = h.make_cq(64, &cqes);
    auto sq = h.make_sq(64, cqn, v);
    FlowMatch m;
    m.in_vport = v;
    h.nic->add_rule(0, 0, m, {fwd_vport(kUplinkVport)});
    h.nic->uplink().set_tx_hook([](net::Packet&&) {});

    h.post_tx(sq, udp_frame(64), /*signaled=*/false);
    h.post_tx(sq, udp_frame(64), /*signaled=*/true);
    tb.eq.run();
    EXPECT_EQ(cqes.size(), 1u); // selective completion signalling
}

TEST(NicTx, ChecksumOffloadFixesCorruptedChecksums)
{
    Testbed tb;
    auto& h = *tb.a;
    VportId v = h.nic->add_vport();
    std::vector<Cqe> cqes;
    uint32_t cqn = h.make_cq(64, &cqes);
    auto sq = h.make_sq(64, cqn, v);
    FlowMatch m;
    m.in_vport = v;
    h.nic->add_rule(0, 0, m, {fwd_vport(kUplinkVport)});

    std::vector<net::Packet> wire;
    h.nic->uplink().set_tx_hook(
        [&](net::Packet&& p) { wire.push_back(std::move(p)); });

    auto frame = udp_frame(128);
    frame[net::kEthHeaderLen + 10] ^= 0xff; // corrupt IP checksum
    h.post_tx(sq, frame);
    tb.eq.run();

    ASSERT_EQ(wire.size(), 1u);
    net::ParsedPacket pp = net::parse(wire[0]);
    ASSERT_TRUE(pp.has_ipv4);
    EXPECT_EQ(net::internet_checksum(wire[0].bytes() + pp.l3_offset,
                                     net::kIpv4HeaderLen),
              0);
}

TEST(NicTx, MultipleWqesCompleteInOrder)
{
    Testbed tb;
    auto& h = *tb.a;
    VportId v = h.nic->add_vport();
    std::vector<Cqe> cqes;
    uint32_t cqn = h.make_cq(64, &cqes);
    auto sq = h.make_sq(64, cqn, v);
    FlowMatch m;
    m.in_vport = v;
    h.nic->add_rule(0, 0, m, {fwd_vport(kUplinkVport)});
    h.nic->uplink().set_tx_hook([](net::Packet&&) {});

    const int n = 20; // crosses one fetch batch
    for (int i = 0; i < n; ++i)
        h.post_tx(sq, udp_frame(64 + i));
    tb.eq.run();

    ASSERT_EQ(cqes.size(), size_t(n));
    for (int i = 0; i < n; ++i)
        EXPECT_EQ(cqes[i].wqe_counter, i);
}

/** Queue one signaled NOP WQE and ring the doorbell. */
void post_nop(NicHarness& h, NicHarness::Sq& sq)
{
    Wqe wqe;
    wqe.opcode = WqeOpcode::Nop;
    wqe.signaled = true;
    wqe.wqe_index = uint16_t(sq.pi);
    uint8_t enc[kWqeStride];
    wqe.encode(enc);
    uint64_t slot = sq.pi % sq.entries;
    std::memcpy(h.hostmem.raw(sq.ring + slot * kWqeStride, kWqeStride),
                enc, kWqeStride);
    sq.pi++;
    h.ring_sq_doorbell(sq);
}

TEST(NicTx, RetirementFollowsRingOrderUnderDelayedGathers)
{
    // Payload reads complete late (fault mode keeps them FIFO behind
    // one another), while NOP and zero-byte WQEs need no gather: they
    // are ready long before the payload WQEs ahead of them and must
    // still wait their turn. Far more WQEs are in flight than the
    // retirement ring starts with, so it has to grow mid-stream.
    pcie::TlpParams tlp;
    tlp.faults.read_delay_prob = 0.5;
    tlp.faults.read_delay_max = sim::microseconds(2);
    tlp.faults.read_stall_prob = 0.05;
    Testbed tb(false, {}, tlp);
    sim::FaultPlan plan(7);
    tb.fabric.set_fault_plan(&plan);
    auto& h = *tb.a;
    VportId v = h.nic->add_vport();
    std::vector<Cqe> cqes;
    uint32_t cqn = h.make_cq(512, &cqes);
    auto sq = h.make_sq(256, cqn, v);
    FlowMatch m;
    m.in_vport = v;
    h.nic->add_rule(0, 0, m, {fwd_vport(kUplinkVport)});
    std::vector<std::vector<uint8_t>> wire;
    h.nic->uplink().set_tx_hook(
        [&](net::Packet&& p) { wire.push_back(std::move(p.data)); });

    sim::Tracer tracer;
    tracer.install();
    const int n = int(8 * kRetireRingInitialSlots);
    std::vector<std::vector<uint8_t>> expect_wire;
    std::vector<bool> gathers(n, false);
    for (int i = 0; i < n; ++i) {
        if (i % 4 == 1) {
            post_nop(h, sq);
        } else if (i % 4 == 3) {
            h.post_tx(sq, {}); // zero-byte send: no gather either
            expect_wire.emplace_back();
        } else {
            auto frame = udp_frame(64 + i % 32, uint16_t(1000 + i));
            h.post_tx(sq, frame);
            expect_wire.push_back(frame);
            gathers[i] = true;
        }
    }
    tb.eq.run();
    tracer.uninstall();

    // Sends leave in ring order, completions arrive in ring order.
    EXPECT_EQ(wire, expect_wire);
    ASSERT_EQ(cqes.size(), size_t(n));
    for (int i = 0; i < n; ++i) {
        EXPECT_EQ(cqes[i].opcode, CqeOpcode::TxOk);
        EXPECT_EQ(cqes[i].wqe_counter, i) << "completion " << i;
    }

    // Gathers issued but not yet retired: the window the ring holds.
    int outstanding = 0, peak = 0;
    for (const sim::TraceEvent& e : tracer.events()) {
        if (e.kind == sim::TraceEventKind::PayloadRead)
            ++outstanding;
        else if (e.kind == sim::TraceEventKind::CqeWrite &&
                 gathers[e.index])
            --outstanding;
        peak = std::max(peak, outstanding);
    }
    EXPECT_GT(peak, int(kRetireRingInitialSlots));
}

TEST(NicRx, WireToRqWithCqe)
{
    Testbed tb;
    auto& h = *tb.a;
    VportId v = h.nic->add_vport();
    std::vector<Cqe> cqes;
    uint32_t cqn = h.make_cq(64, &cqes);
    auto rq = h.make_rq(64, cqn);
    h.post_rx_buffers(rq, 4, /*strides=*/16, /*stride_shift=*/11);
    tb.eq.run(); // let the NIC fetch descriptors

    // Uplink traffic -> vport v -> rq.
    FlowMatch m;
    m.in_vport = kUplinkVport;
    h.nic->add_rule(0, 0, m, {fwd_vport(v)});
    uint32_t tir = h.nic->create_tir({{rq.rqn}});
    h.nic->set_vport_default_tir(v, tir);

    auto frame = udp_frame(500);
    h.nic->uplink().deliver(net::Packet(frame));
    tb.eq.run();

    ASSERT_EQ(cqes.size(), 1u);
    EXPECT_EQ(cqes[0].opcode, CqeOpcode::Rx);
    EXPECT_EQ(cqes[0].byte_count, frame.size());
    EXPECT_TRUE(cqes[0].flags & kCqeL3Ok);
    EXPECT_TRUE(cqes[0].flags & kCqeL4Ok);
    EXPECT_EQ(cqes[0].stride_index, 0);

    // Data landed at the advertised stride.
    uint64_t buf = rq.buffers[0];
    std::vector<uint8_t> got(frame.size());
    tb.hostmem.bar_read(buf, got.data(), got.size());
    EXPECT_EQ(got, frame);
}

TEST(NicRx, MprqPacksMultiplePacketsPerBuffer)
{
    Testbed tb;
    auto& h = *tb.a;
    VportId v = h.nic->add_vport();
    std::vector<Cqe> cqes;
    uint32_t cqn = h.make_cq(128, &cqes);
    auto rq = h.make_rq(64, cqn);
    h.post_rx_buffers(rq, 1, /*strides=*/8, /*stride_shift=*/11);
    tb.eq.run();

    FlowMatch m;
    m.in_vport = kUplinkVport;
    h.nic->add_rule(0, 0, m, {fwd_vport(v)});
    uint32_t tir = h.nic->create_tir({{rq.rqn}});
    h.nic->set_vport_default_tir(v, tir);

    // 3000 B packet consumes 2 strides; 100 B packet consumes 1.
    h.nic->uplink().deliver(net::Packet(udp_frame(3000)));
    h.nic->uplink().deliver(net::Packet(udp_frame(100)));
    tb.eq.run();

    ASSERT_EQ(cqes.size(), 2u);
    EXPECT_EQ(cqes[0].stride_index, 0);
    EXPECT_EQ(cqes[1].stride_index, 2); // after the 2-stride packet
    EXPECT_EQ(cqes[0].rq_wqe_index, cqes[1].rq_wqe_index);
}

TEST(NicRx, NoBufferDropsAndReports)
{
    Testbed tb;
    auto& h = *tb.a;
    VportId v = h.nic->add_vport();
    std::vector<Cqe> cqes;
    uint32_t cqn = h.make_cq(64, &cqes);
    auto rq = h.make_rq(64, cqn); // no buffers posted

    FlowMatch m;
    m.in_vport = kUplinkVport;
    h.nic->add_rule(0, 0, m, {fwd_vport(v)});
    uint32_t tir = h.nic->create_tir({{rq.rqn}});
    h.nic->set_vport_default_tir(v, tir);

    std::vector<NicEvent> events;
    h.nic->set_event_handler(
        [&](const NicEvent& e) { events.push_back(e); });

    h.nic->uplink().deliver(net::Packet(udp_frame(100)));
    tb.eq.run();

    EXPECT_EQ(cqes.size(), 0u);
    EXPECT_EQ(h.nic->stats().drops_no_buffer, 1u);
    ASSERT_EQ(events.size(), 1u);
    EXPECT_EQ(events[0].type, NicEvent::Type::RqNoBuffer);
}

TEST(NicRx, RssSpreadsFlowsAndFragmentsCollapse)
{
    Testbed tb;
    auto& h = *tb.a;
    VportId v = h.nic->add_vport();
    std::vector<Cqe> cqes;
    uint32_t cqn = h.make_cq(512, &cqes);

    std::vector<uint32_t> rqns;
    std::vector<NicHarness::Rq> rqs;
    for (int i = 0; i < 4; ++i) {
        rqs.push_back(h.make_rq(64, cqn));
        h.post_rx_buffers(rqs.back(), 8, 32, 11);
        rqns.push_back(rqs.back().rqn);
    }
    tb.eq.run();
    FlowMatch m;
    m.in_vport = kUplinkVport;
    h.nic->add_rule(0, 0, m, {fwd_vport(v)});
    uint32_t tir = h.nic->create_tir({rqns});
    h.nic->set_vport_default_tir(v, tir);

    // 32 distinct UDP flows.
    for (uint16_t flow = 0; flow < 32; ++flow)
        h.nic->uplink().deliver(net::Packet(udp_frame(200,
                                                      5000 + flow)));
    tb.eq.run();
    ASSERT_EQ(cqes.size(), 32u);
    std::set<uint32_t> hashes;
    for (const auto& c : cqes)
        hashes.insert(c.rss_hash);
    EXPECT_GT(hashes.size(), 8u) << "flows must spread";

    // Fragments of those flows all land with one hash value.
    cqes.clear();
    for (uint16_t flow = 0; flow < 8; ++flow) {
        net::Packet pkt(udp_frame(200, 5000 + flow));
        net::Ipv4Header ih =
            net::Ipv4Header::decode(pkt.bytes() + net::kEthHeaderLen);
        ih.more_fragments = true;
        ih.encode(pkt.bytes() + net::kEthHeaderLen, true);
        h.nic->uplink().deliver(std::move(pkt));
    }
    tb.eq.run();
    ASSERT_EQ(cqes.size(), 8u);
    hashes.clear();
    for (const auto& c : cqes) {
        hashes.insert(c.rss_hash);
        EXPECT_TRUE(c.flags & kCqeIpFrag);
        EXPECT_FALSE(c.flags & kCqeL4Ok);
    }
    EXPECT_EQ(hashes.size(), 1u) << "fragments collapse to one queue";
}

TEST(NicPipeline, VxlanDecapThenTagThenQueue)
{
    Testbed tb;
    auto& h = *tb.a;
    std::vector<Cqe> cqes;
    uint32_t cqn = h.make_cq(64, &cqes);
    auto rq = h.make_rq(64, cqn);
    h.post_rx_buffers(rq, 2, 16, 11);
    tb.eq.run();

    // Uplink: VXLAN traffic -> decap -> goto table 5; table 5 tags by
    // VNI and queues.
    FlowMatch vx;
    vx.in_vport = kUplinkVport;
    vx.dport = net::kVxlanPort;
    h.nic->add_rule(0, 10, vx, {vxlan_decap(), goto_table(5)});
    FlowMatch tagm;
    tagm.vni = 0x1234;
    h.nic->add_rule(5, 0, tagm,
                    {set_tag(0x42), fwd_queue(rq.rqn)});

    net::Packet inner(udp_frame(300));
    net::Packet outer = net::vxlan_encapsulate(
        inner, 0x1234, ipv4_addr(1, 1, 1, 1), ipv4_addr(2, 2, 2, 2),
        kMacA, kMacB);
    h.nic->uplink().deliver(std::move(outer));
    tb.eq.run();

    ASSERT_EQ(cqes.size(), 1u);
    EXPECT_EQ(cqes[0].flow_tag, 0x42u);
    EXPECT_TRUE(cqes[0].flags & kCqeTunneled);
    EXPECT_EQ(cqes[0].byte_count, inner.size());

    // Inner frame (decapsulated) is what landed in memory.
    std::vector<uint8_t> got(inner.size());
    tb.hostmem.bar_read(rq.buffers[0], got.data(), got.size());
    EXPECT_EQ(got, inner.data);
}

TEST(NicPipeline, SendToAccelCarriesNextTable)
{
    Testbed tb;
    auto& h = *tb.a;
    std::vector<Cqe> cqes;
    uint32_t cqn = h.make_cq(64, &cqes);
    auto rq = h.make_rq(64, cqn);
    h.post_rx_buffers(rq, 2, 16, 11);
    tb.eq.run();

    FlowMatch m;
    m.in_vport = kUplinkVport;
    h.nic->add_rule(0, 0, m,
                    {set_tag(7), send_to_accel(rq.rqn, 42)});

    h.nic->uplink().deliver(net::Packet(udp_frame(100)));
    tb.eq.run();

    ASSERT_EQ(cqes.size(), 1u);
    EXPECT_EQ(cqes[0].flow_tag, 7u);
    EXPECT_EQ(cqes[0].msg_offset, 42u) << "next-table rides in CQE";
}

TEST(NicPipeline, MeterPolicesExcessTraffic)
{
    Testbed tb;
    auto& h = *tb.a;
    h.nic->add_vport();
    std::vector<Cqe> cqes;
    uint32_t cqn = h.make_cq(256, &cqes);
    auto rq = h.make_rq(64, cqn);
    h.post_rx_buffers(rq, 16, 32, 11);
    tb.eq.run();

    // 1 Gbps meter with a 2 KiB burst: most of a 100-packet burst at
    // time ~0 must be dropped.
    h.nic->set_meter(1, 1.0, 2048);
    FlowMatch m;
    m.in_vport = kUplinkVport;
    uint32_t tir = h.nic->create_tir({{rq.rqn}});
    h.nic->add_rule(0, 0, m, {meter(1), fwd_tir(tir)});

    for (int i = 0; i < 100; ++i)
        h.nic->uplink().deliver(net::Packet(udp_frame(960)));
    tb.eq.run();

    EXPECT_LT(cqes.size(), 10u);
    EXPECT_GT(h.nic->stats().drops_meter, 90u);
}

TEST(NicPipeline, DropRuleCountsAndReports)
{
    Testbed tb;
    auto& h = *tb.a;
    FlowMatch m;
    m.in_vport = kUplinkVport;
    h.nic->add_rule(0, 0, m, {count_action(3), drop_action()});

    h.nic->uplink().deliver(net::Packet(udp_frame(400)));
    tb.eq.run();
    EXPECT_EQ(h.nic->stats().drops_rule, 1u);
    size_t frame_len = udp_frame(400).size();
    EXPECT_EQ(h.nic->flows().counter(3), frame_len);
}

TEST(NicPipeline, NoMatchDrops)
{
    Testbed tb;
    auto& h = *tb.a;
    h.nic->uplink().deliver(net::Packet(udp_frame(64)));
    tb.eq.run();
    EXPECT_EQ(h.nic->stats().drops_no_rule, 1u);
}

TEST(NicShaping, SqRateLimitThrottlesEgress)
{
    Testbed tb;
    auto& h = *tb.a;
    VportId v = h.nic->add_vport();
    std::vector<Cqe> cqes;
    uint32_t cqn = h.make_cq(256, &cqes);
    auto sq = h.make_sq(256, cqn, v, /*rate=*/1.0); // 1 Gbps

    FlowMatch m;
    m.in_vport = v;
    h.nic->add_rule(0, 0, m, {fwd_vport(kUplinkVport)});

    sim::TimePs last_tx = 0;
    uint64_t tx_bytes = 0;
    h.nic->uplink().set_tx_hook([&](net::Packet&& p) {
        last_tx = tb.eq.now();
        tx_bytes += p.size();
    });

    const int n = 50;
    for (int i = 0; i < n; ++i)
        h.post_tx(sq, udp_frame(1000), false);
    tb.eq.run();

    // ~50 KB at 1 Gbps needs ~400 us (minus the initial burst).
    double gbps = sim::gbps_of(tx_bytes, last_tx);
    EXPECT_LT(gbps, 1.6);
    EXPECT_GT(gbps, 0.5);
}

} // namespace
} // namespace fld::nic
