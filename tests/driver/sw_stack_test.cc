/**
 * @file
 * Unit tests for the software send stack: ARP resolution, TCP
 * segmentation at MSS boundaries, and retransmission timer arming.
 */
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "driver/sw_stack.h"
#include "net/headers.h"
#include "sim/event_queue.h"

namespace fld::driver {
namespace {

constexpr net::MacAddr kPeerMac = {0x02, 0, 0, 0, 0, 0x99};

/** Captures every frame the stack transmits. */
struct TxCapture
{
    std::vector<net::Packet> frames;

    SoftwareSendStack::TxFn fn()
    {
        return [this](net::Packet&& p) { frames.push_back(std::move(p)); };
    }
};

/** The TCP header of a transmitted frame. */
net::TcpHeader
tcp_of(const net::Packet& f)
{
    return net::TcpHeader::decode(f.bytes() + net::parse(f).l4_offset);
}

SendStackConfig
small_config()
{
    SendStackConfig cfg;
    cfg.mss = 100;
    cfg.window_segments = 4;
    cfg.rto = sim::microseconds(200);
    return cfg;
}

std::vector<uint8_t>
pattern(size_t n)
{
    std::vector<uint8_t> v(n);
    for (size_t i = 0; i < n; ++i)
        v[i] = uint8_t(i * 13 + 7);
    return v;
}

/** Build the cumulative ACK the peer would send for `ack`. */
net::Packet
ack_packet(const SendStackConfig& cfg, uint32_t ack)
{
    return net::PacketBuilder()
        .eth(kPeerMac, cfg.src_mac)
        .ipv4(cfg.dst_ip, cfg.src_ip, net::kIpProtoTcp)
        .tcp(cfg.dport, cfg.sport, /*seq=*/1, ack, /*flags=*/0x10)
        .build();
}

// ---------------------------------------------------------------------
// ARP resolution
// ---------------------------------------------------------------------

TEST(SwSendStack, UnresolvedPeerTriggersArpRequestAndQueues)
{
    sim::EventQueue eq;
    TxCapture tx;
    SoftwareSendStack stack(eq, tx.fn(), small_config());

    stack.send(pattern(250)); // 3 segments
    eq.run();

    // Only the ARP request went out; data waits for the reply.
    ASSERT_EQ(tx.frames.size(), 1u);
    EXPECT_EQ(stack.backlog_segments(), 3u);
    EXPECT_EQ(stack.segments_sent(), 0u);
    EXPECT_EQ(stack.arp_requests(), 1u);

    const net::Packet& req = tx.frames[0];
    net::EthHeader eth = net::EthHeader::decode(req.bytes());
    EXPECT_EQ(eth.ethertype, net::kEtherTypeArp);
    net::MacAddr bcast = {0xff, 0xff, 0xff, 0xff, 0xff, 0xff};
    EXPECT_EQ(eth.dst, bcast);

    auto arp = net::ArpHeader::decode(req.bytes() + net::kEthHeaderLen,
                                      req.size() - net::kEthHeaderLen);
    ASSERT_TRUE(arp.has_value());
    EXPECT_EQ(arp->oper, net::ArpHeader::kRequest);
    EXPECT_EQ(arp->target_ip, small_config().dst_ip);
    EXPECT_EQ(arp->sender_ip, small_config().src_ip);
}

TEST(SwSendStack, ArpReplyReleasesQueuedSegments)
{
    sim::EventQueue eq;
    TxCapture tx;
    SendStackConfig cfg = small_config();
    SoftwareSendStack stack(eq, tx.fn(), cfg);

    stack.send(pattern(250));
    ASSERT_EQ(tx.frames.size(), 1u); // the ARP request

    net::ArpHeader reply;
    reply.oper = net::ArpHeader::kReply;
    reply.sender_mac = kPeerMac;
    reply.sender_ip = cfg.dst_ip;
    reply.target_mac = cfg.src_mac;
    reply.target_ip = cfg.src_ip;
    net::EthHeader eth;
    eth.src = kPeerMac;
    eth.dst = cfg.src_mac;
    eth.ethertype = net::kEtherTypeArp;
    net::Packet frame;
    frame.data.resize(net::kEthHeaderLen + net::kArpLen);
    eth.encode(frame.bytes());
    reply.encode(frame.bytes() + net::kEthHeaderLen);

    stack.on_rx(frame); // transmission is synchronous on resolution

    EXPECT_TRUE(stack.resolved(cfg.dst_ip));
    ASSERT_EQ(tx.frames.size(), 4u); // request + 3 data segments
    for (size_t i = 1; i < tx.frames.size(); ++i) {
        net::EthHeader h = net::EthHeader::decode(tx.frames[i].bytes());
        EXPECT_EQ(h.dst, kPeerMac) << "segment " << i;
    }
    // Exactly one request even though three segments were waiting.
    EXPECT_EQ(stack.arp_requests(), 1u);
}

TEST(SwSendStack, StaticArpEntrySkipsResolution)
{
    sim::EventQueue eq;
    TxCapture tx;
    SendStackConfig cfg = small_config();
    SoftwareSendStack stack(eq, tx.fn(), cfg);
    stack.add_arp_entry(cfg.dst_ip, kPeerMac);

    stack.send(pattern(50));
    ASSERT_EQ(tx.frames.size(), 1u);
    net::ParsedPacket pp = net::parse(tx.frames[0]);
    ASSERT_TRUE(pp.has_tcp);
    EXPECT_EQ(stack.arp_requests(), 0u);
}

// ---------------------------------------------------------------------
// TCP segmentation
// ---------------------------------------------------------------------

TEST(SwSendStack, SegmentsAtMssBoundaries)
{
    sim::EventQueue eq;
    TxCapture tx;
    SendStackConfig cfg = small_config(); // mss = 100
    SoftwareSendStack stack(eq, tx.fn(), cfg);
    stack.add_arp_entry(cfg.dst_ip, kPeerMac);

    std::vector<uint8_t> data = pattern(3 * cfg.mss + 7);
    stack.send(data);

    ASSERT_EQ(tx.frames.size(), 4u);
    uint32_t expect_seq = 1;
    size_t off = 0;
    for (size_t i = 0; i < tx.frames.size(); ++i) {
        net::ParsedPacket pp = net::parse(tx.frames[i]);
        ASSERT_TRUE(pp.has_tcp) << "segment " << i;
        EXPECT_EQ(tcp_of(tx.frames[i]).seq, expect_seq) << "segment " << i;
        size_t want = (i < 3) ? cfg.mss : 7u;
        ASSERT_EQ(pp.payload_len, want) << "segment " << i;
        EXPECT_EQ(0, std::memcmp(tx.frames[i].bytes() + pp.payload_offset,
                                 data.data() + off, want))
            << "segment " << i;
        // PSH marks the end of the application write, nothing earlier.
        EXPECT_EQ((tcp_of(tx.frames[i]).flags & 0x08) != 0, i == 3)
            << "segment " << i;
        expect_seq += uint32_t(want);
        off += want;
    }
    EXPECT_EQ(stack.snd_nxt(), 1u + uint32_t(data.size()));
}

TEST(SwSendStack, ExactMultipleOfMssHasNoEmptyTail)
{
    sim::EventQueue eq;
    TxCapture tx;
    SendStackConfig cfg = small_config();
    SoftwareSendStack stack(eq, tx.fn(), cfg);
    stack.add_arp_entry(cfg.dst_ip, kPeerMac);

    stack.send(pattern(2 * cfg.mss));
    ASSERT_EQ(tx.frames.size(), 2u);
    net::ParsedPacket last = net::parse(tx.frames[1]);
    EXPECT_EQ(last.payload_len, cfg.mss);
    EXPECT_TRUE(tcp_of(tx.frames[1]).flags & 0x08); // still PSH-terminated
}

TEST(SwSendStack, WindowLimitsInFlightSegments)
{
    sim::EventQueue eq;
    TxCapture tx;
    SendStackConfig cfg = small_config(); // window = 4 segments
    SoftwareSendStack stack(eq, tx.fn(), cfg);
    stack.add_arp_entry(cfg.dst_ip, kPeerMac);

    stack.send(pattern(6 * cfg.mss));
    EXPECT_EQ(tx.frames.size(), 4u);
    EXPECT_EQ(stack.unacked_segments(), 4u);
    EXPECT_EQ(stack.backlog_segments(), 2u);

    // Cumulative ACK for the first two segments opens the window.
    stack.on_rx(ack_packet(cfg, 1 + 2 * cfg.mss));
    EXPECT_EQ(tx.frames.size(), 6u);
    EXPECT_EQ(stack.snd_una(), 1 + 2 * cfg.mss);
    EXPECT_EQ(stack.backlog_segments(), 0u);
}

// ---------------------------------------------------------------------
// Retransmission timer
// ---------------------------------------------------------------------

TEST(SwSendStack, TimerArmsOnFirstUnackedSegment)
{
    sim::EventQueue eq;
    TxCapture tx;
    SendStackConfig cfg = small_config();
    SoftwareSendStack stack(eq, tx.fn(), cfg);
    stack.add_arp_entry(cfg.dst_ip, kPeerMac);

    EXPECT_FALSE(stack.timer_armed());
    stack.send(pattern(50));
    EXPECT_TRUE(stack.timer_armed());
}

TEST(SwSendStack, TimeoutRetransmitsWholeWindow)
{
    sim::EventQueue eq;
    TxCapture tx;
    SendStackConfig cfg = small_config();
    SoftwareSendStack stack(eq, tx.fn(), cfg);
    stack.add_arp_entry(cfg.dst_ip, kPeerMac);

    stack.send(pattern(2 * cfg.mss)); // 2 segments, both in window
    ASSERT_EQ(tx.frames.size(), 2u);

    eq.run_until(cfg.rto + sim::microseconds(1));
    // Go-back-N: both segments resent, same sequence numbers.
    ASSERT_EQ(tx.frames.size(), 4u);
    EXPECT_EQ(stack.retransmits(), 2u);
    EXPECT_EQ(tcp_of(tx.frames[2]).seq, 1u);
    EXPECT_EQ(tcp_of(tx.frames[3]).seq, 1u + cfg.mss);
    // And the timer is armed again for the retransmission.
    EXPECT_TRUE(stack.timer_armed());
}

TEST(SwSendStack, AckDisarmsTimerNoSpuriousRetransmit)
{
    sim::EventQueue eq;
    TxCapture tx;
    SendStackConfig cfg = small_config();
    SoftwareSendStack stack(eq, tx.fn(), cfg);
    stack.add_arp_entry(cfg.dst_ip, kPeerMac);

    stack.send(pattern(cfg.mss));
    ASSERT_EQ(tx.frames.size(), 1u);

    // ACK everything just before the timer would fire.
    eq.run_until(cfg.rto - sim::microseconds(10));
    stack.on_rx(ack_packet(cfg, 1 + cfg.mss));
    EXPECT_EQ(stack.unacked_segments(), 0u);
    EXPECT_FALSE(stack.timer_armed());

    // The already-scheduled timeout must hit the generation check.
    eq.run();
    EXPECT_EQ(tx.frames.size(), 1u);
    EXPECT_EQ(stack.retransmits(), 0u);
}

TEST(SwSendStack, StaleTimerDoesNotRetransmitAfterProgress)
{
    sim::EventQueue eq;
    TxCapture tx;
    SendStackConfig cfg = small_config();
    SoftwareSendStack stack(eq, tx.fn(), cfg);
    stack.add_arp_entry(cfg.dst_ip, kPeerMac);

    stack.send(pattern(cfg.mss)); // seg 1, timer armed at t=0
    eq.run_until(cfg.rto / 2);
    stack.on_rx(ack_packet(cfg, 1 + cfg.mss)); // progress
    stack.send(pattern(cfg.mss));              // seg 2, fresh timer

    // Past the ORIGINAL deadline: the stale timer must not fire.
    eq.run_until(cfg.rto + sim::microseconds(1));
    EXPECT_EQ(stack.retransmits(), 0u);

    // The fresh timer still protects segment 2.
    eq.run_until(cfg.rto / 2 + cfg.rto + sim::microseconds(1));
    EXPECT_EQ(stack.retransmits(), 1u);
    EXPECT_EQ(tcp_of(tx.frames.back()).seq, 1u + cfg.mss);
}

TEST(SwSendStack, DuplicateAckIsIgnored)
{
    sim::EventQueue eq;
    TxCapture tx;
    SendStackConfig cfg = small_config();
    SoftwareSendStack stack(eq, tx.fn(), cfg);
    stack.add_arp_entry(cfg.dst_ip, kPeerMac);

    stack.send(pattern(2 * cfg.mss));
    stack.on_rx(ack_packet(cfg, 1 + cfg.mss));
    uint32_t una = stack.snd_una();
    stack.on_rx(ack_packet(cfg, 1 + cfg.mss)); // duplicate
    stack.on_rx(ack_packet(cfg, 1));           // stale
    EXPECT_EQ(stack.snd_una(), una);
    EXPECT_EQ(stack.unacked_segments(), 1u);
}

TEST(SwSendStack, MaxRetriesResetsConnection)
{
    sim::EventQueue eq;
    TxCapture tx;
    SendStackConfig cfg = small_config();
    cfg.max_retries = 2;
    SoftwareSendStack stack(eq, tx.fn(), cfg);
    stack.add_arp_entry(cfg.dst_ip, kPeerMac);

    stack.send(pattern(cfg.mss));
    eq.run(); // no ACK ever: retry, retry, reset
    EXPECT_EQ(stack.retransmits(), 2u);
    EXPECT_EQ(stack.resets(), 1u);
    EXPECT_EQ(stack.unacked_segments(), 0u);
}

} // namespace
} // namespace fld::driver
