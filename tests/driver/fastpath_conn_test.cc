/**
 * @file
 * Connection tests for the host fast path: handshake state
 * progression, randomized open/close/reset interleavings across 1200
 * connections checked against a shadow state-machine oracle, the
 * per-flow isolation regressions (per-connection retransmit timers,
 * per-next-hop ARP parking), the connection table and 4-tuple index
 * (ids across 2000 open/close cycles, a randomized differential
 * against std::map), and the send-path units (ARP, MSS segmentation,
 * window, retransmission timer) on one ring-less connection.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <functional>
#include <map>
#include <random>
#include <set>
#include <tuple>
#include <vector>

#include "apps/app_emu.h"
#include "driver/fastpath.h"
#include "net/headers.h"
#include "sim/event_queue.h"

using namespace fld;
using driver::ConnState;
using driver::CtrlMsg;
using driver::FastPath;

namespace {

constexpr uint32_t kClientIp = net::ipv4_addr(10, 9, 0, 2);
constexpr uint32_t kServerIp = net::ipv4_addr(10, 9, 0, 1);
constexpr net::MacAddr kCliMac{0x02, 0, 0, 0, 0, 2};
constexpr net::MacAddr kSrvMac{0x02, 0, 0, 0, 0, 1};
constexpr uint16_t kListenPort = 7000;
constexpr uint8_t kAck = 0x10;

/** Two stacks joined by a half-microsecond direct wire, with per-port
 *  frame cutting and wire-level duplicate-transmission tracking. */
struct DirectPair
{
    sim::EventQueue eq;
    FastPath client;
    FastPath server;
    std::set<uint16_t> cut; ///< client ports whose frames vanish
    uint64_t dropped = 0;
    /** Per client-port count of frames whose (dir, seq, ack, flags,
     *  len) was already seen on the wire — i.e., retransmissions. */
    std::map<uint16_t, uint64_t> wire_dups;

    explicit DirectPair(driver::ConnConfig conn = {})
        : client(eq, cfg(kCliMac, kClientIp, conn)),
          server(eq, cfg(kSrvMac, kServerIp, conn))
    {
        client.set_tx([this](net::Packet&& f) {
            return forward(std::move(f), /*to_server=*/true);
        });
        server.set_tx([this](net::Packet&& f) {
            return forward(std::move(f), /*to_server=*/false);
        });
        client.add_arp_entry(kServerIp, kSrvMac);
        server.add_arp_entry(kClientIp, kCliMac);
    }

    static driver::FastPathConfig cfg(const net::MacAddr& mac,
                                      uint32_t ip,
                                      driver::ConnConfig conn)
    {
        driver::FastPathConfig c;
        c.mac = mac;
        c.ip = ip;
        c.conn = conn;
        return c;
    }

    bool forward(net::Packet&& f, bool to_server)
    {
        net::ParsedPacket pp = net::parse(f);
        if (pp.has_tcp) {
            net::TcpHeader th =
                net::TcpHeader::decode(f.bytes() + pp.l4_offset);
            uint16_t cport = to_server ? th.sport : th.dport;
            auto sig = std::make_tuple(to_server, th.seq, th.ack, th.flags,
                                       uint32_t(pp.payload_len));
            if (!seen_[cport].insert(sig).second)
                ++wire_dups[cport];
            if (cut.count(cport)) {
                ++dropped;
                return true; // swallowed by the wire
            }
        }
        FastPath& dst = to_server ? server : client;
        eq.schedule_in(sim::nanoseconds(500),
                       [&dst, f = std::move(f)]() mutable {
                           dst.on_rx(std::move(f));
                       });
        return true;
    }

  private:
    std::map<uint16_t,
             std::set<std::tuple<bool, uint32_t, uint32_t, uint8_t,
                                 uint32_t>>>
        seen_;
};

/** Drain an app's RX ring; returns delivered data bytes per conn. */
std::map<uint32_t, uint64_t>
drain_rx(FastPath& fp, uint32_t app)
{
    std::map<uint32_t, uint64_t> bytes;
    driver::DescRing& rx = fp.rx_ring(app);
    bool drained = false;
    while (!rx.empty()) {
        driver::RingDesc d;
        uint32_t slot = rx.pop(&d);
        if (d.type == driver::kDescData)
            bytes[uint32_t(d.opaque)] += d.len;
        rx.release(slot);
        drained = true;
    }
    if (drained)
        fp.rx_doorbell(app);
    return bytes;
}

} // namespace

// ---------------------------------------------------------------------
// Handshake and teardown units
// ---------------------------------------------------------------------

TEST(FastPathConn, HandshakeEstablishesBothEnds)
{
    DirectPair p;
    uint32_t capp = p.client.register_app(8, 8, [] {});
    uint32_t sapp = p.server.register_app(8, 8, [] {});
    p.server.listen(kListenPort, sapp);

    uint32_t c = p.client.open(capp, 77, kServerIp, kListenPort, 20000);
    ASSERT_NE(c, FastPath::kNoConn);
    EXPECT_EQ(p.client.conn(c)->state(), ConnState::SynSent);

    p.eq.run();

    ASSERT_NE(p.client.conn(c), nullptr);
    EXPECT_EQ(p.client.conn(c)->state(), ConnState::Established);
    auto opened = p.client.poll_ctrl(capp);
    ASSERT_TRUE(opened.has_value());
    EXPECT_EQ(opened->type, CtrlMsg::Type::Opened);
    EXPECT_EQ(opened->conn_id, c);
    EXPECT_EQ(opened->cookie, 77u);

    auto acc = p.server.poll_ctrl(sapp);
    ASSERT_TRUE(acc.has_value());
    EXPECT_EQ(acc->type, CtrlMsg::Type::Accepted);
    EXPECT_EQ(acc->key.remote_ip, kClientIp);
    EXPECT_EQ(acc->key.remote_port, 20000);
    EXPECT_EQ(p.server.conn(acc->conn_id)->state(),
              ConnState::Established);
    EXPECT_EQ(p.client.stats().conns_opened, 1u);
    EXPECT_EQ(p.server.stats().conns_accepted, 1u);
}

TEST(FastPathConn, CloseHandshakeClosesBothEnds)
{
    DirectPair p;
    uint32_t capp = p.client.register_app(8, 64, [] {});
    uint32_t sapp = p.server.register_app(8, 64, [] {});
    p.server.listen(kListenPort, sapp);

    uint32_t c = p.client.open(capp, 0, kServerIp, kListenPort, 20000);
    p.eq.run();
    std::vector<uint8_t> data(300, 0xab);
    EXPECT_EQ(p.client.stream_send(c, data.data(), data.size()),
              data.size());
    p.eq.run();
    p.client.close(c);
    p.eq.run();

    bool client_closed = false, server_closed = false;
    while (auto m = p.client.poll_ctrl(capp))
        client_closed |= m->type == CtrlMsg::Type::Closed;
    uint32_t sconn = FastPath::kNoConn;
    while (auto m = p.server.poll_ctrl(sapp)) {
        if (m->type == CtrlMsg::Type::Accepted)
            sconn = m->conn_id;
        server_closed |= m->type == CtrlMsg::Type::Closed;
    }
    EXPECT_TRUE(client_closed);
    EXPECT_TRUE(server_closed);
    auto bytes = drain_rx(p.server, sapp);
    EXPECT_EQ(bytes[sconn], data.size());

    // Time-wait expired inside eq.run(): both conn slots are free,
    // and a healthy wire saw every frame exactly once.
    EXPECT_EQ(p.client.live_conns(), 0u);
    EXPECT_EQ(p.server.live_conns(), 0u);
    EXPECT_TRUE(p.client.quiesced());
    EXPECT_TRUE(p.server.quiesced());
    EXPECT_EQ(p.wire_dups[20000], 0u);
}

TEST(FastPathConn, SimultaneousCloseConverges)
{
    DirectPair p;
    uint32_t capp = p.client.register_app(8, 8, [] {});
    uint32_t sapp = p.server.register_app(8, 8, [] {});
    p.server.listen(kListenPort, sapp);
    uint32_t c = p.client.open(capp, 0, kServerIp, kListenPort, 20000);
    p.eq.run();

    uint32_t sconn = FastPath::kNoConn;
    while (auto m = p.server.poll_ctrl(sapp))
        if (m->type == CtrlMsg::Type::Accepted)
            sconn = m->conn_id;
    ASSERT_NE(sconn, FastPath::kNoConn);

    // Both ends close in the same tick: the FINs cross on the wire.
    p.client.close(c);
    p.server.close(sconn);
    p.eq.run();

    bool client_closed = false, server_closed = false;
    while (auto m = p.client.poll_ctrl(capp))
        client_closed |= m->type == CtrlMsg::Type::Closed;
    while (auto m = p.server.poll_ctrl(sapp))
        server_closed |= m->type == CtrlMsg::Type::Closed;
    EXPECT_TRUE(client_closed);
    EXPECT_TRUE(server_closed);
    EXPECT_EQ(p.client.live_conns(), 0u);
    EXPECT_EQ(p.server.live_conns(), 0u);
}

TEST(FastPathConn, FourTupleReuseRejectedWhileLive)
{
    DirectPair p;
    uint32_t capp = p.client.register_app(8, 8, [] {});
    uint32_t sapp = p.server.register_app(8, 8, [] {});
    p.server.listen(kListenPort, sapp);
    uint32_t c = p.client.open(capp, 0, kServerIp, kListenPort, 20000);
    ASSERT_NE(c, FastPath::kNoConn);
    EXPECT_EQ(p.client.open(capp, 0, kServerIp, kListenPort, 20000),
              FastPath::kNoConn)
        << "same 4-tuple must be rejected while the conn lives";
    p.eq.run();
}

// ---------------------------------------------------------------------
// Time-wait and teardown-race edge cases
// ---------------------------------------------------------------------

TEST(FastPathConn, RstDuringTimeWaitIgnored)
{
    DirectPair p;
    uint32_t capp = p.client.register_app(8, 8, [] {});
    uint32_t sapp = p.server.register_app(8, 8, [] {});
    p.server.listen(kListenPort, sapp);
    uint32_t c = p.client.open(capp, 0, kServerIp, kListenPort, 20000);
    p.eq.run();
    ASSERT_EQ(p.client.conn(c)->state(), ConnState::Established);

    // Active close: the client lingers in Closed (time-wait) for
    // rto * time_wait_rtos before the slot is freed. Stop the clock
    // inside that window.
    p.client.close(c);
    p.eq.run_until(p.eq.now() + sim::microseconds(50));
    ASSERT_NE(p.client.conn(c), nullptr);
    ASSERT_EQ(p.client.conn(c)->state(), ConnState::Closed);
    while (p.client.poll_ctrl(capp)) {
    } // swallow Opened/Closed; anything after the RST is unexpected
    uint64_t resets_before = p.client.stats().conns_reset;

    // A stray RST aimed at the lingering tuple (stale segment from an
    // old incarnation) must neither resurrect the connection nor
    // signal a spurious Reset to the app.
    p.client.on_rx(net::PacketBuilder()
                       .eth(kSrvMac, kCliMac)
                       .ipv4(kServerIp, kClientIp, net::kIpProtoTcp)
                       .tcp(kListenPort, 20000, /*seq=*/1, /*ack=*/1,
                            /*RST|ACK*/ 0x14)
                       .build());
    ASSERT_NE(p.client.conn(c), nullptr);
    EXPECT_EQ(p.client.conn(c)->state(), ConnState::Closed);
    EXPECT_EQ(p.client.stats().conns_reset, resets_before);
    EXPECT_FALSE(p.client.poll_ctrl(capp).has_value())
        << "a time-wait RST must not produce a ctrl message";

    // The linger still expires on schedule and frees the slot.
    p.eq.run();
    EXPECT_EQ(p.client.live_conns(), 0u);
    EXPECT_TRUE(p.client.quiesced());
}

TEST(FastPathConn, FourTupleReuseAfterTimeWaitExpiry)
{
    driver::ConnConfig conn;
    conn.rto = sim::microseconds(100); // linger = 4 rtos = 400 us
    DirectPair p(conn);
    uint32_t capp = p.client.register_app(8, 8, [] {});
    uint32_t sapp = p.server.register_app(8, 8, [] {});
    p.server.listen(kListenPort, sapp);

    uint32_t c = p.client.open(capp, 0, kServerIp, kListenPort, 20000);
    p.eq.run();
    p.client.close(c);
    p.eq.run_until(p.eq.now() + sim::microseconds(50));
    ASSERT_EQ(p.client.conn(c)->state(), ConnState::Closed);

    // Still lingering: the demux entry is occupied, reuse is refused.
    EXPECT_EQ(p.client.open(capp, 1, kServerIp, kListenPort, 20000),
              FastPath::kNoConn)
        << "4-tuple reuse must be rejected during time-wait";

    // Let the linger expire; the exact same tuple then opens cleanly.
    p.eq.run();
    EXPECT_EQ(p.client.live_conns(), 0u);
    uint32_t c2 =
        p.client.open(capp, 2, kServerIp, kListenPort, 20000);
    ASSERT_NE(c2, FastPath::kNoConn);
    p.eq.run();
    ASSERT_NE(p.client.conn(c2), nullptr);
    EXPECT_EQ(p.client.conn(c2)->state(), ConnState::Established);
    EXPECT_EQ(p.server.stats().conns_accepted, 2u);
}

TEST(FastPathConn, ClosedCtrlRacesTxFullRetryInAppEmu)
{
    // A 2-entry TX ring shared by 16 closed-loop connections keeps
    // most slots parked on AppEmu's send queue. The server closes one
    // connection the moment it accepts it, so that slot's Closed ctrl
    // lands while its first request is still waiting for ring space —
    // the retry drain must re-validate and skip the dead slot instead
    // of posting onto a closed connection.
    DirectPair p;
    uint32_t sapp = p.server.register_app(8, 1024, [] {});
    p.server.listen(kListenPort, sapp);

    apps::AppEmuConfig acfg;
    acfg.connections = 16;
    acfg.requests_per_conn = 3;
    acfg.request_bytes = 256;
    acfg.tx_ring_entries = 2;
    acfg.rx_ring_entries = 64;
    acfg.remote_ip = kServerIp;
    acfg.remote_port = kListenPort;
    apps::AppEmu app(p.eq, p.client, acfg);

    const uint16_t target = 20010; // deep enough to be parked
    std::map<uint32_t, uint16_t> port_of;
    std::map<uint16_t, uint64_t> delivered;
    std::function<void()> pump = [&] {
        while (auto m = p.server.poll_ctrl(sapp)) {
            if (m->type == CtrlMsg::Type::Accepted) {
                port_of[m->conn_id] = m->key.remote_port;
                if (m->key.remote_port == target)
                    p.server.close(m->conn_id);
            }
        }
        for (const auto& [conn, bytes] : drain_rx(p.server, sapp))
            delivered[port_of[conn]] += bytes;
        if (p.eq.now() < sim::microseconds(3000))
            p.eq.schedule_in(sim::microseconds(10), pump);
    };
    p.eq.schedule_in(sim::microseconds(10), pump);

    app.start();
    p.eq.run();

    // Every incarnation reached a terminal state — the early Closed
    // did not wedge its slot (or the shared send queue) forever.
    EXPECT_TRUE(app.done());
    uint32_t closed_clean = 0;
    for (const apps::ConnOutcome& out : app.outcomes()) {
        SCOPED_TRACE("port " + std::to_string(out.local_port));
        EXPECT_TRUE(out.opened);
        EXPECT_TRUE(out.closed || out.reset);
        if (out.local_port == target)
            continue; // may have sent anything from 0 to all requests
        EXPECT_TRUE(out.closed);
        EXPECT_EQ(out.sent_bytes, 3u * 256u);
        EXPECT_EQ(out.acked_bytes, out.sent_bytes);
        EXPECT_EQ(delivered[out.local_port], out.sent_bytes);
        ++closed_clean;
    }
    EXPECT_EQ(closed_clean, 15u);

    // Nothing leaked: all descriptors handed back, nothing in flight.
    EXPECT_TRUE(p.client.tx_ring(app.app_id()).all_released());
    EXPECT_TRUE(p.client.rx_ring(app.app_id()).all_released());
    EXPECT_TRUE(p.client.quiesced());
    EXPECT_TRUE(p.server.quiesced());
}

// ---------------------------------------------------------------------
// Randomized open/close/reset interleavings vs a shadow oracle
// ---------------------------------------------------------------------

namespace {

enum class Plan : uint8_t {
    CleanClientClose,
    ServerClose,
    WireCutReset,
    LeaveOpen,
};

struct Shadow
{
    uint16_t port = 0;
    uint32_t conn = FastPath::kNoConn; ///< client-side id
    Plan plan = Plan::LeaveOpen;
    bool opened = false;
    bool closed = false;
    bool reset = false;
};

} // namespace

class FastPathChurn : public ::testing::TestWithParam<uint64_t>
{};

INSTANTIATE_TEST_SUITE_P(Seeds, FastPathChurn,
                         ::testing::Values(1ull, 42ull, 1337ull));

TEST_P(FastPathChurn, RandomizedLifecyclesMatchShadowOracle)
{
    constexpr uint32_t kConns = 1200;
    driver::ConnConfig conn;
    conn.rto = sim::microseconds(20); // resets resolve quickly
    conn.max_retries = 3;
    DirectPair p(conn);

    uint32_t capp = p.client.register_app(16, 4096, [] {});
    uint32_t sapp = p.server.register_app(16, 4096, [] {});
    p.server.listen(kListenPort, sapp);

    std::mt19937_64 rng(GetParam());
    std::vector<Shadow> shadows(kConns);
    std::vector<uint8_t> payload(96);
    for (size_t i = 0; i < payload.size(); ++i)
        payload[i] = uint8_t(i * 13);

    // Schedule a randomized interleaving up front; the event queue
    // orders same-tick work FIFO, so each seed is deterministic.
    for (uint32_t i = 0; i < kConns; ++i) {
        Shadow& sh = shadows[i];
        sh.port = uint16_t(20000 + i);
        switch (rng() % 4) {
        case 0: sh.plan = Plan::CleanClientClose; break;
        case 1: sh.plan = Plan::ServerClose; break;
        case 2: sh.plan = Plan::WireCutReset; break;
        default: sh.plan = Plan::LeaveOpen; break;
        }
        sim::TimePs open_at = sim::microseconds(double(rng() % 2000));
        sim::TimePs act_after =
            sim::microseconds(double(50 + rng() % 300));
        bool with_data = rng() % 2 == 0;

        p.eq.schedule_at(open_at, [&, i, act_after, with_data] {
            Shadow& s = shadows[i];
            s.conn = p.client.open(capp, i, kServerIp, kListenPort,
                                   s.port);
            ASSERT_NE(s.conn, FastPath::kNoConn);
            p.eq.schedule_in(act_after, [&, i, with_data] {
                Shadow& sh2 = shadows[i];
                const driver::Connection* c = p.client.conn(sh2.conn);
                if (!c || c->state() != ConnState::Established)
                    return; // e.g. peer already closed it (ServerClose)
                switch (sh2.plan) {
                case Plan::CleanClientClose:
                    if (with_data)
                        p.client.stream_send(sh2.conn, payload.data(),
                                             payload.size());
                    p.client.close(sh2.conn);
                    break;
                case Plan::ServerClose:
                    break; // the server pump below closes on accept
                case Plan::WireCutReset:
                    p.cut.insert(sh2.port);
                    // Data into the void forces RTO -> reset.
                    p.client.stream_send(sh2.conn, payload.data(),
                                         payload.size());
                    break;
                case Plan::LeaveOpen:
                    if (with_data)
                        p.client.stream_send(sh2.conn, payload.data(),
                                             payload.size());
                    break;
                }
            });
        });
    }

    // The server app: periodically poll the slow path (closing conns
    // whose plan is ServerClose) and drain both RX rings.
    std::map<uint16_t, uint32_t> server_conn_of;
    std::map<uint16_t, bool> server_closed_of, server_reset_of;
    std::map<uint16_t, Plan> plan_of;
    for (const Shadow& sh : shadows)
        plan_of[sh.port] = sh.plan;
    std::function<void()> server_pump = [&] {
        while (auto m = p.server.poll_ctrl(sapp)) {
            uint16_t port = m->key.remote_port;
            switch (m->type) {
            case CtrlMsg::Type::Accepted:
                server_conn_of[port] = m->conn_id;
                if (plan_of[port] == Plan::ServerClose)
                    p.server.close(m->conn_id);
                break;
            case CtrlMsg::Type::Closed:
                server_closed_of[port] = true;
                break;
            case CtrlMsg::Type::Reset:
                server_reset_of[port] = true;
                break;
            case CtrlMsg::Type::Opened:
                break;
            }
        }
        drain_rx(p.server, sapp);
        drain_rx(p.client, capp);
        if (p.eq.now() < sim::microseconds(4000))
            p.eq.schedule_in(sim::microseconds(25), server_pump);
    };
    p.eq.schedule_in(sim::microseconds(25), server_pump);

    p.eq.run();

    // Fold client ctrl messages into the shadows.
    std::map<uint32_t, Shadow*> by_conn;
    for (Shadow& sh : shadows)
        by_conn[sh.conn] = &sh;
    while (auto m = p.client.poll_ctrl(capp)) {
        auto it = by_conn.find(m->conn_id);
        ASSERT_NE(it, by_conn.end());
        if (m->type == CtrlMsg::Type::Opened)
            it->second->opened = true;
        if (m->type == CtrlMsg::Type::Closed)
            it->second->closed = true;
        if (m->type == CtrlMsg::Type::Reset)
            it->second->reset = true;
    }
    drain_rx(p.client, capp);
    server_pump(); // final drain (past the repump window)

    // --- shadow oracle ---
    uint32_t open_left = 0, resets = 0;
    for (const Shadow& sh : shadows) {
        SCOPED_TRACE("port " + std::to_string(sh.port));
        EXPECT_TRUE(sh.opened) << "handshake must complete";
        switch (sh.plan) {
        case Plan::CleanClientClose:
        case Plan::ServerClose:
            EXPECT_TRUE(sh.closed);
            EXPECT_FALSE(sh.reset);
            EXPECT_TRUE(server_closed_of[sh.port]);
            EXPECT_FALSE(server_reset_of[sh.port]);
            EXPECT_EQ(p.wire_dups[sh.port], 0u)
                << "no retransmits on a healthy flow";
            break;
        case Plan::WireCutReset: {
            EXPECT_TRUE(sh.reset);
            EXPECT_FALSE(sh.closed);
            ++resets;
            // The peer saw nothing; half-open is expected.
            EXPECT_FALSE(server_closed_of[sh.port]);
            const driver::Connection* c = p.client.conn(sh.conn);
            ASSERT_NE(c, nullptr);
            EXPECT_EQ(c->state(), ConnState::Reset);
            break;
        }
        case Plan::LeaveOpen: {
            EXPECT_FALSE(sh.closed);
            EXPECT_FALSE(sh.reset);
            const driver::Connection* c = p.client.conn(sh.conn);
            ASSERT_NE(c, nullptr);
            EXPECT_EQ(c->state(), ConnState::Established);
            EXPECT_EQ(p.wire_dups[sh.port], 0u);
            ++open_left;
            break;
        }
        }
    }
    EXPECT_EQ(p.client.stats().conns_reset, resets);
    EXPECT_GT(open_left, 0u);
    EXPECT_GT(resets, 0u);

    // No descriptor leaks, no dangling ownership flags, nothing in
    // flight anywhere.
    for (FastPath* fp : {&p.client, &p.server}) {
        uint32_t app = fp == &p.client ? capp : sapp;
        EXPECT_TRUE(fp->tx_ring(app).all_released());
        EXPECT_TRUE(fp->rx_ring(app).all_released());
        EXPECT_TRUE(fp->tx_ring(app).own_flags_clear());
        EXPECT_TRUE(fp->rx_ring(app).own_flags_clear());
        EXPECT_TRUE(fp->quiesced());
    }
}

// ---------------------------------------------------------------------
// Per-flow isolation regressions (the old stack's single global timer
// and single pending-ARP slot let one flow interfere with another)
// ---------------------------------------------------------------------

TEST(FastPathIsolation, PerConnTimersDoNotInterfere)
{
    sim::EventQueue eq;
    driver::FastPathConfig cfg;
    cfg.ip = kClientIp;
    cfg.mac = kCliMac;
    cfg.conn.rto = sim::microseconds(50);
    cfg.conn.max_retries = 4;
    driver::FastPath fp(eq, cfg);
    fp.set_tx([](net::Packet&&) { return true; });
    fp.add_arp_entry(kServerIp, kSrvMac);

    uint32_t a = fp.open_established(FastPath::kNoApp, 0, kServerIp,
                                     7000, 20001);
    uint32_t b = fp.open_established(FastPath::kNoApp, 0, kServerIp,
                                     7000, 20002);
    uint8_t buf[64] = {};
    fp.stream_send(a, buf, sizeof buf); // A: never acked
    fp.stream_send(b, buf, sizeof buf); // B: acked immediately

    // ACK everything on B only.
    net::Packet ack = net::PacketBuilder()
                          .eth(kSrvMac, kCliMac)
                          .ipv4(kServerIp, kClientIp, net::kIpProtoTcp)
                          .tcp(7000, 20002, /*seq=*/1,
                               /*ack=*/fp.conn(b)->snd_nxt(), kAck)
                          .build();
    fp.on_rx(std::move(ack));
    EXPECT_EQ(fp.conn(b)->unacked_segments(), 0u);

    // Run well past several RTOs: only A may retransmit, and A giving
    // up must not disturb B. (A single global timer either gets
    // cancelled by B's ACK — wedging A forever — or stays armed for A
    // and fires spurious retransmits for B.)
    eq.run();
    ASSERT_NE(fp.conn(a), nullptr);
    ASSERT_NE(fp.conn(b), nullptr);
    EXPECT_EQ(fp.conn(a)->state(), ConnState::Reset);
    EXPECT_EQ(fp.conn(a)->retransmits(), 4u);
    EXPECT_EQ(fp.conn(b)->state(), ConnState::Established);
    EXPECT_EQ(fp.conn(b)->retransmits(), 0u);
    EXPECT_FALSE(fp.conn(b)->timer_armed());
}

TEST(FastPathIsolation, PerNextHopArpDoesNotBlockResolvedFlows)
{
    sim::EventQueue eq;
    driver::FastPathConfig cfg;
    cfg.ip = kClientIp;
    cfg.mac = kCliMac;
    driver::FastPath fp(eq, cfg);

    const uint32_t ip_a = net::ipv4_addr(10, 9, 0, 10); // resolved
    const uint32_t ip_b = net::ipv4_addr(10, 9, 0, 11); // pending
    const net::MacAddr mac_a{0x02, 0, 0, 0, 0, 0xa};
    const net::MacAddr mac_b{0x02, 0, 0, 0, 0, 0xb};
    std::map<uint32_t, uint64_t> tcp_frames_to;
    uint64_t arp_frames = 0;
    fp.set_tx([&](net::Packet&& f) {
        net::ParsedPacket pp = net::parse(f);
        if (pp.has_tcp)
            ++tcp_frames_to[pp.dst_ip];
        else
            ++arp_frames;
        return true;
    });
    fp.add_arp_entry(ip_a, mac_a);

    uint32_t a = fp.open_established(FastPath::kNoApp, 0, ip_a, 7000,
                                     20001);
    uint32_t b = fp.open_established(FastPath::kNoApp, 0, ip_b, 7000,
                                     20002);
    uint8_t buf[32] = {};
    fp.stream_send(b, buf, sizeof buf); // parks on unresolved ARP
    fp.stream_send(a, buf, sizeof buf);

    // A's data flows immediately; B only put an ARP request on the
    // wire. (The legacy stack's single pending-ARP slot held *all*
    // transmit traffic behind one unresolved next hop.)
    EXPECT_EQ(tcp_frames_to[ip_a], 1u);
    EXPECT_EQ(tcp_frames_to[ip_b], 0u);
    EXPECT_GE(arp_frames, 1u);
    EXPECT_GE(fp.stats().arp_requests, 1u);
    EXPECT_TRUE(fp.resolved(ip_a));
    EXPECT_FALSE(fp.resolved(ip_b));

    // B's ARP reply lands: only B's parked frames flush.
    fp.add_arp_entry(ip_b, mac_b);
    EXPECT_EQ(tcp_frames_to[ip_b], 1u);
    EXPECT_EQ(tcp_frames_to[ip_a], 1u);

    // Quiet both retransmit timers (nobody is acking here).
    fp.on_rx(net::PacketBuilder()
                 .eth(mac_a, kCliMac)
                 .ipv4(ip_a, kClientIp, net::kIpProtoTcp)
                 .tcp(7000, 20001, 1, fp.conn(a)->snd_nxt(), kAck)
                 .build());
    fp.on_rx(net::PacketBuilder()
                 .eth(mac_b, kCliMac)
                 .ipv4(ip_b, kClientIp, net::kIpProtoTcp)
                 .tcp(7000, 20002, 1, fp.conn(b)->snd_nxt(), kAck)
                 .build());
    eq.run();
    EXPECT_EQ(fp.conn(a)->retransmits(), 0u);
    EXPECT_EQ(fp.conn(b)->retransmits(), 0u);
}

// ---------------------------------------------------------------------
// Connection table and 4-tuple index
// ---------------------------------------------------------------------

namespace {

constexpr uint8_t kRst = 0x04;

/** A stack whose frames go nowhere: active opens stay in SynSent
 *  (their ARP request is never answered), so close() frees them. */
struct LoneStack
{
    sim::EventQueue eq;
    FastPath fp{eq, DirectPair::cfg(kCliMac, kClientIp, {})};

    LoneStack()
    {
        fp.set_tx([](net::Packet&&) { return true; });
    }

    uint32_t open(const driver::ConnKey& k)
    {
        return fp.open(FastPath::kNoApp, 0, k.remote_ip, k.remote_port,
                       k.local_port);
    }

    /** A peer RST for @p k: resets a matching connection, counts a
     *  stray segment otherwise. */
    void rst(const driver::ConnKey& k)
    {
        fp.on_rx(net::PacketBuilder()
                     .eth(kSrvMac, kCliMac)
                     .ipv4(k.remote_ip, kClientIp, net::kIpProtoTcp)
                     .tcp(k.remote_port, k.local_port, 1, 0, kRst)
                     .build());
    }
};

bool
ascending(const std::vector<uint32_t>& v)
{
    return std::adjacent_find(v.begin(), v.end(),
                              std::greater_equal<uint32_t>()) ==
           v.end();
}

} // namespace

TEST(FastPathConn, IdTableAcrossTwoThousandOpenClose)
{
    LoneStack s;
    std::vector<uint32_t> ids;
    for (uint16_t i = 0; i < 2000; ++i) {
        uint32_t id =
            s.open({kServerIp, kListenPort, uint16_t(10000 + i)});
        ASSERT_NE(id, FastPath::kNoConn);
        ids.push_back(id);
    }
    EXPECT_TRUE(ascending(ids));
    EXPECT_EQ(s.fp.conn_ids(), ids);
    EXPECT_EQ(s.fp.live_conns(), 2000u);

    std::vector<uint32_t> order = ids;
    std::shuffle(order.begin(), order.end(), std::mt19937(5));
    for (size_t k = 0; k < order.size(); ++k) {
        s.fp.close(order[k]); // SynSent: aborted and freed at once
        ASSERT_EQ(s.fp.conn(order[k]), nullptr);
        EXPECT_EQ(s.fp.live_conns(), order.size() - k - 1);
        if (k % 250 == 0) {
            std::vector<uint32_t> live = s.fp.conn_ids();
            EXPECT_TRUE(ascending(live));
            EXPECT_EQ(live.size(), order.size() - k - 1);
        }
    }
    EXPECT_EQ(s.fp.live_conns(), 0u);
    EXPECT_TRUE(s.fp.conn_ids().empty());
    for (uint32_t id : ids)
        EXPECT_EQ(s.fp.conn(id), nullptr);
    EXPECT_EQ(s.fp.conn(FastPath::kNoConn), nullptr);
    EXPECT_EQ(s.fp.conn(ids.back() + 1), nullptr);
    EXPECT_EQ(s.fp.conn(0xffffffffu), nullptr);

    // Ids are never reused: the same 4-tuple gets a fresh id.
    uint32_t again = s.open({kServerIp, kListenPort, 10000});
    EXPECT_GT(again, ids.back());
    EXPECT_EQ(s.fp.conn_ids(), std::vector<uint32_t>{again});
}

TEST(FastPathConn, KeyIndexMatchesStdMapUnderRandomOps)
{
    // 4 x 8 x 8 keys, so opens collide with live 4-tuples and keys
    // differing in a single field sit side by side.
    LoneStack s;
    std::map<std::tuple<uint32_t, uint16_t, uint16_t>, uint32_t> ref;
    std::mt19937_64 rng(2024);
    for (int op = 0; op < 10000; ++op) {
        driver::ConnKey k;
        k.remote_ip = kServerIp + uint32_t(rng() % 4);
        k.remote_port = uint16_t(7000 + rng() % 8);
        k.local_port = uint16_t(20000 + rng() % 8);
        auto t = std::make_tuple(k.remote_ip, k.remote_port, k.local_port);
        auto it = ref.find(t);
        uint64_t r = rng() % 100;
        if (r < 45) {
            uint32_t id = s.open(k);
            if (it != ref.end()) {
                ASSERT_EQ(id, FastPath::kNoConn) << "op " << op;
            } else {
                ASSERT_NE(id, FastPath::kNoConn) << "op " << op;
                ASSERT_EQ(s.fp.conn(id)->key(), k);
                ref.emplace(t, id);
            }
        } else if (r < 75) {
            if (it != ref.end()) {
                s.fp.close(it->second); // SynSent or Reset: freed
                ASSERT_EQ(s.fp.conn(it->second), nullptr);
                ref.erase(it);
            }
        } else {
            uint64_t stray = s.fp.stats().stray_segments;
            s.rst(k);
            if (it != ref.end()) {
                ASSERT_EQ(s.fp.stats().stray_segments, stray)
                    << "op " << op;
                ASSERT_EQ(s.fp.conn(it->second)->state(),
                          ConnState::Reset);
            } else {
                ASSERT_EQ(s.fp.stats().stray_segments, stray + 1)
                    << "op " << op;
            }
        }
        ASSERT_EQ(s.fp.live_conns(), ref.size()) << "op " << op;
    }
    std::vector<uint32_t> expect;
    for (const auto& [key, id] : ref)
        expect.push_back(id);
    std::sort(expect.begin(), expect.end());
    EXPECT_EQ(s.fp.conn_ids(), expect);
}

// ---------------------------------------------------------------------
// Send-path units: ARP parking, MSS segmentation, the go-back-N window
// and the retransmission timer on one ring-less (kNoApp) connection,
// driven through stream_send() and on_rx(). The suite keeps the name
// of the single-connection software send stack these checks were
// first written against.
// ---------------------------------------------------------------------

namespace {

constexpr uint16_t kSendPort = 40000;
constexpr uint16_t kPeerPort = 5001;

/** One stack with one established ring-less connection to kServerIp
 *  (mss 100, window 4 segments, rto 200 us), capturing every frame it
 *  transmits. */
struct SendPath
{
    sim::EventQueue eq;
    std::vector<net::Packet> frames;
    FastPath fp;
    uint32_t id = FastPath::kNoConn;

    explicit SendPath(uint32_t max_retries = 8)
        : fp(eq, config(max_retries))
    {
        fp.set_tx([this](net::Packet&& f) {
            frames.push_back(std::move(f));
            return true;
        });
        id = fp.open_established(FastPath::kNoApp, 0, kServerIp,
                                 kPeerPort, kSendPort);
    }

    static driver::FastPathConfig config(uint32_t max_retries)
    {
        driver::FastPathConfig c;
        c.mac = kCliMac;
        c.ip = kClientIp;
        c.conn.mss = 100;
        c.conn.window_segments = 4;
        c.conn.rto = sim::microseconds(200);
        c.conn.max_retries = max_retries;
        return c;
    }

    const driver::Connection& conn() const { return *fp.conn(id); }
    uint32_t mss() const { return fp.config().conn.mss; }
    sim::TimePs rto() const { return fp.config().conn.rto; }

    void resolve() { fp.add_arp_entry(kServerIp, kSrvMac); }

    /** Stream @p n patterned bytes; returns them. */
    std::vector<uint8_t> send(size_t n)
    {
        std::vector<uint8_t> v(n);
        for (size_t i = 0; i < n; ++i)
            v[i] = uint8_t(i * 13 + 7);
        EXPECT_EQ(fp.stream_send(id, v.data(), v.size()), n);
        return v;
    }

    /** The peer's cumulative ACK up to @p ack. */
    void ack(uint32_t ack)
    {
        fp.on_rx(net::PacketBuilder()
                     .eth(kSrvMac, kCliMac)
                     .ipv4(kServerIp, kClientIp, net::kIpProtoTcp)
                     .tcp(kPeerPort, kSendPort, /*seq=*/1, ack, kAck)
                     .build());
    }
};

/** The TCP header of a transmitted frame. */
net::TcpHeader
tcp_of(const net::Packet& f)
{
    return net::TcpHeader::decode(f.bytes() + net::parse(f).l4_offset);
}

constexpr uint8_t kPsh = 0x08;

} // namespace

TEST(SwSendStack, UnresolvedPeerTriggersArpRequestAndQueues)
{
    SendPath s;
    s.send(250); // 3 segments
    s.eq.run();

    // Only the ARP request went out; data waits for the reply.
    ASSERT_EQ(s.frames.size(), 1u);
    EXPECT_EQ(s.conn().backlog_segments(), 3u);
    EXPECT_EQ(s.conn().segments_sent(), 0u);
    EXPECT_EQ(s.fp.stats().arp_requests, 1u);

    const net::Packet& req = s.frames[0];
    net::EthHeader eth = net::EthHeader::decode(req.bytes());
    EXPECT_EQ(eth.ethertype, net::kEtherTypeArp);
    net::MacAddr bcast = {0xff, 0xff, 0xff, 0xff, 0xff, 0xff};
    EXPECT_EQ(eth.dst, bcast);

    auto arp = net::ArpHeader::decode(req.bytes() + net::kEthHeaderLen,
                                      req.size() - net::kEthHeaderLen);
    ASSERT_TRUE(arp.has_value());
    EXPECT_EQ(arp->oper, net::ArpHeader::kRequest);
    EXPECT_EQ(arp->target_ip, kServerIp);
    EXPECT_EQ(arp->sender_ip, kClientIp);
}

TEST(SwSendStack, ArpReplyReleasesQueuedSegments)
{
    SendPath s;
    s.send(250);
    ASSERT_EQ(s.frames.size(), 1u); // the ARP request

    net::ArpHeader reply;
    reply.oper = net::ArpHeader::kReply;
    reply.sender_mac = kSrvMac;
    reply.sender_ip = kServerIp;
    reply.target_mac = kCliMac;
    reply.target_ip = kClientIp;
    net::EthHeader eth;
    eth.src = kSrvMac;
    eth.dst = kCliMac;
    eth.ethertype = net::kEtherTypeArp;
    net::Packet frame;
    frame.data.resize(net::kEthHeaderLen + net::kArpLen);
    eth.encode(frame.bytes());
    reply.encode(frame.bytes() + net::kEthHeaderLen);

    s.fp.on_rx(std::move(frame)); // transmission is synchronous

    EXPECT_TRUE(s.fp.resolved(kServerIp));
    ASSERT_EQ(s.frames.size(), 4u); // request + 3 data segments
    for (size_t i = 1; i < s.frames.size(); ++i) {
        net::EthHeader h = net::EthHeader::decode(s.frames[i].bytes());
        EXPECT_EQ(h.dst, kSrvMac) << "segment " << i;
    }
    // Exactly one request even though three segments were waiting.
    EXPECT_EQ(s.fp.stats().arp_requests, 1u);
}

TEST(SwSendStack, StaticArpEntrySkipsResolution)
{
    SendPath s;
    s.resolve();
    s.send(50);
    ASSERT_EQ(s.frames.size(), 1u);
    EXPECT_TRUE(net::parse(s.frames[0]).has_tcp);
    EXPECT_EQ(s.fp.stats().arp_requests, 0u);
}

TEST(SwSendStack, SegmentsAtMssBoundaries)
{
    SendPath s;
    s.resolve();
    std::vector<uint8_t> data = s.send(3 * s.mss() + 7);

    ASSERT_EQ(s.frames.size(), 4u);
    uint32_t expect_seq = 1;
    size_t off = 0;
    for (size_t i = 0; i < s.frames.size(); ++i) {
        net::ParsedPacket pp = net::parse(s.frames[i]);
        ASSERT_TRUE(pp.has_tcp) << "segment " << i;
        EXPECT_EQ(tcp_of(s.frames[i]).seq, expect_seq) << "segment " << i;
        size_t want = (i < 3) ? s.mss() : 7u;
        ASSERT_EQ(pp.payload_len, want) << "segment " << i;
        EXPECT_EQ(0, std::memcmp(s.frames[i].bytes() + pp.payload_offset,
                                 data.data() + off, want))
            << "segment " << i;
        // PSH marks the end of the application write, nothing earlier.
        EXPECT_EQ((tcp_of(s.frames[i]).flags & kPsh) != 0, i == 3)
            << "segment " << i;
        expect_seq += uint32_t(want);
        off += want;
    }
    EXPECT_EQ(s.conn().snd_nxt(), 1u + uint32_t(data.size()));
}

TEST(SwSendStack, ExactMultipleOfMssHasNoEmptyTail)
{
    SendPath s;
    s.resolve();
    s.send(2 * s.mss());
    ASSERT_EQ(s.frames.size(), 2u);
    EXPECT_EQ(net::parse(s.frames[1]).payload_len, s.mss());
    EXPECT_TRUE(tcp_of(s.frames[1]).flags & kPsh); // still PSH-terminated
}

TEST(SwSendStack, WindowLimitsInFlightSegments)
{
    SendPath s; // window = 4 segments
    s.resolve();
    s.send(6 * s.mss());
    EXPECT_EQ(s.frames.size(), 4u);
    EXPECT_EQ(s.conn().unacked_segments(), 4u);
    EXPECT_EQ(s.conn().backlog_segments(), 2u);

    // Cumulative ACK for the first two segments opens the window.
    s.ack(1 + 2 * s.mss());
    EXPECT_EQ(s.frames.size(), 6u);
    EXPECT_EQ(s.conn().snd_una(), 1 + 2 * s.mss());
    EXPECT_EQ(s.conn().backlog_segments(), 0u);
}

TEST(SwSendStack, TimerArmsOnFirstUnackedSegment)
{
    SendPath s;
    s.resolve();
    EXPECT_FALSE(s.conn().timer_armed());
    s.send(50);
    EXPECT_TRUE(s.conn().timer_armed());
}

TEST(SwSendStack, TimeoutRetransmitsWholeWindow)
{
    SendPath s;
    s.resolve();
    s.send(2 * s.mss()); // 2 segments, both in window
    ASSERT_EQ(s.frames.size(), 2u);

    s.eq.run_until(s.rto() + sim::microseconds(1));
    // Go-back-N: both segments resent, same sequence numbers.
    ASSERT_EQ(s.frames.size(), 4u);
    EXPECT_EQ(s.conn().retransmits(), 2u);
    EXPECT_EQ(tcp_of(s.frames[2]).seq, 1u);
    EXPECT_EQ(tcp_of(s.frames[3]).seq, 1u + s.mss());
    // And the timer is armed again for the retransmission.
    EXPECT_TRUE(s.conn().timer_armed());
}

TEST(SwSendStack, AckDisarmsTimerNoSpuriousRetransmit)
{
    SendPath s;
    s.resolve();
    s.send(s.mss());
    ASSERT_EQ(s.frames.size(), 1u);

    // ACK everything just before the timer would fire.
    s.eq.run_until(s.rto() - sim::microseconds(10));
    s.ack(1 + s.mss());
    EXPECT_EQ(s.conn().unacked_segments(), 0u);
    EXPECT_FALSE(s.conn().timer_armed());

    // The already-scheduled timeout must hit the generation check.
    s.eq.run();
    EXPECT_EQ(s.frames.size(), 1u);
    EXPECT_EQ(s.conn().retransmits(), 0u);
}

TEST(SwSendStack, StaleTimerDoesNotRetransmitAfterProgress)
{
    SendPath s;
    s.resolve();
    s.send(s.mss()); // seg 1, timer armed at t=0
    s.eq.run_until(s.rto() / 2);
    s.ack(1 + s.mss()); // progress
    s.send(s.mss());    // seg 2, fresh timer

    // Past the ORIGINAL deadline: the stale timer must not fire.
    s.eq.run_until(s.rto() + sim::microseconds(1));
    EXPECT_EQ(s.conn().retransmits(), 0u);

    // The fresh timer still protects segment 2.
    s.eq.run_until(s.rto() / 2 + s.rto() + sim::microseconds(1));
    EXPECT_EQ(s.conn().retransmits(), 1u);
    EXPECT_EQ(tcp_of(s.frames.back()).seq, 1u + s.mss());
}

TEST(SwSendStack, DuplicateAckIsIgnored)
{
    SendPath s;
    s.resolve();
    s.send(2 * s.mss());
    s.ack(1 + s.mss());
    uint32_t una = s.conn().snd_una();
    s.ack(1 + s.mss()); // duplicate
    s.ack(1);           // stale
    EXPECT_EQ(s.conn().snd_una(), una);
    EXPECT_EQ(s.conn().unacked_segments(), 1u);
}

TEST(SwSendStack, MaxRetriesResetsConnection)
{
    SendPath s(/*max_retries=*/2);
    s.resolve();
    s.send(s.mss());
    s.eq.run(); // no ACK ever: retry, retry, reset
    EXPECT_EQ(s.conn().retransmits(), 2u);
    EXPECT_EQ(s.conn().resets(), 1u);
    EXPECT_EQ(s.conn().unacked_segments(), 0u);
    EXPECT_EQ(s.conn().state(), ConnState::Reset);
    EXPECT_EQ(s.fp.stats().conns_reset, 1u);
}
