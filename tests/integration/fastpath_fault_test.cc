/**
 * @file
 * Per-flow retransmit-under-fault tests: loss/reorder targeted at one
 * flow among hundreds of live connections must be absorbed by that
 * connection's own go-back-N machinery — exactly-once delivery on the
 * faulted flow, zero retransmissions on every other flow — first on a
 * direct wire with per-frame attribution, then through the full
 * FLD/CPU testbed harness where the EthernetLink fault filter does the
 * targeting. The filter's contract (frames it rejects never advance
 * the fault plan's RNG) gets its own bit-identity regression.
 */
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <tuple>

#include "apps/app_emu.h"
#include "apps/fastpath_harness.h"
#include "driver/fastpath.h"
#include "net/headers.h"
#include "sim/event_queue.h"

using namespace fld;
using apps::AppEmu;
using apps::AppEmuConfig;
using apps::ConnOutcome;
using apps::FastPathHarnessConfig;
using apps::FastPathMode;
using apps::FastPathReport;
using apps::SinkApp;
using apps::SinkAppConfig;
using driver::FastPath;

namespace {

constexpr uint32_t kClientIp = net::ipv4_addr(10, 8, 0, 2);
constexpr uint32_t kServerIp = net::ipv4_addr(10, 8, 0, 1);
constexpr net::MacAddr kCliMac{0x02, 0, 0, 0, 0, 2};
constexpr net::MacAddr kSrvMac{0x02, 0, 0, 0, 0, 1};

/**
 * Direct wire between two stacks that misbehaves only for one client
 * port's flow: every 4th frame of that flow is dropped and every 9th
 * is delivered 30 us late (reordered past younger frames). All other
 * flows get a clean 500 ns wire. Duplicate transmissions are tracked
 * per flow by (direction, seq, ack, flags, len) signature, which is
 * exactly the set of retransmitted-or-reemitted frames.
 */
struct FaultyWire
{
    sim::EventQueue eq;
    FastPath client;
    FastPath server;
    uint16_t target_port;
    uint64_t target_frames = 0;
    uint64_t target_drops = 0;
    uint64_t target_delays = 0;
    std::map<uint16_t, uint64_t> wire_dups;

    FaultyWire(uint16_t target, driver::ConnConfig conn = {})
        : client(eq, cfg(kCliMac, kClientIp, conn)),
          server(eq, cfg(kSrvMac, kServerIp, conn)),
          target_port(target)
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
        sim::TimePs delay = sim::nanoseconds(500);
        net::ParsedPacket pp = net::parse(f);
        if (pp.has_tcp) {
            net::TcpHeader th =
                net::TcpHeader::decode(f.bytes() + pp.l4_offset);
            uint16_t cport = to_server ? th.sport : th.dport;
            auto sig = std::make_tuple(to_server, th.seq, th.ack, th.flags,
                                       uint32_t(pp.payload_len));
            if (!seen_[cport].insert(sig).second)
                ++wire_dups[cport];
            if (cport == target_port) {
                uint64_t n = target_frames++;
                if (n % 4 == 1) {
                    ++target_drops;
                    return true; // lost on the wire
                }
                if (n % 9 == 5) {
                    ++target_delays;
                    delay = sim::microseconds(30);
                }
            }
        }
        FastPath& dst = to_server ? server : client;
        eq.schedule_in(delay, [&dst, f = std::move(f)]() mutable {
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

} // namespace

// ---------------------------------------------------------------------
// Targeted faults on a direct wire: per-frame attribution
// ---------------------------------------------------------------------

TEST(FastPathFault, TargetedFlowRecoversOthersUntouched)
{
    constexpr uint32_t kConns = 200;
    constexpr uint16_t kTarget = 20137; // slot 137's port
    FaultyWire w(kTarget);

    AppEmuConfig acfg;
    acfg.connections = kConns;
    acfg.requests_per_conn = 3;
    acfg.request_bytes = 256;
    acfg.remote_ip = kServerIp;
    acfg.tx_ring_entries = 256;
    acfg.rx_ring_entries = 512;
    AppEmu app(w.eq, w.client, acfg);

    SinkAppConfig scfg;
    scfg.rx_ring_entries = 512;
    SinkApp sink(w.eq, w.server, scfg);

    app.start();
    w.eq.run();

    // Every incarnation — including the faulted one — must finish
    // cleanly: go-back-N absorbs the targeted loss.
    ASSERT_TRUE(app.done());
    EXPECT_EQ(sink.accepted(), kConns);
    EXPECT_EQ(sink.resets(), 0u);
    for (const ConnOutcome& out : app.outcomes()) {
        SCOPED_TRACE("port " + std::to_string(out.local_port));
        EXPECT_TRUE(out.opened);
        EXPECT_TRUE(out.closed);
        EXPECT_FALSE(out.reset);
        EXPECT_EQ(out.acked_bytes, out.sent_bytes);

        // Exactly-once: the server's per-flow digest matches the
        // client's sent digest, faulted flow included.
        auto it = sink.flows().find(out.local_port);
        ASSERT_NE(it, sink.flows().end());
        EXPECT_EQ(it->second.bytes, out.sent_bytes);
        EXPECT_EQ(it->second.digest, out.sent_digest);
    }

    // The faults really happened, and the retransmissions they forced
    // stayed on the faulted flow: zero duplicate wire transmissions on
    // the other 199 connections.
    EXPECT_GT(w.target_drops, 0u);
    EXPECT_GT(w.target_delays, 0u);
    EXPECT_GT(w.wire_dups[kTarget], 0u);
    EXPECT_GT(w.client.stats().retransmits, 0u);
    for (const auto& [port, dups] : w.wire_dups) {
        if (port != kTarget) {
            EXPECT_EQ(dups, 0u) << "retransmit leaked to port " << port;
        }
    }

    // No descriptor leaks on either side of the ring ABI.
    for (auto [fp, appid] :
         {std::pair<FastPath*, uint32_t>{&w.client, app.app_id()},
          {&w.server, sink.app_id()}}) {
        EXPECT_TRUE(fp->tx_ring(appid).all_released());
        EXPECT_TRUE(fp->rx_ring(appid).all_released());
        EXPECT_TRUE(fp->tx_ring(appid).own_flags_clear());
        EXPECT_TRUE(fp->rx_ring(appid).own_flags_clear());
        EXPECT_TRUE(fp->quiesced());
    }
}

// ---------------------------------------------------------------------
// Targeted faults through the full testbed harness
// ---------------------------------------------------------------------

namespace {

FastPathHarnessConfig
faulted_cfg(FastPathMode mode)
{
    FastPathHarnessConfig cfg;
    cfg.mode = mode;
    cfg.app.connections = 64;
    cfg.app.requests_per_conn = 3;
    cfg.app.request_bytes = 256;
    cfg.tb.nic.wire_faults.drop_prob = 0.25;
    cfg.tb.nic.wire_faults.reorder_prob = 0.15;
    cfg.tb.nic.wire_faults.duplicate_prob = 0.10;
    cfg.fault_target_port = 20013; // slot 13's flow takes the faults
    return cfg;
}

} // namespace

TEST(FastPathFault, HarnessTargetedFaultsStayGreenBothModes)
{
    for (FastPathMode mode :
         {FastPathMode::Fld, FastPathMode::Cpu}) {
        const char* what =
            mode == FastPathMode::Fld ? "fld" : "cpu";
        FastPathReport r =
            apps::run_fastpath_scenario(faulted_cfg(mode));
        // The lifecycle, exactly-once and conservation oracles all
        // hold under targeted faults (lost frames are accounted, the
        // faulted flow's digest still matches).
        EXPECT_TRUE(r.ok) << what << ":\n" << r.summary();
        EXPECT_GT(r.faults.wire_faults(), 0u) << what;
        EXPECT_EQ(r.resets, 0u) << what;
        EXPECT_EQ(r.closed, 64u) << what;
        EXPECT_EQ(r.server_bytes, 64ull * 3 * 256) << what;
        EXPECT_EQ(r.server_flows.size(), 64u) << what;
    }
}

TEST(FastPathFault, FaultedRunIsDeterministic)
{
    FastPathReport a =
        apps::run_fastpath_scenario(faulted_cfg(FastPathMode::Fld));
    FastPathReport b =
        apps::run_fastpath_scenario(faulted_cfg(FastPathMode::Fld));
    EXPECT_EQ(a.state_hash, b.state_hash)
        << "run A:\n" << a.summary() << "run B:\n" << b.summary();
    EXPECT_EQ(a.end_time, b.end_time);
    EXPECT_EQ(a.faults.total(), b.faults.total());
}

// Regression for the fault filter's RNG contract: frames the filter
// rejects must not advance the fault plan's RNG. With the filter
// matching no flow at all, a run with (aggressive) wire faults
// configured must be bit-identical to a run with no faults — any
// stray RNG draw or perturbed frame shows up as a state-hash diff.
TEST(FastPathFault, FilterMatchingNoFlowIsBitIdenticalToFaultFree)
{
    FastPathHarnessConfig clean;
    clean.app.connections = 32;
    clean.app.requests_per_conn = 3;
    clean.app.request_bytes = 256;

    FastPathHarnessConfig filtered = clean;
    filtered.tb.nic.wire_faults.drop_prob = 0.5;
    filtered.tb.nic.wire_faults.reorder_prob = 0.5;
    filtered.fault_target_port = 9; // no flow uses port 9

    FastPathReport r_clean = apps::run_fastpath_scenario(clean);
    FastPathReport r_filt = apps::run_fastpath_scenario(filtered);
    EXPECT_TRUE(r_clean.ok) << r_clean.summary();
    EXPECT_TRUE(r_filt.ok) << r_filt.summary();
    EXPECT_EQ(r_filt.faults.total(), 0u);
    EXPECT_EQ(r_filt.state_hash, r_clean.state_hash)
        << "clean:\n" << r_clean.summary() << "filtered:\n"
        << r_filt.summary();
    EXPECT_EQ(r_filt.end_time, r_clean.end_time);
}
