#include "apps/rpc_harness.h"

#include <sstream>

#include "net/headers.h"
#include "sim/trace.h"
#include "util/hash.h"
#include "util/strings.h"

namespace fld::apps {

namespace {

constexpr uint32_t kServerIp = net::ipv4_addr(10, 0, 0, 1);
constexpr uint32_t kClientIp = net::ipv4_addr(10, 0, 0, 2);

uint64_t
nic_drops(const nic::NicStats& st)
{
    return st.drops_no_buffer + st.drops_rule + st.drops_meter +
           st.drops_no_rule;
}

driver::CpuDriverConfig
one_queue_cfg()
{
    driver::CpuDriverConfig cfg;
    cfg.num_queues = 1;
    // Same tuning as run_fastpath_scenario: poll-mode endpoints with
    // deep rings so connection storms queue instead of shedding.
    cfg.max_app_backlog = sim::microseconds(500);
    return cfg;
}

bool
frame_matches_port(const net::Packet& pkt, uint16_t port)
{
    net::ParsedPacket pp = net::parse(pkt);
    return pp.has_tcp && (pp.sport == port || pp.dport == port);
}

} // namespace

std::string
RpcReport::summary() const
{
    std::ostringstream os;
    os << (ok ? "OK" : "FAIL") << " opened=" << client_app.opened
       << " closed=" << client_app.closed
       << " aborted=" << client_app.aborted
       << " requests=" << client_app.requests_sent
       << " responses=" << client_app.responses << "\n";
    os << "server: requests=" << server_app.requests
       << " responses=" << server_app.responses
       << " acked=" << server_app.responses_acked
       << " decode_errors=" << server_app.decode_errors << "\n";
    os << strfmt("latency us: p50=%.2f p99=%.2f p99.9=%.2f mean=%.2f "
                 "n=%zu\n",
                 p50_us, p99_us, p999_us, mean_us, latency.count());
    os << strfmt("rate: %.0f req/s, %.4f Gbps goodput\n", req_per_sec,
                 goodput_gbps);
    os << "conservation: " << ledger.summary() << "\n";
    os << "faults: " << faults.summary() << "\n";
    os << strfmt("digest_hash = %016llx\n",
                 (unsigned long long)digest_hash);
    os << strfmt("state_hash  = %016llx\n",
                 (unsigned long long)state_hash);
    os << "end_time_ps = " << end_time << "\n";
    for (const auto& v : violations)
        os << "violation: " << v << "\n";
    for (const auto& v : trace_violations)
        os << "trace: " << v << "\n";
    return os.str();
}

RpcReport
run_rpc_scenario(const RpcHarnessConfig& cfg)
{
    TestbedConfig tb_cfg = cfg.tb;
    tb_cfg.remote = true;
    // Client node modeled as a pinned load generator, same
    // calibration as the fast-path harness: the server is under test.
    tb_cfg.client_host.jitter_prob = 0.0005;
    tb_cfg.client_host.jitter_min = sim::microseconds(1);
    tb_cfg.client_host.jitter_mean_extra = sim::nanoseconds(500);
    tb_cfg.client_host.rx_packet_cost = sim::nanoseconds(20);
    tb_cfg.client_host.tx_packet_cost = sim::nanoseconds(20);
    Testbed tb(tb_cfg);

    sim::Tracer tracer;
    if (cfg.trace)
        tracer.install();

    // ----- client node: CpuDriver + FastPath + RpcClientPool ---------
    driver::CpuDriver client_drv(
        "client.app", tb.eq, tb.fabric, tb.client_host_port,
        tb.client_mem, tb.client_arena(32 << 20), 32 << 20,
        *tb.client_nic, Testbed::kClientNicBar, tb.client_host,
        tb.client_app_vport, one_queue_cfg(), Testbed::kClientMemBase);
    tb.install_client_forwarding();
    uint32_t ctir = tb.client_nic->create_tir({{client_drv.rqn(0)}});
    tb.client_nic->set_vport_default_tir(tb.client_app_vport, ctir);

    driver::FastPathConfig client_fp_cfg;
    client_fp_cfg.mac = kClientMac;
    client_fp_cfg.ip = kClientIp;
    client_fp_cfg.conn = cfg.conn;
    client_fp_cfg.slot_bytes = cfg.slot_bytes;
    driver::FastPath client_fp(tb.eq, client_fp_cfg);
    client_fp.set_tx([&](net::Packet&& f) {
        return client_drv.send(0, std::move(f));
    });
    client_drv.set_rx_handler([&](uint32_t, net::Packet&& f) {
        client_fp.on_rx(std::move(f));
    });

    RpcClientConfig client_cfg = cfg.client;
    client_cfg.remote_ip = kServerIp;
    client_cfg.remote_port = cfg.server.listen_port;
    RpcClientPool pool(tb.eq, client_fp, client_cfg);

    // ----- server node: FLD-driven or CPU-driven stack ---------------
    driver::FastPathConfig server_fp_cfg;
    server_fp_cfg.mac = kServerMac;
    server_fp_cfg.ip = kServerIp;
    server_fp_cfg.conn = cfg.conn;
    server_fp_cfg.slot_bytes = cfg.slot_bytes;
    driver::FastPath server_fp(tb.eq, server_fp_cfg);

    std::unique_ptr<HostStackAfu> afu;
    std::unique_ptr<driver::CpuDriver> server_drv;
    if (cfg.mode == FastPathMode::Fld) {
        auto q0 = tb.rt->create_eth_queue(tb.fld_vport, 0,
                                          cfg.fld_rx_buffers);
        afu = std::make_unique<HostStackAfu>(tb.eq, *tb.fld, server_fp,
                                             0);
        if (tb.fault_plan)
            afu->set_fault_plan(tb.fault_plan.get(),
                                tb.cfg.accel_faults);
        nic::FlowMatch from_wire;
        from_wire.in_vport = nic::kUplinkVport;
        tb.server_nic->add_rule(0, 0, from_wire,
                                {nic::fwd_queue(q0.rqn)});
        tb.route_vport_to_uplink(*tb.server_nic, tb.fld_vport);
    } else {
        server_drv = std::make_unique<driver::CpuDriver>(
            "server.app", tb.eq, tb.fabric, tb.server_host_port,
            tb.server_mem, tb.server_arena(32 << 20), 32 << 20,
            *tb.server_nic, Testbed::kServerNicBar, tb.server_host,
            tb.server_app_vport, one_queue_cfg());
        uint32_t stir =
            tb.server_nic->create_tir({{server_drv->rqn(0)}});
        tb.server_nic->set_vport_default_tir(tb.server_app_vport,
                                             stir);
        tb.route_uplink_to_vport(*tb.server_nic, tb.server_app_vport);
        tb.route_vport_to_uplink(*tb.server_nic, tb.server_app_vport);
        server_fp.set_tx([&](net::Packet&& f) {
            return server_drv->send(0, std::move(f));
        });
        server_drv->set_rx_handler([&](uint32_t, net::Packet&& f) {
            server_fp.on_rx(std::move(f));
        });
    }
    RpcServer server(tb.eq, server_fp, cfg.server);

    if (cfg.preseed_arp) {
        client_fp.add_arp_entry(kServerIp, kServerMac);
        server_fp.add_arp_entry(kClientIp, kClientMac);
    }
    if (cfg.fault_target_port && tb.wire)
        tb.wire->set_fault_filter(
            [port = cfg.fault_target_port](const net::Packet& p) {
                return frame_matches_port(p, port);
            });

    tb.eq.run(); // settle descriptor prefetch before traffic
    pool.start();
    tb.eq.run();

    if (cfg.trace)
        tracer.uninstall();

    // ----- fold the run into the report ------------------------------
    RpcReport r;
    r.end_time = tb.eq.now();
    r.client_app = pool.stats();
    r.server_app = server.stats();
    r.server_live_conns = server.live_conns();
    r.dispatch = server.dispatcher().stats();
    r.client_stats = client_fp.stats();
    r.server_stats = server_fp.stats();
    r.client_quiesced = client_fp.quiesced();
    r.server_quiesced = server_fp.quiesced();
    r.digests = pool.digests();
    r.latency = pool.latency();
    r.p50_us = r.latency.percentile(50);
    r.p99_us = r.latency.percentile(99);
    r.p999_us = r.latency.p(0.999);
    r.mean_us = r.latency.mean();
    double sim_sec = double(r.end_time) * 1e-12;
    if (sim_sec > 0) {
        r.req_per_sec = double(r.client_app.responses) / sim_sec;
        r.goodput_gbps =
            double(r.client_app.response_bytes) * 8.0 / sim_sec / 1e9;
    }

    const bool faulty = tb.fault_plan != nullptr;

    // Shadow conformance and stream integrity hold unconditionally:
    // TCP delivers byte streams intact or resets, never corrupted.
    for (const std::string& e : pool.errors())
        r.violations.push_back("client: " + e);
    if (r.client_app.conformance_errors)
        r.violations.push_back(
            strfmt("%llu responses diverged from the shadow oracle",
                   (unsigned long long)r.client_app.conformance_errors));
    if (r.client_app.protocol_errors)
        r.violations.push_back(strfmt(
            "%llu protocol errors (unexpected request ids)",
            (unsigned long long)r.client_app.protocol_errors));
    if (r.client_app.decode_errors || r.server_app.decode_errors)
        r.violations.push_back(strfmt(
            "poisoned frame streams (client=%llu server=%llu)",
            (unsigned long long)r.client_app.decode_errors,
            (unsigned long long)r.server_app.decode_errors));
    if (r.dispatch.rejected)
        r.violations.push_back(
            strfmt("dispatcher rejected %llu requests",
                   (unsigned long long)r.dispatch.rejected));
    if (!pool.done())
        r.violations.push_back("client workload did not finish");

    // Lifecycle: fault-free runs finish everything, exactly once.
    if (!faulty) {
        if (r.client_app.aborted)
            r.violations.push_back(strfmt(
                "%u connections aborted without faults",
                r.client_app.aborted));
        uint64_t expect = uint64_t(cfg.client.connections) *
                          cfg.client.requests_per_conn;
        if (r.client_app.responses != expect)
            r.violations.push_back(strfmt(
                "completed %llu / %llu requests",
                (unsigned long long)r.client_app.responses,
                (unsigned long long)expect));
        if (r.server_app.accepted != r.client_app.opened)
            r.violations.push_back(strfmt(
                "server accepted %u != client opened %u",
                r.server_app.accepted, r.client_app.opened));
        if (r.server_app.responses != r.server_app.requests)
            r.violations.push_back(strfmt(
                "server answered %llu of %llu requests",
                (unsigned long long)r.server_app.responses,
                (unsigned long long)r.server_app.requests));
        if (r.server_app.responses_acked != r.server_app.responses)
            r.violations.push_back(strfmt(
                "only %llu of %llu responses saw a tagged TxDone",
                (unsigned long long)r.server_app.responses_acked,
                (unsigned long long)r.server_app.responses));
        if (r.server_live_conns)
            r.violations.push_back(strfmt(
                "server still holds %zu connections",
                r.server_live_conns));
    } else {
        // Even under faults a served response is answered once; the
        // digest map can only shrink (aborted conns), never disagree.
        if (r.client_app.responses > r.client_app.requests_sent)
            r.violations.push_back("more responses than requests");
    }

    if (!r.client_quiesced)
        r.violations.push_back("client stack not quiesced");
    if (!r.server_quiesced)
        r.violations.push_back("server stack not quiesced");

    // Frame-conservation ledger.
    if (tb.fault_plan)
        r.faults = tb.fault_plan->counters();
    r.ledger.tx = r.client_stats.frames_tx + r.server_stats.frames_tx;
    r.ledger.rx = r.client_stats.frames_rx + r.server_stats.frames_rx;
    r.ledger.duplicates = r.faults.wire_duplicates;
    r.ledger.accounted_losses =
        r.faults.wire_drops + r.faults.wire_corruptions +
        nic_drops(tb.server_nic->stats()) +
        nic_drops(tb.client_nic->stats()) +
        client_drv.stats().rx_overload_dropped;
    if (afu)
        r.ledger.accounted_losses += afu->stats().dropped_overload +
                                     afu->stats().dropped_invalid;
    if (server_drv)
        r.ledger.accounted_losses +=
            server_drv->stats().rx_overload_dropped;
    if (std::string lv = r.ledger.check(); !lv.empty())
        r.violations.push_back("conservation: " + lv);

    if (cfg.trace) {
        sim::TraceChecker checker;
        r.trace_violations = checker.check(tracer.events());
    }

    // Digest hash: the per-request response digests, in id order.
    uint64_t h = kFnvBasis;
    for (const auto& [id, digest] : r.digests) {
        h = fnv1a64_fold(h, id);
        h = fnv1a64_fold(h, digest);
    }
    r.digest_hash = h;

    // State hash: every observable counter and the exact latency
    // sequence folded in — same-config reruns match bit-for-bit.
    h = fnv1a64_fold(h, pool.latency_fold());
    for (const driver::FastPathStats* st :
         {&r.client_stats, &r.server_stats}) {
        h = fnv1a64_fold(h, st->frames_tx);
        h = fnv1a64_fold(h, st->frames_rx);
        h = fnv1a64_fold(h, st->segments_sent);
        h = fnv1a64_fold(h, st->segments_received);
        h = fnv1a64_fold(h, st->retransmits);
        h = fnv1a64_fold(h, st->pure_acks_sent);
        h = fnv1a64_fold(h, st->tx_descs);
        h = fnv1a64_fold(h, st->rx_descs);
        h = fnv1a64_fold(h, st->tx_done_descs);
        h = fnv1a64_fold(h, st->tagged_tx_done_descs);
        h = fnv1a64_fold(h, st->rx_ring_stalls);
        h = fnv1a64_fold(h, st->driver_backpressure);
    }
    h = fnv1a64_fold(h, r.client_app.opened);
    h = fnv1a64_fold(h, r.client_app.closed);
    h = fnv1a64_fold(h, r.client_app.aborted);
    h = fnv1a64_fold(h, r.client_app.requests_sent);
    h = fnv1a64_fold(h, r.client_app.responses);
    h = fnv1a64_fold(h, r.server_app.requests);
    h = fnv1a64_fold(h, r.server_app.responses);
    h = fnv1a64_fold(h, r.server_app.responses_acked);
    h = fnv1a64_fold(h, r.dispatch.dispatched);
    h = fnv1a64_fold(h, uint64_t(r.dispatch.busy_time));
    h = fnv1a64_fold(h, r.faults.total());
    h = fnv1a64_fold(h, r.ledger.tx);
    h = fnv1a64_fold(h, r.ledger.rx);
    h = fnv1a64_fold(h, uint64_t(r.end_time));
    r.state_hash = h;

    r.ok = r.violations.empty() && r.trace_violations.empty();
    return r;
}

} // namespace fld::apps
