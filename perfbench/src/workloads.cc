#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>

#include "apps/rpc_harness.h"
#include "apps/scenarios.h"
#include "host_info.h"
#include "sim/trace.h"
#include "stats.h"

namespace perfbench {

namespace {

using namespace fld;

// Reference figures the paper reports for two of the workloads.
constexpr double kPaperCpuImcMpps = 9.6;   // §8.1.1, CPU testpmd, IMC mix
constexpr double kPaperZucGbps = 17.6;     // §8.2.1 / Fig 8a, 1 KiB
/** paper_err_pct on a workload the paper has no figure for: the model
 *  is unvalidated there, and 100 reads as "no agreement shown". */
constexpr double kNoPaperReference = 100.0;

/** splitmix64: derives the per-component seeds from the one
 *  workload seed. */
uint64_t
derive_seed(uint64_t seed, uint64_t stream)
{
    uint64_t z = seed + stream * 0x9e3779b97f4a7c15ull;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

/** The seed reaches the OS-jitter draws of the client node, which runs
 *  the load generators: without it every seed would replay one jitter
 *  sequence, and fixed-size workloads would not vary at all. The
 *  server, the system under test, keeps its calibrated default. */
apps::TestbedConfig
seeded_testbed(uint64_t seed)
{
    apps::TestbedConfig tc;
    tc.client_host.seed = derive_seed(seed, 2);
    return tc;
}

double
rel_err_pct(double sim, double paper)
{
    return std::fabs(sim - paper) / paper * 100.0;
}

/** Times one phase of an iteration (wall, and thread CPU for run). */
class Span
{
  public:
    Span() : wall0_(wall_now()), cpu0_(thread_cpu_now()) {}
    double wall() const { return wall_now() - wall0_; }
    double cpu() const { return thread_cpu_now() - cpu0_; }

  private:
    double wall0_, cpu0_;
};

/** Time the host-speed kernel for a plain iteration. Called between
 *  set-up and run, so the kernel neither pollutes the caches the
 *  set-up span starts from nor runs inside a timed span. */
void
time_host_speed(Mode mode, Iteration& it)
{
    if (mode == Mode::Plain)
        it.slowdown = reference_kernel_s() / kReferenceKernelS;
}

/** Installs a tracer for a traced iteration, and nothing otherwise. */
class TraceScope
{
  public:
    explicit TraceScope(Mode mode)
    {
        if (mode == Mode::Traced) {
            tracer_.emplace();
            tracer_->install();
        }
    }
    ~TraceScope()
    {
        if (tracer_)
            tracer_->uninstall();
    }
    TraceScope(const TraceScope&) = delete;
    TraceScope& operator=(const TraceScope&) = delete;

    /** Stop recording and fold the trace into @p it. */
    void finish(Iteration& it)
    {
        if (!tracer_)
            return;
        tracer_->uninstall();
        it.trace_events = tracer_->events().size();
        it.stages.add(tracer_->events());
        tracer_.reset();
    }

  private:
    std::optional<sim::Tracer> tracer_;
};

/** Layer counters of a Testbed at one instant. */
struct TestbedSnapshot
{
    uint64_t events = 0;
    sim::EventQueue::WheelStats wheel;
    nic::NicStats nic[2];
    core::FldStats fld;
    pcie::PortStats ports[5];
    std::vector<sim::TimePs> server_busy;
    sim::TimePs now = 0;
};

/** Fabric ports in the order apps::Testbed creates them. */
struct PortInfo
{
    const char* name;
    bool nic_internal; ///< runs at nic_internal_gbps, else pcie_gbps
};
constexpr PortInfo kPorts[5] = {
    {"server_host", false}, {"server_nic", true}, {"fld", false},
    {"client_host", false}, {"client_nic", true},
};

TestbedSnapshot
snapshot(const apps::Testbed& tb)
{
    TestbedSnapshot s;
    s.events = tb.eq.executed_total();
    s.wheel = tb.eq.wheel_stats();
    s.nic[0] = tb.server_nic->stats();
    if (tb.client_nic)
        s.nic[1] = tb.client_nic->stats();
    s.fld = tb.fld->stats();
    for (pcie::PortId p = 0; p < 5; ++p)
        s.ports[p] = tb.fabric.stats(p);
    for (uint32_t c = 0; c < tb.cfg.server_host.cores; ++c)
        s.server_busy.push_back(tb.server_host.core_busy_time(c));
    s.now = tb.eq.now();
    return s;
}

uint64_t
nic_drops(const nic::NicStats& s)
{
    return s.drops_no_buffer + s.drops_rule + s.drops_meter +
           s.drops_no_rule + s.drops_acl;
}

/** Per-op layer metrics from the counter deltas between two
 *  snapshots of a remote Testbed. */
void
testbed_layer_metrics(const apps::Testbed& tb, const TestbedSnapshot& a,
                      const TestbedSnapshot& b, uint64_t ops,
                      Iteration& it)
{
    auto& m = it.exact;
    if (tb.server_host_port != 0 || tb.client_host_port != 3)
        it.errors.push_back("unexpected fabric port layout");
    double dops = double(ops);
    uint64_t events = b.events - a.events;
    it.events = events;
    m["sim.events_per_op"] = ratio(double(events), dops);
    m["sim.cascaded_per_event"] = ratio(
        double(b.wheel.cascaded_events - a.wheel.cascaded_events),
        double(events));
    m["sim.avg_bucket"] = ratio(
        double(b.wheel.drained_events - a.wheel.drained_events),
        double(b.wheel.bucket_drains - a.wheel.bucket_drains));

    double span_ns = double(b.now - a.now) / 1000.0;
    uint64_t txns = 0, wire_bytes = 0;
    for (int p = 0; p < 5; ++p) {
        const pcie::PortStats &x = a.ports[p], &y = b.ports[p];
        txns += (y.reads - x.reads) + (y.writes - x.writes);
        wire_bytes += y.egress_bytes - x.egress_bytes;
        double gbps = kPorts[p].nic_internal ? tb.cfg.nic_internal_gbps
                                             : tb.cfg.pcie_gbps;
        uint64_t busiest =
            std::max(y.egress_bytes - x.egress_bytes,
                     y.ingress_bytes - x.ingress_bytes);
        m[std::string("pcie.") + kPorts[p].name + ".util"] =
            ratio(double(busiest) * 8.0, gbps * span_ns);
    }
    m["pcie.txns_per_op"] = ratio(double(txns), dops);
    m["pcie.bytes_per_op"] = ratio(double(wire_bytes), dops);

    uint64_t delivered = 0, drops = 0, retx = 0;
    for (int n = 0; n < 2; ++n) {
        delivered += b.nic[n].rx_packets - a.nic[n].rx_packets;
        drops += nic_drops(b.nic[n]) - nic_drops(a.nic[n]);
        retx += b.nic[n].rdma_retransmits - a.nic[n].rdma_retransmits;
    }
    m["nic.rx_delivered_ratio"] =
        ratio(double(delivered), double(delivered + drops));
    m["nic.drops_per_op"] = ratio(double(drops), dops);
    m["nic.rdma_retransmits"] = double(retx);

    const core::FldStats &f0 = a.fld, &f1 = b.fld;
    m["fld.wqe_reads_per_op"] =
        ratio(double(f1.wqe_reads - f0.wqe_reads), dops);
    m["fld.doorbells_per_op"] =
        ratio(double(f1.doorbells - f0.doorbells), dops);
    m["fld.cqes_per_op"] = ratio(double(f1.cqes - f0.cqes), dops);
    uint64_t rejected = f1.tx_rejected - f0.tx_rejected;
    m["fld.tx_rejected_ratio"] = ratio(
        double(rejected),
        double(f1.tx_packets - f0.tx_packets + rejected));

    sim::TimePs busiest_core = 0;
    for (size_t c = 0; c < b.server_busy.size(); ++c)
        busiest_core =
            std::max(busiest_core, b.server_busy[c] - a.server_busy[c]);
    m["driver.core_util"] =
        ratio(double(busiest_core), double(b.now - a.now));
}

void
accel_metrics(const accel::AccelStats& a, const accel::AccelStats& b,
              Iteration& it)
{
    it.exact["accel.dropped_overload"] =
        double(b.dropped_overload - a.dropped_overload);
    it.exact["accel.tx_failed"] = double(b.tx_failed - a.tx_failed);
}

/** p50/p99 of a simulated latency histogram, with the tail check. */
void
latency_metrics(const sim::Histogram& h, Iteration& it)
{
    it.exact["sim_p50_us"] = h.percentile(50.0);
    it.exact["sim_p99_us"] = h.percentile(99.0);
    it.exact["apps.latency_samples"] = double(h.count());
    if (tail_percentile(h.count()) < 99.0)
        it.errors.push_back("too few latency samples for p99: " +
                            std::to_string(h.count()));
}

/** Fold every exact metric (name and bit pattern) into the digest. */
uint64_t
digest_exact(const Iteration& it, uint64_t h)
{
    for (const auto& [name, v] : it.exact) {
        h = fnv_fold(h, name.data(), name.size());
        h = fnv_fold(h, &v, sizeof v);
    }
    return fnv_fold(h, &it.ops, sizeof it.ops);
}

// ---------------------------------------------------------------------
// Echo pair: FLD-E and the CPU testpmd baseline.
// ---------------------------------------------------------------------

struct EchoShape
{
    bool fld;
    apps::PktGenConfig gen;
    sim::TimePs warmup, measure;
};

template <class Scenario>
std::vector<driver::CpuDriver*>
echo_drivers(Scenario& s)
{
    if constexpr (requires { s.echo_driver; })
        return {s.gen_driver.get(), s.echo_driver.get()};
    else
        return {s.gen_driver.get()};
}

template <class Scenario>
Iteration
run_echo(const EchoShape& shape, uint64_t seed, Mode mode,
         std::unique_ptr<Scenario> (*make)(bool, apps::PktGenConfig,
                                           apps::TestbedConfig,
                                           const apps::EchoOptions&))
{
    Iteration it;
    TraceScope trace(mode);
    apps::PktGenConfig g = shape.gen;
    g.seed = seed;
    g.pattern_payload = true;
    g.measure_rtt = true;
    g.flow_digests = true;

    Span setup;
    auto s = make(true, g, seeded_testbed(seed), {});
    it.setup_s = setup.wall();

    apps::Testbed& tb = *s->tb;
    auto drivers = echo_drivers(*s);
    TestbedSnapshot before = snapshot(tb);
    uint64_t backpressured0 = 0;
    for (auto* d : drivers)
        backpressured0 += d->stats().tx_backpressured;
    accel::AccelStats accel0;
    if constexpr (requires { s->echo; })
        accel0 = s->echo->stats();

    time_host_speed(mode, it);
    AllocCount alloc0 = alloc_count();
    Span run;
    s->gen->start(shape.warmup, shape.warmup + shape.measure);
    tb.eq.run();
    it.run_s = run.wall();
    it.run_cpu_s = run.cpu();
    AllocCount alloc1 = alloc_count();
    it.allocs = {alloc1.calls - alloc0.calls, alloc1.bytes - alloc0.bytes};
    trace.finish(it);

    Span verify;
    const apps::PacketGen& gen = *s->gen;
    it.ops = gen.rx_count();
    it.attempted = gen.tx_count();
    it.failed = gen.bad_payload();
    if (gen.bad_payload())
        it.errors.push_back(std::to_string(gen.bad_payload()) +
                            " echoed payloads failed verification");
    if (it.ops == 0)
        it.errors.push_back("no echoes delivered");

    double mpps = gen.rx_meter().mpps(gen.measure_start(),
                                      gen.measure_end());
    it.exact["sim_mpps"] = mpps;
    it.exact["sim_req_per_s"] = mpps * 1e6;
    it.exact["sim_gbps"] = gen.rx_meter().gbps(gen.measure_start(),
                                               gen.measure_end());
    it.exact["paper_err_pct"] = shape.fld
                                    ? kNoPaperReference
                                    : rel_err_pct(mpps, kPaperCpuImcMpps);
    latency_metrics(gen.rtt_us(), it);

    testbed_layer_metrics(tb, before, snapshot(tb), it.ops, it);
    uint64_t backpressured = 0;
    for (auto* d : drivers)
        backpressured += d->stats().tx_backpressured;
    it.exact["driver.tx_backpressured_per_op"] =
        ratio(double(backpressured - backpressured0), double(it.ops));
    if constexpr (requires { s->echo; })
        accel_metrics(accel0, s->echo->stats(), it);

    uint64_t h = digest_exact(it, kFnvSeed);
    for (const auto& [flow, d] : gen.flow_digests()) {
        h = fnv_fold(h, &flow, sizeof flow);
        h = fnv_fold(h, &d, sizeof d);
    }
    it.digest = h;
    it.verify_s = verify.wall();
    return it;
}

Iteration
fld_echo_64B(uint64_t seed, Mode mode)
{
    EchoShape shape{true, {}, sim::microseconds(200),
                    sim::milliseconds(2)};
    shape.gen.frame_size = 64;
    shape.gen.offered_gbps = 26.0;
    shape.gen.flows = 16;
    return run_echo<apps::EchoScenario>(shape, seed, mode,
                                        &apps::make_fld_echo);
}

Iteration
cpu_echo_imc(uint64_t seed, Mode mode)
{
    EchoShape shape{false, {}, sim::microseconds(500),
                    sim::milliseconds(4)};
    shape.gen.imc_mix = true;
    shape.gen.offered_gbps = 26.0;
    shape.gen.flows = 16;
    return run_echo<apps::CpuEchoScenario>(shape, seed, mode,
                                           &apps::make_cpu_echo);
}

// ---------------------------------------------------------------------
// RPC tier over the host fast path, FLD-served, 10k connections.
// ---------------------------------------------------------------------

/** bench_rpc's 10k-connection point (think time 20 us). */
apps::RpcHarnessConfig
rpc_config(uint64_t seed)
{
    apps::RpcHarnessConfig cfg;
    cfg.mode = apps::FastPathMode::Fld;
    cfg.tb = seeded_testbed(seed);
    cfg.client.connections = 10'000;
    cfg.client.requests_per_conn = 2;
    cfg.client.payload_min = 64;
    cfg.client.payload_max = 512;
    cfg.client.methods_mask = 0xf; // echo + zuc + defrag + busy
    cfg.client.think_mean = sim::microseconds(20);
    cfg.client.seed = seed;
    cfg.client.open_batch = 64;
    cfg.client.open_interval = sim::microseconds(50);
    cfg.conn.rto = sim::microseconds(2000);
    cfg.conn.max_retries = 16;
    cfg.client.tx_ring_entries = 256;
    cfg.client.rx_ring_entries = 1024;
    cfg.server.tx_ring_entries = 512;
    cfg.server.rx_ring_entries = 1024;
    return cfg;
}

Iteration
rpc_10k(uint64_t seed, Mode mode)
{
    Iteration it;
    TraceScope trace(mode);
    apps::RpcHarnessConfig cfg = rpc_config(seed);

    // run_rpc_scenario builds its testbed internally; set-up time is
    // that of an identical standalone build of the same TestbedConfig
    // (its teardown excluded).
    {
        Span setup;
        apps::Testbed tb(cfg.tb);
        it.setup_s = setup.wall();
    }

    time_host_speed(mode, it);
    AllocCount alloc0 = alloc_count();
    Span run;
    apps::RpcReport rep = apps::run_rpc_scenario(cfg);
    it.run_s = run.wall();
    it.run_cpu_s = run.cpu();
    AllocCount alloc1 = alloc_count();
    it.allocs = {alloc1.calls - alloc0.calls, alloc1.bytes - alloc0.bytes};
    trace.finish(it);

    Span verify;
    uint64_t expected = uint64_t(cfg.client.connections) *
                        cfg.client.requests_per_conn;
    it.ops = rep.client_app.responses;
    it.attempted = expected;
    uint64_t missing = expected > it.ops ? expected - it.ops : 0;
    it.failed = std::min<uint64_t>(expected,
                                   missing + rep.violations.size());
    if (!rep.ok || missing)
        it.errors.push_back(
            "rpc: " + std::to_string(missing) + " missing, " +
            std::to_string(rep.violations.size()) + " violations" +
            (rep.violations.empty() ? "" : ": " + rep.violations[0]));

    it.exact["sim_mpps"] = rep.req_per_sec / 1e6;
    it.exact["sim_req_per_s"] = rep.req_per_sec;
    it.exact["sim_gbps"] = rep.goodput_gbps;
    it.exact["paper_err_pct"] = kNoPaperReference;
    latency_metrics(rep.latency, it);

    const driver::FastPathStats &c = rep.client_stats,
                                &sv = rep.server_stats;
    double reqs = double(it.ops);
    it.exact["driver.retransmits_per_req"] =
        ratio(double(c.retransmits + sv.retransmits), reqs);
    it.exact["driver.doorbells_per_req"] =
        ratio(double(c.doorbells + sv.doorbells), reqs);
    it.exact["driver.rx_ring_stalls"] =
        double(c.rx_ring_stalls + sv.rx_ring_stalls);
    it.exact["apps.dispatch_util"] =
        ratio(double(rep.dispatch.busy_time),
              double(cfg.server.service.workers) * double(rep.end_time));

    it.digest = digest_exact(it, rep.state_hash);
    it.verify_s = verify.wall();
    return it;
}

// ---------------------------------------------------------------------
// FLD-R remote ZUC accelerator.
// ---------------------------------------------------------------------

Iteration
fldr_zuc_1KB(uint64_t seed, Mode mode)
{
    Iteration it;
    TraceScope trace(mode);
    apps::CryptoPerfConfig cc;
    // ZUC latency in this closed loop is window x per-request service
    // time, identical for every request of one size. Each seed draws
    // its request size from 1024 +- 8 B so the seed reaches it.
    cc.request_payload = 1016 + derive_seed(seed, 3) % 17;
    cc.window = 64;
    cc.verify = true;
    cc.seed = seed;
    const sim::TimePs warmup = sim::microseconds(500);
    const sim::TimePs measure = sim::milliseconds(8);

    Span setup;
    auto s = apps::make_fldr_zuc(true, seeded_testbed(seed));
    apps::CryptoPerfClient perf(s->tb->eq, *s->client, cc);
    it.setup_s = setup.wall();

    apps::Testbed& tb = *s->tb;
    TestbedSnapshot before = snapshot(tb);
    accel::AccelStats accel0 = s->afu->stats();
    uint64_t sent0 = s->client->messages_sent();

    time_host_speed(mode, it);
    AllocCount alloc0 = alloc_count();
    Span run;
    perf.start(warmup, warmup + measure);
    tb.eq.run();
    it.run_s = run.wall();
    it.run_cpu_s = run.cpu();
    AllocCount alloc1 = alloc_count();
    it.allocs = {alloc1.calls - alloc0.calls, alloc1.bytes - alloc0.bytes};
    trace.finish(it);

    Span verify;
    uint64_t sent = s->client->messages_sent() - sent0;
    it.ops = perf.responses();
    it.attempted = sent;
    uint64_t missing = sent > it.ops ? sent - it.ops : 0;
    it.failed = std::min(sent, perf.verified_bad() + missing);
    if (it.failed || perf.verified_ok() != it.ops || it.ops == 0)
        it.errors.push_back(
            "zuc: " + std::to_string(perf.verified_bad()) +
            " bad round trips, " + std::to_string(missing) +
            " missing, " + std::to_string(perf.verified_ok()) + "/" +
            std::to_string(it.ops) + " verified");

    double gbps = perf.response_meter().gbps(perf.measure_start(),
                                             perf.last_response());
    double mpps = perf.response_meter().mpps(perf.measure_start(),
                                             perf.last_response());
    it.exact["sim_mpps"] = mpps;
    it.exact["sim_req_per_s"] = mpps * 1e6;
    it.exact["sim_gbps"] = gbps;
    it.exact["paper_err_pct"] = rel_err_pct(gbps, kPaperZucGbps);
    latency_metrics(perf.latency_us(), it);

    testbed_layer_metrics(tb, before, snapshot(tb), it.ops, it);
    accel_metrics(accel0, s->afu->stats(), it);

    uint64_t ok = perf.verified_ok();
    it.digest = digest_exact(it, fnv_fold(kFnvSeed, &ok, sizeof ok));
    it.verify_s = verify.wall();
    return it;
}

} // namespace

const std::vector<Workload>&
workloads()
{
    static const std::vector<Workload> all = {
        {"fld_echo_64B", &fld_echo_64B},
        {"cpu_echo_imc", &cpu_echo_imc},
        {"rpc_10k", &rpc_10k},
        {"fldr_zuc_1KB", &fldr_zuc_1KB},
    };
    return all;
}

const Workload*
find_workload(const std::string& name)
{
    for (const Workload& w : workloads())
        if (name == w.name)
            return &w;
    return nullptr;
}

} // namespace perfbench
