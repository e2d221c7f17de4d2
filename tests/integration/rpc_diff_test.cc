/**
 * @file
 * RPC tier end-to-end differential tests: the same seeded RPC
 * workload served FLD-driven vs CPU-driven must produce identical
 * per-request response digests, reruns must be bit-identical
 * (state_hash), descriptor chunking must be invisible in the results,
 * and the harness oracles must hold under targeted wire faults
 * overlapping the serving (the fault-overlap SLO regression guard).
 */
#include <gtest/gtest.h>

#include "apps/rpc_harness.h"

namespace fld::apps {
namespace {

RpcHarnessConfig
small_cfg(FastPathMode mode)
{
    RpcHarnessConfig cfg;
    cfg.mode = mode;
    cfg.client.connections = 16;
    cfg.client.requests_per_conn = 3;
    cfg.client.payload_min = 32;
    cfg.client.payload_max = 400;
    cfg.client.methods_mask = 0xf;
    cfg.client.think_mean = sim::microseconds(2);
    cfg.client.seed = 77;
    return cfg;
}

TEST(RpcDiff, FldVsCpuDigestsIdentical)
{
    RpcReport fld = run_rpc_scenario(small_cfg(FastPathMode::Fld));
    RpcReport cpu = run_rpc_scenario(small_cfg(FastPathMode::Cpu));
    ASSERT_TRUE(fld.ok) << fld.violations.front();
    ASSERT_TRUE(cpu.ok) << cpu.violations.front();

    // Every request answered exactly once, in both modes.
    EXPECT_EQ(fld.client_app.responses, 16u * 3u);
    EXPECT_EQ(cpu.client_app.responses, 16u * 3u);
    EXPECT_EQ(fld.digests.size(), 16u * 3u);

    // The differential claim: per-request response bytes identical
    // across the serving modes.
    EXPECT_EQ(fld.digests, cpu.digests);
    EXPECT_EQ(fld.digest_hash, cpu.digest_hash);

    // Tagged TxDones confirmed every response end-to-end.
    EXPECT_EQ(fld.server_app.responses_acked,
              fld.server_app.responses);
    EXPECT_GT(fld.server_stats.tagged_tx_done_descs, 0u);

    // Latency quantiles come out ordered.
    EXPECT_LE(fld.p50_us, fld.p99_us);
    EXPECT_LE(fld.p99_us, fld.p999_us);
    EXPECT_GT(fld.req_per_sec, 0.0);
}

TEST(RpcDiff, RerunsAreBitIdentical)
{
    RpcReport a = run_rpc_scenario(small_cfg(FastPathMode::Fld));
    RpcReport b = run_rpc_scenario(small_cfg(FastPathMode::Fld));
    ASSERT_TRUE(a.ok);
    EXPECT_EQ(a.state_hash, b.state_hash);
    EXPECT_EQ(a.end_time, b.end_time);

    RpcReport c = run_rpc_scenario(small_cfg(FastPathMode::Cpu));
    RpcReport d = run_rpc_scenario(small_cfg(FastPathMode::Cpu));
    ASSERT_TRUE(c.ok);
    EXPECT_EQ(c.state_hash, d.state_hash);
    // ...and the two modes are NOT accidentally sharing one timeline
    // (otherwise state_hash equality would be vacuous).
    EXPECT_NE(a.state_hash, c.state_hash);
}

TEST(RpcDiff, DescriptorChunkingInvisibleInResults)
{
    RpcHarnessConfig plain = small_cfg(FastPathMode::Fld);
    RpcHarnessConfig chunked = small_cfg(FastPathMode::Fld);
    chunked.client.tx_chunk_bytes = 7;  // request frames shredded
    chunked.server.tx_chunk_bytes = 11; // responses shredded too
    RpcReport a = run_rpc_scenario(plain);
    RpcReport b = run_rpc_scenario(chunked);
    ASSERT_TRUE(a.ok) << a.violations.front();
    ASSERT_TRUE(b.ok) << b.violations.front();
    // Same request streams, same responses: chunking is pure framing.
    EXPECT_EQ(a.digests, b.digests);
    EXPECT_EQ(a.digest_hash, b.digest_hash);
}

TEST(RpcDiff, FaultOverlapHoldsOracles)
{
    for (FastPathMode mode :
         {FastPathMode::Fld, FastPathMode::Cpu}) {
        RpcHarnessConfig cfg = small_cfg(mode);
        cfg.tb.nic.wire_faults.drop_prob = 0.25;
        cfg.tb.nic.wire_faults.reorder_prob = 0.15;
        cfg.tb.nic.wire_faults.duplicate_prob = 0.10;
        cfg.tb.fault_seed = 0xfa17;
        cfg.fault_target_port = 21003; // one client's flow only
        RpcReport r = run_rpc_scenario(cfg);
        // Conformance/protocol/conservation oracles hold even while
        // one flow retransmits through targeted loss; lifecycle
        // completeness is legitimately relaxed under faults (resets),
        // which rep.ok already encodes.
        ASSERT_TRUE(r.ok)
            << (r.violations.empty() ? "" : r.violations.front());
        EXPECT_EQ(r.client_app.conformance_errors, 0u);
        EXPECT_EQ(r.client_app.protocol_errors, 0u);
        EXPECT_EQ(r.client_app.decode_errors, 0u);
        EXPECT_GT(r.faults.wire_faults(), 0u)
            << "fault point did not actually perturb the wire";
    }
}

TEST(RpcDiff, BusyOnlySweepStressesDispatcherQueue)
{
    // All-busy workload on a narrow worker bank: queueing dominates,
    // and the two modes must still agree on every response.
    RpcHarnessConfig cfg = small_cfg(FastPathMode::Fld);
    cfg.client.methods_mask = 1u << kRpcBusy;
    cfg.client.think_mean = 0;
    cfg.server.service.workers = 2;
    RpcReport fld = run_rpc_scenario(cfg);
    cfg.mode = FastPathMode::Cpu;
    RpcReport cpu = run_rpc_scenario(cfg);
    ASSERT_TRUE(fld.ok) << fld.violations.front();
    ASSERT_TRUE(cpu.ok) << cpu.violations.front();
    EXPECT_EQ(fld.digests, cpu.digests);
    EXPECT_EQ(fld.dispatch.busy_time, cpu.dispatch.busy_time);
}

TEST(RpcDiff, ThousandConnectionGoldenIsPinned)
{
    // rpc_10k's shape (perfbench) at 1000 connections, seed 11, with
    // its hashes pinned: any change to RPC-tier or fast-path
    // behaviour fails here, not only in the perfbench digest job.
    RpcHarnessConfig cfg;
    cfg.mode = FastPathMode::Fld;
    cfg.client.connections = 1000;
    cfg.client.requests_per_conn = 2;
    cfg.client.payload_min = 64;
    cfg.client.payload_max = 512;
    cfg.client.methods_mask = 0xf;
    cfg.client.think_mean = sim::microseconds(20);
    cfg.client.seed = 11;
    cfg.client.open_batch = 64;
    cfg.client.open_interval = sim::microseconds(50);
    cfg.conn.rto = sim::microseconds(2000);
    cfg.conn.max_retries = 16;
    cfg.client.tx_ring_entries = 256;
    cfg.client.rx_ring_entries = 1024;
    cfg.server.tx_ring_entries = 512;
    cfg.server.rx_ring_entries = 1024;
    RpcReport r = run_rpc_scenario(cfg);
    ASSERT_TRUE(r.ok) << r.violations.front();
    EXPECT_EQ(r.client_app.responses, 2000u);
    EXPECT_EQ(r.digest_hash, 0x5f4c71704231f0a7ull);
    EXPECT_EQ(r.state_hash, 0x9a3e7332c7aab048ull);
    // Every Closed/Reset freed the server's per-connection state.
    EXPECT_EQ(r.server_live_conns, 0u);
}

} // namespace
} // namespace fld::apps
