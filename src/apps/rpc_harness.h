/**
 * @file
 * End-to-end RPC-serving harness: RpcClientPool on the client node,
 * RpcServer behind the host fast path on the server node — FLD-driven
 * (stack as AFU behind the AXI stream) or CPU-driven — over the same
 * remote Testbed run_fastpath_scenario uses.
 *
 * Oracles folded into the report:
 *  - shadow conformance: every response equals rpc_execute(request)
 *    (checked in the client, unconditionally);
 *  - lifecycle/exactly-once: all requests answered exactly once and
 *    all connections closed cleanly (fault-free runs);
 *  - differential: the per-request digest map (request_id -> response
 *    FNV) must be identical between FLD- and CPU-served runs;
 *  - rerun determinism: state_hash (digests + counters + latency
 *    fold + end time) must be bit-identical across same-config runs;
 *  - conservation ledger, stack quiescence, optional TraceChecker.
 *
 * The report carries the SLO measurements bench_rpc serves: p50/p99/
 * p99.9 request latency, completed request rate, and goodput.
 */
#ifndef FLD_APPS_RPC_HARNESS_H
#define FLD_APPS_RPC_HARNESS_H

#include <map>
#include <string>
#include <vector>

#include "apps/fastpath_harness.h" // FastPathMode, HostStackAfu
#include "apps/rpc_client.h"
#include "apps/rpc_service.h"
#include "apps/testbed.h"

namespace fld::apps {

struct RpcHarnessConfig
{
    FastPathMode mode = FastPathMode::Fld;
    RpcClientConfig client; ///< remote ip/port filled in by the harness
    RpcServerConfig server;
    driver::ConnConfig conn; ///< TCP knobs for both stacks
    uint32_t slot_bytes = 2048;
    TestbedConfig tb; ///< fault knobs ride in tb.nic.wire_faults etc.
    /** When non-zero, wire faults hit only this client port's flow. */
    uint16_t fault_target_port = 0;
    bool trace = false;
    bool preseed_arp = true;
    uint32_t fld_rx_buffers = 16;
};

struct RpcReport
{
    bool ok = false;
    std::vector<std::string> violations;

    /** request_id -> response digest: the differential oracle value
     *  (identical across FLD and CPU modes, fault-free). */
    std::map<uint64_t, uint64_t> digests;
    uint64_t digest_hash = 0;
    /** digest_hash + all counters + the latency fold: the
     *  bit-identical-rerun oracle value. */
    uint64_t state_hash = 0;

    // SLO measurements.
    sim::Histogram latency; ///< per-request latency, microseconds
    double p50_us = 0, p99_us = 0, p999_us = 0, mean_us = 0;
    double req_per_sec = 0;  ///< completed requests / simulated second
    double goodput_gbps = 0; ///< response payload bits / simulated sec
    sim::TimePs end_time = 0;

    RpcClientStats client_app;
    RpcServerStats server_app;
    /** RpcServer::live_conns() at the end: 0 once every connection
     *  closed or reset. Not folded into state_hash. */
    size_t server_live_conns = 0;
    RpcDispatchStats dispatch;
    driver::FastPathStats client_stats;
    driver::FastPathStats server_stats;
    sim::ConservationLedger ledger;
    sim::FaultCounters faults;
    std::vector<std::string> trace_violations;
    bool client_quiesced = false;
    bool server_quiesced = false;

    std::string summary() const;
};

/** Build the testbed, serve the workload to quiescence, fold oracles. */
RpcReport run_rpc_scenario(const RpcHarnessConfig& cfg);

} // namespace fld::apps

#endif // FLD_APPS_RPC_HARNESS_H
