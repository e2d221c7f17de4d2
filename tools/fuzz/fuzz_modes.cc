#include "tools/fuzz/fuzz_modes.h"

#include "bench/bench_util.h"
#include "util/rng.h"

namespace fld::apps {

FuzzRunOptions
fuzz_runner_options(bool check_trace)
{
    FuzzRunOptions ropt;
    ropt.base_gen = bench::closed_loop_gen(/*frame=*/64, /*window=*/8);
    ropt.base_tb = TestbedConfig{};
    ropt.check_trace = check_trace;
    return ropt;
}

sim::FuzzScenario
family_scenario(FuzzFamily family, uint64_t seed)
{
    sim::FuzzScenario s = sim::ScenarioFuzzer().generate(seed);
    switch (family) {
    case FuzzFamily::Conn:
        s.workload.mode = sim::FuzzMode::ConnServe;
        break;
    case FuzzFamily::Rpc:
        s.workload.mode = sim::FuzzMode::RpcServe;
        break;
    case FuzzFamily::Pipeline:
        // The decoration chain splices into the echo steering rules;
        // the same decorated program serves the FLD and CPU runs.
        s.workload.mode = sim::FuzzMode::EthEcho;
        s.pipeline.enabled = true;
        break;
    case FuzzFamily::Datapath:
    case FuzzFamily::Churn:
        break;
    }
    return s;
}

ChurnHarnessConfig
churn_scenario(uint64_t seed)
{
    Rng rng(seed * 0x9e3779b97f4a7c15ull + 0xc4);
    ChurnHarnessConfig cfg;
    cfg.churn.tenants = uint32_t(rng.range(2, 300));
    cfg.churn.flows_per_tenant = uint32_t(rng.range(1, 200));
    cfg.churn.packet_fraction = 0.3 + 0.6 * rng.uniform_double();
    cfg.churn.skew = rng.uniform_double() * 2.0;
    cfg.churn.dup_open_prob = rng.chance(0.5) ? 0.02 : 0.0;
    cfg.churn.stray_close_prob = rng.chance(0.5) ? 0.02 : 0.0;
    cfg.churn.seed = seed;
    if (rng.chance(0.3))
        cfg.directory.sketch_enabled = false;
    if (rng.chance(0.3)) {
        cfg.tenant_rate_gbps = 0.5 + rng.uniform_double() * 5.0;
        cfg.tenant_burst_bytes = 1 << rng.range(12, 16);
    }
    return cfg;
}

ChurnReport
run_churn_seed(uint64_t seed)
{
    ChurnHarness harness(churn_scenario(seed));
    return harness.run(4 * harness.gen().target_population());
}

} // namespace fld::apps
