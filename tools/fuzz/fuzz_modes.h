/**
 * @file
 * The seed families fld_fuzz sweeps, each a pure function of the seed.
 *
 * The datapath family runs the generator's scenario as drawn. Conn,
 * rpc and pipeline force one workload dimension onto it: those draws
 * sit at the tail of the generator's draw order and are made for
 * every seed, so forcing never perturbs the rest of the scenario and
 * a seed whose natural mode already matches is unchanged. Churn maps
 * the seed to a randomized control-plane run of the ChurnHarness
 * oracles. fld_fuzz and the sweep tests share these definitions, so a
 * test pins exactly what the CLI runs.
 */
#ifndef FLD_TOOLS_FUZZ_FUZZ_MODES_H
#define FLD_TOOLS_FUZZ_FUZZ_MODES_H

#include <cstdint>

#include "apps/churn_harness.h"
#include "tools/fuzz/fuzz.h"
#include "tools/fuzz/fuzz_runner.h"

namespace fld::apps {

enum class FuzzFamily : uint8_t {
    Datapath, ///< the generated scenario as drawn (any sim::FuzzMode)
    Conn,     ///< forced to FuzzMode::ConnServe
    Rpc,      ///< forced to FuzzMode::RpcServe
    Pipeline, ///< forced to EthEcho with a random decoration program
    Churn,    ///< ChurnHarness control-plane scenario
};

/** The runner configuration fld_fuzz uses: the benches' canonical
 *  calibrated closed-loop generator and testbed defaults are the base
 *  every scenario perturbs. */
FuzzRunOptions fuzz_runner_options(bool check_trace = true);

/** The scenario a scenario family (any but Churn) runs for @p seed. */
sim::FuzzScenario family_scenario(FuzzFamily family, uint64_t seed);

/** One randomized churn scenario per seed: the geometry, fault mix
 *  and traffic shape all derive from the seed. */
ChurnHarnessConfig churn_scenario(uint64_t seed);

/** Run churn_scenario(@p seed) for four times its target population
 *  of steady-state events. */
ChurnReport run_churn_seed(uint64_t seed);

} // namespace fld::apps

#endif // FLD_TOOLS_FUZZ_FUZZ_MODES_H
