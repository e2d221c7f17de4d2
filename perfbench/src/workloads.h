/**
 * @file
 * The benchmark's workloads. Each runs one complete simulated
 * experiment through the library's public API and times the
 * benchmark's own calls into it: set-up (the make_* scenario calls),
 * run (generator start + EventQueue::run, or run_rpc_scenario) and
 * verify (the checks that follow). Layer counters are read afterwards.
 */
#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "alloc_count.h"
#include "stage_ledger.h"

namespace perfbench {

/** One execution of a workload. Everything but the host-time spans
 *  must repeat bit-for-bit for one seed. */
struct Iteration
{
    // Host-time spans of the benchmark's own calls, seconds.
    double setup_s = 0;
    double run_s = 0;
    double verify_s = 0;
    double run_cpu_s = 0; ///< thread CPU time over the run span

    /** Reference-kernel time over its quiet-host value, timed between
     *  set-up and run (plain iterations only; 1 otherwise). */
    double slowdown = 1.0;

    uint64_t ops = 0;       ///< echoed packets / responses
    uint64_t attempted = 0; ///< packets sent / requests issued
    uint64_t failed = 0;    ///< bad payloads, violations, missing
    /** Simulator events executed in the run span (0 when the
     *  workload's public API does not expose its event queue). */
    uint64_t events = 0;
    AllocCount allocs; ///< operator new calls/bytes in the run span
    /** Simulated-domain metrics and exact layer counts, by metric
     *  name; layer metrics the workload has no counter for are absent
     *  and read 0 in the output. */
    std::map<std::string, double> exact;
    uint64_t digest = 0; ///< fold of the simulated results
    std::vector<std::string> errors;

    // Traced iterations only.
    StageLedger stages;
    uint64_t trace_events = 0;
};

/** Warm-up: first-use costs, not measured. Plain: measured, with the
 *  host-speed kernel timed before the run span. Traced: a tracer is
 *  installed for the whole iteration. */
enum class Mode
{
    Warmup,
    Plain,
    Traced,
};

struct Workload
{
    const char* name;
    Iteration (*run)(uint64_t seed, Mode mode);
};

const std::vector<Workload>& workloads();
const Workload* find_workload(const std::string& name);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H
