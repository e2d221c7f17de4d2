/**
 * @file
 * Host-side measurements of the harness process: the machine
 * fingerprint printed with every result, peak resident memory, and
 * wall / thread-CPU clocks for the benchmark's own phase spans.
 */
#ifndef PERFBENCH_HOST_INFO_H
#define PERFBENCH_HOST_INFO_H

#include <string>

namespace perfbench {

/** {"cpu": ..., "nproc": ..., "compiler": ..., "build_type": ...} as
 *  one JSON object, so a gate can refuse to compare host timings taken
 *  on different machines or builds. */
std::string host_fingerprint_json();

/** Peak resident set of this process so far, in MiB. */
double peak_rss_mib();

/** Monotonic wall clock, seconds. */
double wall_now();

/** CPU time consumed by the calling thread, seconds. */
double thread_cpu_now();

/**
 * Run a fixed reference kernel (random updates over 8 MiB and a sort
 * of 32k keys; no simulator code) and return its wall time in seconds.
 * Timed next to each iteration, it tracks how fast the shared host is
 * running at that moment.
 */
double reference_kernel_s();

/** reference_kernel_s() at a quiet moment of the host the benchmark's
 *  bounds were tuned on (4-core Intel Xeon, gcc 12, RelWithDebInfo).
 *  Host timings are scaled by measured / reference, so they read as on
 *  that host; they are comparable only between runs on one host. */
constexpr double kReferenceKernelS = 0.007;

} // namespace perfbench

#endif // PERFBENCH_HOST_INFO_H
