/**
 * @file
 * perfbench: the repository benchmark harness.
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *
 * Runs one workload repeatedly on this thread for about S seconds of
 * host time: one discarded warm-up iteration (lazy statics, page
 * faults), then measured iterations until the budget is spent. Every
 * measured iteration must reproduce the first one's simulated results
 * and exact counts bit-for-bit. Host timings are medians over the
 * iterations; the end-to-end ones are first scaled by a reference
 * kernel timed in each iteration (see reference_kernel_s).
 *
 * --trace 0 prints the end-to-end metrics. --trace 1 alternates
 * untraced and traced iterations and prints the per-layer metrics:
 * exact counts and phase spans from the untraced ones, per-stage
 * latencies from the traced ones, and the tracing overhead between
 * the two. The last stdout line is the result object
 *   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
 * preceded by "# "-prefixed lines: host fingerprint, simulated-result
 * digest, stage sample counts and any errors.
 */
#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "host_info.h"
#include "stats.h"
#include "workloads.h"

using namespace perfbench;

namespace {

struct Metric
{
    const char* name;
    const char* unit;
};

const Metric kEndToEnd[] = {
    {"host_ops_per_s", "ops/s"}, {"setup_s", "s"},
    {"peak_rss_mib", "MiB"},     {"sim_mpps", "Mpps"},
    {"sim_req_per_s", "req/s"},  {"sim_gbps", "Gbps"},
    {"sim_p50_us", "us"},        {"sim_p99_us", "us"},
    {"paper_err_pct", "%"},
};

/** Per-layer metrics read from the workloads' exact counts; a layer a
 *  workload does not exercise or expose reads 0. */
const Metric kExactLayer[] = {
    {"sim.events_per_op", "events/op"},
    {"sim.cascaded_per_event", "ratio"},
    {"sim.avg_bucket", "events"},
    {"pcie.txns_per_op", "txns/op"},
    {"pcie.bytes_per_op", "B/op"},
    {"pcie.server_host.util", "ratio"},
    {"pcie.server_nic.util", "ratio"},
    {"pcie.fld.util", "ratio"},
    {"pcie.client_host.util", "ratio"},
    {"pcie.client_nic.util", "ratio"},
    {"nic.rx_delivered_ratio", "ratio"},
    {"nic.drops_per_op", "drops/op"},
    {"nic.rdma_retransmits", "count"},
    {"fld.wqe_reads_per_op", "wqes/op"},
    {"fld.doorbells_per_op", "doorbells/op"},
    {"fld.cqes_per_op", "cqes/op"},
    {"fld.tx_rejected_ratio", "ratio"},
    {"driver.core_util", "ratio"},
    {"driver.tx_backpressured_per_op", "count/op"},
    {"driver.retransmits_per_req", "count/req"},
    {"driver.doorbells_per_req", "doorbells/req"},
    {"driver.rx_ring_stalls", "count"},
    {"accel.dropped_overload", "count"},
    {"accel.tx_failed", "count"},
    {"apps.dispatch_util", "ratio"},
    {"apps.latency_samples", "count"},
};

struct Args
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10;
    int trace = 0;
};

bool
parse_args(int argc, char** argv, Args& a)
{
    bool have_workload = false;
    for (int i = 1; i + 1 < argc; i += 2) {
        std::string k = argv[i];
        const char* v = argv[i + 1];
        char* end = nullptr;
        if (k == "--workload") {
            a.workload = v;
            have_workload = true;
        } else if (k == "--seed") {
            a.seed = std::strtoull(v, &end, 10);
        } else if (k == "--seconds") {
            a.seconds = std::strtod(v, &end);
        } else if (k == "--trace") {
            a.trace = int(std::strtol(v, &end, 10));
        } else {
            return false;
        }
        if (end && *end)
            return false;
    }
    return argc % 2 == 1 && have_workload && a.seconds > 0 &&
           (a.trace == 0 || a.trace == 1);
}

/** Bit-for-bit comparison of two iterations' simulated results. */
std::string
exact_mismatch(const Iteration& a, const Iteration& b)
{
    if (a.exact.size() != b.exact.size())
        return "metric sets differ";
    for (auto ia = a.exact.begin(), ib = b.exact.begin();
         ia != a.exact.end(); ++ia, ++ib)
        if (ia->first != ib->first ||
            std::memcmp(&ia->second, &ib->second, sizeof(double)) != 0)
            return ia->first;
    if (a.ops != b.ops || a.attempted != b.attempted ||
        a.failed != b.failed || a.events != b.events)
        return "op/event counts";
    if (a.digest != b.digest)
        return "result digest";
    return {};
}

template <class F>
std::vector<double>
collect(const std::vector<Iteration>& its, F f)
{
    std::vector<double> v;
    for (const Iteration& it : its)
        v.push_back(f(it));
    return v;
}

class Output
{
  public:
    void add(const char* name, double value, const char* unit)
    {
        char buf[64];
        std::snprintf(buf, sizeof buf, "%.17g",
                      std::isfinite(value) ? value : 0.0);
        if (!body_.empty())
            body_ += ", ";
        body_ += std::string("\"") + name + "\": {\"value\": " + buf +
                 ", \"unit\": \"" + unit + "\"}";
    }
    void print(bool correct, uint64_t attempted, uint64_t failed) const
    {
        std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
                    ", \"failed\": %" PRIu64 ", \"metrics\": {%s}}\n",
                    correct ? "true" : "false", attempted, failed,
                    body_.c_str());
    }

  private:
    std::string body_;
};

} // namespace

int
main(int argc, char** argv)
{
    Args args;
    if (!parse_args(argc, argv, args)) {
        std::fprintf(stderr,
                     "usage: perfbench --workload NAME --seed N "
                     "--seconds S --trace 0|1\n");
        return 2;
    }
    const Workload* w = find_workload(args.workload);
    if (!w) {
        std::fprintf(stderr, "unknown workload '%s'; known:",
                     args.workload.c_str());
        for (const Workload& k : workloads())
            std::fprintf(stderr, " %s", k.name);
        std::fprintf(stderr, "\n");
        return 2;
    }

    const double t0 = wall_now();
    std::printf("# host %s\n", host_fingerprint_json().c_str());
    std::vector<std::string> errors;

    // Warm-up: first-use costs (static tables, page faults, allocator
    // growth) land here and are not measured.
    Iteration warm = w->run(args.seed, Mode::Warmup);
    errors.insert(errors.end(), warm.errors.begin(), warm.errors.end());
    // Read before the host-speed kernel first runs, so its buffers are
    // not counted; measured iterations repeat the warm-up exactly.
    const double peak_rss = peak_rss_mib();
    reference_kernel_s(); // first call allocates and faults its buffers

    std::vector<Iteration> plain, traced;
    auto spent = [&] { return wall_now() - t0; };
    double last_cost = spent();
    const size_t kMinIterations = 3;
    for (;;) {
        if (plain.size() >= kMinIterations &&
            spent() + last_cost > args.seconds)
            break;
        double start = spent();
        plain.push_back(w->run(args.seed, Mode::Plain));
        if (args.trace)
            traced.push_back(w->run(args.seed, Mode::Traced));
        last_cost = spent() - start;
    }

    uint64_t attempted = 0, failed = 0;
    auto tally = [&](const std::vector<Iteration>& its) {
        for (const Iteration& it : its) {
            attempted += it.attempted;
            failed += it.failed;
            errors.insert(errors.end(), it.errors.begin(),
                          it.errors.end());
        }
    };
    tally(plain);
    tally(traced);

    // Exact-count hygiene: every iteration of one seed must agree.
    const Iteration& ref = plain.front();
    for (size_t i = 1; i < plain.size(); ++i) {
        std::string m = exact_mismatch(ref, plain[i]);
        if (m.empty() && (plain[i].allocs.calls != ref.allocs.calls ||
                          plain[i].allocs.bytes != ref.allocs.bytes))
            m = "allocation counts";
        if (!m.empty())
            errors.push_back("iteration " + std::to_string(i) +
                             " differs from iteration 0 in " + m);
    }
    for (size_t i = 1; i < traced.size(); ++i)
        if (traced[i].stages.digest() != traced[0].stages.digest())
            errors.push_back("traced iteration " + std::to_string(i) +
                             " has different stage samples");

    std::printf("# digest %s seed=%" PRIu64 " %016" PRIx64 "\n",
                w->name, args.seed, ref.digest);
    std::vector<double> run_s =
        collect(plain, [](const Iteration& it) { return it.run_s; });
    std::sort(run_s.begin(), run_s.end());
    std::printf("# iterations %zu untraced, %zu traced; untraced run_s "
                "min %.4f median %.4f max %.4f, IQR/median %.4f\n",
                plain.size(), traced.size(), run_s.front(), median(run_s),
                run_s.back(), relative_iqr(run_s));

    auto per_iter = [&](auto f) { return median(collect(plain, f)); };
    Output out;
    if (!args.trace) {
        // Neighbours on a shared host slow whole stretches of a run by
        // up to ~1.8x. Scaling each iteration by the reference kernel
        // timed inside it cancels most of that.
        std::map<std::string, double> e2e = ref.exact;
        e2e["host_ops_per_s"] = per_iter([](const Iteration& it) {
            return ratio(double(it.ops), it.run_s) * it.slowdown;
        });
        e2e["setup_s"] = per_iter(
            [](const Iteration& it) { return it.setup_s / it.slowdown; });
        e2e["peak_rss_mib"] = peak_rss;
        for (const Metric& m : kEndToEnd) {
            auto e = e2e.find(m.name);
            if (e != e2e.end())
                out.add(m.name, e->second, m.unit);
            else
                errors.push_back(std::string("no value for ") + m.name);
        }
    } else {
        for (const Metric& m : kExactLayer) {
            auto e = ref.exact.find(m.name);
            out.add(m.name, e == ref.exact.end() ? 0.0 : e->second, m.unit);
        }
        double dops = double(ref.ops);
        out.add("sim.host_ns_per_event",
                ref.events ? per_iter([](const Iteration& it) {
                    return it.run_s * 1e9 / double(it.events);
                })
                           : 0.0,
                "ns/event");
        out.add("alloc.per_op", ratio(double(ref.allocs.calls), dops),
                "allocs/op");
        out.add("alloc.bytes_per_op", ratio(double(ref.allocs.bytes), dops),
                "B/op");
        out.add("phase.setup_s",
                per_iter([](const Iteration& it) { return it.setup_s; }),
                "s");
        out.add("phase.run_s",
                per_iter([](const Iteration& it) { return it.run_s; }), "s");
        out.add("phase.verify_s",
                per_iter([](const Iteration& it) { return it.verify_s; }),
                "s");
        out.add("host.cpu_over_wall", per_iter([](const Iteration& it) {
                    return ratio(it.run_cpu_s, it.run_s);
                }),
                "ratio");
        out.add("host.slowdown",
                per_iter([](const Iteration& it) { return it.slowdown; }),
                "ratio");

        const StageLedger& st = traced.front().stages;
        for (size_t s = 0; s < StageLedger::kStages; ++s) {
            std::vector<double> ns;
            for (int64_t ps : st.samples(s))
                ns.push_back(double(ps) / 1000.0);
            std::string base = std::string("stage.") +
                               StageLedger::names()[s] + "_ns";
            out.add((base + "_p50").c_str(), percentile_sorted(ns, 50),
                    "ns");
            out.add((base + "_p99").c_str(), percentile_sorted(ns, 99),
                    "ns");
            std::printf("# stage %s samples=%zu tail=p%g\n",
                        StageLedger::names()[s], ns.size(),
                        tail_percentile(ns.size()));
        }
        if (st.sum_mismatches())
            errors.push_back(std::to_string(st.sum_mismatches()) +
                             " correlation ids whose stages do not sum "
                             "to their span");
        std::vector<std::string> flat = st.zero_spread_stages();
        for (const std::string& s : flat)
            std::printf("# stage %s has zero spread\n", s.c_str());
        double traced_run = median(collect(
            traced, [](const Iteration& it) { return it.run_s; }));
        out.add("trace.overhead_pct",
                (ratio(traced_run, median(run_s)) - 1.0) * 100.0, "%");
        out.add("trace.events_per_op",
                ratio(double(traced.front().trace_events), dops),
                "events/op");
        out.add("trace.ids", double(st.ids()), "count");
        out.add("trace.zero_spread_stages", double(flat.size()), "count");
    }

    bool correct = errors.empty() && failure_ratio(failed, attempted) == 0;
    for (const std::string& e : errors)
        std::printf("# error %s\n", e.c_str());
    out.print(correct, attempted, failed);
    return correct ? 0 : 1;
}
