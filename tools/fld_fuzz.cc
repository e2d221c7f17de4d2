/**
 * @file
 * fld_fuzz — differential scenario fuzzer CLI.
 *
 * Walks 64-bit seeds, materializes each into a randomized testbed +
 * workload + fault plan (sim::ScenarioFuzzer), runs it through the
 * four oracles (apps::FuzzRunner: differential equivalence, trace
 * invariants, exactly-once, conservation) and, on the first failure,
 * greedily shrinks the scenario and writes replayable artifacts.
 *
 * Usage:
 *   fld_fuzz [--seeds=N | --conn=N | --rpc=N | --pipeline=N |
 *             --churn=N | --replay=SEED]
 *            [--seed0=S] [--budget=120s] [--jobs=N]
 *            [--artifacts=DIR] [--no-trace]
 *
 * Modes (at most one; two different mode flags exit 2 with a usage
 * line). Every sweep mode runs N consecutive seeds from --seed0
 * through the shared seed sweep (tools/fuzz/fuzz_sweep.h):
 *   --seeds=N       datapath mode, the default (N = 100): each seed's
 *                   scenario as generated
 *   --conn=N        connection-workload mode: each seed forced to
 *                   FuzzMode::ConnServe, run FLD-served vs CPU-served
 *                   through the fastpath harness oracles
 *   --rpc=N         RPC-workload mode: each seed forced to
 *                   FuzzMode::RpcServe; the differential oracle diffs
 *                   per-request response digests across the modes
 *   --pipeline=N    pipeline-program mode: each seed forced to
 *                   FuzzMode::EthEcho with a random decoration program
 *                   spliced into the echo server's compiled steering
 *                   program, judged FLD vs CPU by all four oracles
 *   --churn=N       control-plane mode: randomized many-tenant churn
 *                   scenarios (sim::ChurnGen) through the ChurnHarness
 *                   oracles (shadow map, stat conservation,
 *                   budget/model reconciliation, fault rejection)
 *   --replay=SEED   run exactly one datapath seed and print its
 *                   transcript
 *
 * Options for every sweep mode:
 *   --seed0=S       first seed (default 1)
 *   --budget=T      stop after T wall-clock seconds (e.g. 120s);
 *                   overrides N with "as many as fit"
 *   --jobs=N        worker threads (default 1); any N yields the same
 *                   verdict, artifacts and set of progress lines
 *   --artifacts=DIR write failing_seed.txt / minimized_scenario.txt /
 *                   transcript.txt there on failure (default ".")
 *   --no-trace      skip trace recording (faster soak)
 *
 * Exit code 0 = all seeds clean, 1 = a failure was found (artifacts
 * written), 2 = bad usage.
 */
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <string_view>

#include "tools/fuzz/fuzz_modes.h"
#include "tools/fuzz/fuzz_sweep.h"
#include "util/strings.h"

using namespace fld;
using apps::FuzzFamily;

namespace {

constexpr const char* kUsage =
    "usage: fld_fuzz [--seeds=N | --conn=N | --rpc=N | --pipeline=N | "
    "--churn=N | --replay=SEED] [--seed0=S] [--budget=T] [--jobs=N] "
    "[--artifacts=DIR] [--no-trace]\n";

/** One sweep mode: its flag, the word its lines carry, and how often
 *  (in seeds) it prints a progress line. */
struct Mode
{
    const char* flag;
    FuzzFamily family;
    const char* label;
    uint64_t progress_every;
};

constexpr Mode kModes[] = {
    {"seeds", FuzzFamily::Datapath, "", 25},
    {"conn", FuzzFamily::Conn, "conn ", 10},
    {"rpc", FuzzFamily::Rpc, "rpc ", 10},
    {"pipeline", FuzzFamily::Pipeline, "pipeline ", 10},
    {"churn", FuzzFamily::Churn, "churn ", 25},
};

struct CliOptions
{
    const Mode* mode = &kModes[0];
    uint64_t seeds = 100;
    uint64_t seed0 = 1;
    double budget_sec = 0; ///< 0 = no time budget
    unsigned jobs = 1;
    bool replay = false;
    uint64_t replay_seed = 0;
    std::string artifacts = ".";
    bool trace = true;
};

bool
parse_args(int argc, char** argv, CliOptions& o)
{
    const char* mode_flag = nullptr;
    auto pick_mode = [&](const char* flag) {
        if (mode_flag && std::strcmp(mode_flag, flag) != 0) {
            std::fprintf(stderr, "--%s and --%s are exclusive\n",
                         mode_flag, flag);
            return false;
        }
        mode_flag = flag;
        return true;
    };
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        auto val = [&](std::string_view prefix) -> const char* {
            return a.rfind(prefix, 0) == 0 ? a.c_str() + prefix.size()
                                           : nullptr;
        };
        const Mode* mode = nullptr;
        const char* count = nullptr;
        for (const Mode& m : kModes)
            if (const char* v = val("--" + std::string(m.flag) + "=")) {
                mode = &m;
                count = v;
            }
        if (mode) {
            if (!pick_mode(mode->flag))
                return false;
            o.mode = mode;
            o.seeds = std::strtoull(count, nullptr, 0);
        } else if (const char* v = val("--replay=")) {
            if (!pick_mode("replay"))
                return false;
            o.replay = true;
            o.replay_seed = std::strtoull(v, nullptr, 0);
        } else if (const char* v = val("--seed0="))
            o.seed0 = std::strtoull(v, nullptr, 0);
        else if (const char* v = val("--budget="))
            o.budget_sec = std::strtod(v, nullptr); // "120s" parses as 120
        else if (const char* v = val("--jobs="))
            o.jobs = unsigned(std::strtoul(v, nullptr, 0));
        else if (const char* v = val("--artifacts="))
            o.artifacts = v;
        else if (a == "--no-trace")
            o.trace = false;
        else {
            std::fprintf(stderr, "unknown option: %s\n", a.c_str());
            return false;
        }
    }
    return true;
}

void
write_file(const std::string& path, const std::string& content)
{
    std::ofstream f(path);
    f << content;
}

void
print_replay_hint(const CliOptions& o, uint64_t seed)
{
    if (o.mode->family == FuzzFamily::Datapath)
        std::printf("replay with: fld_fuzz --replay=%llu\n",
                    (unsigned long long)seed);
    else
        std::printf("replay with: fld_fuzz --%s=1 --seed0=%llu\n",
                    o.mode->flag, (unsigned long long)seed);
}

int
report_failure(const CliOptions& o, apps::FuzzRunner& runner,
               const sim::FuzzScenario& failing,
               const apps::FuzzVerdict& verdict)
{
    std::printf("\nFAILURE at seed %llu: %s\n",
                (unsigned long long)failing.seed,
                failing.summary().c_str());
    for (const std::string& why : verdict.violations)
        std::printf("  %s\n", why.c_str());

    std::printf("shrinking...\n");
    sim::ScenarioShrinker shrinker(
        [&](const sim::FuzzScenario& s) { return !runner.run(s).ok; });
    sim::ShrinkResult shrunk = shrinker.shrink(failing);
    std::printf("shrunk after %u runs (%u accepted): %s\n",
                shrunk.predicate_runs, shrunk.accepted_mutations,
                shrunk.scenario.summary().c_str());

    apps::FuzzVerdict mv = runner.run(shrunk.scenario);
    write_file(o.artifacts + "/failing_seed.txt",
               std::to_string(failing.seed) + "\n");
    write_file(o.artifacts + "/minimized_scenario.txt",
               shrunk.scenario.to_string());
    write_file(o.artifacts + "/transcript.txt", mv.transcript);
    std::printf("artifacts written to %s "
                "(failing_seed.txt, minimized_scenario.txt, "
                "transcript.txt)\n",
                o.artifacts.c_str());
    print_replay_hint(o, failing.seed);
    return 1;
}

int
report_churn_failure(const CliOptions& o, uint64_t seed)
{
    apps::ChurnHarnessConfig cfg = apps::churn_scenario(seed);
    apps::ChurnReport rep = apps::run_churn_seed(seed);
    std::printf("\nCHURN FAILURE at seed %llu "
                "(%u tenants x %u flows, dup=%.2f stray=%.2f)\n",
                (unsigned long long)seed, cfg.churn.tenants,
                cfg.churn.flows_per_tenant, cfg.churn.dup_open_prob,
                cfg.churn.stray_close_prob);
    std::string transcript;
    for (const std::string& why : rep.violations) {
        std::printf("  %s\n", why.c_str());
        transcript += why + "\n";
    }
    write_file(o.artifacts + "/failing_seed.txt",
               std::to_string(seed) + "\n");
    write_file(o.artifacts + "/transcript.txt", transcript);
    print_replay_hint(o, seed);
    return 1;
}

int
run_replay(const CliOptions& o)
{
    apps::FuzzRunner runner(apps::fuzz_runner_options(o.trace));
    sim::FuzzScenario s =
        apps::family_scenario(FuzzFamily::Datapath, o.replay_seed);
    apps::FuzzVerdict v = runner.run(s);
    std::printf("%s", v.transcript.c_str());
    std::printf("transcript_hash = %016llx\n",
                (unsigned long long)v.transcript_hash);
    return v.ok ? 0 : report_failure(o, runner, s, v);
}

int
run_mode(const CliOptions& o)
{
    const Mode& m = *o.mode;
    const apps::FuzzRunOptions ropt = apps::fuzz_runner_options(o.trace);
    const std::string total = o.budget_sec > 0
                                  ? strfmt("%.0fs", o.budget_sec)
                                  : std::to_string(o.seeds);
    // Progress lines are keyed by seed index, not completion order, so
    // every --jobs value prints the same set of lines.
    auto progress = [&](uint64_t seed, const std::string& detail) {
        uint64_t n = seed - o.seed0 + 1;
        if (n % m.progress_every == 0 ||
            (o.budget_sec == 0 && n == o.seeds))
            std::printf("[%llu/%s] %sseed %llu ok: %s\n",
                        (unsigned long long)n, total.c_str(), m.label,
                        (unsigned long long)seed, detail.c_str());
    };
    auto ok = [&](uint64_t seed) {
        if (m.family == FuzzFamily::Churn) {
            apps::ChurnReport rep = apps::run_churn_seed(seed);
            if (rep.ok())
                progress(seed,
                         strfmt("%llu events, %zu live, hash %016llx",
                                (unsigned long long)rep.events,
                                rep.final_live,
                                (unsigned long long)rep.state_hash));
            return rep.ok();
        }
        sim::FuzzScenario s = apps::family_scenario(m.family, seed);
        bool passed = apps::FuzzRunner(ropt).run(s).ok;
        if (passed)
            progress(seed, s.summary());
        return passed;
    };

    const auto start = std::chrono::steady_clock::now();
    apps::SweepResult r = apps::run_sweep(
        {.seed0 = o.seed0,
         .seeds = o.seeds,
         .budget_sec = o.budget_sec,
         .jobs = o.jobs},
        ok);
    if (r.found_failure) {
        // Seeds are pure: running the failing one again reproduces
        // its scenario, verdict and artifacts exactly.
        if (m.family == FuzzFamily::Churn)
            return report_churn_failure(o, r.failing_seed);
        apps::FuzzRunner runner(ropt);
        sim::FuzzScenario s = apps::family_scenario(m.family, r.failing_seed);
        return report_failure(o, runner, s, runner.run(s));
    }
    std::printf("all %llu %sseeds clean (%.1fs, jobs=%u)\n",
                (unsigned long long)r.ran, m.label,
                std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - start)
                    .count(),
                o.jobs < 1 ? 1u : o.jobs);
    return 0;
}

} // namespace

int
main(int argc, char** argv)
{
    CliOptions o;
    if (!parse_args(argc, argv, o)) {
        std::fputs(kUsage, stderr);
        return 2;
    }
    return o.replay ? run_replay(o) : run_mode(o);
}
