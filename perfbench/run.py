#!/usr/bin/env python3
"""Repository benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds the simulator library and the
perfbench harness from source with CMake (into $CARGO_TARGET_DIR, else
.bench_build, under perfbench/), runs the harness for one workload
and prints its output. The last stdout line is the result object:
the end-to-end metrics with --trace 0, the per-layer metrics with
--trace 1. The metric names are checked against BENCHMARK.json.

Exits non-zero without printing a result when the sources cannot be
built, and with code 1 when the run's outputs were not correct.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(out):
    """Configure once, then let the build tool bring the harness up to
    date; build chatter goes to stderr so stdout stays the result."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("simulator sources (src/) not found next to perfbench/")
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    r = subprocess.run(["cmake", "--build", out, "--target", "perfbench",
                        "-j", jobs], stdout=sys.stderr)
    if r.returncode != 0:
        fail("build failed")
    return os.path.join(out, "perfbench")


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()

    exe = build(build_dir())
    cmd = [exe, "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", str(a.seconds), "--trace", str(a.trace)]
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("harness timed out")
    lines = r.stdout.splitlines()
    if not lines or not lines[-1].startswith("{"):
        sys.stdout.write(r.stdout)
        fail("harness exited %d without a result" % r.returncode)
    result = json.loads(lines[-1])

    declared = declared_metrics(a.trace)
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != declared:
        sys.stdout.write(r.stdout)
        fail("metrics differ from BENCHMARK.json: missing %s, extra %s, "
             "units %s" % (sorted(set(declared) - set(got)),
                           sorted(set(got) - set(declared)),
                           sorted(k for k in got if k in declared
                                  and got[k] != declared[k])))
    sys.stdout.write(r.stdout)
    sys.stdout.flush()
    sys.exit(r.returncode)


if __name__ == "__main__":
    main()
