#!/usr/bin/env python3
"""MedSen benchmark entry point (see BENCHMARK.json, perfbench/manifest.json).

Run from the repository root:

    python3 perfbench/run.py --workload assay|fleet|ingest --seed N \
        --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Builds perfbench/ (a standalone CMake package over ../src) into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), generates the
workload's inputs from the seed in a separate process (perfbench_gen), then
runs the measured process (perfbench_run). The last stdout line is the JSON
result; the exit code is non-zero when any op's output was wrong or the
benchmark could not run.

--selftest runs every workload of BENCHMARK.json on the tiny preset, traced
and untraced, and fails unless each run is correct and emits exactly the
metric names (and units) BENCHMARK.json lists; the extra ingest workload
must run correctly too.
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
# Runnable and self-tested for correctness, but not in BENCHMARK.json: its
# ops are fsync-bound, and on a shared virtual disk (4-vCPU VM, virtio,
# ext4) fsync latency swung 3x over minutes, beyond the benchmark's bounds.
EXTRA_WORKLOADS = ["ingest"]


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.abspath(os.path.join(base, "perfbench"))


def build():
    """Configure (once) and build the package; returns the build dir."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log(f"MedSen sources not found under {ROOT}/src; nothing to build")
        sys.exit(2)
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs,
                  "--target", "perfbench_gen", "perfbench_run"])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            log("build failed")
            sys.exit(2)
    return out


def run_once(out, workload, seed, seconds, trace, tiny):
    """Generate inputs and run one measurement; returns (code, stdout)."""
    inputs = os.path.join(out, "inputs", workload)
    work = os.path.join(out, "work", workload)
    gen = [os.path.join(out, "perfbench_gen"), "--workload", workload,
           "--seed", str(seed), "--out", inputs]
    if tiny:
        gen.append("--tiny")
    done = subprocess.run(gen, stdout=sys.stderr, stderr=sys.stderr,
                          timeout=RUN_TIMEOUT_S)
    if done.returncode != 0:
        log(f"input generation failed for {workload} seed {seed}")
        return 2, ""
    run = [os.path.join(out, "perfbench_run"), "--workload", workload,
           "--inputs", inputs, "--work", work, "--seconds", str(seconds),
           "--trace", "1" if trace else "0"]
    if tiny:
        run += ["--setups", "2"]
    done = subprocess.run(run, stdout=subprocess.PIPE, stderr=sys.stderr,
                          text=True, timeout=RUN_TIMEOUT_S)
    shutil.rmtree(inputs, ignore_errors=True)
    return done.returncode, done.stdout


def last_json(stdout):
    lines = [line for line in stdout.splitlines() if line.strip()]
    if not lines:
        return None
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        return None


def selftest(out):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    failures = []
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            want = {m["name"]: m["unit"] for m in spec[key]}
            code, stdout = run_once(out, workload, 7, 1, trace, tiny=True)
            result = last_json(stdout)
            label = f"{workload} trace={int(trace)}"
            if code != 0 or result is None or not result.get("correct"):
                failures.append(f"{label}: exit {code}, result {result}")
                continue
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != want:
                missing = sorted(set(want) - set(got))
                extra = sorted(set(got) - set(want))
                units = sorted(n for n in set(want) & set(got)
                               if want[n] != got[n])
                failures.append(f"{label}: missing {missing}, extra {extra}, "
                                f"unit mismatch {units}")
            else:
                print(f"ok   {label}: {len(got)} metrics, "
                      f"{result['attempted']} ops", flush=True)
    for workload in EXTRA_WORKLOADS:
        code, stdout = run_once(out, workload, 7, 1, False, tiny=True)
        result = last_json(stdout)
        if code != 0 or result is None or not result.get("correct"):
            failures.append(f"{workload}: exit {code}, result {result}")
        else:
            print(f"ok   {workload} (extra): {result['attempted']} ops",
                  flush=True)
    for failure in failures:
        print(f"FAIL {failure}", flush=True)
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=["assay", "fleet"] + EXTRA_WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")

    out = build()
    if args.selftest:
        return selftest(out)
    try:
        code, stdout = run_once(out, args.workload, args.seed, args.seconds,
                                args.trace == 1, tiny=False)
    except subprocess.TimeoutExpired:
        log("run timed out")
        return 2
    result = last_json(stdout)
    if result is None:
        sys.stdout.write(stdout)
        log("the measured process printed no result")
        return code or 2
    sys.stdout.write(stdout)
    sys.stdout.flush()
    return code


if __name__ == "__main__":
    sys.exit(main())
