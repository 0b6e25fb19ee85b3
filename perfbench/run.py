#!/usr/bin/env python3
"""Builds and runs the SkyDiver benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload oneshot_if --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --smoke      # the benchmark's own test, seconds long

Each run first builds src/ and the benchmark program in Release (CMake, into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench; an up-to-date
build is a no-op), then runs one workload in one process. The last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics; with --trace 0 the metrics are BENCHMARK.json's end_to_end
ones, with --trace 1 its per_layer ones (spans go to traces/ in the build
directory). A run whose output breaks that contract exits non-zero.
"""

import argparse
import json
import math
import os
import subprocess
import sys

RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def load_spec(root):
    path = os.path.join(root, "BENCHMARK.json")
    if not os.path.isfile(path):
        fail("BENCHMARK.json not found; run from the root of a checkout")
    with open(path) as f:
        return json.load(f)


def build(root, build_dir):
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        fail("src/CMakeLists.txt not found; the benchmark builds the library from source")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", os.path.join(root, "perfbench"), "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs, "--target", "skybench"],
                   check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "skybench")


def git_sha(root):
    try:
        out = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else "unknown"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def expected_metrics(spec, trace):
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def check_result(line, expected):
    """Returns the parsed result line, or raises ValueError. The program may
    name per-layer metrics of layers its workload does not run under "idle";
    they are reported as 0 with their unit from BENCHMARK.json. Every other
    expected metric must be measured."""
    result = json.loads(line)
    idle = result.pop("idle", [])
    for name in idle:
        if name not in expected or name in result.get("metrics", {}):
            raise ValueError(f"idle metric {name!r} is not an unmeasured expected metric")
        result["metrics"][name] = {"value": 0, "unit": expected[name]}
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError(f"result keys are {sorted(result)}")
    if not isinstance(result["correct"], bool):
        raise ValueError("correct is not a boolean")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or result[key] < 0:
            raise ValueError(f"{key} is not a whole number")
    if result["attempted"] < 1:
        raise ValueError("nothing was attempted")
    metrics = result["metrics"]
    if set(metrics) != set(expected):
        missing = sorted(set(expected) - set(metrics))
        extra = sorted(set(metrics) - set(expected))
        raise ValueError(f"metrics missing {missing}, unexpected {extra}")
    for name, unit in expected.items():
        m = metrics[name]
        if m.get("unit") != unit:
            raise ValueError(f"{name} has unit {m.get('unit')!r}, expected {unit!r}")
        value = m.get("value")
        if not isinstance(value, (int, float)) or isinstance(value, bool) or not math.isfinite(value):
            raise ValueError(f"{name} is not a finite number")
    return result


def run_once(binary, root, build_dir, workload, seed, seconds, trace, smoke, expected):
    work = os.path.join(build_dir, "work")
    traces = os.path.join(build_dir, "traces")
    os.makedirs(work, exist_ok=True)
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0", "--workdir", work]
    if trace:
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(traces, f"{workload}-seed{seed}.jsonl")]
    if smoke:
        cmd.append("--smoke")
    env = dict(os.environ, SKYBENCH_GIT_SHA=git_sha(root))
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"{workload} exited with code {proc.returncode}")
    try:
        result = check_result(lines[-1], expected)
    except ValueError as e:
        fail(f"{workload}: bad result line: {e}")
    return lines[:-1], result


def smoke(spec, binary, root, build_dir):
    """Every workload at toy size, untraced and traced: each metric named in
    BENCHMARK.json is emitted with its unit (per-layer ones measured unless
    the workload names their layer idle), outputs check out, and the
    end-to-end metrics are non-zero."""
    for w in spec["workloads"]:
        for trace in (False, True):
            expected = expected_metrics(spec, trace)
            _, result = run_once(binary, root, build_dir, w["name"], 1, 2, trace, True, expected)
            if not result["correct"]:
                fail(f"smoke {w['name']} trace={int(trace)}: outputs failed their checks")
            if not trace:
                zero = [n for n, m in result["metrics"].items() if m["value"] == 0]
                if zero:
                    fail(f"smoke {w['name']}: end-to-end metrics are 0: {zero}")
            print(f"smoke {w['name']} trace={int(trace)}: ok, {len(expected)} metrics, "
                  f"{result['attempted']} operations")
    print("smoke: all workloads ok")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload at toy size and check the output contract")
    args = parser.parse_args()

    root = os.getcwd()
    spec = load_spec(root)
    build_dir = os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench")
    build_dir = os.path.join(root, build_dir)
    try:
        binary = build(root, build_dir)
    except subprocess.CalledProcessError as e:
        fail(f"build failed: {e}")

    if args.smoke:
        smoke(spec, binary, root, build_dir)
        return
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        fail(f"--workload must be one of {names}")
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    trace = args.trace == 1
    head, result = run_once(binary, root, build_dir, args.workload, args.seed, seconds, trace,
                            False, expected_metrics(spec, trace))
    for line in head:
        print(line)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
