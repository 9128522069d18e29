#!/usr/bin/env python3
"""Repository benchmark: builds perfbench from source and runs one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload engine-large --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one after another
    python3 perfbench/run.py --selfcheck             # short run of each workload, asserts the output

The last line of a workload run is one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics of BENCHMARK.json with
--trace 0, its per-layer metrics with --trace 1. The traced run also writes
its spans to <build dir>/traces/. The build goes to $CARGO_TARGET_DIR (or
.bench_build) under the repository root; it is an optimized CMake build of
perfbench/CMakeLists.txt, which compiles the program's libraries from src/.

Exit codes: 0 with a result, 1 with a result that has a wrong answer, 2 with
no result (usage, missing sources, build or set-up failure, timeout).
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["engine-large", "edge-small", "serve-write"]
RUN_TIMEOUT_S = 170

# Report lines each workload must print, by name, in the self-check: the
# workload-specific end-to-end figures that BENCHMARK.json cannot carry for
# every workload, plus the shared ones.
REPORTED = {
    "engine-large": ["setup_s", "qps", "query_p50_ms", "query_p90_ms",
                     "pass_s", "unsafe_abort_s", "peak_rss_mb",
                     "failed_frac"],
    "edge-small": ["setup_s", "qps", "query_p50_ms", "query_p90_ms",
                   "query_p99_ms", "serial_p50_ms", "peak_rss_mb",
                   "failed_frac"],
    "serve-write": ["setup_s", "qps", "query_p50_ms", "query_p90_ms",
                    "query_p99_ms", "commit_p50_ms", "commit_p90_ms",
                    "peak_rss_mb", "failed_frac"],
}


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    return os.path.join(target, "perfbench")


def build():
    """Configures (once) and builds the perfbench binary; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("program sources not found: %s is missing"
             % os.path.join(ROOT, "src", "CMakeLists.txt"))
    if shutil.which("cmake") is None:
        fail("cmake not found")
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(out, "build.log")
    with open(log_path, "w") as log:
        if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
            cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            if subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT) != 0:
                fail("configure failed; see " + log_path)
        cmd = ["cmake", "--build", out, "--target", "perfbench", "-j", "4"]
        if subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT) != 0:
            fail("build failed; see " + log_path)
    return os.path.join(out, "perfbench")


def run_one(binary, workload, seed, seconds, trace):
    """Runs one workload; returns (exit code, stdout lines)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    if trace:
        traces = os.path.join(build_dir(), "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(traces, "%s-seed%d.tsv" % (workload, seed))]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("%s did not finish within %d s" % (workload, RUN_TIMEOUT_S))
    return proc.returncode, proc.stdout.splitlines()


def load_contract():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def selfcheck(binary):
    """Runs each workload briefly, traced and untraced, and asserts that every
    metric of BENCHMARK.json prints with its unit, that the report names each
    workload's own figures, and that every oracle passed."""
    contract = load_contract()
    wanted = {
        False: {m["name"]: m["unit"] for m in contract["end_to_end"]},
        True: {m["name"]: m["unit"] for m in contract["per_layer"]},
    }
    problems = []
    for workload in WORKLOADS:
        for trace in (False, True):
            code, lines = run_one(binary, workload, 1, 3, trace)
            label = "%s trace=%d" % (workload, trace)
            if code != 0 or not lines:
                problems.append("%s: exit code %d" % (label, code))
                continue
            result = json.loads(lines[-1])
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                problems.append("%s: result keys %s" % (label, sorted(result)))
            if result.get("correct") is not True or result.get("failed") != 0:
                problems.append("%s: correct=%s failed=%s" % (
                    label, result.get("correct"), result.get("failed")))
            got = {k: v.get("unit") for k, v in result["metrics"].items()}
            if got != wanted[trace]:
                problems.append("%s: metric names or units differ from "
                                "BENCHMARK.json" % label)
            for name, value in result["metrics"].items():
                if not isinstance(value.get("value"), (int, float)):
                    problems.append("%s: %s has no numeric value" % (label, name))
            if not trace:
                printed = {line.split()[0] for line in lines[:-1] if line.strip()}
                for name in REPORTED[workload]:
                    if name not in printed:
                        problems.append("%s: report line %s missing"
                                        % (label, name))
            print("selfcheck %-24s attempted %d, failed %d, %d metrics"
                  % (label, result["attempted"], result["failed"],
                     len(result["metrics"])))
    for p in problems:
        print("selfcheck FAILED: " + p, file=sys.stderr)
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--selfcheck", action="store_true")
    args = parser.parse_args()
    if not args.selfcheck and args.workload is None:
        parser.error("--workload or --selfcheck is required")

    binary = build()
    if args.selfcheck:
        return selfcheck(binary)

    seconds = args.seconds
    if seconds is None:
        seconds = load_contract()["run_seconds"]
    if seconds <= 0:
        parser.error("--seconds must be positive")

    worst = 0
    for workload in (WORKLOADS if args.workload == "all" else [args.workload]):
        code, lines = run_one(binary, workload, args.seed, seconds,
                              args.trace == 1)
        for line in lines:
            print(line)
        sys.stdout.flush()
        if code not in (0, 1) or not lines or not lines[-1].startswith("{"):
            fail("%s produced no result (exit code %d)" % (workload, code))
        worst = max(worst, code)
    return worst


if __name__ == "__main__":
    sys.exit(main())
