#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark (perfbench/README.md).

Run from the repository root:

    python3 perfbench/run.py --workload paper_figures --seed 1 --seconds 30 --trace 0

The program is built from source with CMake into $CARGO_TARGET_DIR (default
.bench_build). Build output goes to stderr; the benchmark's report goes to
stdout and its last line is the JSON result.

Every run must print exactly the metrics, with their units, that
BENCHMARK.json lists for its mode; otherwise run.py exits with code 2.

Extra modes:
    --self-test   build, then run every workload at toy size, untraced and
                  traced; each run must pass every check
    --pin         run, then record the run's digests in perfbench/golden.json
"""

import argparse
import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
GOLDEN = os.path.join(HERE, "golden.json")
BENCHMARK = os.path.join(ROOT, "BENCHMARK.json")


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "mtrm.hpp")):
        fail("library sources (src/) not found next to perfbench/; run from a full checkout")
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs])
    for step in steps:
        result = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr, cwd=ROOT)
        if result.returncode != 0:
            fail("build step failed: " + " ".join(step))
    return out


def describe():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unavailable-not-a-git-checkout"
    result = subprocess.run(["git", "describe", "--always", "--dirty"], cwd=ROOT,
                            capture_output=True, text=True)
    return result.stdout.strip() or "unknown"


def load_benchmark():
    with open(BENCHMARK) as handle:
        return json.load(handle)


def run_program(out, workload, seed, seconds, trace, tiny=False):
    """Runs the benchmark program once and echoes its report. Returns the
    report and its JSON result; exits when the program fails or its metrics
    are not BENCHMARK.json's."""
    build_root = os.path.dirname(out)
    spans = "%s%s-%d.json" % ("tiny-" if tiny else "", workload, seed)
    command = [
        os.path.join(out, "perfbench"),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", repr(seconds),
        "--trace", str(trace),
        "--golden", GOLDEN,
        "--describe", describe(),
        "--scratch", os.path.join(build_root, "tmp"),
        "--spans", os.path.join(build_root, "spans", spans),
    ]
    if tiny:
        command.append("--tiny")
    # The library reads these; a stray value would change what is measured.
    env = {k: v for k, v in os.environ.items() if k not in ("MANET_THREADS", "MANET_KINETIC")}
    # A hung run is killed; a healthy one ends a few set-ups and repetitions
    # past --seconds.
    timeout = max(175.0, 3 * seconds + 60)
    try:
        result = subprocess.run(command, cwd=ROOT, env=env, timeout=timeout,
                                stdout=subprocess.PIPE, text=True)
    except subprocess.TimeoutExpired:
        fail("benchmark did not finish within %g s" % timeout)
    sys.stdout.write(result.stdout)
    sys.stdout.flush()
    if result.returncode != 0:
        sys.exit(result.returncode)
    outcome = json.loads(result.stdout.splitlines()[-1])
    listed = load_benchmark()["per_layer" if trace else "end_to_end"]
    expected = {metric["name"]: metric["unit"] for metric in listed}
    printed = {name: metric["unit"] for name, metric in outcome["metrics"].items()}
    if printed != expected:
        wrong = sorted(set(expected.items()) ^ set(printed.items()))
        fail("metrics differ from BENCHMARK.json (name, unit): %s" % wrong)
    return result.stdout, outcome


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--pin", action="store_true")
    args = parser.parse_args()

    out = build()
    if args.self_test:
        for workload in load_benchmark()["workloads"]:
            for trace in (0, 1):
                _, outcome = run_program(out, workload["name"], 7, 1, trace, tiny=True)
                if not outcome["correct"]:
                    fail("self-test: %s --trace %d failed a check" % (workload["name"], trace))
        print("perfbench: self-test passed", file=sys.stderr)
        return
    if not args.workload:
        fail("--workload is required")

    report, _ = run_program(out, args.workload, args.seed, args.seconds, args.trace)
    if args.pin:
        pin(args, report)


def pin(args, stdout):
    """Records the run's digests; refuses when any check failed."""
    failures = [line for line in stdout.splitlines() if line.startswith("  FAILED: ")]
    if any("canary: no pinned digest" not in line for line in failures):
        fail("not pinning: the run failed a check")
    with open(GOLDEN) as handle:
        golden = json.load(handle)
    canary = re.search(r"canary_digest=(\w+)", stdout).group(1)
    golden.setdefault("canary", {})[args.workload] = canary
    entry = golden.setdefault("pins", {}).setdefault(args.workload, {}).setdefault(
        str(args.seed), {})
    entry["result"] = re.search(r"result_digest=(\w+)", stdout).group(1)
    trees = re.search(r"tree_digest=(\w+)", stdout)
    if trees:
        entry["trees"] = trees.group(1)
    with open(GOLDEN, "w") as handle:
        json.dump(golden, handle, indent=2, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    main()
