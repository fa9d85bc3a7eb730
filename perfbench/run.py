#!/usr/bin/env python3
"""Builds and runs the olapdcd end-to-end benchmark.

One run (what BENCHMARK.json's command invokes, from the repository root):

    python3 perfbench/run.py --workload cold_design --seed 1 --seconds 20 --trace 0

builds olapdcd and the replayer from source (CMake, into
$CARGO_TARGET_DIR or .bench_build), runs the replayer, and passes its
output through: the last stdout line is the result JSON.

Repeat mode runs each workload on N consecutive seeds and prints every
metric's median, quartiles and spread next to its bound in BENCHMARK.json:

    python3 perfbench/run.py --repeat 10 [--workload NAME ...] [--seed 1]
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 175


def log(message):
    print(message, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the two binaries; returns their paths."""
    for needed in ("src/CMakeLists.txt", "tools/olapdcd.cc"):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            log("perfbench: %s is missing; run from an olapdc checkout" % needed)
            sys.exit(2)
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, target, "perfbench")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "--target", "perfbench_replay",
                    "olapdcd", "-j", jobs], check=True, stdout=sys.stderr)
    return (os.path.join(build_dir, "perfbench_replay"),
            os.path.join(build_dir, "olapdcd"), build_dir)


def replay_command(binaries, workload, seed, seconds, trace):
    replayer, daemon, build_dir = binaries
    return [replayer, "--daemon", daemon, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace), "--trace-out",
            os.path.join(build_dir, "trace-%s.jsonl" % workload)]


def run_once(args):
    binaries = build()
    command = replay_command(binaries, args.workload[0], args.seed, args.seconds,
                             args.trace)
    try:
        return subprocess.run(command, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        log("perfbench: replayer exceeded %d s" % RUN_TIMEOUT_S)
        return 1


def repeat(args, config):
    """Runs every selected workload on args.repeat seeds; prints spreads."""
    binaries = build()
    bounds = {m["name"]: m for m in config["end_to_end"] + config["per_layer"]}
    workloads = args.workload or [w["name"] for w in config["workloads"]]
    seconds = args.seconds or config["run_seconds"]
    worst = {}  # "setup_s" / "others": (spread / bound, workload, metric)
    for workload in workloads:
        values = {}
        for k in range(args.repeat):
            seed = args.seed + k
            done = subprocess.run(replay_command(binaries, workload, seed, seconds,
                                                 args.trace),
                                  capture_output=True, text=True,
                                  timeout=RUN_TIMEOUT_S)
            lines = done.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else {}
            report = json.loads(lines[-2])["report"] if len(lines) > 1 else {}
            if done.returncode != 0 or not result.get("correct"):
                log(done.stderr)
                log("perfbench: %s seed %d FAILED" % (workload, seed))
                return 1
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            sentinel = report.get("sentinel_ms", {})
            log("%s seed %d: rounds=%s sentinel=%.2f..%.2f ms %s" % (
                workload, seed, report.get("rounds"),
                sentinel.get("round_min", 0), sentinel.get("round_max", 0),
                " ".join("%s=%.6g" % (n, m["value"])
                         for n, m in result["metrics"].items())))
        print("\n== %s: %d runs, seeds %d..%d, %s s each, trace %d" % (
            workload, args.repeat, args.seed, args.seed + args.repeat - 1, seconds,
            args.trace))
        print("%-30s %12s %12s %12s %8s %7s" % ("metric", "q1", "median", "q3",
                                              "spread", "bound"))
        for name, vals in values.items():
            q1, median, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / median if median else 0.0
            bound = bounds.get(name, {}).get("bound")
            flag = ""
            if bound is not None:
                group = "setup_s" if name == "setup_s" else "others"
                worst[group] = max(worst.get(group, (0.0,)),
                                   (spread / bound, workload, name))
                flag = "ok" if spread <= bound / 3 else "WIDE"
            print("%-30s %12.6g %12.6g %12.6g %8.4f %7s %s" % (
                name, q1, median, q3, spread,
                "-" if bound is None else bound, flag))
    # setup_s is listed apart: its bound limits how far its median may
    # drift between two sets of runs, not its spread across seeds (on
    # cold_design and schema_churn each seed registers its own schemas).
    print()
    for group in ("others", "setup_s"):
        if group in worst:
            print("worst spread / bound (%s): %.3f (%s %s)" % ((group,) + worst[group]))
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", default=[])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=0)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        config = json.load(f)
    if args.repeat > 0:
        return repeat(args, config)
    if len(args.workload) != 1:
        parser.error("exactly one --workload is needed outside --repeat")
    if args.seconds is None:
        args.seconds = config["run_seconds"]
    return run_once(args)


if __name__ == "__main__":
    sys.exit(main())
