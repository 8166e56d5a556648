#!/usr/bin/env python3
"""Repository benchmark: builds perfbench from source and runs one workload.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the repository root. The library and the perfbench program are
built with CMake into .bench_build/ (incrementally after the first run).
An untraced run prints the workload's end-to-end metrics; a traced run
prints the per-layer metrics and writes Chrome trace-event JSON to
.bench_build/trace-<workload>.json. Metric names come from BENCHMARK.json.
The last stdout line is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Set-up time is the median over SETUP_SAMPLES processes, each building the
workload from cold (no JIT or plan cache carries over between processes).
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
EXE = os.path.join(BUILD, "perfbench")
THREADS = 4
SETUP_SAMPLES = 3
# A run must end within 180 s once the program is built.
RUN_DEADLINE_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures and builds (incrementally); build output goes to stderr."""
    gen = []
    if (shutil.which("ninja")
            and not os.path.exists(os.path.join(BUILD, "Makefile"))):
        gen = ["-G", "Ninja"]
    subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                    "-DCMAKE_BUILD_TYPE=Release", *gen],
                   stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD, "--target", "perfbench",
                    "-j", str(THREADS)], stdout=sys.stderr, check=True)


def child_env():
    # The library reads XCONV_* knobs (backend, ISA, streams, plan cache);
    # the benchmark measures the defaults.
    env = {k: v for k, v in os.environ.items() if not k.startswith("XCONV_")}
    env["OMP_NUM_THREADS"] = str(THREADS)
    return env


def run_child(args, extra, deadline):
    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), *extra]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise RuntimeError("out of time before " + " ".join(cmd))
    p = subprocess.run(cmd, stdout=subprocess.PIPE, env=child_env(),
                       timeout=timeout, check=True, text=True)
    lines = p.stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    return json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        ap.error("unknown workload " + args.workload)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    build()
    deadline = time.monotonic() + RUN_DEADLINE_S

    runs = []
    if args.trace:
        trace_out = os.path.join(BUILD, "trace-%s.json" % args.workload)
        runs.append(run_child(args, ["--trace", "1", "--trace-out", trace_out],
                              deadline))
        wanted = spec["per_layer"]
    else:
        for _ in range(SETUP_SAMPLES - 1):
            runs.append(run_child(args, ["--setup-only"], deadline))
        runs.append(run_child(args, [], deadline))
        wanted = spec["end_to_end"]
    main_run = runs[-1]

    correct = all(r["correct"] for r in runs)
    metrics = dict(main_run["metrics"])
    if not args.trace:
        setups = [r["metrics"]["setup_s"]["value"] for r in runs]
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
        print("setup_s samples: %s" % ", ".join("%.3f" % s for s in setups))
        # Same seed, same inputs: the first training step's loss must
        # reproduce bit for bit in every process.
        bits = {r.get("first_loss_bits") for r in runs}
        if len(bits) != 1:
            log("perfbench: first-step loss differs across processes: %s"
                % sorted(bits))
            correct = False

    out = {}
    for m in wanted:
        name = m["name"]
        if name in metrics:
            out[name] = metrics[name]
            if metrics[name]["unit"] != m["unit"]:
                log("perfbench: %s reported in %s, declared in %s"
                    % (name, metrics[name]["unit"], m["unit"]))
                correct = False
        elif args.trace and name.endswith(".pct_peak"):
            log("perfbench: %s left out: peak probe CV above its bound" % name)
        else:
            log("perfbench: metric %s was not produced" % name)
            correct = False
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "metrics": out,
    }))


if __name__ == "__main__":
    try:
        main()
    except (OSError, RuntimeError, ValueError, KeyError,
            subprocess.SubprocessError) as e:
        log("perfbench: %s" % e)
        sys.exit(1)
