#!/usr/bin/env python3
"""Build the benchmark driver from source and run one workload.

    python3 perfbench/run.py --workload W --seed N --seconds T --trace 0|1

Run from the root of a checkout. The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}, with
every end_to_end metric of BENCHMARK.json when --trace is 0 and every
per_layer metric when it is 1. A traced run makes an untraced run of
the same seed first, in its own process, so it can report the tracing
overhead (trace.delta.*) beside the per-layer numbers; the spans go to
perfbench/out/. See perfbench/README.md.
"""

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "main.exe")
WORKLOADS = ("cast-open", "cast-closed", "lifecycle")
BUILD_TIMEOUT_S = 850
RUN_BUDGET_S = 170


def fail(msg, code=1):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build():
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        r = subprocess.run(
            ["dune", "build", "--root", ".", "./perfbench/main.exe"],
            cwd=ROOT, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except FileNotFoundError:
        fail("dune is not on PATH", 2)
    except subprocess.TimeoutExpired:
        fail("build timed out")
    if r.returncode != 0:
        fail("build failed")


def run_driver(args, trace, deadline):
    cmd = [EXE, "--workload", args.workload, "--seed", args.seed,
           "--seconds", str(args.seconds), "--trace", str(trace)]
    if trace:
        out = os.path.join(HERE, "out")
        os.makedirs(out, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            out, "trace-%s-%s.json" % (args.workload, args.seed))]
    try:
        r = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                           timeout=max(1.0, deadline - time.time()))
    except subprocess.TimeoutExpired:
        fail("workload run exceeded its time budget")
    lines = r.stdout.rstrip("\n").split("\n")
    if r.returncode != 0 or not lines:
        fail("driver exited with code %d" % r.returncode)
    for line in lines[:-1]:
        print(line)
    try:
        return json.loads(lines[-1])
    except ValueError:
        fail("driver printed no result")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not (os.path.isfile(os.path.join(ROOT, "dune-project"))
            and os.path.isdir(os.path.join(ROOT, "lib"))
            and os.path.isfile(spec_path)):
        fail("not at the root of a checkout (dune-project, lib/ and "
             "BENCHMARK.json are required)", 2)
    if args.seconds < 1:
        fail("--seconds must be at least 1", 2)
    with open(spec_path) as f:
        spec = json.load(f)
    build()
    deadline = time.time() + RUN_BUDGET_S
    base = run_driver(args, 0, deadline)
    runs = [base]
    if args.trace == 0:
        wanted, values = spec["end_to_end"], base["e2e"]
    else:
        traced = run_driver(args, 1, deadline)
        runs.append(traced)
        values = dict(traced["layers"])
        for name, v in base["e2e"].items():
            t = traced["e2e"].get(name)
            if v and t is not None:
                values["trace.delta." + name] = t / v - 1.0
        wanted = spec["per_layer"]
    metrics = {}
    for m in wanted:
        # per-layer metrics of a layer the workload never enters read 0
        v = values.get(m["name"], None if args.trace == 0 else 0)
        if v is None:
            fail("metric %s was not measured" % m["name"])
        metrics[m["name"]] = {"value": v, "unit": m["unit"]}
    print(json.dumps({
        "correct": all(r["correct"] for r in runs),
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
