#!/usr/bin/env python3
"""End-to-end benchmark of the apcm server: builds perfbench from source and
runs one workload.

    python3 perfbench/run.py --workload big-book --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest

Run from the root of a checkout. The build lives in .bench_build/perfbench.
The report goes to standard output; its last line is one JSON object with
"correct", "attempted", "failed" and "metrics": the end_to_end metrics of
BENCHMARK.json with --trace 0, its per_layer metrics with --trace 1. The exit
code is non-zero when the build fails, the oracle finds a wrong or missing
match, or the load generator fell behind its schedule (an invalid run).
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build():
    """Configures (once) and builds perfbench; exits on failure."""
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    with open(log_path, "w") as log:
        steps = []
        if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
            generator = ["-G", "Ninja"] if shutil.which("ninja") else []
            steps.append(["cmake", "-S", HERE, "-B", BUILD,
                          "-DCMAKE_BUILD_TYPE=Release"] + generator)
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        steps.append(["cmake", "--build", BUILD, "-j", jobs])
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                fail(f"build failed (log: {log_path})")


def unit_of(name, units):
    """Unit of a figure: declared in BENCHMARK.json, else from its suffix."""
    if name in units:
        return units[name]
    for suffix, unit in (("_us", "us"), ("_ms", "ms"), ("_s", "s"),
                         ("_eps", "1/s"), ("_mb", "MB"), ("_pct", "%"),
                         ("_share", "ratio")):
        if name.endswith(suffix) or suffix + "_" in name:
            return unit
    return "count"


def run(args):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    with open(os.path.join(HERE, "workloads.json")) as f:
        table = json.load(f)
    if args.workload not in table["workloads"]:
        fail(f"unknown workload {args.workload!r}")
    spec = table["workloads"][args.workload]
    build()

    tmp = os.path.join(BUILD, f"tmp-{os.getpid()}")
    cmd = [os.path.join(BUILD, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--tmp", tmp,
           "--spans", os.path.join(BUILD, f"spans-{args.workload}.jsonl")]
    for key in ("subs", "rate", "churn_rate", "churn_active", "churn_pool",
                "cluster_pass", "setups"):
        cmd += ["--" + key.replace("_", "-"), str(int(spec[key]))]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S}s", 3)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    lines = proc.stdout.splitlines()
    result = [l for l in lines if l.startswith("RESULT ")]
    if proc.returncode != 0 or not result:
        sys.stderr.write(proc.stderr[-4000:])
        fail(f"perfbench exited with {proc.returncode}", 3)
    raw = json.loads(result[-1][len("RESULT "):])
    figures = raw["figures"]

    declared = bench["per_layer"] if args.trace else bench["end_to_end"]
    units = {m["name"]: m["unit"]
             for m in bench["end_to_end"] + bench["per_layer"]}
    for line in lines:
        if not line.startswith("RESULT "):
            print(line)
    print(f"{'figure':42s} {'value':>16s}  unit")
    for name in sorted(figures):
        print(f"{name:42s} {figures[name]:16.6g}  {unit_of(name, units)}")
    missing = [m["name"] for m in declared if m["name"] not in figures]
    if missing:
        fail(f"figures missing from the run: {', '.join(missing)}", 3)
    out = {
        "correct": bool(raw["correct"]),
        "attempted": int(raw["attempted"]),
        "failed": int(raw["failed"]),
        "metrics": {m["name"]: {"value": figures[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }
    if not raw["valid"]:
        fail("invalid run: the load generator fell behind its schedule", 4)
    print(json.dumps(out))
    return 0 if out["correct"] else 1


def selftest():
    build()
    return subprocess.run([os.path.join(BUILD, "perfbench_test")],
                          cwd=ROOT).returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if args.selftest:
        return selftest()
    if not args.workload:
        parser.error("--workload is required")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
