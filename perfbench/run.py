#!/usr/bin/env python3
"""The mapper's benchmark: one workload, one run, one JSON result.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the root of the repository.  It builds perfbench/bench.exe
with dune, checks that the identity guard is not vacuous (bench.exe
selftest), then runs passes of the workload, each in a fresh process,
until --seconds have been spent (at least MIN_PASSES).  Pass k uses the
sub-seed seed*1000+k.

--trace 0 reports the end-to-end metrics of BENCHMARK.json, each the
median over the untraced passes.  --trace 1 alternates an untraced and
a traced pass of the same sub-seed: the traced pass must reach the same
decisions, and the per-layer metrics are medians over traced passes,
plus trace.overhead_frac (median traced / median untraced wall - 1).

The last stdout line is the result: {"correct", "attempted", "failed",
"metrics"}.  End-to-end times are at the reference host speed (see
perfbench/README.md).  The line before it stamps the run (commit, nproc,
OCaml version, seed, median host-speed factor) and gives each metric's
sample count.  Failed checks go
to stderr; the exit code is 0 only when every check passed.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

MIN_PASSES = 3
PASS_TIMEOUT_S = 150
BUILD_TIMEOUT_S = 840
EXE = os.path.join("_build", "default", "perfbench", "bench.exe")


def die(msg, code=2):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(code)


def load_spec():
    try:
        with open("BENCHMARK.json") as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        die(f"cannot read BENCHMARK.json: {e}")
    return spec


def check_checkout(spec):
    """The benchmark builds the program from this checkout's sources."""
    names = [w["name"] for w in spec["workloads"]]
    for path in ("dune-project", "lib", "perfbench/dune"):
        if not os.path.exists(path):
            die(f"{path} not found: run from the root of the repository")
    return names


def build():
    # The shared dune cache lives outside the checkout: keep it off.
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        r = subprocess.run(
            ["dune", "build", "--root", ".", "./perfbench/bench.exe"],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
            timeout=BUILD_TIMEOUT_S, env=env)
    except (OSError, subprocess.TimeoutExpired) as e:
        die(f"build failed: {e}", 3)
    if r.returncode != 0 or not os.path.exists(EXE):
        sys.stderr.write(r.stdout)
        die("build failed", 3)


def bench(args, stdin_text=None):
    """Run bench.exe to completion; return its last stdout line."""
    try:
        r = subprocess.run([EXE] + args, input=stdin_text, stdout=subprocess.PIPE,
                           text=True, timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die(f"bench.exe {' '.join(args)}: timed out", 4)
    lines = r.stdout.strip().splitlines()
    if r.returncode != 0 or not lines:
        die(f"bench.exe {' '.join(args)}: exit {r.returncode}", 4)
    return lines[-1]


def commit():
    if not os.path.exists(".git"):
        return "unknown"
    try:
        r = subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                           stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                           text=True, timeout=10)
        if r.returncode == 0 and r.stdout.strip():
            return r.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    return "unknown"


def number(v):
    """A measured value, or None when it is missing or non-finite."""
    if isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v):
        return v
    return None


def layer_value(record, name):
    """A per-layer metric of a traced pass record.  It reads 0 only when
    the pass declares its layer unreached; a metric of a reached layer
    must be present (None otherwise, which fails the run)."""
    unreached = name.split(".", 1)[0] in record["unreached"]
    if name in record["layer"]:
        return None if unreached else number(record["layer"][name])
    return 0.0 if unreached else None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    spec = load_spec()
    workloads = check_checkout(spec)
    if args.workload not in workloads:
        die(f"unknown workload {args.workload!r} (one of {', '.join(workloads)})")
    build()

    failures = []
    if bench(["selftest"]) != "selftest ok":
        failures.append("selftest: the identity guard accepts a vacuous comparison")

    t0 = time.monotonic()
    untraced, traced = [], []
    k = 0
    while True:
        elapsed = time.monotonic() - t0
        done = len(traced) if args.trace else len(untraced)
        if done >= MIN_PASSES or (args.trace and done >= 1):
            per_pass = elapsed / done
            if elapsed + per_pass > args.seconds:
                break
        seed = args.seed * 1000 + k
        k += 1
        base = ["pass", "--workload", args.workload, "--seed", str(seed)]
        line = bench(base)
        untraced.append(json.loads(line))
        if args.trace:
            traced.append(json.loads(bench(base + ["--traced", "--expect", "-"], line)))

    records = untraced + traced
    for r in records:
        failures.extend(f"seed {r['seed']}: {m}" for m in r["failures"])
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)

    metrics, samples = {}, {}
    if args.trace:
        wanted = spec["per_layer"]
        source = traced
        u = statistics.median(r["wall_s"] * r["speed"] for r in untraced)
        t = statistics.median(r["wall_s"] * r["speed"] for r in traced)
        extra = {"trace.overhead_frac": t / u - 1.0}
    else:
        wanted = spec["end_to_end"]
        source = untraced
        extra = {}
    for m in wanted:
        name = m["name"]
        if name in extra:
            value, n = extra[name], len(traced)
        else:
            vals = [layer_value(r, name) if args.trace else number(r["e2e"].get(name))
                    for r in source]
            if any(v is None for v in vals):
                failures.append(f"{name}: missing, non-finite or of an unreached layer in a pass")
                vals = [v for v in vals if v is not None]
            value, n = (statistics.median(vals) if vals else None), len(vals)
        metrics[name] = {"value": value, "unit": m["unit"]}
        samples[name] = n

    stamp = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "commit": commit(),
        "nproc": os.cpu_count(),
        "ocaml": records[0]["ocaml"],
        "passes": len(source),
        "speed_factor": statistics.median(r["speed"] for r in source),
        "samples": samples,
    }
    print(json.dumps({"stamp": stamp}))
    for f in failures:
        print(f"check failed: {f}", file=sys.stderr)
    correct = not failures and all(v["value"] is not None for v in metrics.values())
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
