#!/usr/bin/env python3
"""Steadiness check: run workloads N times and report each metric's spread.

    python3 rpubench/repeat.py [--workload NAME ...] [--runs 10]
                               [--first-seed 1] [--trace 0|1]
                               [--save FILE] [--against FILE]

Runs rpubench/run.py once per seed (first-seed, first-seed+1, ...)
with BENCHMARK.json's run_seconds, and prints for every metric its
median, first and third quartile (statistics.quantiles, n=4) and the
spread (Q3 - Q1) / median next to the metric's bound. An end-to-end
metric is STEADY when its spread is under a third of its bound, WIDE
when it is under the bound, and NOISY otherwise (setup_s is judged
only by its median, as the benchmark's acceptance rule does).
--save writes the medians to a JSON file; --against compares this
set's medians with a saved set and flags any metric that got worse by
more than its bound. Run from the repository root.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", action="append",
                    choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--save")
    ap.add_argument("--against")
    args = ap.parse_args()

    metrics = spec["per_layer" if args.trace else "end_to_end"]
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    medians = {}
    failed = False
    for workload in workloads:
        values = {m["name"]: [] for m in metrics}
        for i in range(args.runs):
            seed = args.first_seed + i
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"),
                 "--workload", workload, "--seed", str(seed),
                 "--seconds", str(spec["run_seconds"]),
                 "--trace", str(args.trace)],
                stdout=subprocess.PIPE, text=True, cwd=ROOT)
            try:
                result = json.loads(proc.stdout.strip().splitlines()[-1])
            except (IndexError, ValueError):
                result = None
            if proc.returncode != 0 or not result or not result["correct"]:
                print("%s seed %d: run failed (exit %d)" % (
                    workload, seed, proc.returncode))
                failed = True
                continue
            for name in values:
                values[name].append(result["metrics"][name]["value"])
            if not args.trace:
                print("%s seed %d: %s" % (workload, seed, " ".join(
                    "%s=%.6g" % (n, v[-1]) for n, v in values.items())),
                    flush=True)

        print("\n%s (%d runs)" % (workload, len(values[metrics[0]["name"]])))
        print("  %-36s %12s %12s %12s %8s %6s  %s" % (
            "metric", "median", "q1", "q3", "spread", "bound", "verdict"))
        medians[workload] = {}
        for m in metrics:
            v = values[m["name"]]
            if not v:
                continue
            q1, med, q3 = quartiles(v)
            medians[workload][m["name"]] = med
            spread = (q3 - q1) / med if med else float("nan")
            bound = m.get("bound")
            verdict = ""
            if bound is not None and m["name"] != "setup_s":
                verdict = ("STEADY" if spread < bound / 3 else
                           "WIDE" if spread <= bound else "NOISY")
                failed = failed or verdict == "NOISY"
            print("  %-36s %12.6g %12.6g %12.6g %8.4f %6s  %s" % (
                m["name"], med, q1, q3, spread,
                "" if bound is None else "%.3g" % bound, verdict))

    if args.against:
        with open(args.against) as f:
            base = json.load(f)
        print("\nmedians against %s" % args.against)
        for workload, meds in medians.items():
            for m in metrics:
                name, bound = m["name"], m.get("bound")
                old = base.get(workload, {}).get(name)
                if bound is None or old is None or name not in meds:
                    continue
                worse = (meds[name] - old) / old
                if m["better"] == "higher":
                    worse = -worse
                verdict = "ok" if worse <= bound else "REGRESSED"
                failed = failed or verdict != "ok"
                print("  %-18s %-24s %12.6g -> %12.6g  worse by %+.4f "
                      "(bound %.3g) %s" % (workload, name, old, meds[name],
                                           worse, bound, verdict))
    if args.save:
        with open(args.save, "w") as f:
            json.dump(medians, f, indent=1, sort_keys=True)
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
