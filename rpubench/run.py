#!/usr/bin/env python3
"""Run one workload of the repository benchmark.

    python3 rpubench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The script

1. builds rpubench/ (the rpu library from src/ plus the rpubench
   binary) with CMake into $CARGO_TARGET_DIR/rpubench (default
   .bench_build/rpubench); the first build takes about a minute;
2. sets the workload up cold SETUP_PROBES times, each in its own
   process, for the setup_s median;
3. runs the workload once more in its own process for --seconds;
4. prints the binary's metric table and, as its last line, one JSON
   object: {"correct", "attempted", "failed", "metrics"}. With
   --trace 0 the metrics are the end-to-end ones in BENCHMARK.json,
   with --trace 1 the per-layer ones, and the traced run also writes
   a Chrome trace-event file (open it in Perfetto) under
   $CARGO_TARGET_DIR/rpubench-traces/.

Exits 1, after printing the result, if a correctness gate failed, and
exits 1 without a result if the build or a run fails. METRICS.md
describes the workloads, the metrics and their clocks.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("serve_mulplain", "serve_mixed_2dev", "dse_ntt64k")
SETUP_PROBES = 6  # cold set-ups in their own processes, plus the run's own


def fail(msg):
    print("rpubench: " + msg, file=sys.stderr)
    sys.exit(1)


def target_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return target if os.path.isabs(target) else os.path.join(ROOT, target)


def build(bdir):
    """Configure and build the rpubench binary; returns its path."""
    for cmd in (["cmake", "-S", HERE, "-B", bdir,
                 "-DCMAKE_BUILD_TYPE=Release"],
                ["cmake", "--build", bdir, "-j4"]):
        try:
            proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True,
                                  timeout=850)
        except (OSError, subprocess.TimeoutExpired) as e:
            fail("build step %s failed: %s" % (cmd[:2], e))
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            fail("build failed: " + " ".join(cmd))
    return os.path.join(bdir, "rpubench")


def run_binary(binary, args, timeout):
    """Run the binary once; returns its parsed last-line JSON."""
    try:
        proc = subprocess.run([binary] + args, stdout=subprocess.PIPE,
                              text=True, timeout=timeout)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("run %s failed: %s" % (args, e))
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail("rpubench printed no result (exit %d)" % proc.returncode)
    for line in lines[:-1]:
        print(line)
    if proc.returncode not in (0, 1) or \
            (proc.returncode == 1) != (not result["correct"]):
        fail("rpubench exited %d" % proc.returncode)
    return result


def expected_metrics(trace):
    """Metric names BENCHMARK.json promises for this mode, or None."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not 0 < args.seconds <= 120:
        fail("--seconds must be in (0, 120]")

    bdir = os.path.join(target_dir(), "rpubench")
    binary = build(bdir)
    common = ["--workload", args.workload, "--seed", str(args.seed)]

    setups = []
    correct = True
    for _ in range(SETUP_PROBES):
        probe = run_binary(binary, common + ["--seconds", "1",
                                             "--setup-only"], 60)
        setups.append(probe["setup_s"])
        correct = correct and probe["correct"]

    run_args = common + ["--seconds", repr(args.seconds),
                         "--trace", str(args.trace)]
    trace_path = None
    if args.trace:
        trace_dir = os.path.join(target_dir(), "rpubench-traces")
        os.makedirs(trace_dir, exist_ok=True)
        trace_path = os.path.join(
            trace_dir, "%s-seed%d.json" % (args.workload, args.seed))
        run_args += ["--trace-out", trace_path]
    result = run_binary(binary, run_args, 2 * args.seconds + 90)
    setups.append(result["setup_s"])
    correct = correct and result["correct"]

    metrics = {name: {"value": m["value"], "unit": m["unit"]}
               for name, m in result["metrics"].items()}
    if not args.trace:
        metrics["setup_s"]["value"] = statistics.median(setups)
    print("setup_s: median %.6f s (wall) of %d cold set-ups: %s" % (
        statistics.median(setups), len(setups),
        " ".join("%.4f" % s for s in setups)))

    if trace_path:
        with open(trace_path) as f:
            events = json.load(f)["traceEvents"]
        print("trace: %d events in %s" % (len(events), trace_path))

    expected = expected_metrics(args.trace)
    if expected is not None and sorted(expected) != sorted(metrics):
        fail("metrics differ from BENCHMARK.json: missing %s, extra %s" % (
            sorted(set(expected) - set(metrics)),
            sorted(set(metrics) - set(expected))))

    print(json.dumps({"correct": correct,
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": metrics}))
    sys.stdout.flush()
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
