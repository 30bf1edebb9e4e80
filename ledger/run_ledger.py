#!/usr/bin/env python3
"""Repeats and compares ledger runs against the bounds in BENCHMARK.json.

    python3 ledger/run_ledger.py --runs=N [--seconds=S] [--trace=0|1]
                                 [--first-seed=K] [--out=FILE]

Runs every workload N times through ledger/run.py, reversing the workload
order every other round (round r uses seed K + r), and prints each metric's
median, quartiles and spread. The spread is the distance between the first
and third quartile (statistics.quantiles, n=4) as a share of the median; it
is marked when it exceeds the metric's bound ("!") or a third of it ("~").
FILE receives every sample as JSON.

    python3 ledger/run_ledger.py --compare A.json B.json

Compares two such files (A the parent, B the change) under each metric's
bound: "worse" when B's median is worse than A's by more than the bound
(a bound of 0 makes any change count), "unresolved" when either set's
spread exceeds the bound, unless every run of B reads better than every run
of A. Exits 1 if any metric is worse, else 2 if any is unresolved, else 0.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def metric_specs(spec, trace):
    return {m["name"]: m for m in spec["per_layer" if trace else "end_to_end"]}


def one_run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(values):
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / median if median else float("inf")
    return median, q1, q3, spread


def repeat(args, spec):
    workloads = [w["name"] for w in spec["workloads"]]
    specs = metric_specs(spec, args.trace)
    samples = {w: {name: [] for name in specs} for w in workloads}
    correct = {w: [] for w in workloads}
    for r in range(args.runs):
        order = workloads if r % 2 == 0 else workloads[::-1]
        for workload in order:
            result = one_run(workload, args.first_seed + r, args.seconds,
                             args.trace)
            correct[workload].append(result["correct"])
            for name, metric in result["metrics"].items():
                samples[workload][name].append(metric["value"])
            print("round %d %s correct=%s" % (r, workload, result["correct"]),
                  file=sys.stderr)
    if args.out:
        with open(args.out, "w") as f:
            json.dump({"runs": args.runs, "seconds": args.seconds,
                       "trace": args.trace, "correct": correct,
                       "samples": samples}, f, indent=1)
    print("%-13s %-28s %14s %14s %14s %8s %6s" %
          ("workload", "metric", "median", "q1", "q3", "spread", "bound"))
    for workload in workloads:
        for name, values in samples[workload].items():
            median, q1, q3, spread = summarize(values)
            bound = specs[name].get("bound")
            mark = ""
            if bound is not None and name != "setup_s":
                mark = "!" if spread > bound else "~" if spread > bound / 3 else ""
            print("%-13s %-28s %14.6g %14.6g %14.6g %7.2f%% %6s %s" %
                  (workload, name, median, q1, q3, 100 * spread,
                   "" if bound is None else "%g" % bound, mark))
    return 0 if all(all(c) for c in correct.values()) else 1


def compare(path_a, path_b, spec):
    with open(path_a) as f:
        a = json.load(f)
    with open(path_b) as f:
        b = json.load(f)
    specs = metric_specs(spec, a.get("trace", 0))
    counts = {"worse": 0, "unresolved": 0}
    print("%-13s %-28s %14s %14s %9s %9s %9s %6s" %
          ("workload", "metric", "median A", "median B", "worse",
           "spread A", "spread B", "bound"))
    for workload, metrics in a["samples"].items():
        for name, values in metrics.items():
            bound = specs[name].get("bound")
            other = b["samples"].get(workload, {}).get(name)
            if bound is None or len(values) < 2 or not other or len(other) < 2:
                continue
            med_a, _, _, spread_a = summarize(values)
            med_b, _, _, spread_b = summarize(other)
            sign = 1.0 if specs[name]["better"] == "lower" else -1.0
            worse = sign * (med_b - med_a) / med_a if med_a else 0.0
            b_always_better = all(sign * (vb - va) < 0
                                  for va in values for vb in other)
            verdict = ""
            if worse > bound:
                verdict = "worse"
            elif max(spread_a, spread_b) > bound and not b_always_better:
                verdict = "unresolved"
            if verdict:
                counts[verdict] += 1
            print("%-13s %-28s %14.6g %14.6g %8.2f%% %8.2f%% %8.2f%% %6g %s" %
                  (workload, name, med_a, med_b, 100 * worse, 100 * spread_a,
                   100 * spread_b, bound, verdict))
    print("%d worse, %d unresolved" % (counts["worse"], counts["unresolved"]))
    if counts["worse"]:
        return 1
    return 2 if counts["unresolved"] else 0


def main():
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--out")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = parser.parse_args()
    spec = load_spec()
    if args.compare:
        return compare(args.compare[0], args.compare[1], spec)
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    return repeat(args, spec)


if __name__ == "__main__":
    sys.exit(main())
