#!/usr/bin/env python3
"""Benchmark entry point: builds csod_ledger from this checkout and runs one
workload.

    python3 ledger/run.py --workload ingest --seed 1 --seconds 15 --trace 0

The build goes to .bench_build/ledger (Release). The last line of stdout is
one JSON object with keys correct, attempted, failed and metrics, where the
metrics are the ones BENCHMARK.json lists: end_to_end with --trace 0,
per_layer with --trace 1. Build output and the ledger's own lines go to
stderr. Exits nonzero, printing no result, when the build or the run fails.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "ledger")
BINARY = os.path.join(BUILD, "csod_ledger")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def run(cmd, timeout, stdout):
    """Runs cmd in its own process group; kills the group on timeout."""
    proc = subprocess.Popen(cmd, stdout=stdout, stderr=sys.stderr,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    return proc.returncode, out


def build():
    jobs = str(os.cpu_count() or 1)
    for cmd in (["cmake", "-S", HERE, "-B", BUILD,
                 "-DCMAKE_BUILD_TYPE=Release"],
                ["cmake", "--build", BUILD, "--target", "csod_ledger",
                 "-j", jobs]):
        code, _ = run(cmd, BUILD_TIMEOUT_S, sys.stderr)
        if code != 0:
            sys.exit("run.py: '%s' failed with exit code %d"
                     % (" ".join(cmd), code))


def parse(lines, workload):
    """'<workload> <metric> <value> <unit>' lines -> {metric: (value, unit)}."""
    values = {}
    for line in lines:
        fields = line.split()
        if len(fields) == 4 and fields[0] == workload:
            values[fields[1]] = (float(fields[2]), fields[3])
    return values


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    build()

    cmd = [BINARY, "--workload=" + args.workload, "--seed=%d" % args.seed,
           "--seconds=%r" % args.seconds]
    if args.trace:
        cmd.append("--trace=" + os.path.join(
            BUILD, "trace-%s-%d.json" % (args.workload, args.seed)))
    code, out = run(cmd, RUN_TIMEOUT_S, subprocess.PIPE)
    sys.stderr.write(out)
    # 0: every check passed; 1: a check failed but the metrics were printed.
    if code not in (0, 1):
        sys.exit("run.py: csod_ledger exited with code %d" % code)

    values = parse(out.splitlines(), args.workload)
    metrics = {}
    for metric in spec["per_layer" if args.trace else "end_to_end"]:
        name, unit = metric["name"], metric["unit"]
        if name not in values or values[name][1] != unit:
            sys.exit("run.py: csod_ledger printed no '%s' in %s"
                     % (name, unit))
        metrics[name] = {"value": values[name][0], "unit": unit}
    print(json.dumps({
        "correct": code == 0,
        "attempted": int(values["attempted"][0]),
        "failed": int(values["failed"][0]),
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
