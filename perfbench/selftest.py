#!/usr/bin/env python3
"""Self-test of the benchmark harness on a 3x3 lattice (seconds per command).

Usage (from the repository root):

    python3 perfbench/selftest.py [--seed N]

Runs each workload's command on a 3x3 lattice through the same code paths as
``run.py`` (end-to-end and traced), prints every metric that BENCHMARK.json
names, then corrupts each command's output on purpose and requires its check
to fail.  Exits 1 on any problem.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import os
import shutil
import sys

import run as bench

SMALL = {name: dataclasses.replace(w, width=3, height=3) for name, w in bench.WORKLOADS.items()}


def _rewrite_csv(path, edit) -> None:
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    fields = list(rows[0])
    rows = edit(rows)
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)


def _nudge(rows, column, index, factor, offset=0.0):
    rows[index][column] = repr(float(rows[index][column]) * factor + offset)
    return rows


# one deliberate corruption per command; each must make the check fail
CORRUPTIONS = {
    "bound": lambda rows: _nudge(rows, "epsilon", -1, 1.0, 1e-6),
    "sweep": lambda rows: _nudge(rows, "delta_omega", 0, 1.01),
    "fragments": lambda rows: rows[:-1],
}


def benchmark_names() -> tuple[set, set, set]:
    with open(bench.ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return (
        {w["name"] for w in spec["workloads"]},
        {m["name"] for m in spec["end_to_end"]},
        {m["name"] for m in spec["per_layer"]},
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)

    problems = []
    workloads, end_to_end_names, layer_names = benchmark_names()
    if workloads != set(bench.WORKLOADS):
        problems.append(f"BENCHMARK.json workloads {sorted(workloads)} != {sorted(bench.WORKLOADS)}")

    def log(record):
        print(json.dumps(record, default=str), flush=True)

    work = bench.WORK / f"selftest-{os.getpid()}"
    try:
        for name, workload in SMALL.items():
            run = bench.Run(name, workload, args.seed, work)
            samples, e2e = bench.end_to_end(run, bench.Deadline(0), log)
            more, layers = bench.traced(run, bench.Deadline(0), log, SMALL[bench.THREAD_BASELINE])
            samples += more
            for metric in sorted(end_to_end_names - set(e2e)) + sorted(layer_names - set(layers)):
                problems.append(f"{name}: metric {metric} not reported")
            for metric, (value, unit) in {**e2e, **layers}.items():
                print(f"{name:12s} {metric:26s} {value:14.6g} {unit}")
            problems += [f"{name}: sample failed: {s.problem}" for s in samples if not s.ok]

            _rewrite_csv(run.csv, CORRUPTIONS[workload.command])
            corrupted = bench.check(workload, run.ref, bench.Sample(0.0, 0.0, 0.0, 0), run.stdout, run.csv)
            print(f"{name:12s} corrupted output: {'FAILS' if not corrupted.ok else 'PASSES'} its check"
                  f" ({corrupted.problem})")
            if corrupted.ok:
                problems.append(f"{name}: corrupted output passed its check")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for problem in problems:
        print(f"PROBLEM: {problem}", file=sys.stderr)
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
