#!/usr/bin/env python3
"""Wall time and peak memory of the basis-wide builds and evolutions on one lattice.

Each stage runs in its own fresh interpreter, one at a time, so its peak
resident set size is its own: ``base_mb`` is the peak after imports and
set-up, ``peak_mb`` the peak after the stage, and ``vectors`` what the stage
added, ``peak_mb - base_mb``, in units of one 2^N float64 vector.  The
census stages (``census``, ``csv``) and the evolving stages (``bound``,
``sweep``, ``fidelity``) are called ``BEST_OF`` times in their process and
``wall_s`` is the fastest call, so the column is comparable between runs; the
two builds are called once.  ``peak_mb`` is read
after the first call, so it and ``vectors`` still describe one call (freed
blocks reused by the repeats could raise the high-water mark).  Stages:

  op_total      ``op_total`` (the two tables of its Ising and shift diagonal,
                matrix-free drive)
  dw_diagonal   the domain-wall count of every basis state
  census        ``census`` of the disordered model's flip masks (omega 0.4,
                delta_th 0.1), the ``fragments`` command without its CSV
  csv           the same ``census`` and its ``to_csv``: the whole ``fragments``
                command but its file write
  bound         ``verify_bound`` at omega 0.005 on 20 points up to t = 2 (the
                keys of the benchmark's bound-4x4 workload)
  sweep         ``numeric_sensitivity`` of the ``hsf`` scheme at omega 0.05,
                t_int 0.1, t_all 10 (the keys of its sweep-3x6 workload)
  fidelity      ``dynamical_fidelity_grid`` at omega 0.4 on 20 points up to t = 1

Couplings are Gaussian (mean 1, spread 0.3) with seed ``SEED``.  Not part of
the tests.  A stage that fails is reported in its row, and the script then
exits 1.

Usage:
    python scripts/build_budget.py --width 4 --height 6
"""

import argparse
import json
import resource
import subprocess
import sys
import time

from hsfsense import hamiltonian as ham
from hsfsense.bound import verify_bound
from hsfsense.couplings import sample_gaussian
from hsfsense.evolve import dynamical_fidelity_grid
from hsfsense.fragments import census
from hsfsense.lattice import Lattice, canonical_partition
from hsfsense.sensing import RamseyConfig, numeric_sensitivity

import numpy as np  # after hsfsense, which sets the BLAS thread count numpy starts with

SEED = 3
BEST_OF = 3
REPEATED = ("census", "csv", "bound", "sweep", "fidelity")

STAGES = {
    "op_total": lambda lat, part, c: ham.op_total(lat, part, c, 0.4),
    "dw_diagonal": lambda lat, part, c: ham.dw_diagonal(lat),
    "census": lambda lat, part, c: census(lat, ham.flip_masks_inhomogeneous(lat, part, c, 0.1)),
    "csv": lambda lat, part, c: census(lat, ham.flip_masks_inhomogeneous(lat, part, c, 0.1)).to_csv(),
    "bound": lambda lat, part, c: verify_bound(lat, part, c, 0.005, np.linspace(0.0, 2.0, 20)),
    "sweep": lambda lat, part, c: numeric_sensitivity("hsf", RamseyConfig(0.05, 0.1, 10.0), lat, part, c),
    "fidelity": lambda lat, part, c: dynamical_fidelity_grid(ham.op_tfim(lat, c, 0.4), 0.4, np.linspace(0.0, 1.0, 20)),
}


def peak_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def timed_call(stage, lat, part, c) -> float:
    start = time.perf_counter()
    result = STAGES[stage](lat, part, c)
    wall = time.perf_counter() - start
    del result
    return wall


def run_stage(args) -> dict:
    lat = Lattice(args.width, args.height)
    part = canonical_partition(lat)
    c = sample_gaussian(lat, 1.0, 0.3, seed=SEED)
    base = peak_mb()
    wall = timed_call(args.stage, lat, part, c)
    peak = peak_mb()
    for _ in range(BEST_OF - 1 if args.stage in REPEATED else 0):
        wall = min(wall, timed_call(args.stage, lat, part, c))
    return {"stage": args.stage, "wall_s": round(wall, 3), "base_mb": round(base, 1), "peak_mb": round(peak, 1)}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--width", type=int, default=4)
    ap.add_argument("--height", type=int, default=4)
    ap.add_argument("--stage", choices=list(STAGES), help=argparse.SUPPRESS)  # one stage, in this process
    args = ap.parse_args()
    if args.stage:
        print(json.dumps(run_stage(args)))
        return 0

    n = args.width * args.height
    vector_mb = 8.0 * (1 << n) / 1024.0**2
    print(f"# {args.width}x{args.height}, N = {n}, seed {SEED}; one fresh process per stage, best of {BEST_OF} for {', '.join(REPEATED)}")
    print("stage,wall_s,base_mb,peak_mb,vectors")
    status = 0
    for stage in STAGES:
        cmd = [sys.executable, __file__, "--width", str(args.width), "--height", str(args.height), "--stage", stage]
        done = subprocess.run(cmd, capture_output=True, text=True)
        if done.returncode != 0:
            print(f"{stage},failed (exit {done.returncode}): {done.stderr.strip().splitlines()[-1:]}")
            status = 1
            continue
        row = json.loads(done.stdout.strip().splitlines()[-1])
        vectors = (row["peak_mb"] - row["base_mb"]) / vector_mb
        print(f"{stage},{row['wall_s']},{row['base_mb']},{row['peak_mb']},{vectors:.2f}")
    return status


if __name__ == "__main__":
    sys.exit(main())
