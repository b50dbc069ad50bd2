#!/usr/bin/env python3
"""Dynamical-fidelity decay of a lattice GHZ state under disordered Ising couplings.

For each mean coupling strength, draws Gaussian bond disorder, evolves the
GHZ state under the full transverse-field Ising Hamiltonian, and compares it
with the non-interacting reference evolution.  Stronger couplings destroy
the cat coherence faster.

Usage:
    python scripts/fidelity_decay.py --width 4 --height 3 --out fidelity.csv
"""

import argparse
import sys

from hsfsense import hamiltonian as ham
from hsfsense.couplings import sample_gaussian
from hsfsense.evolve import dynamical_fidelity_grid
from hsfsense.lattice import Lattice

import numpy as np  # after hsfsense, which sets the BLAS thread count numpy starts with


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--width", type=int, default=4)
    ap.add_argument("--height", type=int, default=3)
    ap.add_argument("--omega", type=float, default=0.4)
    ap.add_argument("--jbars", type=float, nargs="+", default=[1.0, 2.0, 4.0])
    ap.add_argument("--sigma-ratio", type=float, default=0.3, help="disorder std / jbar")
    ap.add_argument("--t-max", type=float, default=1.0)
    ap.add_argument("--t-points", type=int, default=41)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--out", default="-")
    args = ap.parse_args()

    lat = Lattice(args.width, args.height)
    ts = np.linspace(0.0, args.t_max, args.t_points)

    lines = ["jbar,t,fidelity"]
    for jbar in args.jbars:
        c = sample_gaussian(lat, jbar, args.sigma_ratio * jbar, seed=args.seed)
        curve = dynamical_fidelity_grid(ham.op_tfim(lat, c, args.omega), args.omega, ts)
        lines += [f"{jbar:.17g},{t:.17g},{f:.17g}" for t, f in zip(ts, curve)]

    text = "\n".join(lines) + "\n"
    if args.out == "-":
        sys.stdout.write(text)
    else:
        with open(args.out, "w") as fh:
            fh.write(text)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
