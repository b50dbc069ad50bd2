#!/usr/bin/env python3
"""Ramsey frequency uncertainty for every sensing scheme on one lattice.

Compares a non-interacting GHZ register (Heisenberg limit), the same register
with the Ising couplings left on, the fragmentation-protected layout in
which only a sublattice of probe spins stays dynamical inside a frozen
ancilla background, and that layout's probes under the decoupled probe drive
alone.

Exits 1 when the free GHZ register or the ideal probe register misses its
Heisenberg limit by more than HL_RTOL relative: both have it in closed form.

Usage:
    python scripts/sensitivity_comparison.py --width 3 --height 3
"""

import argparse
import math
import sys

from hsfsense.couplings import sample_gaussian
from hsfsense.lattice import Lattice, canonical_partition
from hsfsense.sensing import SCHEMES, RamseyConfig, numeric_sensitivity

HL_RTOL = 1e-12


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--width", type=int, default=3)
    ap.add_argument("--height", type=int, default=3)
    ap.add_argument("--omega", type=float, default=0.05)
    ap.add_argument("--jbar", type=float, default=1.0)
    ap.add_argument("--sigma-ratio", type=float, default=0.3)
    ap.add_argument("--t-int", type=float, default=0.1)
    ap.add_argument("--t-all", type=float, default=10.0)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()

    lat = Lattice(args.width, args.height)
    part = canonical_partition(lat)
    c = sample_gaussian(lat, args.jbar, args.sigma_ratio * args.jbar, seed=args.seed)
    rc = RamseyConfig(omega=args.omega, t_int=args.t_int, t_all=args.t_all)

    hl_full = 1.0 / (lat.n_sites * math.sqrt(rc.t_int * rc.t_int * rc.repetitions))
    hl_probe = 1.0 / (part.n_probe * math.sqrt(rc.t_int * rc.t_int * rc.repetitions))
    print(f"# {lat.n_sites} sites, {part.n_probe} probes, M = {rc.repetitions}")
    print(f"# Heisenberg limit: full register {hl_full:.6g}, probe register {hl_probe:.6g}")
    print("scheme,delta_omega")
    deltas = {scheme: numeric_sensitivity(scheme, rc, lat, part, c) for scheme in SCHEMES}
    for scheme, delta in deltas.items():
        print(f"{scheme},{delta:.17g}")
    status = 0
    for scheme, limit in (("ghz_free", hl_full), ("hsf_ideal", hl_probe)):
        miss = abs(deltas[scheme] - limit) / limit
        if miss > HL_RTOL:
            print(f"error: {scheme} misses its Heisenberg limit by {miss:.3g} relative", file=sys.stderr)
            status = 1
    return status


if __name__ == "__main__":
    raise SystemExit(main())
