#!/usr/bin/env python3
"""Verify the rigorous deviation bound and print the fragment census.

Runs the full dynamics against the decoupled probe dynamics on a disordered
instance, checks |eps(t)| against the analytic envelope at every grid point,
then enumerates the Krylov fragments of the constrained effective model.
Exits 1 if any seed's bound is not satisfied or its inhomogeneous fragments
do not refine the homogeneous ones.

Usage:
    python scripts/bound_and_fragments.py --width 3 --height 3 --seeds 5
"""

import argparse

from hsfsense import hamiltonian as ham
from hsfsense.bound import verify_bound
from hsfsense.couplings import sample_gaussian
from hsfsense.fragments import census, refinement_check
from hsfsense.lattice import Lattice, canonical_partition

import numpy as np  # after hsfsense, which sets the BLAS thread count numpy starts with


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--width", type=int, default=3)
    ap.add_argument("--height", type=int, default=3)
    ap.add_argument("--omega-ratio", type=float, default=1e-2, help="omega / jbar")
    ap.add_argument("--jbar", type=float, default=1.0)
    ap.add_argument("--sigma-ratio", type=float, default=0.2)
    ap.add_argument("--delta-th", type=float, default=0.1)
    ap.add_argument("--t-max", type=float, default=2.0)
    ap.add_argument("--t-points", type=int, default=50)
    ap.add_argument("--seeds", type=int, default=3)
    args = ap.parse_args()

    lat = Lattice(args.width, args.height)
    part = canonical_partition(lat)
    ts = np.linspace(0.0, args.t_max, args.t_points)

    print("seed,j_g,delta_pr,max_ratio,satisfied,fragments_hom,fragments_inhom,refines")
    masks_hom = list(ham.flip_masks_homogeneous(lat))
    rep_hom = census(lat, masks_hom)
    failed = False
    for seed in range(args.seeds):
        c = sample_gaussian(lat, args.jbar, args.sigma_ratio * args.jbar, seed=seed)
        report = verify_bound(lat, part, c, omega=args.omega_ratio * args.jbar, t_grid=ts)
        masks_in = list(ham.flip_masks_inhomogeneous(lat, part, c, args.delta_th))
        rep_in = census(lat, masks_in)
        refines = refinement_check(rep_hom, rep_in, masks_hom, masks_in)
        print(
            f"{seed},{report.j_g:.6g},{report.delta_pr:.6g},{report.max_ratio:.3g},"
            f"{report.satisfied},{rep_hom.total_fragments},{rep_in.total_fragments},{refines}"
        )
        failed |= not (report.satisfied and refines)
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
