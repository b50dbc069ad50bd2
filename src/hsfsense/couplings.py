"""Ising bond strengths: homogeneous mean plus quenched Gaussian disorder.

Bond deltas are keyed by the (i, j) pairs from ``Lattice.bonds`` (i < j for
dynamical bonds, frame pseudo-index for boundary bonds).  Disorder is drawn
from NumPy's seeded PCG64 generator, so fixed-seed runs reproduce bit-for-bit
across platforms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import CouplingError
from .lattice import Lattice

_REJECTION_CAP = 1000


@dataclass(frozen=True)
class CouplingMap:
    """Bond couplings J_ij = jbar + delta[bond] over every lattice bond."""

    lattice: Lattice
    jbar: float
    delta: dict[tuple[int, int], float] = field(hash=False)

    def __post_init__(self):
        if self.jbar <= 0:
            raise CouplingError(f"jbar must be positive (ferromagnetic convention), got {self.jbar}")
        missing = set(self.lattice.bonds()) - set(self.delta)
        if missing:
            raise CouplingError(f"coupling map missing bonds {sorted(missing)[:5]}")

    def bond_delta(self, i: int, j: int) -> float:
        key = (i, j) if (i, j) in self.delta else (j, i)
        if key not in self.delta:
            raise CouplingError(f"({i},{j}) is not a lattice bond")
        return self.delta[key]

    def items(self):
        """(bond, total coupling) pairs in deterministic bond order."""
        for bond in self.lattice.bonds():
            yield bond, self.jbar + self.delta[bond]


def homogeneous(lattice: Lattice, jbar: float) -> CouplingMap:
    """All deltas zero."""
    return CouplingMap(lattice, jbar, {b: 0.0 for b in lattice.bonds()})


def sample_gaussian(lattice: Lattice, jbar: float, sigma: float, seed: int) -> CouplingMap:
    """Draw i.i.d. mean-zero Gaussian deltas of standard deviation ``sigma``.

    Draws with |delta| >= jbar/2 are rejected and redrawn per bond so the
    max 2|delta|/jbar < 1 assumption always holds; a bond that fails
    1000 times raises (sigma is far too large relative to jbar).
    """
    if sigma < 0:
        raise CouplingError(f"sigma must be nonnegative, got {sigma}")
    rng = np.random.default_rng(seed)
    delta = {}
    for bond in lattice.bonds():
        for _ in range(_REJECTION_CAP):
            d = rng.normal(0.0, sigma) if sigma > 0 else 0.0
            if abs(d) < jbar / 2:
                delta[bond] = float(d)
                break
        else:
            raise CouplingError(
                f"rejection sampling failed for bond {bond} after {_REJECTION_CAP} draws "
                f"(sigma={sigma} too large relative to jbar={jbar})"
            )
    return CouplingMap(lattice, jbar, delta)


def from_csv(lattice: Lattice, jbar: float, text: str) -> CouplingMap:
    """Explicit deltas from CSV lines ``i,j,delta``; unlisted bonds get zero, and a
    delta that is not finite, or breaks 2|delta| < jbar as ``sample_gaussian``'s
    draws never do, is rejected with its line.  A bond listed twice, in either
    order, is rejected with both lines."""
    delta = {b: 0.0 for b in lattice.bonds()}
    listed = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#") or line.lower().startswith("i,"):
            continue
        try:
            si, sj, sd = line.split(",")
            i, j, d = int(si), int(sj), float(sd)
        except ValueError as exc:
            raise CouplingError(f"couplings CSV line {lineno}: {raw!r}") from exc
        if not math.isfinite(d):
            raise CouplingError(f"couplings CSV line {lineno}: delta {d} is not finite")
        if not abs(d) < jbar / 2:
            raise CouplingError(f"couplings CSV line {lineno}: |delta| {abs(d)} must be below jbar/2 = {jbar / 2}")
        key = (i, j) if (i, j) in delta else (j, i)
        if key not in delta:
            raise CouplingError(f"couplings CSV line {lineno}: ({i},{j}) is not a lattice bond")
        if key in listed:
            raise CouplingError(f"couplings CSV lines {listed[key]} and {lineno}: bond ({i},{j}) is listed twice")
        listed[key] = lineno
        delta[key] = d
    return CouplingMap(lattice, jbar, delta)


def k_ratio(c: CouplingMap) -> float:
    """max over bonds of 2|delta|/jbar; < 1 for any valid map."""
    if not c.delta:
        return 0.0
    return max(2.0 * abs(d) for d in c.delta.values()) / c.jbar
