"""Universal error bound for the decoupled probe dynamics.

The analytic gap j_gap lower-bounds the numerically enumerated single-flip
gap delta_pr_numeric, and the bound right-hand side limits |epsilon(t)|, the
readout probability under the full Hamiltonian minus the decoupled probe
drive's closed form ``sensing.ideal_probability``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import hamiltonian as ham
from . import states
from .couplings import CouplingMap
from .errors import BoundError
from .evolve import EvolutionEngine
from .lattice import Lattice, SitePartition, describe_violations, validate_partition
from .sensing import ideal_probability, ramsey_setup


@dataclass(frozen=True)
class BoundReport:
    j_g: float
    delta_pr: float
    t_grid: np.ndarray
    epsilon_values: np.ndarray
    rhs_values: np.ndarray
    satisfied: bool
    vacuous: bool
    max_ratio: float

    def to_csv(self) -> str:
        lines = ["t,epsilon,rhs,margin"]
        for t, e, r in zip(self.t_grid, self.epsilon_values, self.rhs_values):
            lines.append(
                f"{format(float(t), '.17g')},{format(float(e), '.17g')},"
                f"{format(float(r), '.17g')},{format(float(r - abs(e)), '.17g')}"
            )
        return "\n".join(lines) + "\n"

    def summary(self) -> dict:
        return {
            "j_g": self.j_g,
            "delta_pr": self.delta_pr,
            "satisfied": self.satisfied,
            "vacuous": self.vacuous,
            "max_ratio": self.max_ratio,
        }


def j_gap(lattice: Lattice, partition: SitePartition, couplings: CouplingMap) -> float:
    """min over ancilla sites of [4 jbar - sum_j 2|delta_ij|]; positive for valid maps."""
    best = math.inf
    for i in partition.ancilla_sites:
        spread = sum(2.0 * abs(couplings.bond_delta(i, j)) for j in lattice.neighbors(i))
        best = min(best, 4.0 * couplings.jbar - spread)
    if best <= 0:
        raise BoundError(f"j_gap={best} is nonpositive; coupling disorder violates 2|delta| < jbar")
    return best


def delta_pr_numeric(partition: SitePartition, diag: ham.Diagonal) -> float:
    """Exact minimum |diagonal energy change| for one ancilla flip.

    Enumerates every probe configuration over the frozen ancilla pattern and
    every single ancilla flip, and reads the 2^m (n_ancilla + 1) entries from
    ``diag``.  ``verify_bound`` passes the ``Diagonal`` of the ``op_total`` it
    marches, so this is that diagonal's gap bit for bit; it is >= j_gap.
    """
    frozen = states.frozen_subspace(partition)
    e0 = diag.at(frozen)
    gaps = (np.min(np.abs(diag.at(frozen ^ (1 << a)) - e0)) for a in partition.ancilla_sites)
    return float(min(gaps, default=math.inf))


def error_bound_rhs(n: int, omega: float, j_g: float, t):
    """2 n omega / j_g + 2 (e^(n omega / j_g) - 1) n omega t, for a scalar or an array ``t``."""
    t = np.asarray(t, dtype=float)
    if j_g <= 0:
        raise BoundError(f"j_g must be positive, got {j_g}")
    if n < 1 or omega < 0 or np.any(t < 0):
        raise BoundError("need n >= 1, omega >= 0, t >= 0")
    x = n * omega / j_g
    return 2.0 * x + 2.0 * math.expm1(x) * n * omega * t


def verify_bound(
    lattice: Lattice,
    partition: SitePartition,
    couplings: CouplingMap,
    omega: float,
    t_grid,
) -> BoundReport:
    """Full-simulation check that |epsilon(t)| <= rhs(t) on the grid, with the
    analytic j_gap as the denominator of rhs.

    The premises are checked before anything evolves: a partition that breaks
    a freezing rule raises BoundError with its violations, and so do the
    envelope's own inputs (``omega < 0``, a nonpositive gap); a partition
    with no probe raises PartitionError, at ``omega = 0`` too.
    """
    violations = validate_partition(lattice, partition)
    if violations:
        raise BoundError(describe_violations(violations))
    t_grid = np.asarray(t_grid, dtype=float)
    n = lattice.n_sites
    jg = j_gap(lattice, partition, couplings)
    rhs = error_bound_rhs(n, omega, jg, t_grid)
    # set up at omega = 0 too, where nothing evolves: it checks the probes
    psi, h_total, proj = ramsey_setup("hsf", omega, lattice, partition, couplings)
    dpr = delta_pr_numeric(partition, h_total.diag)
    if omega == 0.0:  # no drive: eps is 0 exactly, where a march would read its rounding against rhs = 0
        eps = np.zeros_like(t_grid)
    else:
        amps = EvolutionEngine(h_total).readout_grid(psi, t_grid, proj)
        eps = np.array([np.sum(np.abs(u) ** 2) for u in amps]) - ideal_probability(partition.n_probe, omega, t_grid)

    satisfied = bool(np.all(np.abs(eps) <= rhs + 1e-14))
    vacuous = bool(omega != 0.0 and np.all(rhs >= 1.0))
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(rhs > 0, np.abs(eps) / np.where(rhs > 0, rhs, 1.0), 0.0)
    return BoundReport(
        j_g=jg,
        delta_pr=dpr,
        t_grid=t_grid,
        epsilon_values=np.asarray(eps),
        rhs_values=rhs,
        satisfied=satisfied,
        vacuous=vacuous,
        max_ratio=float(np.max(ratios)) if len(t_grid) else 0.0,
    )
