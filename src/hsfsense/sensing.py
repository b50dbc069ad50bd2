"""Ramsey metrology: uncertainty formulas, scheme comparison, short-time
series, intermediate (Zeno) scaling, and the Bernoulli outcome estimator."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import hamiltonian as ham
from . import states
from .couplings import CouplingMap
from .errors import SensingError
from .evolve import EvolutionEngine
from .lattice import Lattice, SitePartition

SCHEMES = ("ghz_free", "ghz_interacting", "hsf")


@dataclass(frozen=True)
class RamseyConfig:
    """Protocol timing and sizes for one Ramsey run."""

    omega: float
    t_int: float
    t_all: float

    def __post_init__(self):
        if self.t_int <= 0 or self.t_all <= 0:
            raise SensingError("t_int and t_all must be positive")
        if self.t_all < self.t_int:
            raise SensingError("t_all must allow at least one repetition (t_all >= t_int)")

    @property
    def repetitions(self) -> int:
        """floor(t_all / t_int), with a relative tolerance so 0.3/0.1 counts 3, not 2."""
        return int(math.floor(self.t_all / self.t_int * (1.0 + 1e-9)))

    def phase_warning(self, n: int) -> bool:
        """True when omega * n * t_int is not small and linearization is suspect."""
        return abs(self.omega * n * self.t_int) >= 0.5


@dataclass(frozen=True)
class ZenoParams:
    """Interrogation-time shortening exponents: t_int = tau * N^(-1/2-beta) * jbar^(-1-gamma)."""

    tau: float
    beta: float
    gamma: float
    omega0: float
    jbar: float

    def __post_init__(self):
        if self.tau <= 0:
            raise SensingError("tau must be positive")
        if self.beta < 0 or self.gamma < 0:
            raise SensingError("beta and gamma must be nonnegative (series diverges otherwise)")
        if self.jbar <= 0:
            raise SensingError("jbar must be positive")


def ramsey_uncertainty(p_s: float, dp_domega: float, m: int) -> float:
    """Error-propagation uncertainty sqrt(p(1-p)) / (|dp/domega| sqrt(m))."""
    if not 0.0 < p_s < 1.0:
        raise SensingError(f"p_s={p_s} has degenerate variance; need 0 < p_s < 1")
    if dp_domega == 0.0:
        raise SensingError("dP/domega = 0: uncertainty diverges")
    if m < 1:
        raise SensingError(f"need at least one repetition, got m={m}")
    return math.sqrt(p_s * (1.0 - p_s)) / (abs(dp_domega) * math.sqrt(m))


def _ramsey_setup(
    scheme: str,
    omega: float,
    lattice: Lattice,
    partition: SitePartition | None,
    couplings: CouplingMap | None,
    ideal: bool,
) -> tuple[np.ndarray, ham.TransverseFieldOperator, states.Projector]:
    """Initial state, generator at ``omega`` and readout projector of one scheme.

    Every generator is a diagonal plus (omega/2) sum sigma^x, so omega
    enters only through the operator's flip amplitude ``value``.
    """
    n = lattice.n_sites
    if scheme == "ghz_free":
        psi0 = states.ghz_x(n)
        h = ham.op_omega(lattice, omega)
        proj = states.rank1_projector(states.ghz_x(n, "primed"))
    elif scheme == "ghz_interacting":
        psi0 = states.ghz_x(n)
        h = ham.op_tfim(lattice, couplings, omega)
        proj = states.rank1_projector(states.ghz_x(n, "primed"))
    elif scheme == "hsf":
        psi0 = states.embed(states.ghz_x(partition.n_probe), partition, lattice)
        proj = states.probe_projector(states.ghz_x(partition.n_probe, "primed"), partition, lattice)
        if ideal:
            h = ham.op_probe_omega(partition, lattice, omega)
        else:
            h = ham.op_total(lattice, partition, couplings, omega)
    else:
        raise SensingError(f"unknown scheme {scheme!r}; choose from {SCHEMES}")
    return psi0, h, proj


def numeric_sensitivity(
    scheme: str,
    config: RamseyConfig,
    lattice: Lattice,
    partition: SitePartition | None = None,
    couplings: CouplingMap | None = None,
    ideal: bool = False,
) -> float:
    """Simulated delta-omega for one scheme from the exact slope dP/domega.

    One Chebyshev march of the matrix-free generator diag + (omega/2) S
    carries the state and its derivative with respect to omega/2
    (``EvolutionEngine.evolve_tangent``).  With u the projector amplitudes of
    the state, P = ||u||^2 and dP/domega = Re<u, du/d(omega/2)>.
    """
    psi0, h, proj = _ramsey_setup(scheme, config.omega, lattice, partition, couplings, ideal)
    psi, dpsi = EvolutionEngine(h).evolve_tangent(psi0, config.t_int)
    slope = float(np.vdot(proj.amplitudes(psi), proj.amplitudes(dpsi)).real)
    return ramsey_uncertainty(states.measurement_probability(psi, proj), slope, config.repetitions)


def bond_square_sum(couplings: CouplingMap) -> float:
    """Exact second-order interaction weight entering the short-time series.

    Sum of J_ij^2 over dynamical bonds, plus the per-site square of the
    coherently summed frame couplings: frame bonds act as longitudinal
    fields, and a site touching two frame bonds (a corner) sees their sum,
    not their squares independently.  Reduces to the plain bond-square sum
    when no site has more than one frame bond.
    """
    lattice = couplings.lattice
    total = 0.0
    frame_field = dict.fromkeys(range(lattice.n_sites), 0.0)
    for (i, j), jij in couplings.items():
        if lattice.is_frame(j):
            frame_field[i] += jij
        else:
            total += jij * jij
    return total + sum(b * b for b in frame_field.values())


def p_s_second_order(config: RamseyConfig, couplings: CouplingMap) -> float:
    """Short-time series for the primed-GHZ projection probability.

    1/2 + (1/2) omega N t - (1/2) t^2 sum_bonds J^2; valid to O(t^3).
    """
    n = couplings.lattice.n_sites
    t = config.t_int
    return 0.5 + 0.5 * config.omega * n * t - 0.5 * t * t * bond_square_sum(couplings)


def zeno_uncertainty(p: ZenoParams, n: int, t_all: float) -> float:
    """Closed-form uncertainty under interrogation-time shortening.

    Derived by inserting the second-order probability series into the
    error-propagation formula with omega = omega0/N and
    t_int = tau N^(-1/2-beta) jbar^(-1-gamma); approaches
    (jbar / (tau t_all))^(1/2) N^(-3/4) at beta = gamma = 0 and large N.
    """
    if n < 1 or t_all <= 0:
        raise SensingError("need n >= 1 and t_all > 0")
    tau, b, g, w0, jb = p.tau, p.beta, p.gamma, p.omega0, p.jbar
    radicand = (
        0.25 / tau * jb ** (1 + g) * n ** (-1.5 + b)
        - 0.25 * w0 * w0 * tau * jb ** (-1 - g) * n ** (-2.5 - b)
        + w0 * tau * tau * jb ** (-2 * g) * n ** (-2 - 2 * b)
        - jb ** (1 - 3 * g) * tau ** 3 * n ** (-1.5 - 3 * b)
    )
    if radicand < 0:
        raise SensingError(
            f"series breakdown: negative radicand {radicand} at n={n}, beta={b}, gamma={g} "
            "(t_int too long for the second-order expansion)"
        )
    return 2.0 / math.sqrt(t_all) * math.sqrt(radicand)


def zeno_asymptote(p: ZenoParams, n: int, t_all: float) -> float:
    """Leading-order scaling (jbar/(tau t_all))^(1/2) N^(-3/4)."""
    return math.sqrt(p.jbar / (p.tau * t_all)) * n ** -0.75


def estimator_mse_analytic(p_actual: float, epsilon: float, n_probe: int, t_int: float, m: int) -> float:
    """Analytic mean-square error of the linearized outcome-average estimator:
    (4 / (n_probe t_int)^2) (p(1-p)/M + epsilon^2)."""
    scale = 4.0 / (n_probe * t_int) ** 2
    return scale * (p_actual * (1.0 - p_actual) / m + epsilon * epsilon)


def monte_carlo_estimator(
    config: RamseyConfig,
    p_true: float,
    n_probe: int,
    m: int,
    seed: int,
    trials: int = 1,
) -> tuple[float, float]:
    """Simulate repeated Bernoulli readout and invert the outcome average.

    Each trial draws m outcomes with success probability ``p_true``, forms
    the average S, and estimates omega as (2S - 1)/(n_probe t_int).  Returns
    the mean estimate over trials and the empirical mean-square error
    against config.omega.
    """
    if m < 1 or trials < 1:
        raise SensingError("m and trials must be >= 1")
    if not 0.0 <= p_true <= 1.0:
        raise SensingError(f"p_true={p_true} is not a probability")
    rng = np.random.default_rng(seed)
    successes = rng.binomial(m, p_true, size=trials)
    estimates = (2.0 * successes / m - 1.0) / (n_probe * config.t_int)
    mse = float(np.mean((estimates - config.omega) ** 2))
    return float(np.mean(estimates)), mse
