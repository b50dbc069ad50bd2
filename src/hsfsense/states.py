"""Pure-state constructors and projective measurement operators.

All vectors use the bit convention of :mod:`hsfsense.hamiltonian` and are
normalized to 1e-12.  Global phase: the first nonzero amplitude in basis
order is made real nonnegative, so vector comparisons in golden tests are
exact.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EvolutionError
from .lattice import Lattice, SitePartition

NORM_TOL = 1e-12


def _fix_phase(vec: np.ndarray) -> np.ndarray:
    nz = np.nonzero(np.abs(vec) > 1e-14)[0]
    if nz.size:
        first = vec[nz[0]]
        vec = vec * (abs(first) / first)
    return vec


def _popcounts(n: int) -> np.ndarray:
    """Number of set bits of every index below 2^n.

    Indices [2^k, 2^(k+1)) are those below 2^k plus bit k, so each doubling
    step appends the previous counts plus one.
    """
    counts = np.zeros(1, dtype=np.int64)
    for _ in range(n):
        counts = np.concatenate((counts, counts + 1))
    return counts


def ghz_x(n: int, phase: str = "plain") -> np.ndarray:
    """GHZ state in the x basis: (|+...+> + c |-...->)/sqrt(2).

    ``phase`` selects the relative amplitude c: 1 for "plain", i for
    "primed" (the measurement-basis partner used in the Ramsey readout).
    """
    if n < 1:
        raise EvolutionError(f"need at least one spin, got n={n}")
    if phase not in ("plain", "primed"):
        raise EvolutionError(f"phase must be 'plain' or 'primed', got {phase!r}")
    c = 1j if phase == "primed" else 1.0
    signs = (-1.0) ** _popcounts(n)
    vec = (1.0 + c * signs) / (np.sqrt(2.0) * 2.0 ** (n / 2.0))
    return _fix_phase(vec.astype(complex))


def frozen_bits(partition: SitePartition) -> int:
    """The ancilla frozen pattern as a bit mask over full-lattice sites."""
    bits = 0
    for site, up in partition.frozen_pattern.items():
        if up:
            bits |= 1 << site
    return bits


def frozen_subspace(partition: SitePartition) -> np.ndarray:
    """Full-basis index of every probe configuration over the frozen ancilla pattern.

    Entry p is the state whose probe sites carry the bits of p, bit k on the
    k-th smallest probe site (probe-factor order).
    """
    probe_order = partition.probe_order()
    p = np.arange(1 << len(probe_order), dtype=np.int64)
    indices = np.full(p.shape, frozen_bits(partition), dtype=np.int64)
    for k, site in enumerate(probe_order):
        indices |= ((p >> k) & 1) << site
    return indices


def embed(probe_state: np.ndarray, partition: SitePartition, lattice: Lattice) -> np.ndarray:
    """Tensor the probe-factor state with the frozen ancilla configuration.

    Probe-factor bit k corresponds to the k-th smallest probe site index.
    """
    probe_order = partition.probe_order()
    if probe_state.shape != (1 << len(probe_order),):
        raise EvolutionError(
            f"probe state has dimension {probe_state.shape[0]}, "
            f"expected {1 << len(probe_order)} for {len(probe_order)} probes"
        )
    full = np.zeros(1 << lattice.n_sites, dtype=complex)
    full[frozen_subspace(partition)] = probe_state
    return full


@dataclass(frozen=True)
class Projector:
    """Rank-1 projector |phi><phi| on some sites, tensored with the identity on the rest.

    ``vector`` is phi over the configurations of ``sites`` (bit k on site ``sites[k]``)
    out of ``n_sites``; with every site listed in order it acts on the full space.
    """

    vector: np.ndarray
    sites: tuple[int, ...]
    n_sites: int

    def amplitudes(self, state: np.ndarray) -> np.ndarray:
        """<phi| contracted with ``state`` over the axes of ``sites`` in its (2,)*N view.

        One amplitude per configuration of the other sites; the expectation
        is their squared norm.
        """
        n, m = self.n_sites, len(self.sites)
        if state.shape != (1 << n,):
            raise EvolutionError("projector/state dimension mismatch")
        # phi's axis m-1-k is bit k, which is axis n-1-sites[k] of the state
        axes = [n - 1 - site for site in reversed(self.sites)]
        phi = self.vector.conj().reshape((2,) * m)
        return np.tensordot(phi, state.reshape((2,) * n), axes=(list(range(m)), axes)).reshape(-1)

    def expectation(self, state: np.ndarray) -> float:
        return float(np.sum(np.abs(self.amplitudes(state)) ** 2))


def rank1_projector(vector: np.ndarray) -> Projector:
    """|phi><phi| on the full space."""
    n = len(vector).bit_length() - 1
    return Projector(np.asarray(vector, dtype=complex), tuple(range(n)), n)


def probe_projector(probe_vector: np.ndarray, partition: SitePartition, lattice: Lattice) -> Projector:
    """|phi^P><phi^P| on the probe factor, identity on ancillas."""
    return Projector(np.asarray(probe_vector, dtype=complex), tuple(partition.probe_order()), lattice.n_sites)


def measurement_probability(state: np.ndarray, projector: Projector) -> float:
    """Expectation of a projector on a normalized pure state, clipped to [0, 1]."""
    p = projector.expectation(state)
    if p < -NORM_TOL or p > 1.0 + 1e-9:
        raise EvolutionError(f"projector expectation {p} outside [0, 1]")
    return float(min(max(p, 0.0), 1.0))

