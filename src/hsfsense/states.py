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


def _parities(n: int) -> np.ndarray:
    """Parity (0 or 1, uint8) of the number of set bits of every index below 2^n.

    Indices [2^k, 2^(k+1)) are those below 2^k plus bit k, so each doubling
    step appends the previous parities flipped.
    """
    parity = np.zeros(1, dtype=np.uint8)
    for _ in range(n):
        parity = np.concatenate((parity, parity ^ 1))
    return parity


def ghz_x(n: int, phase: str = "plain") -> np.ndarray:
    """GHZ state in the x basis: (|+...+> + c |-...->)/sqrt(2).

    ``phase`` selects the relative amplitude c: 1 for "plain", i for
    "primed" (the measurement-basis partner used in the Ramsey readout).
    Amplitude s takes one of two values, chosen by the parity of s, and the
    vector is filled with them in place.
    """
    if n < 1:
        raise EvolutionError(f"need at least one spin, got n={n}")
    if phase not in ("plain", "primed"):
        raise EvolutionError(f"phase must be 'plain' or 'primed', got {phase!r}")
    c = 1j if phase == "primed" else 1.0
    signs = np.array([1.0, -1.0])  # (-1)^parity
    amps = _fix_phase(((1.0 + c * signs) / (np.sqrt(2.0) * 2.0 ** (n / 2.0))).astype(complex))
    # the parity of s is that of its high bits (row) xor that of its low bits (column)
    low = n // 2
    rows = amps[_parities(low) ^ np.array([[0], [1]], dtype=np.uint8)]
    vec = np.empty((1 << (n - low), 1 << low), dtype=complex)
    np.take(rows, _parities(n - low), axis=0, out=vec, mode="clip")  # "clip" writes out unbuffered
    return vec.reshape(-1)


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

    def __post_init__(self):
        if len(set(self.sites)) != len(self.sites) or any(not 0 <= i < self.n_sites for i in self.sites):
            raise EvolutionError(f"sites {self.sites} must be distinct and in range for {self.n_sites} sites")
        if np.shape(self.vector) != (1 << len(self.sites),):
            raise EvolutionError(
                f"projector vector of shape {np.shape(self.vector)} on {len(self.sites)} sites; "
                f"expected ({1 << len(self.sites)},)"
            )

    def amplitudes(self, state: np.ndarray) -> np.ndarray:
        """<phi| contracted with ``state`` over the axes of ``sites`` in its (2,)*N view.

        One amplitude per configuration of the other sites; the expectation
        is their squared norm.  The sum runs in numpy, not BLAS, whose idle
        threads would spin.
        """
        n, m = self.n_sites, len(self.sites)
        if state.shape != (1 << n,):
            raise EvolutionError("projector/state dimension mismatch")
        # bit k of phi's index is bit sites[k] of the state's, axis n-1-sites[k] of its (2,)*N view
        axes = [n - 1 - site for site in reversed(self.sites)]
        cols = np.moveaxis(state.reshape((2,) * n), axes, range(m)).reshape(1 << m, -1)
        return (cols * self.vector.conj()[:, None]).sum(axis=0)

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

