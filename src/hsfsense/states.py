"""Pure-state constructors and projective measurement operators.

A measurement reads a state through a linear readout (``Projector``,
``GhzOverlaps``) that contracts one block of basis states at a time, so the
Chebyshev march of :mod:`hsfsense.evolve` can apply it to every term and
keep no state.  All vectors use the bit convention of :mod:`hsfsense.hamiltonian` and are
normalized to 1e-12.  Global phase: the first nonzero amplitude in basis
order is made real nonnegative, so vector comparisons in golden tests are
exact.
"""

from __future__ import annotations

import functools
import itertools
import math
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


def _read_whole(readout, state: np.ndarray) -> np.ndarray:
    """``readout`` (a ``Projector`` or ``GhzOverlaps``) of a whole state: its real
    and imaginary parts are two real vectors of one block for ``take``, the
    contraction the Chebyshev march applies to every term a block at a time."""
    if state.shape != (1 << readout.n_sites,):
        raise EvolutionError("projector/state dimension mismatch")
    term = readout.buffer(2, 1)
    parts, _ = readout.take(np.stack([state.real, state.imag]), slice(0, state.shape[0]), term)
    lanes = parts[0] + 1j * parts[1] if len(parts) == 2 else parts[0]
    return lanes[0] + 1j * lanes[1]


@functools.lru_cache(maxsize=None)
def _contraction_plan(sites: tuple[int, ...], n: int, low: int):
    """How ``Projector.take`` reads a block of 2^low states on n sites.

    Returns (shape, configs, above, others, free): the block as axes
    (d_0, 2, d_1, 2, ..., d_m'), one axis of 2 per site of ``sites`` below
    ``low``, highest first, so fixing those axes leaves a strided view whose
    order is that of the amplitudes; (index into phi without the bits above
    the block, the index fixing those axes) per configuration, in order of
    that index; (k, site) of ``sites`` at or above ``low``; (site, bit of the
    amplitude index) of the other sites at or above ``low``; and the shape of
    the free axes.
    """
    inside = sorted((s for s in sites if s < low), reverse=True)
    shape, top = [], low
    for s in inside:
        shape += [1 << (top - 1 - s), 2]
        top = s
    shape.append(1 << top)
    configs = []
    for bits in itertools.product((0, 1), repeat=len(inside)):
        p = sum(bit << sites.index(s) for bit, s in zip(bits, inside))
        index = sum(((slice(None), bit) for bit in bits), ()) + (slice(None),)
        configs.append((p, index))
    configs.sort(key=lambda c: c[0])
    above = [(k, s) for k, s in enumerate(sites) if s >= low]
    others = [(s, s - sum(q < s for q in sites)) for s in range(low, n) if s not in sites]
    return tuple(shape), configs, above, others, tuple(shape[0::2])


@dataclass(frozen=True)
class Projector:
    """Rank-1 projector |phi><phi| on some sites, tensored with the identity on the rest.

    ``vector`` is phi over the configurations of ``sites`` (bit k on site ``sites[k]``)
    out of ``n_sites``; with every site listed in order it acts on the full space.
    Its amplitudes are <phi| contracted with a state over the axes of ``sites``,
    one per configuration of the other sites in basis order; the expectation is
    their squared norm.
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

    @functools.cached_property
    def _bra(self) -> tuple[np.ndarray, np.ndarray]:
        """The real and imaginary parts of <phi|, each part of an entry zeroed
        where it is below that entry's rounding (as in the phase-fixed primed
        GHZ state): its products would not move a sum by more than their own
        rounding, and a zero part is skipped."""
        bra = np.conj(np.asarray(self.vector, dtype=complex))
        floor = np.finfo(float).eps * np.abs(bra)
        return tuple(np.where(np.abs(part) > floor, part, 0.0) for part in (bra.real, bra.imag))

    @property
    def planes(self) -> int:
        """2 if the amplitudes of a real state are complex, else 1."""
        return 2 if np.any(self._bra[1]) else 1

    @property
    def size(self) -> int:
        return 1 << (self.n_sites - len(self.sites))

    def buffer(self, lanes: int, blocks: int) -> np.ndarray:
        """The array ``take`` fills over the blocks of one term: (planes, lanes, size)."""
        return np.empty((self.planes, lanes, self.size))

    def take(self, x: np.ndarray, block: slice, out: np.ndarray):
        """Contract the real vectors ``x`` (lanes, 2^low), the states ``block``
        of each vector, into the amplitudes ``out`` (planes, lanes, size).

        A block holds the amplitudes of one slice of ``out`` in full or, when
        sites lie at or above its bits, in part: the first block of a slice
        writes it, later ones add to it, and the one with every such bit set
        returns (that slice of ``out``, the slice); other blocks return None.
        Each configuration of the sites inside the block is a strided view of
        ``x``, weighted by its <phi| entry (``_bra``) and added in order of
        phi's index, so the sums do not depend on the block size.  The adds
        run in numpy, not BLAS, whose idle threads would spin.
        """
        low = (block.stop - block.start).bit_length() - 1
        shape, configs, above, others, free = _contraction_plan(tuple(self.sites), self.n_sites, low)
        high = sum(((block.start >> s) & 1) << k for k, s in above)
        start = sum(((block.start >> s) & 1) << j for s, j in others)
        where = slice(start, start + math.prod(free))
        dst = out[..., where].reshape(out.shape[:2] + free)
        view, tmp = x.reshape(x.shape[:-1] + shape), None
        fresh = [high == 0] * len(dst)  # a plane the first block of the slice has not written yet
        bra = self._bra
        for p, index in configs:
            for plane, part in enumerate(bra[: len(dst)]):
                c = part[p | high]
                if not c:
                    continue
                if fresh[plane]:
                    np.multiply(view[(Ellipsis,) + index], c, out=dst[plane])
                    fresh[plane] = False
                else:
                    tmp = np.multiply(view[(Ellipsis,) + index], c, out=tmp)
                    dst[plane] += tmp
        for plane in np.flatnonzero(fresh):
            dst[plane] = 0.0
        if high == sum(1 << k for k, _ in above):
            return out[..., where], where
        return None

    def amplitudes(self, state: np.ndarray) -> np.ndarray:
        return _read_whole(self, state)

    def expectation(self, state: np.ndarray) -> float:
        return float(np.sum(np.abs(self.amplitudes(state)) ** 2))


@functools.lru_cache(maxsize=None)
def _parity_signs(n: int) -> np.ndarray:
    """(-1)^(number of set bits) of every index below 2^n, as float64."""
    return 1.0 - 2.0 * _parities(n)


@dataclass(frozen=True)
class GhzOverlaps:
    """Overlaps of a state on ``n_sites`` with the bras c_+ <+...+| + c_- <-...-|,
    one per row (c_+, c_-) of ``bras``.

    <+...+|psi> and <-...-|psi> are 2^(-n/2) times the sum of the amplitudes
    and their parity-signed sum, so no 2^n vector is built.  With orthonormal
    rows the expectation is that of the projector onto their span.
    """

    bras: np.ndarray
    n_sites: int

    def __post_init__(self):
        if self.n_sites < 1:
            raise EvolutionError(f"need at least one spin, got n={self.n_sites}")
        if np.ndim(self.bras) != 2 or np.shape(self.bras)[1] != 2:
            raise EvolutionError(f"bras of shape {np.shape(self.bras)}; expected (rows, 2)")

    @property
    def planes(self) -> int:
        return 2 if np.any(np.imag(self.bras)) else 1

    @property
    def size(self) -> int:
        return len(self.bras)

    def buffer(self, lanes: int, blocks: int) -> np.ndarray:
        """The array ``take`` fills over the blocks of one term: each block's two
        sums, (2, lanes, blocks)."""
        return np.empty((2, lanes, blocks))

    def take(self, x: np.ndarray, block: slice, sums: np.ndarray):
        """Write the sum and the parity-signed sum of the real vectors ``x``
        (lanes, 2^low), the states ``block`` of each vector, to the block's
        column of ``sums`` (2, lanes, blocks).  The last block adds the columns
        pairwise and returns (the overlaps (planes, lanes, rows), the slice of
        every row); other blocks return None."""
        size = block.stop - block.start
        column = sums[:, :, block.start // size]
        np.sum(x, axis=-1, out=column[0])
        np.sum(x * _parity_signs(size.bit_length() - 1), axis=-1, out=column[1])
        if bin(block.start).count("1") % 2:  # the parity of the block's high bits
            column[1] *= -1.0
        if block.stop != 1 << self.n_sites:
            return None
        plus, minus = np.sum(sums, axis=-1) * 2.0 ** (-self.n_sites / 2.0)
        bras = np.asarray(self.bras, dtype=complex)
        planes = [(part[:, :1] * plus + part[:, 1:] * minus).T for part in (bras.real, bras.imag)]
        return np.stack(planes[: self.planes]), slice(0, self.size)

    def amplitudes(self, state: np.ndarray) -> np.ndarray:
        return _read_whole(self, state)

    def expectation(self, state: np.ndarray) -> float:
        return float(np.sum(np.abs(self.amplitudes(state)) ** 2))


def primed_ghz_readout(n: int) -> GhzOverlaps:
    """|GHZ'><GHZ'| on n sites, GHZ' = (|+...+> + i |-...->)/sqrt(2) as in
    ``ghz_x(n, "primed")`` up to its global phase, read through two overlaps."""
    return GhzOverlaps(np.array([[1.0, -1j]]) / np.sqrt(2.0), n)


def rank1_projector(vector: np.ndarray) -> Projector:
    """|phi><phi| on the full space."""
    n = len(vector).bit_length() - 1
    return Projector(np.asarray(vector, dtype=complex), tuple(range(n)), n)


def probe_projector(probe_vector: np.ndarray, partition: SitePartition, lattice: Lattice) -> Projector:
    """|phi^P><phi^P| on the probe factor, identity on ancillas."""
    return Projector(np.asarray(probe_vector, dtype=complex), tuple(partition.probe_order()), lattice.n_sites)


def measurement_probability(state: np.ndarray, projector: Projector) -> float:
    """Expectation of a projector on a normalized pure state, clipped to [0, 1]."""
    return clip_probability(projector.expectation(state))


def clip_probability(p: float) -> float:
    """A projector's expectation clipped to [0, 1]; EvolutionError if it is
    further outside than rounding allows."""
    if p < -NORM_TOL or p > 1.0 + 1e-9:
        raise EvolutionError(f"projector expectation {p} outside [0, 1]")
    return float(min(max(p, 0.0), 1.0))

