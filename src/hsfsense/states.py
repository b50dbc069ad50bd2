"""Pure-state constructors, the GHZ-branch start ket and the GHZ-branch readout.

Every command starts from a ``GHZKet``: the GHZ state on some sites tensored
with a basis configuration of the rest, written one aligned block of basis
states at a time, so the march of :mod:`hsfsense.evolve` holds no 2^N start
vector.

A measurement reads a state through one linear readout, ``Projector``: bras
c+ <+...+| + c- <-...-| on some sites, tensored with the identity on the
rest, given by their two coefficients and read from a sum and a
parity-signed sum; on no sites the bra (1, 0) reads a whole state by the same
fold.  It sets the order in which the Chebyshev march of
:mod:`hsfsense.evolve` takes a term's blocks (``walk``): blocks that differ
only in its sites at or above a block come together.  It folds each block
into those two unweighted branch sums, and a group's blocks into each other,
by one sum/difference butterfly per site, highest first.  The march reads
every term through it and weighs the sums by each bra's coefficients itself,
as ``amplitudes`` does for a whole state.  All vectors use the bit convention
of :mod:`hsfsense.hamiltonian` and are normalized to 1e-12.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EvolutionError, PartitionError
from .lattice import Lattice, SitePartition

NORM_TOL = 1e-12
_CHUNK = 15  # log2 of the states ``GHZKet.vector`` writes at a time: its parity table stays small


def _parities(n: int) -> np.ndarray:
    """Parity (0 or 1, uint8) of the number of set bits of every index below 2^n.

    Indices [2^k, 2^(k+1)) are those below 2^k plus bit k, so each doubling
    step appends the previous parities flipped.
    """
    parity = np.zeros(1, dtype=np.uint8)
    for _ in range(n):
        parity = np.concatenate((parity, parity ^ 1))
    return parity


@dataclass(frozen=True)
class GHZKet:
    """(|+...+> + |-...->)/sqrt(2) on ``sites``, tensored with the basis
    configuration ``rest`` (a bit mask, clear on ``sites``) of the other sites
    of ``n_sites``: the ket form of a ``Projector``'s bras, and the start state
    of every command.

    On m sites amplitude s is 2^(-m/2) sqrt(2) where the other sites' bits are
    ``rest`` and the sites' bits have even parity, and 0 elsewhere.  ``block``
    writes the real amplitudes of one aligned block of basis states, so no
    whole vector need exist; ``vector`` writes them all.
    """

    sites: tuple[int, ...]
    rest: int
    n_sites: int

    def __post_init__(self):
        sites = tuple(int(i) for i in self.sites)
        if not sites:
            raise EvolutionError(f"need at least one spin, got n={len(sites)}")
        if len(set(sites)) != len(sites) or any(not 0 <= i < self.n_sites for i in sites):
            raise EvolutionError(f"sites {sites} must be distinct and in range for {self.n_sites} sites")
        object.__setattr__(self, "sites", sites)
        if self.rest & self.mask or not 0 <= self.rest < 1 << self.n_sites:
            raise EvolutionError(f"configuration {self.rest:#x} of the other sites overlaps sites {sites}")

    @property
    def mask(self) -> int:
        return sum(1 << i for i in self.sites)

    def block(self, block: slice, out: np.ndarray) -> np.ndarray:
        """The amplitudes of an aligned block of 2^b basis states, written to
        the 1-D ``out``; returns ``out``.  On the block's (2,)*b view the other
        sites' axes are fixed at their ``rest`` bits, and the sites' axes take
        the amplitude of their parity, flipped by that of the sites above the block."""
        size = block.stop - block.start
        out.fill(0.0)
        mask = self.mask
        if (block.start ^ self.rest) & ~mask & -size:  # the other sites above the block are not ``rest``
            return out
        bits = range(size.bit_length() - 2, -1, -1)  # the view's axes, highest bit first
        inside = sum(mask >> q & 1 for q in bits)
        at = tuple(slice(None) if mask >> q & 1 else self.rest >> q & 1 for q in bits)
        signs = np.array([1.0, -1.0])  # (-1)^parity
        amps = (1.0 + signs) / (np.sqrt(2.0) * 2.0 ** (len(self.sites) / 2.0))
        even, odd = amps[::-1] if bin(block.start & mask).count("1") % 2 else amps
        out.reshape((2,) * len(bits))[at] = np.where(_parities(inside), odd, even).reshape((2,) * inside)
        return out

    def vector(self) -> np.ndarray:
        """The whole state, a real (float64) vector, written 2^_CHUNK states at a time."""
        vec = np.empty(1 << self.n_sites)
        size = 1 << min(self.n_sites, _CHUNK)
        for start in range(0, vec.size, size):
            self.block(slice(start, start + size), vec[start : start + size])
        return vec


def ghz_x(n: int) -> np.ndarray:
    """GHZ state in the x basis on n sites, (|+...+> + |-...->)/sqrt(2): ``GHZKet``'s vector."""
    return GHZKet(range(n), 0, n).vector()


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
    The result is real (float64) for a real probe state.
    """
    probe_order = partition.probe_order()
    if probe_state.shape != (1 << len(probe_order),):
        raise EvolutionError(
            f"probe state has dimension {probe_state.shape[0]}, "
            f"expected {1 << len(probe_order)} for {len(probe_order)} probes"
        )
    full = np.zeros(1 << lattice.n_sites, dtype=np.result_type(probe_state, float))
    full[frozen_subspace(partition)] = probe_state
    return full


# <GHZ'| = (<+...+| - i <-...-|)/sqrt(2), the bra of the primed GHZ state
# (|+...+> + i |-...->)/sqrt(2) that the Ramsey readout projects on
PRIMED = np.array([[1.0, -1j]]) / np.sqrt(2.0)


@dataclass(frozen=True)
class Projector:
    """The bras c+ <+...+| + c- <-...-| on ``sites``, one per row (c+, c-) of
    ``bras``, tensored with the identity on the other sites of ``n_sites``.

    On m sites, <+...+| and <-...-| are 2^(-m/2) times the sum and the
    parity-signed sum over the sites' configurations, so no vector is built.
    The amplitudes of a state hold one entry per configuration of the other
    sites, in basis order (bit k on the k-th smallest other site), each
    holding every row; the expectation is their squared norm, that of the
    projector onto the rows' span when they are orthonormal.  On no sites
    both sums are the state, and the one bra allowed, (1, 0), is the identity.
    """

    bras: np.ndarray
    sites: tuple[int, ...]
    n_sites: int

    def __post_init__(self):
        if np.ndim(self.bras) != 2 or np.shape(self.bras)[1] != 2 or not 1 <= len(self.bras) <= 2:
            raise EvolutionError(f"bras of shape {np.shape(self.bras)}; expected (rows, 2) with one or two rows")
        sites = self.sites
        if len(set(sites)) != len(sites) or any(not 0 <= i < self.n_sites for i in sites):
            raise EvolutionError(f"sites {sites} must be distinct and in range for {self.n_sites} sites")
        if not sites and not np.array_equal(self.bras, [[1.0, 0.0]]):
            raise EvolutionError("on no sites the only bra is (1, 0), the identity")

    @property
    def size(self) -> int:
        return len(self.bras) << (self.n_sites - len(self.sites))

    @property
    def branch_weights(self) -> np.ndarray:
        """(rows, branches): what each row weighs the branch sums of ``take`` by, 2^(-m/2) (c+, c-)."""
        return np.asarray(self.bras, dtype=complex) * 2.0 ** (-len(self.sites) / 2.0)

    def walk(self, blocks: list[slice]) -> list[tuple[slice, int, slice]]:
        """The order in which ``take`` reads the aligned ``blocks`` of one term
        (a basis in basis order): (block, column, entries) for every block.

        Blocks that differ only in the sites at or above a block form a group,
        and the groups run in basis order.  A block's column holds the bits of
        those sites, bit k from the k-th smallest, so a group's columns
        ascend.  ``entries`` is the group's slice of the amplitudes, one per
        configuration of the other sites inside a block, after those of the
        groups before it.
        """
        size = blocks[0].stop - blocks[0].start
        above = sum(1 << s for s in self.sites if 1 << s >= size)
        entries = size >> sum(1 << s < size for s in self.sites)
        groups: dict[int, list[slice]] = {}
        for block in blocks:
            groups.setdefault(block.start & ~above, []).append(block)
        return [
            (block, column, slice(g * entries, (g + 1) * entries))
            for g, group in enumerate(groups.values())
            for column, block in enumerate(group)
        ]

    def buffer(self, lanes: int, blocks: int) -> tuple:
        """What ``take`` reads and writes over the ``blocks`` aligned blocks of
        one term of ``lanes`` lanes: the sites inside a block, highest first,
        and the fold's arrays: the sums and differences of one group of
        ``walk``, one column per block (2, lanes, columns, entries), and a
        fold's two halves."""
        low = self.n_sites - (blocks.bit_length() - 1)
        inside = sorted((s for s in self.sites if s < low), reverse=True)
        entries = 1 << (low - len(inside))  # configurations of the other sites inside a block
        sums = np.empty((2, lanes, 1 << (len(self.sites) - len(inside)), entries))
        halves = np.empty((2, lanes, 1 << (low - 1))) if len(inside) > 1 else None
        return inside, sums, halves

    def take(self, x: np.ndarray, column: int, term: tuple):
        """Read the real vectors ``x`` (lanes, 2^low), one block of each, into
        ``column`` of ``term`` (``buffer``), as ``walk`` orders them.

        Each site is folded into the sum and the difference of its two halves,
        highest first.  The sites inside the block go first: the first fold
        writes to the halves buffer, later ones in place, the last to the
        block's column.  At the group's last column the columns are folded the
        same way over the sites at or above the block, in place, and the
        group's branch sums are returned: the sum and the parity-signed sum
        over the sites (2, lanes, entries); other columns return None.  The
        folds are numpy's in-place adds and subtracts, so a read calls no BLAS.
        """
        inside, sums, halves = term
        dst = sums[:, :, column]
        if not inside:
            np.copyto(dst[0], x)
            np.copyto(dst[1], x)
        s = d = x
        bits = x.shape[-1].bit_length() - 1  # of the last axis of s and d
        for i, q in enumerate(inside):
            split = s.shape[:-1] + (1 << (bits - 1 - q), 2, 1 << q)
            s, d = s.reshape(split), d.reshape(split)
            s0, s1, d0, d1 = s[..., 0, :], s[..., 1, :], d[..., 0, :], d[..., 1, :]
            if i == len(inside) - 1:
                s, d = dst[0].reshape(s0.shape), dst[1].reshape(s0.shape)
            elif i == 0:
                s, d = halves[0].reshape(s0.shape), halves[1].reshape(s0.shape)
            else:
                s, d = s0, d0
            np.subtract(d0, d1, out=d)
            np.add(s0, s1, out=s)
            bits = q
        if column != sums.shape[2] - 1:
            return None
        while sums.shape[2] > 1:  # the highest column bit first
            half = sums.shape[2] // 2
            np.subtract(sums[1, :, :half], sums[1, :, half:], out=sums[1, :, :half])
            np.add(sums[0, :, :half], sums[0, :, half:], out=sums[0, :, :half])
            sums = sums[:, :, :half]
        return sums[:, :, 0]

    def amplitudes(self, state: np.ndarray) -> np.ndarray:
        """The amplitudes of a whole state: its real and imaginary parts are two
        real vectors of one block for ``take``, whose sums each row weighs."""
        if state.shape != (1 << self.n_sites,):
            raise EvolutionError("projector/state dimension mismatch")
        sums = self.take(np.stack([state.real, state.imag]), 0, self.buffer(2, 1))
        return ((sums[:, 0] + 1j * sums[:, 1]).T @ self.branch_weights.T).reshape(-1)

    def expectation(self, state: np.ndarray) -> float:
        return float(np.sum(np.abs(self.amplitudes(state)) ** 2))


def probe_projector(partition: SitePartition, lattice: Lattice) -> Projector:
    """|GHZ'><GHZ'| on the probes (``PRIMED``), identity on the ancillas;
    PartitionError for a partition with no probe."""
    if not partition.probe_sites:
        raise PartitionError("the partition has no probe site; the probe readout needs at least one")
    return Projector(PRIMED, tuple(partition.probe_order()), lattice.n_sites)


def measurement_probability(state: np.ndarray, projector: Projector) -> float:
    """Expectation of a projector on a normalized pure state, clipped to [0, 1]."""
    return clip_probability(projector.expectation(state))


def clip_probability(p: float) -> float:
    """A projector's expectation clipped to [0, 1]; EvolutionError if it is
    further outside than rounding allows, or not a number."""
    if not -NORM_TOL <= p <= 1.0 + 1e-9:
        raise EvolutionError(f"projector expectation {p} outside [0, 1]")
    return float(min(max(p, 0.0), 1.0))

