"""Operators over the 2^N computational basis: every command runs the
matrix-free form, and the CSR builders serve tests and the benchmark's reference.

Basis convention: basis state ``s`` is an integer whose bit i is the z spin
of site i (bit 1 = up, z = +1).  Frame spins are fixed down (z = -1) and
enter only through diagonal field contributions, never as basis bits.
Every operator is a real diagonal plus single-spin flips ``(omega/2)
sigma^x_i``, each on every basis state or only where a mask holds; one
assembly (``_assemble``) makes it a real symmetric CSR matrix.  Diagonals
and masks are built on the ``(2,)*(N-L) + (2^L,)`` view of a basis vector
(``_view``; the low L bits share the last axis) from per-site bits that
broadcast against it (``_bit``), so no table of every state's bits is
stored.  The constrained models' masks come from one generator per model
(``flip_masks_homogeneous``, ``flip_masks_inhomogeneous``), which the
``build_h_eff_*`` builders and the matrix-free fragment census both read.
The unmasked family (a diagonal plus one flip amplitude on a set of
sites) also has a matrix-free form, ``TransverseFieldOperator``, whose flip
sum is applied one aligned block of 2^_BLOCK basis states at a time
(``flip_block``), as the Chebyshev march takes its terms: the sites inside the
block a nibble of four bits at a time, each nibble one small 0/1 matrix
product (``np.matmul``; with the grid rows' products in :mod:`hsfsense.evolve`
one of the commands' two BLAS calls), and the sites above it by partner-block
adds.  The nibbles' 0/1 matrices come from one shared read-only cache
(``_nibbles``) and each call allocates its own scratch, so an operator holds
no state and threads may share it.  It has no whole-vector product, and its
``tocsr()`` is the builders' CSR.  Its diagonal is a ``Diagonal``: two small
tables, one over the low _SPLIT bits and one over the bits from the lowest
site bonded across them, whose sum is an entry (2^15 + 64 entries in place of
2^18 at 3x6), so ``op_tfim`` and ``op_total`` build no basis-sized array;
``Diagonal.at`` reads the entries of a few states.  Every energy table, a
``Diagonal``'s two and the CSR builders' diagonals (``ising_diagonal``,
``shift_diagonal``), comes from one builder, ``_table``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING

import numpy as np

from .couplings import CouplingMap
from .errors import EvolutionError, PartitionError
from .lattice import Lattice, SitePartition

if TYPE_CHECKING:
    import scipy.sparse as sp


_LOW = 8  # the low bits of a basis index, folded into the last axis of ``_view``
# log2 of the aligned basis states one flip sum or Chebyshev step works on at a
# time: 256 KB per float64 lane, so the march's buffers of a block stay in L2
_BLOCK = 15
# a ``Diagonal``'s low table spans the low _SPLIT bits of a basis index (256 KB)
_SPLIT = 15
# a flip sum takes the sites inside a block this many bits at a time, one 2^4 x
# 2^4 product each: smaller ones make more calls per block, and a 2^8 x 2^8 one
# was no faster than single flips
_NIBBLE = 4


def _view(n_sites: int) -> tuple[int, ...]:
    """Shape of a basis vector as ``(2,)*(n-L) + (2^L,)``: one axis per high bit, the low L bits last."""
    low = min(n_sites, _LOW)
    return (2,) * (n_sites - low) + (1 << low,)


def _bit(n_sites: int, site: int) -> np.ndarray:
    """Bit ``site`` of the basis index (uint8), shaped to broadcast against ``_view(n_sites)``."""
    shape = [1] * len(_view(n_sites))
    if site < _LOW:
        shape[-1] = 1 << min(n_sites, _LOW)
        return ((np.arange(shape[-1], dtype=np.uint8) >> site) & 1).reshape(shape)
    shape[n_sites - 1 - site] = 2
    return np.arange(2, dtype=np.uint8).reshape(shape)


def _expand(n_sites: int, values: np.ndarray) -> np.ndarray:
    """A broadcast over ``_view(n_sites)``, written out as one value per basis state."""
    return np.broadcast_to(values, _view(n_sites)).reshape(-1)


def _assemble(n_sites: int, diag: np.ndarray | None, flips) -> sp.csr_matrix:
    """CSR of ``diag`` plus ``value * sigma^x_site`` for each ``(site, value, mask)`` in flips.

    A flip term couples every basis state where ``mask`` holds (every state
    when it is None) to its partner with that site's bit flipped; a mask must
    not depend on that bit, so the result is symmetric.  Zero diagonal
    entries and terms with value 0 are not stored.  ``flips`` is iterated
    once, so a generator keeps only one mask alive at a time.  scipy, from the
    ``test`` extra, is imported here: no command builds a matrix or loads it.
    """
    import scipy.sparse

    states = np.arange(1 << n_sites, dtype=np.int32)
    # blocks of (bit flipped, value(s), basis states acted on); the diagonal flips no bit
    blocks = [] if diag is None else [(0, diag[diag != 0], states[diag != 0])]
    for site, value, mask in flips:
        if value != 0.0:
            blocks.append((1 << site, value, states if mask is None else states[mask]))
    nnz = sum(cols.shape[0] for _, _, cols in blocks)
    row, col, data = np.empty(nnz, dtype=np.int32), np.empty(nnz, dtype=np.int32), np.empty(nnz)
    end = 0
    for bit, value, cols in blocks:
        start, end = end, end + cols.shape[0]
        col[start:end] = cols
        np.bitwise_xor(cols, bit, out=row[start:end])
        data[start:end] = value
    diag = blocks = mask = value = cols = None  # only the COO arrays live through the CSR copy
    return scipy.sparse.coo_matrix((data, (row, col)), shape=(states.shape[0],) * 2).tocsr()


@dataclass(frozen=True, eq=False)
class Diagonal:
    """A real diagonal over 2^n_sites basis states, held as two small tables:
    diag[s] = low[s & (2^split - 1)] + high[s >> cut], where ``low`` has 2^split
    entries and ``high`` 2^(n_sites - cut), and the two share bits cut..split-1.

    ``_diagonal`` builds it from terms on few sites: a term whose sites are all
    below split goes to ``low``, any other to ``high``, so ``cut`` is the lowest
    site a term joins across the split.  ``block`` writes any aligned block with
    one add per state, ``bounds`` gives its min and max from the tables, and
    ``expand`` writes out the whole diagonal.
    """

    low: np.ndarray
    high: np.ndarray
    cut: int

    def __post_init__(self):
        for name in ("low", "high"):
            table = getattr(self, name)
            if np.iscomplexobj(table):
                raise EvolutionError("diagonal must be real")
            table = np.asarray(table, dtype=float)
            if table.ndim != 1 or table.size & (table.size - 1):
                raise EvolutionError(f"diagonal table {name} of shape {table.shape}; expected 2^k entries")
            if not np.all(np.isfinite(table)):
                raise EvolutionError("diagonal must be finite")
            object.__setattr__(self, name, table)
        if not 0 <= self.cut <= self.split <= self.n_sites:
            raise EvolutionError(f"diagonal tables of {self.low.size} and {self.high.size} entries cut at {self.cut}")

    @property
    def split(self) -> int:
        return self.low.size.bit_length() - 1

    @property
    def n_sites(self) -> int:
        return self.cut + self.high.size.bit_length() - 1

    def block(self, block: slice, out: np.ndarray) -> np.ndarray:
        """The entries of an aligned block of basis states, written to the 1-D
        ``out`` with one broadcast add; returns ``out``.  The block's states are
        laid out (outer, mid, inner): ``inner`` runs over the bits below cut (or
        the block's), ``mid`` over the shared bits, ``outer`` over the bits above
        split, and ``low`` varies over (mid, inner), ``high`` over (outer, mid)."""
        size = block.stop - block.start
        inner = min(size, 1 << self.cut)
        mid = min(size, self.low.size) // inner
        outer = size // (mid * inner)
        lo, hi = block.start & (self.low.size - 1), block.start >> self.cut
        np.add(
            self.low[lo : lo + mid * inner].reshape(1, mid, inner),
            self.high[hi : hi + outer * mid].reshape(outer, mid, 1),
            out=out.reshape(outer, mid, inner),
        )
        return out

    def bounds(self) -> tuple[float, float]:
        """(min, max) of the diagonal: per value of the shared bits, the min (max)
        of ``low`` plus that of ``high``.  Rounding is monotone, so each is the
        expanded diagonal's bit for bit."""
        low = self.low.reshape(1 << (self.split - self.cut), -1)
        high = self.high.reshape(-1, 1 << (self.split - self.cut))
        return (
            float(np.min(low.min(axis=1) + high.min(axis=0))),
            float(np.max(low.max(axis=1) + high.max(axis=0))),
        )

    def shifted(self, offset: float) -> Diagonal:
        """The diagonal plus ``offset``, folded into ``high``."""
        return Diagonal(self.low, self.high + offset, self.cut)

    def at(self, states: np.ndarray) -> np.ndarray:
        """The entries of the integer basis ``states``, each the one add ``block`` makes."""
        return self.low[states & (self.low.size - 1)] + self.high[states >> self.cut]

    def expand(self) -> np.ndarray:
        """The whole diagonal, one entry per basis state."""
        return self.block(slice(0, 1 << self.n_sites), np.empty(1 << self.n_sites))


@lru_cache(maxsize=64)
def _nibbles(sites: tuple[int, ...], low: int) -> tuple[tuple[int, np.ndarray], ...]:
    """(lo, M) for each nibble of a block of 2^low states that holds one of
    ``sites``, bits lo to min(lo + 3, low - 1): M[a, b] is 1 where a ^ b is the
    bit of one of its sites, less lo.  Built whole per sites and block size (the
    last 64 kept), and read-only, as every operator on those sites shares it."""
    nibbles = []
    for lo in range(0, low, _NIBBLE):
        a = np.arange(1 << min(_NIBBLE, low - lo))
        m = np.zeros((a.size, a.size))
        for i in sites:
            if lo <= i < min(lo + _NIBBLE, low):
                m[a, a ^ (1 << (i - lo))] = 1.0
        if m.any():
            m.flags.writeable = False
            nibbles.append((lo, m))
    return tuple(nibbles)


@dataclass(frozen=True, eq=False)
class TransverseFieldOperator:
    """``diag + value * sum_{i in sites} sigma^x_i`` on 2^n_sites states, without a matrix.

    ``diag`` is a ``Diagonal`` over ``n_sites``, or None.  Real entries make
    the operator Hermitian by construction.  ``flip_block`` applies
    ``sum_{i in sites} sigma^x_i`` to one block of ``blocks()`` into a
    block-sized output; the Chebyshev march of :mod:`hsfsense.evolve` adds the
    diagonal one block at a time from its tables.  ``tocsr()`` is its matrix,
    which expands the diagonal.  It keeps no state, so threads may share it.
    """

    n_sites: int
    diag: Diagonal | None
    value: float
    sites: tuple[int, ...]

    def __post_init__(self):
        if np.iscomplexobj(self.value) or not np.isfinite(self.value):
            raise EvolutionError(f"flip amplitude must be real and finite, got {self.value!r}")
        object.__setattr__(self, "value", float(self.value))
        sites = tuple(int(i) for i in self.sites)
        if any(not 0 <= i < self.n_sites for i in sites) or len(set(sites)) != len(sites):
            raise EvolutionError(f"sites {sites} must be distinct and in range for {self.n_sites} sites")
        object.__setattr__(self, "sites", sites)
        if self.diag is not None and not (isinstance(self.diag, Diagonal) and self.diag.n_sites == self.n_sites):
            raise EvolutionError(f"diagonal must be None or a Diagonal over {self.n_sites} sites")

    @property
    def shape(self) -> tuple[int, int]:
        return (1 << self.n_sites,) * 2

    def blocks(self) -> list[slice]:
        """The aligned blocks of 2^_BLOCK basis states (one block for a smaller basis)."""
        size = 1 << min(self.n_sites, _BLOCK)
        return [slice(start, start + size) for start in range(0, self.shape[0], size)]

    def flip_block(self, psi: np.ndarray, out: np.ndarray, block: slice) -> None:
        """The states ``block`` of ``sum_{i in sites} sigma^x_i psi``, written to
        the block-sized ``out`` (``psi``'s leading axes by the block's states),
        for a block of ``blocks()``; each vector stacked on ``psi``'s leading
        axes is summed apart.  ``psi`` is only read, so ``out`` may be any
        buffer that does not overlap the block or its partner blocks in ``psi``.

        sigma^x_i maps basis state s to s ^ 2^i.  The sites inside the block
        are summed a nibble at a time (``_nibbles``): with the block reshaped so
        that the nibble's bits are one axis, one ``np.matmul`` by the nibble's
        0/1 matrix sums its sites' flips.  The first product writes ``out`` (a
        zero fill if there is none) and each later one, made in a scratch that
        the call allocates, is added in.  A site at or above the block's bits
        then adds the partner block's slice of ``psi``.  A nibble that a smaller
        block cuts is split between a product and partner adds, so the sum
        agrees with another block size's to rounding.
        """
        size = block.stop - block.start
        low, lead, x = size.bit_length() - 1, psi.shape[:-1], psi[..., block]
        nibbles = _nibbles(self.sites, low)
        if not nibbles:
            out[...] = 0.0
        scratch = np.empty(out.shape, out.dtype) if len(nibbles) > 1 else None
        for n, (lo, m) in enumerate(nibbles):
            dst = scratch if n else out
            shape = lead + (-1, m.shape[0], 1 << lo)
            if lo:  # the nibble's bits on the middle axis, the bits below it last
                np.matmul(m, x.reshape(shape), out=dst.reshape(shape))
            else:
                np.matmul(x.reshape(shape[:-1]), m, out=dst.reshape(shape[:-1]))
            if n:
                out += dst
        for i in self.sites:
            if i >= low:
                partner = block.start ^ (1 << i)
                out += psi[..., partner : partner + size]

    def tocsr(self) -> sp.csr_matrix:
        diag = None if self.diag is None else self.diag.expand()
        return _assemble(self.n_sites, diag, [(i, self.value, None) for i in self.sites])


def op_omega(lattice: Lattice, omega: float) -> TransverseFieldOperator:
    """(omega/2) * sum_i sigma^x_i over all dynamical sites."""
    return TransverseFieldOperator(lattice.n_sites, None, omega / 2.0, range(lattice.n_sites))


def build_h_omega(lattice: Lattice, omega: float) -> sp.csr_matrix:
    """CSR of ``op_omega``."""
    return op_omega(lattice, omega).tocsr()


def _bond_terms(couplings: CouplingMap) -> list:
    """-J_ij z_i z_j of every bond, in bond order, as ``_table`` terms."""
    lattice = couplings.lattice
    return [(i, None if lattice.is_frame(j) else j, jij) for (i, j), jij in couplings.items()]


def ising_diagonal(couplings: CouplingMap) -> np.ndarray:
    """Diagonal of -sum_bonds J_ij z_i z_j; frame bonds contribute with z = -1."""
    return _table(couplings.lattice.n_sites, [_bond_terms(couplings)])


def _table(n_bits: int, groups) -> np.ndarray:
    """Energies of 2^n_bits states from groups of terms (i, j, e), each -e z_i z_j;
    j None is a frame spin (z = -1), so (i, None, -h) is the field term -h z_i.
    Per state a group's terms, each exactly +/-e, are summed from zero in their
    order, on the broadcast of their own sites' bits, and the groups' sums are
    added in order: the first group's sums are the table."""
    table = None
    for terms in groups:
        zs = [_bit(n_bits, i) if j is None else _bit(n_bits, i) ^ _bit(n_bits, j) for i, j, _ in terms]
        acc = np.zeros(np.broadcast_shapes(_view(n_bits) if table is None else (1,), *(z.shape for z in zs)))
        for z, (_, _, e) in zip(zs, terms):
            acc -= np.array([e, -e])[z]
        if table is None:
            table = acc
        else:
            table += acc
    return table.reshape(-1)


def _top(term) -> int:
    """The highest site of a ``_table`` term."""
    return term[0] if term[1] is None else max(term[:2])


def _diagonal(n_sites: int, *groups) -> Diagonal:
    """The ``Diagonal`` of groups of ``_table`` terms, split at _SPLIT bits.

    Each table is a ``_table`` of its own terms; at n_sites <= _SPLIT ``low``
    is ``_table(n_sites, groups)`` and ``high`` is 0.
    """
    split = min(n_sites, _SPLIT)
    crossing = [min(t[:2]) for terms in groups for t in terms if t[1] is not None and min(t[:2]) < split <= _top(t)]
    cut = min(crossing, default=split)
    low = _table(split, [[t for t in terms if _top(t) < split] for terms in groups])
    high = _table(
        n_sites - cut,
        [[(i - cut, None if j is None else j - cut, e) for i, j, e in terms if _top((i, j)) >= split] for terms in groups],
    )
    return Diagonal(low, high, cut)


def build_h_int(lattice: Lattice, couplings: CouplingMap) -> sp.csr_matrix:
    """Diagonal Ising operator -sum_<i,j> J_ij sigma^z_i sigma^z_j."""
    return _assemble(lattice.n_sites, ising_diagonal(couplings), [])


def effective_field(site: int, partition: SitePartition, couplings: CouplingMap) -> float:
    """Residual longitudinal field on a probe from its frozen collar.

    Sum over the 4 neighbor slots of -/+ delta_ij, signed minus for up
    neighbors and plus for down ones; zero for homogeneous couplings.
    """
    if site not in partition.probe_sites:
        raise PartitionError(f"site {site} is not a probe site")
    lattice = couplings.lattice
    total = 0.0
    for j in lattice.neighbors(site):
        state = partition.slot_state(lattice, j)
        if state is None:
            raise PartitionError(f"probe {site} has a probe neighbor {j}; collar is invalid")
        sign = -1.0 if state else 1.0
        total += sign * couplings.bond_delta(site, j)
    return total


def shift_fields(partition: SitePartition, couplings: CouplingMap) -> dict[int, float]:
    """Per-probe shift-field strength that cancels the residual collar field.

    The shift term on probe i is -h_i sigma^z_i with h_i equal to the
    residual field, so flipping a probe inside its collar costs exactly
    zero diagonal energy.
    """
    return {p: effective_field(p, partition, couplings) for p in partition.probe_sites}


def _field_terms(partition: SitePartition, couplings: CouplingMap) -> list:
    """The shift terms -h_i z_i of ``shift_fields``, in probe order, as ``_table`` terms."""
    return [(site, None, -h) for site, h in shift_fields(partition, couplings).items()]


def shift_diagonal(partition: SitePartition, couplings: CouplingMap) -> np.ndarray:
    return _table(couplings.lattice.n_sites, [_field_terms(partition, couplings)])


def build_h_shift(partition: SitePartition, couplings: CouplingMap) -> sp.csr_matrix:
    """Diagonal shift-field operator supported on probe sites only."""
    return _assemble(couplings.lattice.n_sites, shift_diagonal(partition, couplings), [])


def op_tfim(lattice: Lattice, couplings: CouplingMap, omega: float) -> TransverseFieldOperator:
    """Transverse field plus Ising couplings."""
    diag = _diagonal(lattice.n_sites, _bond_terms(couplings))
    return TransverseFieldOperator(lattice.n_sites, diag, omega / 2.0, range(lattice.n_sites))


def build_h_tfim(lattice: Lattice, couplings: CouplingMap, omega: float) -> sp.csr_matrix:
    """CSR of ``op_tfim``."""
    return op_tfim(lattice, couplings, omega).tocsr()


def op_total(
    lattice: Lattice, partition: SitePartition, couplings: CouplingMap, omega: float
) -> TransverseFieldOperator:
    """TFIM plus the probe shift fields."""
    diag = _diagonal(lattice.n_sites, _bond_terms(couplings), _field_terms(partition, couplings))
    return TransverseFieldOperator(lattice.n_sites, diag, omega / 2.0, range(lattice.n_sites))


def build_h_total(
    lattice: Lattice, partition: SitePartition, couplings: CouplingMap, omega: float
) -> sp.csr_matrix:
    """CSR of ``op_total``."""
    return op_total(lattice, partition, couplings, omega).tocsr()


def op_probe_omega(partition: SitePartition, lattice: Lattice, omega: float) -> TransverseFieldOperator:
    """(omega/2) * sum over probe sites of sigma^x_i, on the full space."""
    return TransverseFieldOperator(lattice.n_sites, None, omega / 2.0, sorted(partition.probe_sites))


def build_h_probe_omega(partition: SitePartition, lattice: Lattice, omega: float) -> sp.csr_matrix:
    """CSR of ``op_probe_omega``."""
    return op_probe_omega(partition, lattice, omega).tocsr()


def dw_diagonal(lattice: Lattice) -> np.ndarray:
    """Number of anti-aligned bonds per basis state; frame bonds count with frame spins down."""
    n, bonds = lattice.n_sites, lattice.bonds()
    # counted in the narrowest type that holds the number of bonds, then widened
    counts = np.zeros(_view(n), dtype=np.min_scalar_type(len(bonds)))
    for i, j in bonds:
        counts += _bit(n, i) ^ (0 if lattice.is_frame(j) else _bit(n, j))
    return counts.reshape(-1).astype(np.int64)


def _flip_mask(lattice: Lattice, site: int) -> np.ndarray:
    """Where the two-up/two-down condition holds at site, broadcastable to ``_view``.

    All false when the site has fewer than 4 neighbor slots (open-boundary
    edge): the condition is then unsatisfiable.
    """
    slots = lattice.neighbors(site)
    if len(slots) < 4:
        return np.zeros(1, dtype=bool)
    ups = np.zeros(1, dtype=np.uint8)
    for j in slots:
        if not lattice.is_frame(j):
            ups = ups + _bit(lattice.n_sites, j)
    return ups == 2


def _masked_flips(n_sites: int, value: float, masks):
    """``_assemble`` flip terms of amplitude ``value``: site i flips where the i-th mask holds."""
    return ((i, value, _expand(n_sites, mask)) for i, mask in enumerate(masks))


def flip_masks_homogeneous(lattice: Lattice):
    """Per site, in site order: where its flip is allowed (two-up/two-down), broadcastable to ``_view``."""
    return (_flip_mask(lattice, i) for i in range(lattice.n_sites))


def build_h_eff_homogeneous(lattice: Lattice, jbar: float, omega: float) -> sp.csr_matrix:
    """Constrained effective Hamiltonian for homogeneous couplings.

    Diagonal: uniform Ising energy.  Off-diagonal: (omega/2) sigma^x_i only
    between states where site i's four neighbor slots hold exactly two up
    spins (``flip_masks_homogeneous``).  Commutes with the domain-wall number.
    """
    from .couplings import homogeneous

    n = lattice.n_sites
    flips = _masked_flips(n, omega / 2.0, flip_masks_homogeneous(lattice))
    return _assemble(n, ising_diagonal(homogeneous(lattice, jbar)), flips)


def _mismatch_vector(
    lattice: Lattice,
    site: int,
    couplings: CouplingMap,
    shift: dict[int, float],
) -> np.ndarray:
    """|sum_j delta_ij z_j + h_i| (h_i only on probe sites), broadcastable to ``_view``."""
    acc = np.full(1, shift.get(site, 0.0))
    for j in lattice.neighbors(site):
        d = couplings.bond_delta(site, j)
        if lattice.is_frame(j):
            acc = acc - d
        else:
            acc = acc + np.array([-d, d])[_bit(lattice.n_sites, j)]  # d z_j
    return np.abs(acc)


def flip_masks_inhomogeneous(
    lattice: Lattice, partition: SitePartition, couplings: CouplingMap, delta_th: float
):
    """Per site, in site order: where its flip is allowed, broadcastable to ``_view``.

    A flip of site i is allowed only if the two-up/two-down pattern holds and
    the disorder energy mismatch (shift field included on probe sites) does
    not exceed ``delta_th``.
    """
    if delta_th <= 0:
        raise PartitionError(f"delta_th must be positive, got {delta_th}")
    shift = shift_fields(partition, couplings)
    return (
        _flip_mask(lattice, i) & (_mismatch_vector(lattice, i, couplings, shift) <= delta_th)
        for i in range(lattice.n_sites)
    )


def build_h_eff_inhomogeneous(
    lattice: Lattice,
    partition: SitePartition,
    couplings: CouplingMap,
    omega: float,
    delta_th: float,
) -> sp.csr_matrix:
    """Constrained effective Hamiltonian with inhomogeneity-induced suppression.

    Off-diagonal: (omega/2) sigma^x_i where ``flip_masks_inhomogeneous``
    allows it.  Diagonal: full Ising energy plus shift fields.
    """
    masks = flip_masks_inhomogeneous(lattice, partition, couplings, delta_th)
    diag = _table(lattice.n_sites, [_bond_terms(couplings), _field_terms(partition, couplings)])
    return _assemble(lattice.n_sites, diag, _masked_flips(lattice.n_sites, omega / 2.0, masks))
