"""Sparse operator assembly over the 2^N computational basis.

Basis convention: basis state ``s`` is an integer whose bit i is the z spin
of site i (bit 1 = up, z = +1).  Frame spins are fixed down (z = -1) and
enter only through diagonal field contributions, never as basis bits.
Every operator is a real diagonal plus single-spin flips ``(omega/2)
sigma^x_i``, each on every basis state or only where a mask holds; one
assembly (``_assemble``) makes it a real symmetric CSR matrix, and every
basis-bit read uses one cached bit table (``_basis``).  The unmasked family
(a diagonal plus one flip amplitude on a set of sites) also has a
matrix-free form, ``TransverseFieldOperator``; its ``tocsr()`` is the
builders' CSR.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.sparse as sp

from .couplings import CouplingMap
from .errors import EvolutionError, PartitionError
from .lattice import Lattice, SitePartition


@lru_cache(maxsize=1)
def _basis(n_sites: int) -> tuple[np.ndarray, np.ndarray]:
    """Every basis index (int32) and its bit table: row i holds bit i of each index.

    Both are read-only and cached for the last N asked for.
    """
    states = np.arange(1 << n_sites, dtype=np.int32)
    bits = np.empty((n_sites, 1 << n_sites), dtype=np.uint8)
    for i in range(n_sites):
        np.bitwise_and(states >> i, 1, out=bits[i], casting="unsafe")
    states.flags.writeable = bits.flags.writeable = False
    return states, bits


def _assemble(n_sites: int, diag: np.ndarray | None, flips) -> sp.csr_matrix:
    """CSR of ``diag`` plus ``value * sigma^x_site`` for each ``(site, value, mask)`` in flips.

    A flip term couples every basis state where ``mask`` holds (every state
    when it is None) to its partner with that site's bit flipped; a mask must
    not depend on that bit, so the result is symmetric.  Zero diagonal
    entries and terms with value 0 are not stored.  ``flips`` is iterated
    once, so a generator keeps only one mask alive at a time.
    """
    states, _ = _basis(n_sites)
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
    return sp.coo_matrix((data, (row, col)), shape=(states.shape[0],) * 2).tocsr()


@dataclass(frozen=True, eq=False)
class TransverseFieldOperator:
    """``diag + value * sum_{i in sites} sigma^x_i`` on 2^n_sites states, without a matrix.

    ``diag`` is a real vector over the basis (None for no diagonal).  Real
    entries make the operator Hermitian by construction.  ``op @ psi``
    applies it to a vector, ``flip_sum`` applies ``sum_{i in sites} sigma^x_i``
    in place and ``tocsr()`` is its matrix.
    """

    n_sites: int
    diag: np.ndarray | None
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
        if self.diag is not None:
            if np.iscomplexobj(self.diag):
                raise EvolutionError("diagonal must be real")
            diag = np.asarray(self.diag, dtype=float)
            if diag.shape != (1 << self.n_sites,):
                raise EvolutionError(f"diagonal of shape {diag.shape} for {self.n_sites} sites")
            if not np.all(np.isfinite(diag)):
                raise EvolutionError("diagonal must be finite")
            object.__setattr__(self, "diag", diag)

    @property
    def shape(self) -> tuple[int, int]:
        return (1 << self.n_sites,) * 2

    def flip_sum(self, psi: np.ndarray, out: np.ndarray) -> np.ndarray:
        """``out = sum_{i in sites} sigma^x_i psi``, written in place; returns ``out``.

        sigma^x_i flips axis n_sites-1-i of the vector reshaped to (2,)*n_sites
        (bit i of the basis index), so each flip is a reversed view added in place.
        """
        n = self.n_sites
        x, acc = psi.reshape((2,) * n), out.reshape((2,) * n)
        flips = (np.flip(x, axis=n - 1 - i) for i in self.sites)
        np.copyto(acc, next(flips, 0.0))
        for view in flips:
            acc += view
        return out

    def __matmul__(self, psi: np.ndarray) -> np.ndarray:
        """The operator applied to a vector over the basis."""
        psi = np.asarray(psi)
        if psi.shape != (self.shape[0],):
            raise EvolutionError(f"vector of shape {psi.shape} for an operator of shape {self.shape}")
        out = self.flip_sum(psi, np.empty(psi.shape, dtype=np.result_type(psi, float)))
        out *= self.value
        if self.diag is not None:
            out += psi * self.diag
        return out

    def tocsr(self) -> sp.csr_matrix:
        return _assemble(self.n_sites, self.diag, [(i, self.value, None) for i in self.sites])


def op_omega(lattice: Lattice, omega: float) -> TransverseFieldOperator:
    """(omega/2) * sum_i sigma^x_i over all dynamical sites."""
    return TransverseFieldOperator(lattice.n_sites, None, omega / 2.0, range(lattice.n_sites))


def build_h_omega(lattice: Lattice, omega: float) -> sp.csr_matrix:
    """CSR of ``op_omega``."""
    return op_omega(lattice, omega).tocsr()


def ising_diagonal(couplings: CouplingMap) -> np.ndarray:
    """Diagonal of -sum_bonds J_ij z_i z_j; frame bonds contribute with z = -1."""
    lattice = couplings.lattice
    _, bits = _basis(lattice.n_sites)
    diag = np.zeros(bits.shape[1])
    for (i, j), jij in couplings.items():
        anti = bits[i] ^ (0 if lattice.is_frame(j) else bits[j])
        diag -= np.array([jij, -jij])[anti]  # J z_i z_j, exactly +/-J
    return diag


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


def shift_diagonal(partition: SitePartition, couplings: CouplingMap) -> np.ndarray:
    _, bits = _basis(couplings.lattice.n_sites)
    diag = np.zeros(bits.shape[1])
    for site, h in shift_fields(partition, couplings).items():
        diag -= np.array([-h, h])[bits[site]]  # h z_site
    return diag


def build_h_shift(partition: SitePartition, couplings: CouplingMap) -> sp.csr_matrix:
    """Diagonal shift-field operator supported on probe sites only."""
    return _assemble(couplings.lattice.n_sites, shift_diagonal(partition, couplings), [])


def op_tfim(lattice: Lattice, couplings: CouplingMap, omega: float) -> TransverseFieldOperator:
    """Transverse field plus Ising couplings."""
    diag = ising_diagonal(couplings)
    return TransverseFieldOperator(lattice.n_sites, diag, omega / 2.0, range(lattice.n_sites))


def build_h_tfim(lattice: Lattice, couplings: CouplingMap, omega: float) -> sp.csr_matrix:
    """CSR of ``op_tfim``."""
    return op_tfim(lattice, couplings, omega).tocsr()


def op_total(
    lattice: Lattice, partition: SitePartition, couplings: CouplingMap, omega: float
) -> TransverseFieldOperator:
    """TFIM plus the probe shift fields."""
    diag = ising_diagonal(couplings) + shift_diagonal(partition, couplings)
    return TransverseFieldOperator(lattice.n_sites, diag, omega / 2.0, range(lattice.n_sites))


def build_h_total(
    lattice: Lattice, partition: SitePartition, couplings: CouplingMap, omega: float
) -> sp.csr_matrix:
    """CSR of ``op_total``."""
    return op_total(lattice, partition, couplings, omega).tocsr()


def op_probe_omega(partition: SitePartition, couplings_or_lattice, omega: float) -> TransverseFieldOperator:
    """(omega/2) * sum over probe sites of sigma^x_i, on the full space."""
    lattice = getattr(couplings_or_lattice, "lattice", couplings_or_lattice)
    return TransverseFieldOperator(lattice.n_sites, None, omega / 2.0, sorted(partition.probe_sites))


def build_h_probe_omega(partition: SitePartition, couplings_or_lattice, omega: float) -> sp.csr_matrix:
    """CSR of ``op_probe_omega``."""
    return op_probe_omega(partition, couplings_or_lattice, omega).tocsr()


def dw_diagonal(lattice: Lattice) -> np.ndarray:
    """Number of anti-aligned bonds per basis state; frame bonds count with frame spins down."""
    _, bits = _basis(lattice.n_sites)
    counts = np.zeros(bits.shape[1], dtype=np.int64)
    for i, j in lattice.bonds():
        counts += bits[i] ^ (0 if lattice.is_frame(j) else bits[j])
    return counts


def _flip_mask(lattice: Lattice, site: int) -> np.ndarray:
    """Boolean mask over basis states where the two-up/two-down condition holds at site.

    All false when the site has fewer than 4 neighbor slots (open-boundary
    edge): the condition is then unsatisfiable.
    """
    _, bits = _basis(lattice.n_sites)
    slots = lattice.neighbors(site)
    if len(slots) < 4:
        return np.zeros(bits.shape[1], dtype=bool)
    ups = np.zeros(bits.shape[1], dtype=np.uint8)
    for j in slots:
        if not lattice.is_frame(j):
            ups += bits[j]
    return ups == 2


def build_h_eff_homogeneous(lattice: Lattice, jbar: float, omega: float) -> sp.csr_matrix:
    """Constrained effective Hamiltonian for homogeneous couplings.

    Diagonal: uniform Ising energy.  Off-diagonal: (omega/2) sigma^x_i only
    between states where site i's four neighbor slots hold exactly two up
    spins.  Commutes with the domain-wall number.
    """
    from .couplings import homogeneous

    flips = ((i, omega / 2.0, _flip_mask(lattice, i)) for i in range(lattice.n_sites))
    return _assemble(lattice.n_sites, ising_diagonal(homogeneous(lattice, jbar)), flips)


def _mismatch_vector(
    lattice: Lattice,
    site: int,
    couplings: CouplingMap,
    shift: dict[int, float],
) -> np.ndarray:
    """|sum_j delta_ij z_j + h_i| per basis state (h_i only on probe sites)."""
    _, bits = _basis(lattice.n_sites)
    acc = np.full(bits.shape[1], shift.get(site, 0.0))
    for j in lattice.neighbors(site):
        d = couplings.bond_delta(site, j)
        if lattice.is_frame(j):
            acc -= d
        else:
            acc += np.array([-d, d])[bits[j]]  # d z_j
    return np.abs(acc)


def build_h_eff_inhomogeneous(
    lattice: Lattice,
    partition: SitePartition,
    couplings: CouplingMap,
    omega: float,
    delta_th: float,
) -> sp.csr_matrix:
    """Constrained effective Hamiltonian with inhomogeneity-induced suppression.

    A flip of site i survives only if the two-up/two-down pattern holds and
    the disorder energy mismatch (shift field included on probe sites) does
    not exceed ``delta_th``.  Diagonal: full Ising energy plus shift fields.
    """
    if delta_th <= 0:
        raise PartitionError(f"delta_th must be positive, got {delta_th}")
    shift = shift_fields(partition, couplings)
    flips = (
        (i, omega / 2.0, _flip_mask(lattice, i) & (_mismatch_vector(lattice, i, couplings, shift) <= delta_th))
        for i in range(lattice.n_sites)
    )
    return _assemble(lattice.n_sites, ising_diagonal(couplings) + shift_diagonal(partition, couplings), flips)


def is_hermitian(op: sp.spmatrix, tol: float = 0.0) -> bool:
    diff = (op - op.getH()).tocoo()
    if diff.nnz == 0:
        return True
    return np.max(np.abs(diff.data)) <= tol
