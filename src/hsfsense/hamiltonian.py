"""Sparse operator assembly over the 2^N computational basis.

Basis convention: basis state ``s`` is an integer whose bit i is the z spin
of site i (bit 1 = up, z = +1).  Frame spins are fixed down (z = -1) and
enter only through diagonal field contributions, never as basis bits.  All
operators built here are real symmetric CSR matrices.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .couplings import CouplingMap
from .errors import PartitionError
from .lattice import Lattice, SitePartition


def _z_bits(n_sites: int, site: int) -> np.ndarray:
    """z_i = +/-1 for every basis state, as a vector over 0..2^N-1."""
    states = np.arange(1 << n_sites, dtype=np.int64)
    return (2.0 * ((states >> site) & 1) - 1.0)


def _offdiag_for_site(n_sites: int, site: int, mask: np.ndarray, value: float) -> sp.csr_matrix:
    """value * sigma^x_site restricted to the basis states where mask holds."""
    dim = 1 << n_sites
    cols = np.nonzero(mask)[0].astype(np.int64)
    rows = cols ^ (1 << site)
    data = np.full(cols.shape, value)
    return sp.coo_matrix((data, (rows, cols)), shape=(dim, dim)).tocsr()


def build_h_omega(lattice: Lattice, omega: float) -> sp.csr_matrix:
    """(omega/2) * sum_i sigma^x_i over all dynamical sites."""
    n = lattice.n_sites
    dim = 1 << n
    if omega == 0.0:
        return sp.csr_matrix((dim, dim))
    states = np.arange(dim, dtype=np.int64)
    rows = np.concatenate([states ^ (1 << i) for i in range(n)])
    cols = np.tile(states, n)
    data = np.full(rows.shape, omega / 2.0)
    return sp.coo_matrix((data, (rows, cols)), shape=(dim, dim)).tocsr()


def ising_diagonal(couplings: CouplingMap) -> np.ndarray:
    """Diagonal of -sum_bonds J_ij z_i z_j; frame bonds contribute with z = -1."""
    lattice = couplings.lattice
    n = lattice.n_sites
    diag = np.zeros(1 << n)
    for (i, j), jij in couplings.items():
        zi = _z_bits(n, i)
        zj = -1.0 if lattice.is_frame(j) else _z_bits(n, j)
        diag -= jij * zi * zj
    return diag


def build_h_int(lattice: Lattice, couplings: CouplingMap) -> sp.csr_matrix:
    """Diagonal Ising operator -sum_<i,j> J_ij sigma^z_i sigma^z_j."""
    return sp.diags(ising_diagonal(couplings)).tocsr()


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
    n = couplings.lattice.n_sites
    diag = np.zeros(1 << n)
    for site, h in shift_fields(partition, couplings).items():
        diag -= h * _z_bits(n, site)
    return diag


def build_h_shift(partition: SitePartition, couplings: CouplingMap) -> sp.csr_matrix:
    """Diagonal shift-field operator supported on probe sites only."""
    return sp.diags(shift_diagonal(partition, couplings)).tocsr()


def build_h_tfim(lattice: Lattice, couplings: CouplingMap, omega: float) -> sp.csr_matrix:
    """Transverse field plus Ising couplings."""
    return (build_h_omega(lattice, omega) + build_h_int(lattice, couplings)).tocsr()


def build_h_total(
    lattice: Lattice, partition: SitePartition, couplings: CouplingMap, omega: float
) -> sp.csr_matrix:
    """TFIM plus the probe shift fields."""
    return (build_h_tfim(lattice, couplings, omega) + build_h_shift(partition, couplings)).tocsr()


def build_h_probe_omega(partition: SitePartition, couplings_or_lattice, omega: float) -> sp.csr_matrix:
    """(omega/2) * sum over probe sites of sigma^x_i, on the full space."""
    lattice = getattr(couplings_or_lattice, "lattice", couplings_or_lattice)
    n = lattice.n_sites
    dim = 1 << n
    op = sp.csr_matrix((dim, dim))
    if omega == 0.0 or not partition.probe_sites:
        return op
    states = np.arange(dim, dtype=np.int64)
    probe = sorted(partition.probe_sites)
    rows = np.concatenate([states ^ (1 << i) for i in probe])
    cols = np.tile(states, len(probe))
    data = np.full(rows.shape, omega / 2.0)
    return sp.coo_matrix((data, (rows, cols)), shape=(dim, dim)).tocsr()


def dw_diagonal(lattice: Lattice) -> np.ndarray:
    """Number of anti-aligned bonds per basis state; frame bonds count with frame spins down."""
    n = lattice.n_sites
    counts = np.zeros(1 << n, dtype=np.int64)
    for i, j in lattice.bonds():
        bi = (np.arange(1 << n, dtype=np.int64) >> i) & 1
        bj = 0 if lattice.is_frame(j) else (np.arange(1 << n, dtype=np.int64) >> j) & 1
        counts += bi != bj
    return counts


def _flip_mask(lattice: Lattice, site: int) -> np.ndarray | None:
    """Boolean mask over basis states where the two-up/two-down condition holds at site.

    None when the site has fewer than 4 neighbor slots (open-boundary edge):
    the condition is then unsatisfiable.
    """
    slots = lattice.neighbors(site)
    if len(slots) < 4:
        return None
    states = np.arange(1 << lattice.n_sites, dtype=np.int64)
    ups = np.zeros(states.shape, dtype=np.int64)
    for j in slots:
        if not lattice.is_frame(j):
            ups += (states >> j) & 1
    return ups == 2


def build_h_eff_homogeneous(lattice: Lattice, jbar: float, omega: float) -> sp.csr_matrix:
    """Constrained effective Hamiltonian for homogeneous couplings.

    Diagonal: uniform Ising energy.  Off-diagonal: (omega/2) sigma^x_i only
    between states where site i's four neighbor slots hold exactly two up
    spins.  Commutes with the domain-wall number.
    """
    from .couplings import homogeneous

    op = build_h_int(lattice, homogeneous(lattice, jbar))
    for i in range(lattice.n_sites):
        mask = _flip_mask(lattice, i)
        if mask is not None and omega != 0.0:
            op = op + _offdiag_for_site(lattice.n_sites, i, mask, omega / 2.0)
    return op.tocsr()


def _mismatch_vector(
    lattice: Lattice,
    site: int,
    couplings: CouplingMap,
    shift: dict[int, float],
) -> np.ndarray:
    """|sum_j delta_ij z_j + h_i| per basis state (h_i only on probe sites)."""
    n = lattice.n_sites
    acc = np.full(1 << n, shift.get(site, 0.0))
    for j in lattice.neighbors(site):
        d = couplings.bond_delta(site, j)
        if lattice.is_frame(j):
            acc -= d
        else:
            acc += d * _z_bits(n, j)
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
    op = sp.diags(ising_diagonal(couplings) + shift_diagonal(partition, couplings)).tocsr()
    for i in range(lattice.n_sites):
        mask = _flip_mask(lattice, i)
        if mask is None or omega == 0.0:
            continue
        mask = mask & (_mismatch_vector(lattice, i, couplings, shift) <= delta_th)
        op = op + _offdiag_for_site(lattice.n_sites, i, mask, omega / 2.0)
    return op.tocsr()


def is_hermitian(op: sp.spmatrix, tol: float = 0.0) -> bool:
    diff = (op - op.getH()).tocoo()
    if diff.nnz == 0:
        return True
    return np.max(np.abs(diff.data)) <= tol

