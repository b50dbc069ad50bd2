"""Census of dynamically disconnected subspaces of the constrained dynamics.

Basis states are vertices; nonzero off-diagonal matrix elements of a
constrained builder are edges.  Connected components come from
``scipy.sparse.csgraph``, each labelled by its minimum member state, and are
grouped by domain-wall sector, which is well defined because the builders
commute with the domain-wall number.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import FragmentError
from .hamiltonian import dw_diagonal
from .lattice import Lattice

_CSV_CHUNK_ROWS = 1 << 16
_SUPPORT_TOL = 1e-12  # |amplitude| above which ``fragment_of`` counts a basis state as occupied


@dataclass(frozen=True)
class SectorCensus:
    sector_dw: int
    fragment_count: int
    fragment_sizes: tuple[int, ...]  # sorted ascending
    frozen_state_count: int  # size-1 fragments


@dataclass(frozen=True)
class FragmentReport:
    n_sites: int
    sectors: tuple[SectorCensus, ...]
    labels: np.ndarray  # per basis state: minimum state index of its fragment
    fragments: np.ndarray  # one row (dw sector, minimum state, size) per fragment, by minimum state

    @property
    def total_fragments(self) -> int:
        return sum(s.fragment_count for s in self.sectors)

    @property
    def max_fragment_size(self) -> int:
        return max(max(s.fragment_sizes) for s in self.sectors)

    @property
    def frozen_states(self) -> int:
        return sum(s.frozen_state_count for s in self.sectors)

    def summary(self) -> dict:
        return {
            "total_fragments": self.total_fragments,
            "max_fragment_size": self.max_fragment_size,
            "frozen_states": self.frozen_states,
        }

    def to_csv(self) -> str:
        chunks = ["dw_sector,fragment_id,size,is_frozen\n"]
        # one %-template per chunk over Python ints; chunks bound the lists' memory
        for at in range(0, self.fragments.shape[0], _CSV_CHUNK_ROWS):
            rows = self.fragments[at:at + _CSV_CHUNK_ROWS]
            block = np.column_stack((rows, rows[:, 2] == 1))
            chunks.append(("%d,%d,%d,%d\n" * block.shape[0]) % tuple(block.ravel().tolist()))
        return "".join(chunks)


def _offdiagonal_pattern(h_eff: sp.spmatrix) -> sp.csr_matrix:
    """Where a square operator has nonzero off-diagonal entries, as a CSR pattern."""
    if h_eff.shape[0] != h_eff.shape[1]:
        raise FragmentError(f"operator of shape {h_eff.shape} is not square")
    csr = h_eff.tocsr()
    rows = np.repeat(np.arange(csr.shape[0], dtype=csr.indices.dtype), np.diff(csr.indptr))
    keep = (csr.indices != rows) & (csr.data != 0)
    del rows
    # kept entries before each row start: the running count of ``keep``
    kept = np.zeros(keep.shape[0] + 1, dtype=csr.indptr.dtype)
    np.cumsum(keep, out=kept[1:])
    indices = csr.indices[keep]
    return sp.csr_matrix((np.ones(indices.shape[0]), indices, kept[csr.indptr]), shape=csr.shape)


def _component_labels(pattern: sp.csr_matrix) -> np.ndarray:
    """Per vertex: the minimum vertex index of its connected component."""
    from scipy.sparse.csgraph import connected_components

    n_components, component = connected_components(pattern, directed=False)
    labels = np.full(n_components, pattern.shape[0], dtype=np.int64)
    np.minimum.at(labels, component, np.arange(pattern.shape[0], dtype=np.int64))
    return labels[component]


def adjacency_components(h_eff: sp.spmatrix, lattice: Lattice) -> FragmentReport:
    """Connected-component census of a constrained Hamiltonian, by DW sector.

    Raises FragmentError if any off-diagonal element connects states with
    different domain-wall numbers.
    """
    if h_eff.shape != (1 << lattice.n_sites,) * 2:
        raise FragmentError("operator dimension does not match the lattice")
    labels = _component_labels(_offdiagonal_pattern(h_eff))
    # an edge joins two sectors iff some fragment is not inside one sector
    dw = dw_diagonal(lattice)
    if not np.array_equal(dw[labels], dw):
        raise FragmentError("operator mixes domain-wall sectors; not a constrained builder output")

    # every label is a state index, so a count per index gives the ascending roots and their sizes
    counts = np.bincount(labels, minlength=labels.shape[0])
    roots = np.flatnonzero(counts)
    sizes = counts[roots]
    sector = dw[roots]
    fragments = np.column_stack((sector, roots, sizes))
    # fragments sorted by (sector, size), then cut at each sector boundary
    order = np.lexsort((sizes, sector))
    sector, sizes = sector[order], sizes[order]
    cuts = np.flatnonzero(np.diff(sector)) + 1
    sectors = tuple(
        SectorCensus(
            sector_dw=int(sec[0]),
            fragment_count=len(sz),
            fragment_sizes=tuple(sz.tolist()),
            frozen_state_count=int(np.sum(sz == 1)),
        )
        for sec, sz in zip(np.split(sector, cuts), np.split(sizes, cuts))
    )
    return FragmentReport(n_sites=lattice.n_sites, sectors=sectors, labels=labels, fragments=fragments)


def refinement_check(
    homogeneous_report: FragmentReport,
    inhomogeneous_report: FragmentReport,
    h_hom: sp.spmatrix,
    h_inhom: sp.spmatrix,
) -> bool:
    """True iff the inhomogeneous partition refines the homogeneous one.

    Checked both ways: every inhomogeneous fragment maps into a single
    homogeneous fragment, and the inhomogeneous edge set is a subset of the
    homogeneous edge set.  Raises FragmentError if the reports and operators
    do not all act on the same basis.
    """
    hom, inhom = homogeneous_report.labels, inhomogeneous_report.labels
    dim = hom.shape[0]
    if inhom.shape != (dim,) or h_hom.shape != (dim, dim) or h_inhom.shape != (dim, dim):
        raise FragmentError(
            f"refinement check needs one basis: reports over {dim} and {inhom.shape[0]} states, "
            f"operators of shape {h_hom.shape} and {h_inhom.shape}"
        )
    # the homogeneous label is constant on each inhomogeneous fragment iff it
    # agrees with the label of that fragment's minimum member
    if not np.array_equal(hom[inhom], hom):
        return False
    pattern_in = _offdiagonal_pattern(h_inhom)
    return pattern_in.multiply(_offdiagonal_pattern(h_hom)).nnz == pattern_in.nnz


def fragment_of(state: np.ndarray, h_eff: sp.spmatrix) -> set[int]:
    """All basis states reachable from the support of ``state`` under h_eff.

    Population outside this set stays exactly zero along any h_eff
    trajectory starting from ``state``.
    """
    if state.shape != (h_eff.shape[0],):
        raise FragmentError(
            f"state of shape {state.shape} does not match an operator of shape {h_eff.shape}"
        )
    labels = _component_labels(_offdiagonal_pattern(h_eff))
    reached = np.isin(labels, labels[np.abs(state) > _SUPPORT_TOL])
    return set(np.flatnonzero(reached).tolist())
