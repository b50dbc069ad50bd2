"""Census of dynamically disconnected subspaces of the constrained dynamics.

Basis states are vertices; nonzero off-diagonal matrix elements of a
constrained builder are edges.  The census reads the builder's CSR as it is:
it stores no zero, and a diagonal entry joins a state only to itself.
Connected components come from ``scipy.sparse.csgraph``, each labelled by its
minimum member state, and each fragment tagged with its sector, which is well
defined because the builders commute with the domain-wall number.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import FragmentError
from .hamiltonian import dw_diagonal
from .lattice import Lattice

_CSV_CHUNK_ROWS = 1 << 16


@dataclass(frozen=True)
class FragmentReport:
    labels: np.ndarray  # per basis state: minimum state index of its fragment
    fragments: np.ndarray  # one row (dw sector, minimum state, size) per fragment, by minimum state

    @property
    def total_fragments(self) -> int:
        return self.fragments.shape[0]

    @property
    def max_fragment_size(self) -> int:
        return int(self.fragments[:, 2].max())

    @property
    def frozen_states(self) -> int:
        return int(np.count_nonzero(self.fragments[:, 2] == 1))

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


def _component_labels(graph: sp.spmatrix) -> np.ndarray:
    """Per vertex: the minimum vertex index of its connected component, where
    every stored entry of ``graph`` is an edge (a diagonal one joins a vertex
    only to itself)."""
    from scipy.sparse.csgraph import connected_components

    n_components, component = connected_components(graph, directed=False)
    labels = np.full(n_components, graph.shape[0], dtype=np.int64)
    np.minimum.at(labels, component, np.arange(graph.shape[0], dtype=np.int64))
    return labels[component]


def adjacency_components(h_eff: sp.spmatrix, lattice: Lattice) -> FragmentReport:
    """Connected-component census of a constrained Hamiltonian: one row
    (dw sector, minimum state, size) per fragment.

    Raises FragmentError if any off-diagonal element connects states with
    different domain-wall numbers.
    """
    if h_eff.shape != (1 << lattice.n_sites,) * 2:
        raise FragmentError("operator dimension does not match the lattice")
    labels = _component_labels(h_eff)  # the builders store no zero entry
    # an edge joins two sectors iff some fragment is not inside one sector
    dw = dw_diagonal(lattice)
    if not np.array_equal(dw[labels], dw):
        raise FragmentError("operator mixes domain-wall sectors; not a constrained builder output")

    # every label is a state index, so a count per index gives the ascending roots and their sizes
    counts = np.bincount(labels, minlength=labels.shape[0])
    roots = np.flatnonzero(counts)
    return FragmentReport(labels=labels, fragments=np.column_stack((dw[roots], roots, counts[roots])))


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
    # a sparse difference stores no zero result, so these are the off-diagonal nonzero entries
    edges_in, edges_hom = ((h - sp.diags(h.diagonal())).astype(bool) for h in (h_inhom, h_hom))
    return edges_in.multiply(edges_hom).nnz == edges_in.nnz

