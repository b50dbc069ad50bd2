"""Census of dynamically disconnected subspaces of the constrained dynamics.

Basis states are vertices.  Each constrained model flips one site at a time:
site i joins state s to s ^ 2^i wherever its allowed-flip mask holds (the
``flip_masks_*`` generators of ``hamiltonian``, which the ``build_h_eff_*``
builders assemble too), and no mask depends on the bit it flips.  ``census``
labels the connected components straight from those masks, with no matrix:
every state starts as its own label, each sweep lowers both ends of every
allowed flip to their minimum and then jumps each label to its label's label
until nothing moves (Shiloach and Vishkin, J. Algorithms 3, 57, 1982), and a
sweep that changes nothing leaves each state labelled by the minimum member
of its fragment.  Each fragment is tagged with its sector, which is well
defined because every allowed flip keeps the domain-wall number.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import FragmentError
from .hamiltonian import _expand, _view, dw_diagonal
from .lattice import Lattice

if TYPE_CHECKING:
    import scipy.sparse as sp

_CSV_CHUNK_ROWS = 1 << 16
# a flip of a bit below this runs as 2^i strided columns of the (-1, 2, 2^i) label view
_COLUMNS = 3


@dataclass(frozen=True)
class FragmentReport:
    labels: np.ndarray  # per basis state: minimum state index of its fragment (int32 below 31 sites)
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
        """The table as CSV text, each row as ``"%d,%d,%d,%d\\n"`` prints it; every entry is nonnegative."""
        table = self.fragments
        maxima = table.max(axis=0, initial=0)
        # each column is as wide as its maximum's digits; is_frozen has one
        widths = [len(str(v)) for v in maxima.tolist()] + [1]
        # uint32 divides faster, but only while every value fits
        dtype = np.uint32 if maxima.max() < 1 << 32 else np.int64
        chunks = ["dw_sector,fragment_id,size,is_frozen\n"]
        # one byte per digit or separator and a column per row; chunks bound the bytes' memory
        for at in range(0, table.shape[0], _CSV_CHUNK_ROWS):
            rows = table[at:at + _CSV_CHUNK_ROWS]
            text = np.empty((sum(widths) + len(widths), rows.shape[0]), dtype=np.uint8)
            start = 0
            for column, width in zip((rows[:, 0], rows[:, 1], rows[:, 2], rows[:, 2] == 1), widths):
                value, last = column.astype(dtype), start + width - 1
                for pos in range(last, start - 1, -1):
                    quotient = value // 10
                    text[pos] = value - 10 * quotient + ord("0")
                    if pos < last:
                        text[pos] *= value != 0  # a leading zero becomes a 0 byte
                    value = quotient
                text[last + 1] = ord(",")
                start = last + 2
            text[start - 1] = ord("\n")
            flat = text.T.ravel()  # row after row
            chunks.append(flat[flat != 0].tobytes().decode("ascii"))
        return "".join(chunks)


def _site_masks(n_sites: int, masks) -> list[np.ndarray]:
    """The masks as boolean arrays, one per site."""
    masks = [np.asarray(mask, dtype=bool) for mask in masks]
    if len(masks) != n_sites:
        raise FragmentError(f"{len(masks)} flip masks for {n_sites} sites")
    return masks


def _jump(labels: np.ndarray) -> np.ndarray:
    """Replace every label by its label's label until that changes nothing."""
    while True:
        parent = labels[labels]
        if np.array_equal(parent, labels):
            return labels
        labels = parent


def census(lattice: Lattice, masks) -> FragmentReport:
    """Fragments of the flips that ``masks`` allow: one row (dw sector, minimum state, size) each.

    ``masks`` holds one boolean array per site, in site order, broadcastable
    to ``hamiltonian._view``; site i flips between s and s ^ 2^i wherever its
    mask holds, and the mask must not depend on bit i.  Raises FragmentError
    if there is not one mask per site or an allowed flip changes the
    domain-wall number.
    """
    n = lattice.n_sites
    # an all-false mask joins nothing, so only the others are swept
    active = [(i, mask) for i, mask in enumerate(_site_masks(n, masks)) if mask.any()]
    labels = np.arange(1 << n, dtype=np.int32 if n < 31 else np.int64)
    total = None
    while True:
        for i, mask in active:
            # bit i is the middle axis; the mask is the same on both of its halves
            pairs, allowed = labels.reshape(-1, 2, 1 << i), _expand(n, mask).reshape(-1, 2, 1 << i)[:, 0]
            # below _COLUMNS, one long strided column at a time: numpy's loops are slow on short rows
            for j in range(1 << i) if i < _COLUMNS else [slice(None)]:
                lo, hi, where = pairs[:, 0, j], pairs[:, 1, j], allowed[:, j]
                # a plain minimum and two masked copies beat two masked minimums where masks vary fast
                low = np.minimum(lo, hi)
                np.copyto(lo, low, where=where)
                np.copyto(hi, low, where=where)
        labels = _jump(labels)
        # labels only ever fall, so an unchanged sum means an unchanged sweep
        total, before = labels.sum(dtype=np.int64), total
        if total == before:
            break
    # a flip joins two sectors iff some fragment is not inside one sector
    dw = dw_diagonal(lattice)
    if not np.array_equal(dw[labels], dw):
        raise FragmentError("an allowed flip changes the domain-wall number; not a constrained model")

    # every label is a state index, so a count per index gives the ascending roots and their sizes
    counts = np.bincount(labels, minlength=labels.shape[0])
    roots = np.flatnonzero(counts)
    return FragmentReport(labels=labels, fragments=np.column_stack((dw[roots], roots, counts[roots])))


def adjacency_components(h_eff: sp.spmatrix, lattice: Lattice) -> FragmentReport:
    """``census`` of an operator's CSR, each nonzero off-diagonal entry an allowed flip.

    Raises FragmentError if an entry flips more than one bit, or as ``census`` does.
    """
    n = lattice.n_sites
    if h_eff.shape != (1 << n,) * 2:
        raise FragmentError("operator dimension does not match the lattice")
    coo = h_eff.tocoo()
    edge = (coo.row != coo.col) & (coo.data != 0)
    rows, cols = coo.row[edge], coo.col[edge]
    site = np.frexp(rows ^ cols)[1] - 1  # the highest bit in which the two ends differ
    if not np.array_equal(rows ^ cols, np.left_shift(1, site)):
        raise FragmentError("an off-diagonal entry flips more than one bit; not a constrained model")
    masks = np.zeros((n, 1 << n), dtype=bool)
    masks[site, rows] = masks[site, cols] = True  # both ends, so an entry stored one way counts too
    return census(lattice, masks.reshape((n,) + _view(n)))


def refinement_check(
    homogeneous_report: FragmentReport,
    inhomogeneous_report: FragmentReport,
    masks_hom,
    masks_inhom,
) -> bool:
    """True iff the inhomogeneous partition refines the homogeneous one.

    Checked both ways: every inhomogeneous fragment maps into a single
    homogeneous fragment, and every flip the inhomogeneous masks allow the
    homogeneous masks allow too.  Raises FragmentError if the reports and
    masks do not all act on the same basis.
    """
    hom, inhom = homogeneous_report.labels, inhomogeneous_report.labels
    n = hom.shape[0].bit_length() - 1
    if inhom.shape != hom.shape or hom.shape != (1 << n,):
        raise FragmentError(f"refinement check needs one basis: reports over {hom.shape} and {inhom.shape} states")
    masks_hom, masks_inhom = _site_masks(n, masks_hom), _site_masks(n, masks_inhom)
    # the homogeneous label is constant on each inhomogeneous fragment iff it
    # agrees with the label of that fragment's minimum member
    if not np.array_equal(hom[inhom], hom):
        return False
    return not any(np.any(m_in & ~m_hom) for m_hom, m_in in zip(masks_hom, masks_inhom))
