"""Census of dynamically disconnected subspaces of the constrained dynamics.

Basis states are vertices.  Each constrained model flips one site at a time:
site i joins state s to s ^ 2^i wherever its allowed-flip mask holds (the
``flip_masks_*`` generators of ``hamiltonian``, which the ``build_h_eff_*``
builders assemble too), and no mask depends on the bit it flips.  ``census``
labels the connected components straight from those masks, with no matrix,
by Shiloach and Vishkin's hooking (J. Algorithms 3, 57, 1982): every state
starts as its own label, one sweep lowers both ends of every allowed flip to
their minimum, and a jump replaces each label by its label's label until
nothing moves.  Then, while some allowed flip joins two different roots, the
larger root of each such flip is hooked onto the smaller and the labels jump
again.  At the end each state is labelled by the minimum member of its
fragment.  Each fragment is tagged with its sector, which is well defined
because every allowed flip keeps the domain-wall number; that is checked at
the flips, before the sweep.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import FragmentError
from .hamiltonian import _anti_aligned, _dw_counts, _expand, _view
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
        # one column at a time: a reduction along axis 0 of the (F, 3) table is several times slower
        maxima = [int(table[:, k].max(initial=0)) for k in range(table.shape[1])]
        # each column is as wide as its maximum's digits; is_frozen has one
        widths = [len(str(v)) for v in maxima] + [1]
        # uint32 divides faster, but only while every value fits
        dtype = np.uint32 if max(maxima) < 1 << 32 else np.int64
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
            # row after row, without the 0 bytes
            chunks.append(text.T.tobytes().translate(None, b"\0").decode("ascii"))
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


def _halves(labels: np.ndarray, i: int, mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``labels`` as a (-1, 2, 2^i) view, bit i its middle axis, and the mask on the half where bit i is 0."""
    n = labels.shape[0].bit_length() - 1
    # the mask is the same on both halves, so one of them serves both
    return labels.reshape(-1, 2, 1 << i), _expand(n, mask).reshape(-1, 2, 1 << i)[:, 0]


def _dw_change(lattice: Lattice, site: int) -> np.ndarray:
    """Change of the domain-wall number when ``site`` flips, broadcastable to ``_view``."""
    slots = lattice.neighbors(site)
    # an aligned bond at the site turns anti-aligned (+1), an anti-aligned one aligned (-1)
    anti = sum((_anti_aligned(lattice, site, j) for j in slots), np.zeros(1, dtype=np.int8))
    return len(slots) - 2 * anti


def census(lattice: Lattice, masks) -> FragmentReport:
    """Fragments of the flips that ``masks`` allow: one row (dw sector, minimum state, size) each.

    ``masks`` holds one boolean array per site, in site order, broadcastable
    to ``hamiltonian._view``; site i flips between s and s ^ 2^i wherever its
    mask holds, and the mask must not depend on bit i.  Raises FragmentError
    if there is not one mask per site or an allowed flip changes the
    domain-wall number.

    One min-label sweep and a jump leave most flips inside one label; the
    flips still open then hook root onto root (``labels[larger] = smaller``,
    then a jump) until none is open.  Roots only point at smaller roots, so
    no cycle forms, and the minimum member of a fragment stays its root.
    """
    n = lattice.n_sites
    # an all-false mask joins nothing, so only the others are swept
    active = [(i, mask) for i, mask in enumerate(_site_masks(n, masks)) if mask.any()]
    # a fragment spans two sectors iff one of its flips changes the domain-wall number
    if any(np.any(mask & (_dw_change(lattice, i) != 0)) for i, mask in active):
        raise FragmentError("an allowed flip changes the domain-wall number; not a constrained model")

    labels = np.arange(1 << n, dtype=np.int32 if n < 31 else np.int64)
    for i, mask in active:
        pairs, allowed = _halves(labels, i, mask)
        # below _COLUMNS, one long strided column at a time: numpy's loops are slow on short rows
        for j in range(1 << i) if i < _COLUMNS else [slice(None)]:
            lo, hi, where = pairs[:, 0, j], pairs[:, 1, j], allowed[:, j]
            # a plain minimum and two masked copies beat two masked minimums where masks vary fast
            low = np.minimum(lo, hi)
            np.copyto(lo, low, where=where)
            np.copyto(hi, low, where=where)
    labels = _jump(labels)

    # the open flips: allowed, with two different labels; their ends with bit i clear and set
    lo, hi = [labels[:0]], [labels[:0]]  # empty starts, so no active site gives no flips
    for i, mask in active:
        pairs, allowed = _halves(labels, i, mask)
        half = np.flatnonzero(allowed & (pairs[:, 0] != pairs[:, 1])).astype(labels.dtype)
        lo.append((half >> i << (i + 1)) | (half & ((1 << i) - 1)))  # bit i put back, as 0
        hi.append(lo[-1] | 1 << i)
    lo, hi = np.concatenate(lo), np.concatenate(hi)
    while True:
        # after a jump every label is a root, so both ends' labels are the roots the flip joins
        lo, hi = labels[lo], labels[hi]
        still = lo != hi
        if not still.any():
            break
        lo, hi = lo[still], hi[still]
        # of duplicate indices any value may win; each is below the root it replaces, so labels only fall
        labels[np.maximum(lo, hi)] = np.minimum(lo, hi)
        labels = _jump(labels)

    # every label is a state index, so a count per index gives the ascending roots and their sizes
    counts = np.bincount(labels, minlength=labels.shape[0])
    roots = np.flatnonzero(counts)
    sectors = _dw_counts(lattice).reshape(-1)[roots]
    return FragmentReport(labels=labels, fragments=np.column_stack((sectors, roots, counts[roots])))


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
