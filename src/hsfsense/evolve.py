"""Exact unitary time evolution and derived diagnostics.

The generator is a matrix-free ``hamiltonian.TransverseFieldOperator``
H = diag + value * S.  One propagator: the Chebyshev expansion of exp(-iHt)
(Tal-Ezer & Kosloff, J. Chem. Phys. 81, 3967, 1984) on the Gershgorin
interval [c - r, c + r] that holds the spectrum,

    e^{-iHt} = e^{-ict} sum_k (2 - delta_k0) (-i)^k J_k(rt) T_k((H - c)/r).

The coefficients (-i)^k J_k(x) are the Fourier coefficients of e^{-ix cos theta}
(Jacobi-Anger), taken from one FFT up to order |x| + 1 and from Miller's
downward recurrence above it, where J_k decays.  The series is truncated where Kapteyn's
bound on the Bessel tail falls below ``_TAIL_TOL``; a norm drift beyond an
output's budget raises EvolutionError.  One real recurrence (H is real)
marches a stack of lanes: the real part of the start state, its imaginary
part if that is nonzero, and with the tangent each part's exact derivative in
``value``; only the outputs are complex.  Every command starts from a real
``states.GHZKet``, which the engine writes into its first stack of lanes one
block at a time, as it reads a caller's array, so no 2^N start vector is held.
Only the coefficients depend on t, so one series from the
start state gives every time of a grid, each time stopping at its own Bessel
tail.  The march keeps two stacks of lanes and writes each term over the one
two before it; the engine keeps no basis-sized array of its own.  Each term is
taken one cache-sized block of basis states at a time
(``TransverseFieldOperator.blocks``), in the order the readout's
``Projector.walk`` gives: its flip sum into a block-sized scratch,
the block's shifted diagonal made from the two small tables of the
``hamiltonian.Diagonal`` (with the center folded into one table, one
broadcast add and one scale), the recurrence and every time's sums,
with the arithmetic of a whole-vector step element by element but for the
flip sum, which sums a nibble of sites that a smaller block cuts partly by
its product and partly by partner adds.  So whole states agree with another
block size's within the march's budget, (_TAIL_TOL + 8 terms eps) times the
norm, not bit for bit.  A readout folds the sites inside a block first and
those at or above it afterwards, so on sites at or above the block its
outputs too agree with another block size's only to rounding.

The series is linear in each term, so one march reads every term through one
linear readout R, a ``states.Projector``, as it is made, as kernel polynomial
methods do (Weisse et al., Rev. Mod. Phys. 78, 275, 2006): the readout hands
over the term's two unweighted GHZ-branch sums.  A grid keeps the last
``_RING_TERMS`` terms' sums in a ring, which each time adds to its R p_k sums
with one small BLAS product by its weighted coefficients (level-3 blocking,
Dongarra et al., ACM TOMS 16, 1, 1990); one time reads each term in place.
On sites that keeps a few entries per state and no 2^N state per time
(``readout_grid``, ``readout_tangent``; ``bound``, ``sweep`` and
``fidelity``); the same fold on no sites reads the whole state (``evolve``,
``evolve_grid``).
Every march holds the norm of each term to the output's budget, its
coefficients to the Jacobi-Anger sums, and a whole state's norm too.  hbar = 1;
times are in inverse energy units.
"""

from __future__ import annotations

import math

import numpy as np

from . import states
from .errors import EvolutionError
from .hamiltonian import TransverseFieldOperator

_TAIL_TOL = 1e-15  # truncation error of one output, relative to the norm of the state
# the longest series whose coefficients are built (~1.5 r t + 40 terms): they
# take ~0.3 GB while built and the march at N = 16 over half an hour, and the
# arrays grow with r t, so a longer series fails before they are built
_MAX_TERMS = 1 << 20
_SIGNS = np.array([1.0, 1.0, -1.0, -1.0])  # (-1)^floor(k/2) by k mod 4
_RING_TERMS = 4  # K: the terms whose branch sums a grid's rows read with one product each
_WHOLE = np.array([[1.0, 0.0]])  # one bra (c+, c-) on no sites: the identity, which reads the whole state


def _gershgorin(diag, radius) -> tuple[float, float]:
    """Spectral interval of a Hermitian operator from its ``hamiltonian.Diagonal``
    (None for none) and its off-diagonal absolute row sums."""
    lo, hi = (0.0, 0.0) if diag is None else diag.bounds()
    return lo - radius, hi + radius


def _norm(v: np.ndarray) -> float:
    """||v||, squared and summed pairwise by numpy; ``np.linalg.norm`` would call BLAS."""
    return float(np.sqrt(np.sum(np.square(v.view(np.float64)))))


def _bessel_bound(k: np.ndarray, x: float) -> np.ndarray:
    """Kapteyn's bound on |J_k(x)|: 1 for k <= |x|, and for k > |x| with z = |x|/k,
    exp(k (ln z + sqrt(1 - z^2) - ln(1 + sqrt(1 - z^2)))) (Watson, Bessel Functions, 8.7)."""
    bound = np.ones(k.shape)
    above = k > abs(x)
    z = abs(x) / k[above]
    root = np.sqrt(1.0 - z * z)
    with np.errstate(divide="ignore"):  # ln 0 at x = 0: the bound is 0
        bound[above] = np.exp(k[above] * (np.log(z) + root - np.log1p(root)))
    return bound


def _bessel_j(x: float, n_terms: int) -> np.ndarray:
    """J_k(x) for k < n_terms.

    Up to order |x| + 1 from one FFT (Jacobi-Anger: (-i)^k J_k(x) are the
    Fourier coefficients of e^{-ix cos theta}) on M = 2^ceil(log2(2 (n_terms + |x|) + 2))
    points; the aliased orders are at least n_terms + 2|x| + 2, so their J is
    far below the kept tail.  The FFT's rounding is absolute, ~1e-16, while the
    tangent weighs J_k by k^2/x.  So above order |x| + 1, where J_k decays, each
    J_k is the one before times rho_k = J_k/J_{k-1} = x / (2k - x rho_{k+1}),
    Miller's downward recurrence as a continued fraction, started from
    rho = 0 twenty orders above the last.
    """
    m = 1 << math.ceil(math.log2(2.0 * (n_terms + abs(x)) + 2.0))
    c = np.fft.fft(np.exp(-1j * x * np.cos(2.0 * np.pi * np.arange(m) / m)))[:n_terms] / m
    k = np.arange(n_terms)
    j = np.where(k % 2, -c.imag, c.real) * _SIGNS[k % 4]  # (-i)^k = (-1)^floor(k/2) (1 or -i)
    k0 = int(abs(x)) + 1  # the FFT's J_k0 is good to rounding relative to its size: O(k0^(-1/3)), or ~x/2
    if n_terms > k0 + 1:
        rho = np.zeros(n_terms + 21)  # rho[i] = J_i / J_{i-1}
        for i in range(n_terms + 19, k0, -1):
            rho[i] = x / (2.0 * i - x * rho[i + 1])
        j[k0 + 1 :] = j[k0] * np.cumprod(rho[k0 + 1 : n_terms])
    return j


class EvolutionEngine:
    """Propagator e^{-iHt} for a fixed ``TransverseFieldOperator`` H = diag + value * S.

    H is Hermitian by construction and applied matrix-free.  ``interval`` is its
    Gershgorin interval [min diag - |value| |S|, max diag + |value| |S|], with the
    min and max taken from the diagonal's tables.  A start state is a real
    ``states.GHZKet`` or an array over the basis, which no call changes.
    """

    def __init__(self, hamiltonian: TransverseFieldOperator):
        if not isinstance(hamiltonian, TransverseFieldOperator):
            raise EvolutionError(f"generator must be a TransverseFieldOperator, got {type(hamiltonian).__name__}")
        self.hamiltonian = hamiltonian
        self.interval = _gershgorin(hamiltonian.diag, abs(hamiltonian.value) * len(hamiltonian.sites))
        lo, hi = self.interval
        self._center = 0.5 * (lo + hi)
        self._radius = max(0.5 * (hi - lo), 1e-300)
        self._whole = states.Projector(_WHOLE, (), hamiltonian.n_sites)

    def evolve(self, state: np.ndarray | states.GHZKet, t: float) -> np.ndarray:
        """e^{-iHt} |state>."""
        return self.evolve_grid(state, [t])[0]

    def evolve_grid(self, state: np.ndarray | states.GHZKet, ts) -> list[np.ndarray]:
        """States at each time in ``ts``, returned in the order of ``ts``.

        One series from ``state`` gives every point: entry j is e^{-iH t_j} state,
        bit for bit the same in any grid of ``_RING_TERMS`` or more times that
        holds t_j, and ``evolve(state, t_j)``, which reads each term on its own,
        within the march's budget.  No state is carried from one point to the
        next, so errors do not add up along the grid.
        """
        return self.readout_grid(state, ts, self._whole)

    def readout_grid(self, state: np.ndarray | states.GHZKet, ts, readout) -> list[np.ndarray]:
        """``readout.amplitudes`` of the state at each time in ``ts``, in the order
        of ``ts``: the readout (``states.Projector``) takes every Chebyshev term
        as it is made, so only the amplitudes are built."""
        return [r for r, _ in self._series(state, ts, False, readout)]

    def readout_tangent(self, state: np.ndarray | states.GHZKet, t: float, readout) -> tuple[np.ndarray, np.ndarray]:
        """``readout.amplitudes`` of (e^{-iHt} psi, d/dvalue e^{-iHt} psi) for
        H = diag + value * S, with the interval held fixed, made the same way."""
        return self._series(state, [t], True, readout)[0]

    def _coefficients(self, t: float, tangent: bool) -> tuple[complex, np.ndarray]:
        """(e^{-ict}, b) for the terms the series at time t keeps, where
        b_k = (2 - delta_k0) (-1)^floor(k/2) J_k(rt).

        The series coefficient (2 - delta_k0) (-i)^k J_k is b_k for even k and
        -i b_k for odd k.  It stops where twice the tail sum of Kapteyn's bound
        on |J_k| drops below _TAIL_TOL.  The bound is rigorous and needs no
        values: the FFT's absolute rounding (~1e-16) would keep a tail of its
        values above _TAIL_TOL once the tangent weight multiplies it.  For the tangent
        the bound is weighted by 1 + k^2 ||S||/r, which bounds ||dT_k(H_s)/dvalue||
        (Markov: |T_k'| <= k^2 on [-1, 1]) with ||S|| <= len(sites).  By Jacobi-Anger
        at theta = 0 the even b_k sum to cos(rt) and the odd ones to sin(rt), within the budget.
        """
        x = self._radius * t
        if not 1.5 * abs(x) + 40 <= _MAX_TERMS:
            raise EvolutionError(
                f"Chebyshev series for t={t:.6g} (r*t = {x:.6g}) would need more than {_MAX_TERMS} terms"
            )
        k = np.arange(int(1.5 * abs(x)) + 40)
        weight = 1.0 + k * k * len(self.hamiltonian.sites) / self._radius if tangent else 1.0
        tail = 2.0 * np.cumsum((_bessel_bound(k, x) * weight)[::-1])[::-1]
        if not tail[-1] < _TAIL_TOL:
            raise EvolutionError(f"Chebyshev series for t={t:.6g} does not converge in {k.size} terms")
        n_terms = int(np.argmax(tail < _TAIL_TOL))
        b = 2.0 * _SIGNS[k[:n_terms] % 4] * _bessel_j(x, n_terms)
        b[0] *= 0.5
        tol = _TAIL_TOL + 8 * n_terms * np.finfo(float).eps
        miss = max(abs(math.fsum(b[::2]) - math.cos(x)), abs(math.fsum(b[1::2]) - math.sin(x)))
        if not miss <= tol:
            raise EvolutionError(f"Chebyshev coefficients for t={t:.6g} miss cos and sin(rt) by {miss:.3g} > {tol:.3g}")
        return np.exp(-1j * self._center * t), b

    def _series(self, state: np.ndarray | states.GHZKet, ts, tangent: bool, readout) -> list:
        """One Chebyshev series from ``state`` for every time in ``ts``: a list of
        (R e^{-iHt} psi, R of its tangent or None), one pair per t, where R is
        ``readout`` (``states.Projector``; on no sites, the identity).

        H is real, so e^{-iHt}(a + ib) = e^{-iHt} a + i e^{-iHt} b, and so is the
        tangent: the real part of the state, and its imaginary part if that is
        nonzero, are lanes of one real march, each followed by its derivative
        lane with the tangent.  The march holds the norm of every Chebyshev
        term to the output's truncation and rounding budget; a whole state's
        norm is held to it too, which also catches wrong coefficients.
        """
        op = self.hamiltonian
        if readout.n_sites != op.n_sites:
            raise EvolutionError("readout/Hamiltonian dimension mismatch")
        if isinstance(state, states.GHZKet):
            if state.n_sites != op.n_sites:
                raise EvolutionError("state/Hamiltonian dimension mismatch")
            parts = [state]
        else:
            if state.shape != (op.shape[0],):
                raise EvolutionError("state/Hamiltonian dimension mismatch")
            parts = [state.real] + ([state.imag] if np.iscomplexobj(state) and np.any(state.imag) else [])
        for t in ts:
            if not np.isfinite(t):
                raise EvolutionError(f"time must be finite, got {t}")
        rows = [self._coefficients(t, tangent) for t in ts]
        width = 2 if tangent else 1
        lanes = np.zeros((len(parts) * width, op.shape[0]))
        for block in op.blocks():  # the start state, written a block at a time
            for lane, part in zip(lanes[::width], parts):
                if isinstance(part, states.GHZKet):
                    part.block(block, lane[block])
                else:
                    np.copyto(lane[block], part[block])
        # a unitary step keeps the norm up to truncation and rounding
        norm = math.hypot(*(_norm(lane) for lane in lanes[::width]))
        accs = self._march(lanes, rows, tangent, readout, norm)
        out = []
        for j, (t, (phase, b)) in enumerate(zip(ts, rows)):
            acc, accs[j] = accs[j], None  # each row's sums are freed as its output is made
            psi = _output(acc[::width], phase)
            if not readout.sites:
                drift = abs(_norm(psi) - norm)
                budget = (_TAIL_TOL + 8 * b.size * np.finfo(float).eps) * norm
                if drift > budget:
                    raise EvolutionError(
                        f"Chebyshev series at t={t:.6g} changed the norm by {drift:.3g} (budget {budget:.3g})"
                    )
            out.append((psi, _output(acc[1::width], phase) if tangent else None))
        return out

    def _march(self, lanes: np.ndarray, rows: list, tangent: bool, readout, norm: float) -> list:
        """Each row's sums, an array (lanes, 2 bras, entries) of the real part
        and minus the imaginary part for each bra of sum_k c_k R p_k, from one
        recurrence that marches the real ``lanes`` in place.

        p_k = T_k(H_s) p_0 obeys p_{k+1} = 2 H_s p_k - p_{k-1}.  With the tangent
        every other lane is the derivative q_k of the lane before it in ``value``,
        which starts at zero and obeys q_{k+1} = 2 H_s q_k + (2/r) S p_k - q_{k-1}:
        the series of the block generator [[H, S], [0, H]] (Van Loan, IEEE TAC 23,
        395, 1978).  From p_{-1} = q_{-1} = 0 the first term is half the
        recurrence.  The lanes do not depend on t, so one recurrence serves every
        row (e^{-ict}, b) of the coefficient matrix; row j stops at its own Bessel
        tail.  The readout gives each term's real branch sums, the sum and the
        parity-signed sum over its sites, which a bra weighs by w, its
        ``branch_weights``.  As c_k is b_k for even k and -i b_k for odd k, a
        branch adds (Re w, -Im w) b_k branch to a row's (Re, -Im) sums at even
        k and (Im w, Re w) b_k branch at odd k.  With K = min(_RING_TERMS,
        rows), a row keeps a (2 bras, 2 K) matrix whose slot k mod K holds
        term k's weights (0 past its series or the march), and the march a
        ring (2 K, lanes, entries) of the last K terms' branch sums.  When a
        group's window of K terms, or the march, ends, each row reaching into
        it adds its matrix times the ring's slice (one ``np.matmul`` over the
        lanes) to its sums: the same products in any grid of K or more times.
        One row (K = 1) reads the readout's sums in place.

        The march holds two stacks of lanes, p_{k-1} and p_{k-2}, and writes
        p_k over p_{k-2} (as kernel polynomial codes do).  A term is taken one
        block of ``hamiltonian.blocks()`` at a time: the flip sum of the block
        (``flip_block``, which reads the block and its partner blocks of
        p_{k-1}) goes to a block-sized scratch, and the drive, the recurrence
        with the diagonal 2 (diag - c)/r made for the block from the tables
        (``Diagonal.block`` of the diagonal shifted by -c), the halving at
        k = 1, the readout and every row's sums run on that block while it is
        in cache.  A term never writes p_{k-1} and reads p_{k-2} only in its
        own block, so the block overwrites it in place, the two stacks swap
        once the term is done, and the blocks may run in any order: the
        readout's ``walk`` sets it, so a group's branch sums are complete at
        its last block, and the norm is an exact sum (``math.fsum``) that does
        not depend on it.  Each element gets the operations of a
        whole-vector step in the same order, but for a flip sum's nibble that
        a smaller block cuts, and each readout entry is added to the rows once
        its window is complete; a readout on sites at or above the block folds
        them in another order.  So the sums agree with another block size's
        only to rounding.
        p_k of the state lanes keeps the start norm up to rounding only
        if the interval holds the spectrum (|T_k| <= 1 on [-1, 1]); a term
        beyond the output budget raises EvolutionError.
        """
        width = 2 if tangent else 1
        op = self.hamiltonian
        blocks = op.blocks()
        order, term = readout.walk(blocks), readout.buffer(len(lanes), len(blocks))
        w = readout.branch_weights
        weights = (np.concatenate((w.real, -w.imag)), np.concatenate((w.imag, w.real)))  # even k, odd k
        ring_terms = min(_RING_TERMS, len(rows))
        size = readout.size // len(w)
        ring = np.zeros((2 * ring_terms, len(lanes), size)) if ring_terms > 1 else None
        coefs = [np.zeros((2 * len(w), 2 * ring_terms)) for _ in rows]
        accs = [np.zeros((len(lanes), 2 * len(w), size)) for _ in rows]
        product = np.empty((len(lanes), 2 * len(w), order[0][2].stop - order[0][2].start))
        n_terms = max((b.size for _, b in rows), default=0)
        budget = (_TAIL_TOL + 8 * n_terms * np.finfo(float).eps) * norm
        # 2 (H - c)/r is its flip part (2 value/r) S plus the diagonal (2/r)(diag - c)
        scale = 2.0 / self._radius
        # a scalar shift, not a zero Diagonal: the same bits, but ~15% less CPU in the hsf_ideal march at 3x6
        if op.diag is None:
            shift = scale * (0.0 - self._center)
        else:  # the center folded into the diagonal's small table once
            diag, shift = op.diag.shifted(-self._center), np.empty(blocks[0].stop)
        prev, cur = lanes, np.zeros_like(lanes)  # term 0 reads p_0, then the stacks swap
        work = np.empty((len(lanes), blocks[0].stop))  # a block's flip sum, then scratch
        drive = np.empty_like(work[::width]) if tangent else None
        for k in range(n_terms):  # one flip sum over every lane per term after the first
            slot, last = k % ring_terms, k == n_terms - 1
            live = [(b, coef, acc) for (_, b), coef, acc in zip(rows, coefs, accs) if b.size > k - slot]
            for b, coef, _ in live:  # the row's slot for term k: 0 past its series
                np.multiply(weights[k % 2], b[k] if k < b.size else 0.0, out=coef[:, 2 * slot : 2 * slot + 2])
                if last:  # slots of terms the march does not make
                    coef[:, 2 * slot + 2 :] = 0.0
            squares = []
            for block, column, entries in order:
                p = prev[:, block]  # p_{k-2}, overwritten with p_k; p_0 itself at k = 0
                if k:
                    op.flip_block(cur, work, block)
                    if tangent:
                        np.multiply(work[::2], scale, out=drive)  # (2/r) S p_{k-1}
                    work *= 2.0 * op.value / self._radius
                    np.subtract(work, p, out=p)
                    if op.diag is not None:
                        diag.block(block, shift)
                        shift *= scale
                    np.multiply(cur[:, block], shift, out=work)
                    p += work
                    if tangent:
                        p[1::2] += drive
                    if k == 1:
                        p *= 0.5
                    # work is free: summed pairwise, not by BLAS
                    np.multiply(p[::width], p[::width], out=work[::width])
                    squares.extend(np.sum(work[::width], axis=-1).tolist())
                sums = readout.take(p, column, term)
                if sums is None:
                    continue
                if ring is not None:  # the group's sums wait in the ring until its window is complete
                    ring[2 * slot : 2 * slot + 2, :, entries] = sums
                    sums = ring[:, :, entries]
                if slot == ring_terms - 1 or last:
                    for _, coef, acc in live:  # one BLAS product per row and window, lane by lane
                        np.matmul(coef, sums.transpose(1, 0, 2), out=product)
                        acc[:, :, entries] += product
            length = math.sqrt(math.fsum(squares))
            if k and not length - norm <= budget:  # term 0 is the start state
                raise EvolutionError(
                    f"Chebyshev term {k} of {n_terms} has norm {length:.6g}, the start state {norm:.6g} "
                    f"(budget {budget:.3g}); the interval {self.interval} does not hold the spectrum"
                )
            prev, cur = cur, prev
        return accs


def _output(acc: np.ndarray, phase: complex) -> np.ndarray:
    """An output from the sums (parts, 2 bras, entries), the real part and
    minus the imaginary part for each bra, of the real part of the state and,
    if it was marched, its imaginary part: the sum of i^part phase (re - i minus_im),
    one entry per configuration of the other sites and bra."""
    out = None
    for sums, unit in zip(acc, (1.0, 1j)):
        re, minus_im = sums.reshape(2, -1, sums.shape[-1])
        part = np.empty(re.T.shape, dtype=complex)
        part.real = re.T
        np.negative(minus_im.T, out=part.imag)
        part *= unit * phase
        if out is None:
            out = part
        else:
            out += part
    return out.reshape(-1)


def dynamical_fidelity_grid(h_actual: TransverseFieldOperator, omega: float, ts) -> np.ndarray:
    """|<GHZ| e^{+i h_ideal t} e^{-i h_actual t} |GHZ>|^2 at each t in ``ts``, for
    GHZ = (|+...+> + |-...->)/sqrt(2) on the n sites of ``h_actual`` (a
    ``states.GHZKet``, which the march writes block by block) and the ideal
    drive h_ideal = (omega/2) sum_i sigma^x_i.

    h_ideal only phases the two branches:
    e^{-i h_ideal t} |GHZ> = (e^{-i n omega t/2} |+...+> + e^{+i n omega t/2} |-...->)/sqrt(2),
    so the overlap is (e^{+i n omega t/2} <+...+|psi> + e^{-i n omega t/2} <-...-|psi>)/sqrt(2)
    with psi = e^{-i h_actual t} |GHZ>: one march and two overlaps per Chebyshev term.
    """
    if not np.isfinite(omega):
        raise EvolutionError(f"omega must be finite, got {omega}")
    n = h_actual.n_sites
    ts = np.asarray(ts, dtype=float)
    branches = states.Projector(np.eye(2), tuple(range(n)), n)
    plus_minus = EvolutionEngine(h_actual).readout_grid(states.GHZKet(range(n), 0, n), ts, branches)
    turn = np.exp(0.5j * n * omega * ts)
    return np.array([abs(z * plus + z.conjugate() * minus) ** 2 / 2.0 for z, (plus, minus) in zip(turn, plus_minus)])
