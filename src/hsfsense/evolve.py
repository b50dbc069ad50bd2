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
output's budget raises EvolutionError.  The recurrence runs in real
arithmetic (H is real): a complex start state is marched as its real part and
its imaginary part, and only the outputs are complex.  Only the coefficients
depend on t, so one series from the start state gives every time of a grid,
each time stopping at its own Bessel tail.  The recurrence also carries the
exact derivative in ``value``.  hbar = 1; times are in inverse energy units.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import EvolutionError
from .hamiltonian import TransverseFieldOperator

_TAIL_TOL = 1e-15  # truncation error of one output, relative to the norm of the state
_SIGNS = np.array([1.0, 1.0, -1.0, -1.0])  # (-1)^floor(k/2) by k mod 4


def _gershgorin(diag, radius) -> tuple[float, float]:
    """Spectral interval of a Hermitian operator from its diagonal and off-diagonal absolute row sums."""
    return float(np.min(diag - radius)), float(np.max(diag + radius))


def _norm(v: np.ndarray, scratch: np.ndarray) -> float:
    """||v||, squared into the start of ``scratch`` and summed pairwise: BLAS's idle threads would spin."""
    v = v.view(np.float64)
    x = np.multiply(v, v, out=scratch[: v.size])
    return float(np.sqrt(np.sum(x)))


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
    Gershgorin interval [min diag - |value| |S|, max diag + |value| |S|].
    ``evolve``, ``evolve_grid`` and ``evolve_tangent`` leave their input state
    unchanged.
    """

    def __init__(self, hamiltonian: TransverseFieldOperator):
        if not isinstance(hamiltonian, TransverseFieldOperator):
            raise EvolutionError(f"generator must be a TransverseFieldOperator, got {type(hamiltonian).__name__}")
        self.hamiltonian = hamiltonian
        diag = 0.0 if hamiltonian.diag is None else hamiltonian.diag
        self.interval = _gershgorin(diag, abs(hamiltonian.value) * len(hamiltonian.sites))
        lo, hi = self.interval
        self._center = 0.5 * (lo + hi)
        self._radius = max(0.5 * (hi - lo), 1e-300)
        # 2 (H - c)/r is its flip part (2 value/r) S plus this diagonal
        self._shift = (2.0 / self._radius) * (diag - self._center)

    def evolve(self, state: np.ndarray, t: float) -> np.ndarray:
        """e^{-iHt} |state>."""
        return self._series(state, [t])[0][0]

    def evolve_grid(self, state: np.ndarray, ts) -> list[np.ndarray]:
        """States at each time in ``ts``, returned in the order of ``ts``.

        One series from ``state`` gives every point: entry j is e^{-iH t_j} state,
        exactly what ``evolve(state, t_j)`` returns.  No state is carried from one
        point to the next, so errors do not add up along the grid.
        """
        return [psi for psi, _ in self._series(state, ts)]

    def evolve_tangent(self, state: np.ndarray, t: float) -> tuple[np.ndarray, np.ndarray]:
        """(e^{-iHt} psi, d/dvalue e^{-iHt} psi) for H = diag + value * S, with
        the interval held fixed."""
        return self._series(state, [t], tangent=True)[0]

    def _coefficients(self, t: float, tangent: bool) -> tuple[complex, np.ndarray]:
        """(e^{-ict}, b) for the terms the series at time t keeps, where
        b_k = (2 - delta_k0) (-1)^floor(k/2) J_k(rt).

        The series coefficient (2 - delta_k0) (-i)^k J_k is b_k for even k and
        -i b_k for odd k.  It stops where twice the tail sum of Kapteyn's bound
        on |J_k| drops below _TAIL_TOL.  The bound is rigorous and needs no
        values: the FFT's absolute rounding (~1e-16) would keep a tail of its
        values above _TAIL_TOL once the tangent weight multiplies it.  For the tangent
        the bound is weighted by 1 + k^2 ||S||/r, which bounds ||dT_k(H_s)/dvalue||
        (Markov: |T_k'| <= k^2 on [-1, 1]) with ||S|| <= len(sites).
        """
        x = self._radius * t
        k = np.arange(int(1.5 * abs(x)) + 40)
        weight = 1.0 + k * k * len(self.hamiltonian.sites) / self._radius if tangent else 1.0
        tail = 2.0 * np.cumsum((_bessel_bound(k, x) * weight)[::-1])[::-1]
        if not tail[-1] < _TAIL_TOL:
            raise EvolutionError(f"Chebyshev series for t={t:.6g} does not converge in {k.size} terms")
        n_terms = int(np.argmax(tail < _TAIL_TOL))
        b = 2.0 * _SIGNS[k[:n_terms] % 4] * _bessel_j(x, n_terms)
        b[0] *= 0.5
        return np.exp(-1j * self._center * t), b

    def _recur(self, cur: np.ndarray, prev: np.ndarray, out: np.ndarray, flips_done: bool = False) -> None:
        """``out`` = 2 H_s cur - prev, using ``prev`` as scratch; with ``flips_done``
        ``out`` already holds the flip part (2 value/r) S cur."""
        if not flips_done:
            self.hamiltonian.flip_sum(cur, out)
            out *= 2.0 * self.hamiltonian.value / self._radius
        out -= prev
        np.multiply(cur, self._shift, out=prev)
        out += prev

    def _series(self, state: np.ndarray, ts, tangent: bool = False) -> list:
        """One Chebyshev series from ``state`` for every time in ``ts``: a list of
        (e^{-iHt} psi, its tangent or None), one pair per t.

        H is real, so e^{-iHt}(a + ib) = e^{-iHt} a + i e^{-iHt} b, and so is the
        tangent: a complex state is marched as its real part and its imaginary
        part, a real one as itself.  The norm of each output is held to its
        truncation and rounding budget.
        """
        if state.shape != (self.hamiltonian.shape[0],):
            raise EvolutionError("state/Hamiltonian dimension mismatch")
        for t in ts:
            if not np.isfinite(t):
                raise EvolutionError(f"time must be finite, got {t}")
        rows = [self._coefficients(t, tangent) for t in ts]
        work = np.empty((6 if tangent else 3, state.shape[0]))
        parts = [np.ascontiguousarray(np.real(state), dtype=float)]
        if np.any(np.imag(state)):
            parts.append(np.ascontiguousarray(np.imag(state), dtype=float))
        out = self._march(parts[0], rows, 1.0, work)
        if len(parts) == 2:
            for (psi, dpsi), (ipsi, idpsi) in zip(out, self._march(parts[1], rows, 1j, work)):
                psi += ipsi
                if tangent:
                    dpsi += idpsi
        # a unitary step keeps the norm up to truncation and rounding
        scratch = work.reshape(-1)
        norm = math.hypot(*(_norm(part, scratch) for part in parts))
        for t, (_, b), (psi, _) in zip(ts, rows, out):
            drift = abs(_norm(psi, scratch) - norm)
            budget = (_TAIL_TOL + 8 * b.size * np.finfo(float).eps) * norm
            if drift > budget:
                raise EvolutionError(
                    f"Chebyshev series at t={t:.6g} changed the norm by {drift:.3g} (budget {budget:.3g}); "
                    f"the interval {self.interval} does not hold the spectrum"
                )
        return out

    def _march(self, psi: np.ndarray, rows: list, unit: complex, work: np.ndarray) -> list:
        """unit * (e^{-iHt} psi, its tangent or None) for each row (e^{-ict}, b) from a
        real psi; ``work`` holds the recurrence's vectors, three, or six to carry
        the tangent.

        p_k = T_k(H_s) psi obeys p_{k+1} = 2 H_s p_k - p_{k-1}; its derivative q_k
        in ``value`` obeys q_{k+1} = 2 H_s q_k + (2/r) S p_k - q_{k-1}.  From
        p_{-1} = q_{-1} = q_0 = 0 the first term is half the recurrence.  The
        vectors do not depend on t, so one recurrence serves every row of the
        coefficient matrix; row j stops at its own Bessel tail.  H_s is real, so
        every p_k and q_k is real: each row sums its even and odd terms apart with
        the real b_k and is e^{-ict} (even - i odd).
        """
        tangent = work.shape[0] == 6
        accs = [np.zeros((2,) + psi.shape) for _ in rows]
        daccs = [np.zeros_like(acc) if tangent else None for acc in accs]
        for (_, b), acc in zip(rows, accs):
            np.multiply(psi, b[0], out=acc[0])
        pp, pc, pn, qp, qc, qn = list(work) + [None] * (6 - work.shape[0])
        np.copyto(pc, psi)
        for buf in (pp, qp, qc) if tangent else (pp,):
            buf.fill(0.0)
        for k in range(1, max((b.size for _, b in rows), default=0)):  # 2 flip sums per term with the tangent, 1 without
            if tangent:
                self._recur(qc, qp, qn)
                self.hamiltonian.flip_sum(pc, pn)  # S p_{k-1}, shared by both recurrences
                np.multiply(pn, 2.0 / self._radius, out=qp)
                qn += qp  # q_k
                pn *= 2.0 * self.hamiltonian.value / self._radius
            self._recur(pc, pp, pn, flips_done=tangent)  # p_k
            pp, pc, pn = pc, pn, pp
            qp, qc, qn = qc, qn, qp
            if k == 1:
                pc *= 0.5
                if tangent:
                    qc *= 0.5
            for (_, b), acc, dacc in zip(rows, accs, daccs):  # in-place numpy: BLAS's idle threads would spin
                if k < b.size:
                    np.multiply(pc, b[k], out=pn)
                    acc[k % 2] += pn
                    if tangent:
                        np.multiply(qc, b[k], out=qn)
                        dacc[k % 2] += qn
        for j, (phase, _) in enumerate(rows):  # each row's lanes are freed as its output is made
            accs[j] = _output(accs[j], unit * phase)
            daccs[j] = None if daccs[j] is None else _output(daccs[j], unit * phase)
        return list(zip(accs, daccs))


def _output(acc: np.ndarray, phase: complex) -> np.ndarray:
    """A row's output from its even and odd lanes: phase (even - i odd)."""
    out = np.empty(acc.shape[1], dtype=complex)
    out.real = acc[0]
    np.negative(acc[1], out=out.imag)
    out *= phase
    return out


def dynamical_fidelity_grid(
    psi0: np.ndarray,
    h_ideal: TransverseFieldOperator,
    h_actual: TransverseFieldOperator,
    ts,
) -> np.ndarray:
    """|<psi0| e^{+i h_ideal t} e^{-i h_actual t} |psi0>|^2 at each t in ``ts``."""
    if h_ideal.shape != h_actual.shape or psi0.shape[0] != h_ideal.shape[0]:
        raise EvolutionError("dimension mismatch between state and Hamiltonians")
    ideal = EvolutionEngine(h_ideal).evolve_grid(psi0, ts)
    actual = EvolutionEngine(h_actual).evolve_grid(psi0, ts)
    return np.array([abs(np.sum(a.conj() * b)) ** 2 for a, b in zip(ideal, actual)])  # not BLAS's vdot
