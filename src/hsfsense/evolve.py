"""Exact unitary time evolution and derived diagnostics.

The generator is a sparse matrix or a matrix-free
``hamiltonian.TransverseFieldOperator``.  One propagator: the Chebyshev
expansion of exp(-iHt) (Tal-Ezer & Kosloff, J. Chem. Phys. 81, 3967, 1984)
on the Gershgorin interval [c - r, c + r] that holds the spectrum,

    e^{-iHt} = e^{-ict} sum_k (2 - delta_k0) (-i)^k J_k(rt) T_k((H - c)/r),

truncated where the Bessel tail falls below ``_TAIL_TOL``; a norm drift beyond a
step's budget raises EvolutionError.  For ``diag + value * S`` the recurrence also
carries the exact derivative in ``value``.  The decoupled probe drive is applied in
closed form as single-spin rotations.  hbar = 1; times are in inverse energy units.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
import scipy.special

from .errors import EvolutionError
from .hamiltonian import TransverseFieldOperator, is_hermitian
from .states import Projector

_TAIL_TOL = 1e-15  # truncation error of one step, relative to the norm of the state


def _gershgorin(diag, radius) -> tuple[float, float]:
    """Spectral interval of a Hermitian matrix from its diagonal and off-diagonal absolute row sums."""
    return float(np.min(diag - radius)), float(np.max(diag + radius))


def _norm(v: np.ndarray, scratch: np.ndarray) -> float:
    """||v||, squared into ``scratch`` and summed pairwise: BLAS's idle threads would spin."""
    x = np.multiply(v.view(np.float64), v.view(np.float64), out=scratch.view(np.float64))
    return float(np.sqrt(np.sum(x)))


class EvolutionEngine:
    """Propagator e^{-iHt} for a fixed Hermitian Hamiltonian.

    ``hamiltonian`` is a sparse matrix (checked Hermitian here) or a
    ``TransverseFieldOperator`` (Hermitian by construction, applied
    matrix-free).  ``interval`` is its Gershgorin interval.  ``evolve``,
    ``evolve_grid`` and ``evolve_tangent`` leave their input state unchanged.
    """

    def __init__(self, hamiltonian):
        if isinstance(hamiltonian, TransverseFieldOperator):
            diag = 0.0 if hamiltonian.diag is None else hamiltonian.diag
            radius = abs(hamiltonian.value) * len(hamiltonian.sites)
            self._off = None
        else:
            if hamiltonian.shape[0] != hamiltonian.shape[1]:
                raise EvolutionError("Hamiltonian must be square")
            if not is_hermitian(hamiltonian, tol=1e-12):
                raise EvolutionError("Hamiltonian must be Hermitian")
            hamiltonian = hamiltonian.tocsr()
            diag = hamiltonian.diagonal().real
            self._off = (hamiltonian - sp.diags(diag)).tocsr()
            radius = np.asarray(abs(self._off).sum(axis=1)).ravel()
        self.hamiltonian = hamiltonian
        self.interval = _gershgorin(diag, radius)
        lo, hi = self.interval
        self._center = 0.5 * (lo + hi)
        self._radius = max(0.5 * (hi - lo), 1e-300)
        # 2 (H - c)/r is its off-diagonal part times 2/r plus this diagonal
        self._shift = (2.0 / self._radius) * (diag - self._center)
        self._off = None if self._off is None else self._off * (2.0 / self._radius)
        self._coeffs: dict = {}
        self._work: list = []

    def evolve(self, state: np.ndarray, t: float) -> np.ndarray:
        """e^{-iHt} |state>."""
        return self._series(state, t)[0]

    def evolve_grid(self, state: np.ndarray, ts) -> list[np.ndarray]:
        """States at each time in ``ts``, returned in the order of ``ts``.

        The march goes through the times in sorted order, each step starting
        from the previous point, so the per-step errors add up along the grid.
        """
        out: list = [None] * len(ts)
        current, t_now = state, 0.0
        for k in np.argsort(ts):
            current, t_now = self._series(current, ts[k] - t_now)[0], ts[k]
            out[k] = current
        return out

    def evolve_tangent(self, state: np.ndarray, t: float) -> tuple[np.ndarray, np.ndarray]:
        """(e^{-iHt} psi, d/dvalue e^{-iHt} psi) for a ``TransverseFieldOperator``
        H = diag + value * S, with the interval held fixed."""
        if not isinstance(self.hamiltonian, TransverseFieldOperator):
            raise EvolutionError("the tangent needs a TransverseFieldOperator")
        return self._series(state, t, tangent=True)

    def _coefficients(self, dt: float, tangent: bool) -> np.ndarray:
        """e^{-icdt} (2 - delta_k0) (-i)^k J_k(r dt) for the terms one step keeps, cached per dt.

        The series stops where twice the tail sum of |J_k| drops below _TAIL_TOL.  For
        the tangent |J_k| is weighted by 1 + k^2 ||S||/r, which bounds ||dT_k(H_s)/dvalue||
        (Markov: |T_k'| <= k^2 on [-1, 1]) with ||S|| <= len(sites).
        """
        key = (dt, tangent)
        if key not in self._coeffs:
            x = self._radius * dt
            k = np.arange(int(1.5 * abs(x)) + 40)
            j = scipy.special.jv(k, x)
            weight = 1.0 + k * k * len(self.hamiltonian.sites) / self._radius if tangent else 1.0
            tail = 2.0 * np.cumsum((np.abs(j) * weight)[::-1])[::-1]
            if not tail[-1] < _TAIL_TOL:
                raise EvolutionError(f"Chebyshev series for dt={dt:.6g} does not converge in {k.size} terms")
            n_terms = int(np.argmax(tail < _TAIL_TOL))
            a = 2.0 * (-1j) ** (k[:n_terms] % 4) * j[:n_terms]
            a[0] = j[0]
            self._coeffs[key] = a * np.exp(-1j * self._center * dt)
        return self._coeffs[key]

    def _recur(self, cur: np.ndarray, prev: np.ndarray, out: np.ndarray, off_done: bool = False) -> None:
        """``out`` = 2 H_s cur - prev, using ``prev`` as scratch; with ``off_done``
        (operators only) ``out`` already holds the off-diagonal part (2/r)(H - diag H) cur.

        A real sparse H acts on the (dim, 2) real view of cur: no upcast of its data."""
        h = self.hamiltonian
        if isinstance(h, TransverseFieldOperator):
            if not off_done:
                h.flip_sum(cur, out)
                out *= 2.0 * h.value / self._radius
        elif self._off.dtype.kind == "c":
            np.copyto(out, self._off @ cur)
        else:
            np.copyto(out.view(np.float64).reshape(-1, 2), self._off @ cur.view(np.float64).reshape(-1, 2))
        out -= prev
        np.multiply(cur, self._shift, out=prev)
        out += prev

    def _series(self, state: np.ndarray, dt: float, tangent: bool = False):
        """One Chebyshev step of length ``dt``: (e^{-iH dt} psi, its tangent or None).

        p_k = T_k(H_s) psi obeys p_{k+1} = 2 H_s p_k - p_{k-1}; its derivative q_k
        in ``value`` obeys q_{k+1} = 2 H_s q_k + (2/r) S p_k - q_{k-1}.  From
        p_{-1} = q_{-1} = q_0 = 0 the first term is half the recurrence.
        """
        if state.shape != (self.hamiltonian.shape[0],):
            raise EvolutionError("state/Hamiltonian dimension mismatch")
        if not np.isfinite(dt):
            raise EvolutionError(f"time must be finite, got {dt}")
        psi = np.ascontiguousarray(state, dtype=complex)
        a = self._coefficients(dt, tangent)
        count = 6 if tangent else 3  # work vectors, allocated once per engine
        self._work += [np.empty_like(psi) for _ in range(count - len(self._work))]
        pp, pc, pn, qp, qc, qn = self._work[:count] + [None] * (6 - count)
        out, dout = a[0] * psi, (np.zeros_like(psi) if tangent else None)
        np.copyto(pc, psi)
        for buf in (pp, qp, qc) if tangent else (pp,):
            buf.fill(0.0)
        for k in range(1, len(a)):  # 2 flip sums per term with the tangent, 1 without
            if tangent:
                self._recur(qc, qp, qn)
                self.hamiltonian.flip_sum(pc, pn)  # S p_{k-1}, shared by both recurrences
                np.multiply(pn, 2.0 / self._radius, out=qp)
                qn += qp  # q_k
                pn *= 2.0 * self.hamiltonian.value / self._radius
            self._recur(pc, pp, pn, off_done=tangent)  # p_k
            pp, pc, pn = pc, pn, pp
            if k == 1:
                pc *= 0.5
            np.multiply(pc, a[k], out=pn)
            out += pn
            if tangent:
                qp, qc, qn = qc, qn, qp
                if k == 1:
                    qc *= 0.5
                np.multiply(qc, a[k], out=qn)
                dout += qn
        # a unitary step keeps the norm up to truncation and rounding
        norm = _norm(psi, pn)
        drift = abs(_norm(out, pn) - norm)
        budget = (_TAIL_TOL + 8 * len(a) * np.finfo(float).eps) * norm
        if drift > budget:
            raise EvolutionError(
                f"Chebyshev step dt={dt:.6g} changed the norm by {drift:.3g} (budget {budget:.3g}); "
                f"the interval {self.interval} does not hold the spectrum"
            )
        return out, dout


def dynamical_fidelity_grid(
    psi0: np.ndarray,
    h_ideal: sp.spmatrix | TransverseFieldOperator,
    h_actual: sp.spmatrix | TransverseFieldOperator,
    ts,
) -> np.ndarray:
    """|<psi0| e^{+i h_ideal t} e^{-i h_actual t} |psi0>|^2 at each t in ``ts``."""
    if h_ideal.shape != h_actual.shape or psi0.shape[0] != h_ideal.shape[0]:
        raise EvolutionError("dimension mismatch between state and Hamiltonians")
    ideal = EvolutionEngine(h_ideal).evolve_grid(psi0, ts)
    actual = EvolutionEngine(h_actual).evolve_grid(psi0, ts)
    return np.array([abs(np.vdot(a, b)) ** 2 for a, b in zip(ideal, actual)])


def probe_drive_grid(state: np.ndarray, probe_sites, omega: float, ts) -> list[np.ndarray]:
    """exp(-i t (omega/2) sum_{p in probe_sites} sigma^x_p)|state> at each t in ``ts``.

    The drive's terms commute, so its propagator is the product of the
    rotations cos(omega t/2) - i sin(omega t/2) sigma^x_p.  Each one acts on
    the state reshaped to (2,)*N, where sigma^x_p flips axis N-1-p (bit p of
    the basis index).
    """
    state = np.asarray(state, dtype=complex)
    n = state.shape[0].bit_length() - 1
    if state.shape != (1 << n,):
        raise EvolutionError(f"state of shape {state.shape} is not a vector over 2^N basis states")
    if any(not 0 <= p < n for p in probe_sites):
        raise EvolutionError(f"probe sites {sorted(probe_sites)} out of range for {n} sites")
    out = []
    for t in ts:
        cos, sin = np.cos(0.5 * omega * t), np.sin(0.5 * omega * t)
        psi = state.reshape((2,) * n)
        for p in probe_sites:
            psi = cos * psi - 1j * sin * np.flip(psi, axis=n - 1 - p)
        out.append(psi.reshape(-1))
    return out


def epsilon_deviation_grid(
    psi: np.ndarray,
    h_total: sp.spmatrix | TransverseFieldOperator,
    probe_sites,
    omega: float,
    projector: Projector,
    ts,
) -> np.ndarray:
    """eps(t) on a grid: the projector expectation under ``h_total`` minus the
    one under the decoupled probe drive (omega/2) sum_{p in probe_sites} sigma^x_p."""
    full_states = EvolutionEngine(h_total).evolve_grid(psi, ts)
    eff_states = probe_drive_grid(psi, probe_sites, omega, ts)
    return np.array(
        [projector.expectation(a) - projector.expectation(b) for a, b in zip(full_states, eff_states)]
    )
