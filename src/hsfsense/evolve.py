"""Exact unitary time evolution and derived diagnostics.

The generator is a sparse matrix or a matrix-free
``hamiltonian.TransverseFieldOperator``.  Two interchangeable propagators: a
cached dense eigendecomposition (exact to machine precision, best when many
times are needed at moderate dimension; an operator is diagonalized through
its ``tocsr()``) and a Lanczos approximation of exp(-iHt)|psi> with full
reorthogonalization and adaptive substepping (memory-lean, best at large
dimension), which needs only ``H @ psi`` and raises EvolutionError rather
than return an unconverged step.  The decoupled probe drive is a product of
single-spin rotations and is applied in closed form.  hbar = 1 throughout;
times are in inverse energy units.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg
import scipy.sparse as sp

from .errors import EvolutionError
from .hamiltonian import TransverseFieldOperator, is_hermitian
from .states import Projector

_EIG_DIM_MAX = 2048  # dense eigh above this costs more than Lanczos on a t-grid
_KRYLOV_TOL = 1e-10
_KRYLOV_DIM = 40


class EvolutionEngine:
    """Propagator e^{-iHt} for a fixed Hermitian Hamiltonian.

    ``hamiltonian`` is a sparse matrix (checked Hermitian here) or a
    ``TransverseFieldOperator`` (Hermitian by construction, applied
    matrix-free).  method: "eig", "krylov", or "auto" (eig iff dimension <=
    2048).  Immutable after construction; ``evolve`` is pure.
    """

    def __init__(self, hamiltonian, method: str = "auto"):
        matrix_free = isinstance(hamiltonian, TransverseFieldOperator)
        if not matrix_free:
            if hamiltonian.shape[0] != hamiltonian.shape[1]:
                raise EvolutionError("Hamiltonian must be square")
            if not is_hermitian(hamiltonian, tol=1e-12):
                raise EvolutionError("Hamiltonian must be Hermitian")
        if method == "auto":
            method = "eig" if hamiltonian.shape[0] <= _EIG_DIM_MAX else "krylov"
        if method not in ("eig", "krylov"):
            raise EvolutionError(f"unknown method {method!r}")
        self.method = method
        self.hamiltonian = hamiltonian if matrix_free else hamiltonian.tocsr()
        self._eigvals = None
        self._eigvecs = None
        if method == "eig":
            w, v = np.linalg.eigh(self.hamiltonian.tocsr().toarray())
            self._eigvals, self._eigvecs = w, v
        else:
            # Lanczos substep length from the max absolute row sum, a bound on ||H||_2
            hnorm = hamiltonian.norm_bound() if matrix_free else abs(self.hamiltonian).sum(axis=1).max()
            self._dt_max = 20.0 / max(hnorm, 1e-30)

    def evolve(self, state: np.ndarray, t: float) -> np.ndarray:
        """e^{-iHt} |state>; norm preserved to 1e-10."""
        if state.shape[0] != self.hamiltonian.shape[0]:
            raise EvolutionError("state/Hamiltonian dimension mismatch")
        if not np.isfinite(t):
            raise EvolutionError(f"time must be finite, got {t}")
        state = np.asarray(state, dtype=complex)
        if t == 0.0:
            return state.copy()
        if self.method == "eig":
            coeff = self._eigvecs.conj().T @ state
            return self._eigvecs @ (np.exp(-1j * self._eigvals * t) * coeff)
        return self._lanczos_expm(state, t)

    def evolve_grid(self, state: np.ndarray, ts) -> list[np.ndarray]:
        """States at each time in ``ts``, returned in the order of ``ts``.

        The eig path evaluates each point from ``state``.  The Lanczos path
        marches through the times in sorted order, each step starting from the
        previous point, so the per-step errors add up along the grid.
        """
        if self.method == "eig":
            return [self.evolve(state, t) for t in ts]
        order = np.argsort(ts)
        out: list = [None] * len(ts)
        current, t_now = np.asarray(state, dtype=complex), 0.0
        for k in order:
            current = self._lanczos_expm(current, ts[k] - t_now)
            t_now = ts[k]
            out[k] = current
        return out

    def _apply(self, psi: np.ndarray) -> np.ndarray:
        """H|psi> for a contiguous complex psi.

        A real sparse H acts on the (dim, 2) real view of psi, which gives the
        same sums as the complex product without upcasting H's data to complex.
        """
        h = self.hamiltonian
        if isinstance(h, TransverseFieldOperator) or h.dtype.kind == "c":
            return h @ psi
        return (h @ psi.view(np.float64).reshape(-1, 2)).view(complex).reshape(-1)

    def _lanczos_expm(self, state: np.ndarray, t: float) -> np.ndarray:
        """exp(-iHt)|state> by Lanczos substeps no longer than ``_dt_max``."""
        if t == 0.0:
            return state.copy()
        remaining = t
        psi = state
        basis = np.empty((0, state.shape[0]), dtype=complex)  # shared by the substeps
        while remaining != 0.0:
            dt = np.sign(remaining) * min(abs(remaining), self._dt_max)
            psi, basis = _lanczos_step(self._apply, psi, dt, basis)
            remaining -= dt
        return psi


def _reserve(basis: np.ndarray, rows: int) -> np.ndarray:
    """``basis`` with room for at least ``rows`` rows.

    Grows by doubling up to _KRYLOV_DIM rows, so memory follows the rows a
    step actually uses (one row is 2^N complex amplitudes).
    """
    if rows <= basis.shape[0]:
        return basis
    grown = np.empty((max(rows, min(2 * basis.shape[0], _KRYLOV_DIM)), basis.shape[1]), dtype=complex)
    grown[: basis.shape[0]] = basis
    return grown


def _lanczos_step(apply_h, psi: np.ndarray, dt: float, basis: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """exp(-i dt H)|psi> from one Krylov space; returns it and the (grown) basis.

    The basis rows are kept orthonormal by two passes of classical
    Gram-Schmidt against all of them.  exp(-i dt T) e1 of the tridiagonal
    Lanczos matrix T comes from its eigendecomposition, and the step stops
    once |beta_m (exp(-i dt T) e1)_m dt| < _KRYLOV_TOL.
    """
    beta0 = np.linalg.norm(psi)
    if beta0 == 0.0:
        return psi, basis
    basis = _reserve(basis, 1)
    basis[0] = psi / beta0
    alphas, betas = [], []
    for j in range(_KRYLOV_DIM):
        w = apply_h(basis[j])
        v = basis[: j + 1]
        c = (v @ w.conj()).conj()  # <v_i|w>, without a conjugated copy of v
        alphas.append(c[j].real)
        w -= c @ v
        c = (v @ w.conj()).conj()  # second pass: removes what rounding left of the first
        w -= c @ v
        beta = np.sqrt(np.vdot(w, w).real)
        lam, q = scipy.linalg.eigh_tridiagonal(np.array(alphas), np.array(betas))
        small = q @ (np.exp(-1j * dt * lam) * q[0])
        err = abs(beta * small[-1] * dt)
        if beta < 1e-14 or err < _KRYLOV_TOL:
            return beta0 * (small @ v), basis
        if j + 1 == _KRYLOV_DIM:
            break
        betas.append(beta)
        basis = _reserve(basis, j + 2)
        basis[j + 1] = w / beta
    raise EvolutionError(
        f"Lanczos step dt={dt:.6g} did not converge in {_KRYLOV_DIM} iterations "
        f"(error estimate {err:.3g} > {_KRYLOV_TOL:g})"
    )


def dynamical_fidelity_grid(
    psi0: np.ndarray,
    h_ideal: sp.spmatrix | TransverseFieldOperator,
    h_actual: sp.spmatrix | TransverseFieldOperator,
    ts,
) -> np.ndarray:
    """|<psi0| e^{+i h_ideal t} e^{-i h_actual t} |psi0>|^2 at each t in ``ts``."""
    if h_ideal.shape != h_actual.shape or psi0.shape[0] != h_ideal.shape[0]:
        raise EvolutionError("dimension mismatch between state and Hamiltonians")
    eng_i, eng_a = EvolutionEngine(h_ideal), EvolutionEngine(h_actual)
    ideal = eng_i.evolve_grid(psi0, ts)
    actual = eng_a.evolve_grid(psi0, ts)
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
