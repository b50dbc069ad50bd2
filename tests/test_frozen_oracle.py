"""The near-frozen-subspace oracle for ``bound``'s eps(t) and the ``hsf``
delta-omega.

A valid partition freezes its ancillas: one ancilla flip costs at least
j_gap, so under the drive (omega/2) sum_i sigma^x_i the state stays close to
the frozen pattern.  Exact evolution restricted to the states within d
ancilla flips of it, every probe configuration times every ancilla
configuration at most d flips from the frozen one, is then a reference whose
truncation falls fast with d.  It is a dense matrix of a few hundred states,
diagonalized by ``eigh``.  It shares with the march only its inputs: each
state's energy is summed over the bonds and shift fields one term at a time,
and the start state, the primed readout and the decoupled probability are
their definitions.  Its slope dP/domega is exact, from H's eigenbasis; only
the error propagation of a probability and a slope into delta-omega
(``ramsey_uncertainty``) is the library's.
"""

from itertools import combinations

import numpy as np
import pytest
import scipy.linalg

from hsfsense import hamiltonian as ham
from hsfsense import states
from hsfsense.bound import verify_bound
from hsfsense.couplings import sample_gaussian
from hsfsense.evolve import _TAIL_TOL, EvolutionEngine
from hsfsense.lattice import Lattice, canonical_partition
from hsfsense.sensing import RamseyConfig, numeric_sensitivity, ramsey_setup, ramsey_uncertainty

OMEGA = 0.005
TIMES = np.linspace(0.0, 2.0, 9)


def near_frozen_basis(partition, d):
    """(basis states, probe configuration of each, ancilla flips of each): every
    probe configuration c (bit j for the j-th probe) over every ancilla
    pattern at most d flips from the frozen one."""
    probes = partition.probe_order()
    frozen = sum(1 << a for a, up in partition.frozen_pattern.items() if up)
    basis, configs, flips = [], [], []
    for k in range(d + 1):
        for flipped in combinations(sorted(partition.ancilla_sites), k):
            rest = frozen ^ sum(1 << a for a in flipped)
            for c in range(1 << len(probes)):
                basis.append(rest | sum(1 << p for j, p in enumerate(probes) if c >> j & 1))
                configs.append(c)
                flips.append(k)
    return basis, np.array(configs), np.array(flips)


def energy(s, lattice, partition, couplings):
    """-sum_bonds J_ij z_i z_j - sum_probes h_p z_p of basis state s, one term
    at a time; a frame spin is down."""

    def z(i):
        return -1.0 if lattice.is_frame(i) else (1.0 if s >> i & 1 else -1.0)

    e = 0.0
    for (i, j), jij in couplings.items():
        e -= jij * z(i) * z(j)
    for p, h in ham.shift_fields(partition, couplings).items():
        e -= h * z(p)
    return e


def near_frozen_ramsey(lattice, partition, couplings, omega, d):
    """(H, S, start, primed bra) within d ancilla flips of the frozen pattern:
    H is the diagonal energy plus (omega/2) S, S = sum_i sigma^x_i over every
    site, the start is the GHZ state over the frozen pattern and the bra its
    primed partner, each on every basis state."""
    basis, configs, flips = near_frozen_basis(partition, d)
    m = partition.n_probe
    s = np.zeros((len(basis), len(basis)))
    index = {state: a for a, state in enumerate(basis)}
    for a, state in enumerate(basis):
        for i in range(lattice.n_sites):
            b = index.get(state ^ (1 << i))
            if b is not None:
                s[a, b] = 1.0
    h = np.diag([energy(state, lattice, partition, couplings) for state in basis]) + omega / 2.0 * s
    # |+>^m and |->^m have amplitudes 2^(-m/2) and 2^(-m/2) (-1)^|c| on configuration c
    parity = np.array([(-1.0) ** bin(c).count("1") for c in configs])
    norm = np.sqrt(2.0) * 2.0 ** (m / 2.0)
    psi0 = np.where(flips == 0, (1.0 + parity) / norm, 0.0)  # the GHZ state over the frozen pattern
    primed = (1.0 + 1j * parity) / norm  # (|+...+> + i |-...->)/sqrt(2)
    return h, s, psi0, primed


def primed_amplitudes(primed, psi, m):
    """The primed bra on each ancilla pattern's 2^m probe amplitudes of psi."""
    return (primed.conj() * psi).reshape(-1, 1 << m).sum(axis=1)


def oracle_eps(lattice, partition, couplings, omega, ts, d):
    """eps(t) = P(t) - (1 + sin(m omega t))/2 from exact evolution within d
    ancilla flips of the frozen pattern."""
    m = partition.n_probe
    h, _, psi0, primed = near_frozen_ramsey(lattice, partition, couplings, omega, d)
    lam, v = scipy.linalg.eigh(h)
    coef = v.T @ psi0
    eps = []
    for t in ts:
        amps = primed_amplitudes(primed, v @ (np.exp(-1j * lam * t) * coef), m)
        eps.append(np.sum(np.abs(amps) ** 2) - 0.5 * (1.0 + np.sin(m * omega * t)))
    return np.array(eps)


def oracle_delta_omega(lattice, partition, couplings, config, d):
    """The ``hsf`` delta-omega of ``config`` from exact evolution within d
    ancilla flips, with the exact slope: in H's eigenbasis, d e^{-iHt}/d omega
    has entries (S/2)_ab (e^{-i lam_a t} - e^{-i lam_b t}) / (lam_a - lam_b),
    and -i t e^{-i lam_a t} (S/2)_ab where |lam_a - lam_b| t < 1e-8."""
    m, t = partition.n_probe, config.t_int
    h, s, psi0, primed = near_frozen_ramsey(lattice, partition, couplings, config.omega, d)
    lam, v = scipy.linalg.eigh(h)
    phase = np.exp(-1j * lam * t)
    gap = lam[:, None] - lam[None, :]
    degenerate = np.abs(gap) * t < 1e-8
    divided = np.where(
        degenerate, -1j * t * phase[:, None], (phase[:, None] - phase[None, :]) / np.where(degenerate, 1.0, gap)
    )
    coef = v.T @ psi0
    u = primed_amplitudes(primed, v @ (phase * coef), m)
    du = primed_amplitudes(primed, v @ ((divided * (v.T @ s @ v / 2.0)) @ coef), m)
    p = states.clip_probability(float(np.sum(np.abs(u) ** 2)))
    return ramsey_uncertainty(p, 2.0 * float(np.sum(u.conj() * du).real), config.repetitions)


@pytest.mark.parametrize("w,h", [(3, 3), (4, 4), (3, 6)])
def test_bound_eps_matches_the_near_frozen_oracle(w, h):
    """``verify_bound``'s eps (seed 3, omega 0.005, t to 2) within 3e-14 of the
    d = 2 oracle, at 3x3, 4x4 and 3x6 (two probes); measured 3.6e-15, 3.9e-15
    and 1.6e-14, where max |eps| is 7.8e-9, 5.4e-9 and 1.9e-6.  The d = 1
    oracle, 18, 32 and 68 states, is at least ten times further off (6.6e-14,
    1.6e-13 and 2.5e-11): that is its truncation, which d = 2 removes.  Each
    eps is also within twice the budget its march states for the state,
    (_TAIL_TOL + 8 terms eps) times the unit norm, as a probability is a
    square: measured at most a quarter of it, at t = 0."""
    lat = Lattice(w, h)
    part, c = canonical_partition(lat), sample_gaussian(lat, 1.0, 0.3, seed=3)
    eps = verify_bound(lat, part, c, OMEGA, TIMES).epsilon_values
    off = {d: np.abs(oracle_eps(lat, part, c, OMEGA, TIMES, d) - eps) for d in (1, 2)}
    assert np.max(off[2]) <= 3e-14
    assert np.max(off[1]) >= 10.0 * np.max(off[2])
    engine = EvolutionEngine(ramsey_setup("hsf", OMEGA, lat, part, c)[1])
    terms = np.array([engine._coefficients(t, False)[1].size for t in TIMES])
    assert np.all(off[2] <= 2.0 * (_TAIL_TOL + 8 * terms * np.finfo(float).eps))


@pytest.mark.parametrize("w,h", [(3, 3), (4, 4), (3, 6)])
def test_hsf_delta_omega_matches_the_near_frozen_oracle(w, h):
    """``numeric_sensitivity``'s ``hsf`` delta-omega (seed 3, omega 0.005,
    t_int 0.2, ten repetitions) within 1e-14 relative of the d = 2 oracle's,
    whose slope is exact, at 3x3, 4x4 and 3x6 (two probes); measured 1.8e-15,
    4.4e-16 and 1.4e-15.  The d = 1 oracle is at least ten times further off
    (4.2e-14, 1.1e-13 and 7.4e-11)."""
    lat = Lattice(w, h)
    part, c = canonical_partition(lat), sample_gaussian(lat, 1.0, 0.3, seed=3)
    config = RamseyConfig(0.005, 0.2, 10)
    got = numeric_sensitivity("hsf", config, lat, part, c)
    off = {d: abs(oracle_delta_omega(lat, part, c, config, d) / got - 1.0) for d in (1, 2)}
    assert off[2] <= 1e-14
    assert off[1] >= 10.0 * off[2]
