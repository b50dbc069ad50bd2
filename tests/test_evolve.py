import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import expm_multiply

from hsfsense import evolve as evolve_module
from hsfsense import hamiltonian as ham
from hsfsense import states
from hsfsense.couplings import sample_gaussian
from hsfsense.errors import EvolutionError
from hsfsense.evolve import (
    EvolutionEngine,
    dynamical_fidelity_grid,
    epsilon_deviation_grid,
    probe_drive_grid,
)
from hsfsense.lattice import Lattice, canonical_partition


def dynamical_fidelity(psi0, h_ideal, h_actual, t):
    """Pointwise oracle for the grid: |<psi0| e^{+i h_ideal t} e^{-i h_actual t} |psi0>|^2."""
    ideal = EvolutionEngine(h_ideal).evolve(psi0, t)
    actual = EvolutionEngine(h_actual).evolve(psi0, t)
    return float(abs(np.vdot(ideal, actual)) ** 2)


def epsilon_deviation(psi, h_total, h_probe_omega, projector, t):
    """Pointwise oracle for the grid: both dynamics evolved by the engine, the
    decoupled one from its built operator rather than in closed form."""
    p_actual = projector.expectation(EvolutionEngine(h_total).evolve(psi, t))
    p_eff = projector.expectation(EvolutionEngine(h_probe_omega).evolve(psi, t))
    return float(p_actual - p_eff)


def test_single_spin_rabi_oracle():
    """One spin under (omega/2) sigma^x: closed-form Rabi rotation."""
    lat = Lattice(1, 1)
    h = ham.build_h_omega(lat, 0.8)
    eng = EvolutionEngine(h)
    psi0 = np.array([1.0, 0.0], dtype=complex)
    for t in (0.0, 0.3, 1.7, 5.0):
        got = eng.evolve(psi0, t)
        want = np.array([np.cos(0.4 * t), -1j * np.sin(0.4 * t)])
        np.testing.assert_allclose(got, want, atol=1e-12)


def test_evolution_is_unitary(lat33, dis33):
    h = ham.build_h_tfim(lat33, dis33, 0.4)
    eng = EvolutionEngine(h)
    psi = states.ghz_x(9)
    for t in (0.1, 1.0, 7.3):
        assert np.linalg.norm(eng.evolve(psi, t)) == pytest.approx(1.0, abs=1e-12)


def test_group_property(lat33, dis33):
    """U(t1 + t2) = U(t2) U(t1), including negative times."""
    h = ham.build_h_tfim(lat33, dis33, 0.4)
    eng = EvolutionEngine(h)
    psi = states.ghz_x(9)
    ab = eng.evolve(eng.evolve(psi, 0.7), 0.9)
    direct = eng.evolve(psi, 1.6)
    assert np.linalg.norm(ab - direct) < 1e-10
    back = eng.evolve(direct, -1.6)
    assert np.linalg.norm(back - psi) < 1e-10


def test_evolve_grid_matches_pointwise(lat33, dis33):
    h = ham.build_h_tfim(lat33, dis33, 0.4)
    psi = states.ghz_x(9)
    ts = np.linspace(0.0, 2.0, 9)
    eng = EvolutionEngine(h)
    grid = eng.evolve_grid(psi, ts[::-1])[::-1]  # marched in sorted order, returned in the given one
    for k, t in enumerate(ts):
        assert np.linalg.norm(grid[k] - eng.evolve(psi, t)) < 1e-10


def test_gershgorin_interval_holds_the_spectrum(lat33, dis33):
    # the operator's interval equals the CSR one: test_hamiltonian.test_operator_matches_builder_csr
    h = ham.build_h_tfim(lat33, dis33, 0.4)
    lo, hi = EvolutionEngine(h).interval
    eigs = np.linalg.eigvalsh(h.toarray())
    assert lo <= eigs[0] and eigs[-1] <= hi
    assert hi - lo < 2.0 * (eigs[-1] - eigs[0])  # not vacuously wide


def test_too_narrow_interval_raises(lat33, dis33, monkeypatch):
    gershgorin = evolve_module._gershgorin
    monkeypatch.setattr(evolve_module, "_gershgorin", lambda d, r: tuple(0.5 * x for x in gershgorin(d, r)))
    for h in (ham.build_h_tfim(lat33, dis33, 0.4), ham.op_tfim(lat33, dis33, 0.4)):
        with pytest.raises(EvolutionError, match="does not hold the spectrum"):
            EvolutionEngine(h).evolve(states.ghz_x(9), 1.0)
    with pytest.raises(EvolutionError, match="does not hold the spectrum"):
        EvolutionEngine(ham.op_tfim(lat33, dis33, 0.4)).evolve_tangent(states.ghz_x(9), 1.0)


def van_loan_oracle(op, psi, t):
    """(e^{-iHt} psi, d/dvalue e^{-iHt} psi) from the block generator [[H, S], [0, H]]
    (Van Loan, IEEE TAC 23, 1978), evolved by expm_multiply."""
    h = op.tocsr()
    s = ham.TransverseFieldOperator(op.n_sites, None, 1.0, op.sites).tocsr()
    block = sp.bmat([[h, s], [None, h]]).tocsr()
    out = expm_multiply(-1j * t * block, np.concatenate([np.zeros_like(psi), psi]))
    return out[psi.shape[0]:], out[: psi.shape[0]]


def test_tangent_matches_van_loan_block_oracle(lat33, lat34, part33, part34):
    rng = np.random.default_rng(9)
    for lat, part in ((lat33, part33), (lat34, part34)):
        c = sample_gaussian(lat, 1.0, 0.3, seed=2)
        psi = rng.normal(size=1 << lat.n_sites) + 1j * rng.normal(size=1 << lat.n_sites)
        psi /= np.linalg.norm(psi)
        # value 0 without a diagonal: the interval degenerates to a point
        for op in (ham.op_total(lat, part, c, 0.4), ham.op_probe_omega(part, lat, 0.4), ham.op_omega(lat, 0.0)):
            eng = EvolutionEngine(op)
            for t in (0.1, 0.9, -0.4):
                state, tangent = eng.evolve_tangent(psi, t)
                want_state, want_tangent = van_loan_oracle(op, psi, t)
                np.testing.assert_allclose(state, want_state, rtol=0, atol=1e-13)
                np.testing.assert_allclose(tangent, want_tangent, rtol=0, atol=1e-13)
    with pytest.raises(EvolutionError, match="TransverseFieldOperator"):
        EvolutionEngine(op.tocsr()).evolve_tangent(psi, 0.1)


def test_krylov_grid_matches_expm_multiply(lat34, part34):
    h = ham.build_h_total(lat34, part34, sample_gaussian(lat34, 1.0, 0.3, seed=11), 0.4)
    psi = states.ghz_x(lat34.n_sites)
    ts = np.linspace(0.0, 2.0, 9)
    got = EvolutionEngine(h).evolve_grid(psi, ts)
    want = expm_multiply(-1j * h, psi, start=0.0, stop=2.0, num=9, endpoint=True)
    for g, w in zip(got, want):
        np.testing.assert_allclose(g, w, rtol=0, atol=1e-12)


def test_probe_drive_closed_form_matches_krylov_with_two_probes():
    lat = Lattice(3, 6)
    part = canonical_partition(lat)
    assert part.n_probe == 2
    rng = np.random.default_rng(5)
    psi = rng.normal(size=1 << lat.n_sites) + 1j * rng.normal(size=1 << lat.n_sites)
    psi /= np.linalg.norm(psi)
    ts = np.array([0.0, 0.4, 1.3, 3.0])
    want = EvolutionEngine(ham.build_h_probe_omega(part, lat, 0.7)).evolve_grid(psi, ts)
    got = probe_drive_grid(psi, part.probe_order(), 0.7, ts)
    for g, w in zip(got, want):
        np.testing.assert_allclose(g, w, rtol=0, atol=1e-10)
    with pytest.raises(EvolutionError, match="out of range"):
        probe_drive_grid(psi, [lat.n_sites], 0.7, ts)


def test_fidelity_one_for_identical_hamiltonians(lat33, dis33):
    h = ham.build_h_tfim(lat33, dis33, 0.4)
    psi = states.ghz_x(9)
    for t in (0.0, 0.5, 2.0):
        assert dynamical_fidelity(psi, h, h, t) == pytest.approx(1.0, abs=1e-12)


def test_fidelity_grid_matches_scalar(lat33, dis33):
    h_ideal = ham.build_h_omega(lat33, 0.4)
    h_actual = ham.build_h_tfim(lat33, dis33, 0.4)
    psi = states.ghz_x(9)
    ts = np.linspace(0.0, 1.0, 6)
    grid = dynamical_fidelity_grid(psi, h_ideal, h_actual, ts)
    assert grid[0] == pytest.approx(1.0, abs=1e-12)
    for k, t in enumerate(ts):
        assert grid[k] == pytest.approx(dynamical_fidelity(psi, h_ideal, h_actual, t), abs=1e-10)
    assert np.all((grid >= -1e-12) & (grid <= 1.0 + 1e-12))


def test_epsilon_zero_when_dynamics_match(lat33, part33):
    h = ham.build_h_probe_omega(part33, lat33, 0.4)
    psi = states.embed(states.ghz_x(part33.n_probe), part33, lat33)
    proj = states.probe_projector(states.ghz_x(part33.n_probe, "primed"), part33, lat33)
    assert abs(epsilon_deviation(psi, h, h, proj, 1.3)) < 1e-12


def test_epsilon_grid_matches_scalar(lat33, part33, dis33):
    h_total = ham.build_h_total(lat33, part33, dis33, 0.4)
    h_probe = ham.build_h_probe_omega(part33, lat33, 0.4)
    psi = states.embed(states.ghz_x(part33.n_probe), part33, lat33)
    proj = states.probe_projector(states.ghz_x(part33.n_probe, "primed"), part33, lat33)
    ts = np.linspace(0.0, 1.0, 5)
    grid = epsilon_deviation_grid(psi, h_total, part33.probe_order(), 0.4, proj, ts)
    assert abs(grid[0]) < 1e-12
    for k, t in enumerate(ts):
        assert grid[k] == pytest.approx(epsilon_deviation(psi, h_total, h_probe, proj, t), abs=1e-9)


def test_engine_on_operator_matches_csr_engine(lat33, lat34, part33, part34, dis33):
    for lat, part in ((lat33, part33), (lat34, part34)):
        c = sample_gaussian(lat, 1.0, 0.3, seed=4)
        op = ham.op_total(lat, part, c, 0.4)
        csr = ham.build_h_total(lat, part, c, 0.4)
        psi = states.ghz_x(lat.n_sites)
        ts = np.linspace(0.0, 2.0, 9)
        got = EvolutionEngine(op).evolve_grid(psi, ts)
        want = EvolutionEngine(csr).evolve_grid(psi, ts)
        for g, w in zip(got, want):
            np.testing.assert_allclose(g, w, rtol=0, atol=1e-12)


def test_epsilon_grid_on_operator_matches_csr(lat34, part34):
    c = sample_gaussian(lat34, 1.0, 0.3, seed=6)
    psi = states.embed(states.ghz_x(part34.n_probe), part34, lat34)
    proj = states.probe_projector(states.ghz_x(part34.n_probe, "primed"), part34, lat34)
    ts = np.linspace(0.0, 2.0, 7)
    args = (part34.probe_order(), 0.05, proj, ts)
    got = epsilon_deviation_grid(psi, ham.op_total(lat34, part34, c, 0.05), *args)
    want = epsilon_deviation_grid(psi, ham.build_h_total(lat34, part34, c, 0.05), *args)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
    assert np.max(np.abs(want)) > 1e-6  # eps itself is far above the tolerance


def test_non_hermitian_matrix_rejected(lat33, dis33):
    h = ham.build_h_tfim(lat33, dis33, 0.4).tolil()
    h[0, 1] += 1e-6
    with pytest.raises(EvolutionError, match="Hermitian"):
        EvolutionEngine(sp.csr_matrix(h))
