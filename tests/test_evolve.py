import threading
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.special
from scipy.sparse.linalg import expm_multiply

from conftest import whole
from hsfsense import evolve as evolve_module
from hsfsense import hamiltonian as ham
from hsfsense import states
from hsfsense.couplings import sample_gaussian
from hsfsense.errors import EvolutionError
from hsfsense.bound import verify_bound
from hsfsense.evolve import EvolutionEngine, dynamical_fidelity_grid
from hsfsense.lattice import Lattice, canonical_partition
from hsfsense.sensing import RamseyConfig, ideal_probability, numeric_sensitivity, ramsey_setup


def dynamical_fidelity(psi0, h_ideal, h_actual, t):
    """Pointwise oracle for the grid: |<psi0| e^{+i h_ideal t} e^{-i h_actual t} |psi0>|^2."""
    ideal = EvolutionEngine(h_ideal).evolve(psi0, t)
    actual = EvolutionEngine(h_actual).evolve(psi0, t)
    return float(abs(np.vdot(ideal, actual)) ** 2)


def epsilon_deviation(psi, h_total, h_probe_omega, projector, t):
    """Pointwise oracle for verify_bound: both dynamics evolved by the engine, the
    decoupled one from its built operator rather than in closed form."""
    p_actual = projector.expectation(EvolutionEngine(h_total).evolve(psi, t))
    p_eff = projector.expectation(EvolutionEngine(h_probe_omega).evolve(psi, t))
    return float(p_actual - p_eff)


def test_single_spin_rabi_oracle():
    """One spin under (omega/2) sigma^x: closed-form Rabi rotation."""
    lat = Lattice(1, 1)
    eng = EvolutionEngine(ham.op_omega(lat, 0.8))
    psi0 = np.array([1.0, 0.0], dtype=complex)
    for t in (0.0, 0.3, 1.7, 5.0):
        got = eng.evolve(psi0, t)
        want = np.array([np.cos(0.4 * t), -1j * np.sin(0.4 * t)])
        np.testing.assert_allclose(got, want, atol=1e-12)


def test_evolution_is_unitary(lat33, dis33):
    eng = EvolutionEngine(ham.op_tfim(lat33, dis33, 0.4))
    psi = states.ghz_x(9)
    for t in (0.1, 1.0, 7.3):
        assert np.linalg.norm(eng.evolve(psi, t)) == pytest.approx(1.0, abs=1e-12)


def test_group_property(lat33, dis33):
    """U(t1 + t2) = U(t2) U(t1), including negative times."""
    eng = EvolutionEngine(ham.op_tfim(lat33, dis33, 0.4))
    psi = states.ghz_x(9)
    ab = eng.evolve(eng.evolve(psi, 0.7), 0.9)
    direct = eng.evolve(psi, 1.6)
    assert np.linalg.norm(ab - direct) < 1e-10
    back = eng.evolve(direct, -1.6)
    assert np.linalg.norm(back - psi) < 1e-10


def test_evolve_grid_matches_pointwise(lat33, dis33):
    psi = states.ghz_x(9)
    ts = np.linspace(0.0, 2.0, 9)
    eng = EvolutionEngine(ham.op_tfim(lat33, dis33, 0.4))
    grid = eng.evolve_grid(psi, ts[::-1])[::-1]  # returned in the order given
    for k, t in enumerate(ts):
        assert np.linalg.norm(grid[k] - eng.evolve(psi, t)) < 1e-10


def test_gershgorin_interval_holds_the_spectrum(lat33, dis33):
    # the interval equals the CSR's row-sum one: test_hamiltonian.test_operator_matches_builder_csr
    h = ham.op_tfim(lat33, dis33, 0.4)
    lo, hi = EvolutionEngine(h).interval
    eigs = np.linalg.eigvalsh(h.tocsr().toarray())
    assert lo <= eigs[0] and eigs[-1] <= hi
    assert hi - lo < 2.0 * (eigs[-1] - eigs[0])  # not vacuously wide


def test_gershgorin_interval_needs_no_shifted_copy_of_the_diagonal(lat34, part34):
    """min(diag) - r and max(diag) + r are min(diag - r) and max(diag + r) bit
    for bit: rounding a constant shift is monotone.  So is rounding a sum, so
    the min and max taken per value of the tables' shared bits are the expanded
    diagonal's, at 4x4 and 3x6 too, where the diagonal has a ``high`` table."""
    lat44, lat36 = Lattice(4, 4), Lattice(3, 6)
    for op in (
        ham.op_total(lat34, part34, sample_gaussian(lat34, 1.0, 0.3, seed=5), 0.4),
        ham.op_probe_omega(part34, lat34, 0.4),  # no diagonal
        ham.op_total(lat44, canonical_partition(lat44), sample_gaussian(lat44, 1.0, 0.3, seed=5), 0.4),
        ham.op_tfim(lat36, sample_gaussian(lat36, 1.0, 0.3, seed=6), 0.4),
    ):
        radius = abs(op.value) * len(op.sites)
        diag = 0.0 if op.diag is None else op.diag.expand()
        want = float(np.min(diag - radius)), float(np.max(diag + radius))
        assert np.array(EvolutionEngine(op).interval).tobytes() == np.array(want).tobytes()


def test_too_narrow_interval_raises(lat33, part33, dis33, monkeypatch):
    gershgorin = evolve_module._gershgorin
    monkeypatch.setattr(evolve_module, "_gershgorin", lambda d, r: tuple(0.5 * x for x in gershgorin(d, r)))
    h = ham.op_tfim(lat33, dis33, 0.4)
    with pytest.raises(EvolutionError, match="does not hold the spectrum"):
        EvolutionEngine(h).evolve(states.ghz_x(9), 1.0)
    with pytest.raises(EvolutionError, match="does not hold the spectrum"):
        EvolutionEngine(h).evolve_grid(states.ghz_x(9), [0.0, 0.5, 1.0])
    with pytest.raises(EvolutionError, match="does not hold the spectrum"):
        EvolutionEngine(h).readout_tangent(states.ghz_x(9), 1.0, whole(9))
    # every march holds the norm of each Chebyshev term, whatever its readout
    with pytest.raises(EvolutionError, match="does not hold the spectrum"):
        verify_bound(lat33, part33, dis33, 0.4, [0.0, 0.5, 1.0])
    rc = RamseyConfig(omega=0.4, t_int=1.0, t_all=10.0)
    for scheme in ("hsf", "ghz_free"):
        with pytest.raises(EvolutionError, match="does not hold the spectrum"):
            numeric_sensitivity(scheme, rc, lat33, part33, dis33)
    with pytest.raises(EvolutionError, match="does not hold the spectrum"):
        dynamical_fidelity_grid(h, 0.4, [0.0, 0.5, 1.0])


def test_coefficients_off_jacobi_anger_are_an_evolution_error(lat33, part33, monkeypatch):
    """Coefficients 1e-9 too large move bound's eps by ~1e-9 through readouts
    that hold no norm, and no Chebyshev term's norm.  Every march checks that
    the even b_k sum to cos(rt) and the odd ones to sin(rt), at negative t too."""
    c = sample_gaussian(lat33, 1.0, 0.3, seed=2)
    h = ham.op_tfim(lat33, c, 0.4)
    calls = (
        lambda: verify_bound(lat33, part33, c, 0.4, [0.5, 1.0]),
        lambda: dynamical_fidelity_grid(h, 0.4, [-0.8]),
    )
    for call in calls:
        call()
    bessel_j = evolve_module._bessel_j
    monkeypatch.setattr(evolve_module, "_bessel_j", lambda x, n: bessel_j(x, n) * (1.0 + 1e-9))
    for call in calls:
        with pytest.raises(EvolutionError, match=r"^Chebyshev coefficients for t=\S+ miss cos and sin"):
            call()


def test_drift_check_catches_wrong_coefficients(lat33, dis33, monkeypatch):
    """J_2 and J_4 1e-9 too large move b_2 and b_4 by -2e-9 and +2e-9, so the
    coefficients still sum to cos(rt) and sin(rt), and every Chebyshev term's
    norm is left alone, so no term guard fires; a whole state's norm drifts,
    and names no cause."""
    bessel_j = evolve_module._bessel_j

    def shifted(x, n):
        j = bessel_j(x, n)
        j[2:5:2] += 1e-9
        return j

    monkeypatch.setattr(evolve_module, "_bessel_j", shifted)
    eng = EvolutionEngine(ham.op_tfim(lat33, dis33, 0.4))
    psi = states.ghz_x(9)
    calls = (
        lambda: eng.evolve(psi, 1.0),
        lambda: eng.evolve_grid(psi, [0.0, 0.5, 1.0]),
        lambda: eng.readout_tangent(psi, 1.0, whole(9)),
    )
    drift = r"^Chebyshev series at t=\S+ changed the norm by \S+ \(budget \S+\)$"
    for call in calls:
        with pytest.raises(EvolutionError, match=drift):
            call()


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
                state, tangent = eng.readout_tangent(psi, t, whole(lat.n_sites))
                want_state, want_tangent = van_loan_oracle(op, psi, t)
                np.testing.assert_allclose(state, want_state, rtol=0, atol=1e-13)
                np.testing.assert_allclose(tangent, want_tangent, rtol=0, atol=1e-13)


def test_krylov_grid_matches_expm_multiply(lat34, part34):
    """The Chebyshev series, a polynomial in H applied to psi (so a Krylov-subspace
    propagator), against expm_multiply on the operator's own CSR matrix."""
    op = ham.op_total(lat34, part34, sample_gaussian(lat34, 1.0, 0.3, seed=11), 0.4)
    psi = states.ghz_x(lat34.n_sites)
    ts = np.linspace(0.0, 2.0, 9)
    got = EvolutionEngine(op).evolve_grid(psi, ts)
    want = expm_multiply(-1j * op.tocsr(), psi, start=0.0, stop=2.0, num=9, endpoint=True)
    for g, w in zip(got, want):
        np.testing.assert_allclose(g, w, rtol=0, atol=1e-12)


def test_engine_on_operator_matches_csr_engine(lat33, lat34, part33, part34):
    """The engine on the matrix-free operator against the independently built
    CSR matrix (build_h_total), which expm_multiply evolves now that the engine
    takes no sparse matrix."""
    for lat, part in ((lat33, part33), (lat34, part34)):
        c = sample_gaussian(lat, 1.0, 0.3, seed=4)
        op = ham.op_total(lat, part, c, 0.4)
        csr = ham.build_h_total(lat, part, c, 0.4)
        psi = states.ghz_x(lat.n_sites)
        ts = np.linspace(0.0, 2.0, 9)
        got = EvolutionEngine(op).evolve_grid(psi, ts)
        want = expm_multiply(-1j * csr, psi, start=0.0, stop=2.0, num=9, endpoint=True)
        for g, w in zip(got, want):
            np.testing.assert_allclose(g, w, rtol=0, atol=1e-12)


def test_grid_matches_expm_multiply(lat34, part34):
    """25 points given unsorted, with t = 0 and a repeated time, and a grid out
    to t = 8, where the series from the start state runs to r t ~ 220 terms."""
    op = ham.op_total(lat34, part34, sample_gaussian(lat34, 1.0, 0.3, seed=11), 0.4)
    psi = states.ghz_x(lat34.n_sites)
    for stop, num in ((3.0, 25), (8.0, 9)):
        want = expm_multiply(-1j * op.tocsr(), psi, start=0.0, stop=stop, num=num, endpoint=True)
        picks = np.random.default_rng(1).permutation(np.append(np.arange(num), 7))
        ts = np.linspace(0.0, stop, num)[picks]
        got = EvolutionEngine(op).evolve_grid(psi, ts)
        for k, g in zip(picks, got):
            np.testing.assert_allclose(g, want[k], rtol=0, atol=1e-12)


def test_grid_rows_equal_single_evolutions(lat34, part34):
    """Each grid point is its own series from the start state, read through a
    ring of _RING_TERMS terms when the grid has that many times: so a row is
    bitwise the same whatever the order of the grid, and in any grid of
    _RING_TERMS times or more that holds its time.  A lone evolve reads each
    term in place, which rounds otherwise, so it is the grid's row within the
    march's budget; an empty grid gives no states."""
    op = ham.op_total(lat34, part34, sample_gaussian(lat34, 1.0, 0.3, seed=11), 0.4)
    psi = states.ghz_x(lat34.n_sites)
    ts = np.random.default_rng(4).permutation(np.linspace(0.0, 3.0, 13))
    eng = EvolutionEngine(op)
    want = dict(zip(ts, eng.evolve_grid(psi, ts)))
    ring = evolve_module._RING_TERMS
    for picks in (np.argsort(ts), [0, 5, 2, 11], [3, 1, 7, 8, 12], list(range(ring, 2 * ring + 1))):
        sub = ts[picks]
        assert len(sub) >= ring
        for t, g in zip(sub, eng.evolve_grid(psi, sub)):
            np.testing.assert_array_equal(g, want[t])
    for t in ts:
        terms = eng._coefficients(t, False)[1].size
        budget = (evolve_module._TAIL_TOL + 8 * terms * np.finfo(float).eps) * np.linalg.norm(psi)
        assert np.linalg.norm(eng.evolve(psi, t) - want[t]) <= budget
    assert eng.evolve_grid(psi, []) == []


@pytest.mark.parametrize("scheme", ["hsf", "hsf_ideal"])
def test_grid_rows_ending_at_every_slot_of_a_ring_window(lat33, part33, scheme):
    """Rows whose series end at 1 to 12 terms, so at every slot of the ring's
    windows (K - 1, K and K + 1 terms among them), with the march ending at
    each slot too, at r t ~ 1 and ~ 10; and grids of 1, 2, 3 and 5 times
    (K = 1, 2, 3 and 4): every row's readout is expm_multiply's within the
    march's budget.  A coefficient slot left over from an earlier window
    adds that term's sums again."""
    psi, op, proj = ramsey_setup(scheme, 0.7, lat33, part33, sample_gaussian(lat33, 1.0, 0.3, seed=3))
    eng = EvolutionEngine(op)
    start, csr = psi.vector(), op.tocsr()
    first = {}  # the first time on a fine scan whose series keeps each number of terms
    for t in np.append(0.0, np.geomspace(1e-9, 10.0, 3000) / eng._radius):
        first.setdefault(eng._coefficients(t, False)[1].size, t)
    top = max(first)
    assert set(range(1, 13)) | set(range(top - 3, top + 1)) <= set(first)
    by_terms = [first[n] for n in range(1, 13)]
    ring = evolve_module._RING_TERMS
    grids = [by_terms[: 12 - cut] for cut in range(ring)] + [by_terms[::3] + [first[top - cut]] for cut in range(ring)]
    grids += [by_terms[1::4][:n] for n in (1, 2, 3)] + [by_terms[::-3][:5]]
    for ts in grids:
        for t, got in zip(ts, eng.readout_grid(psi, ts, proj)):
            terms = eng._coefficients(t, False)[1].size
            budget = evolve_module._TAIL_TOL + 8 * terms * np.finfo(float).eps
            want = proj.amplitudes(expm_multiply(-1j * t * csr, start))
            assert np.linalg.norm(got - want) <= budget, (len(ts), terms)


def test_ideal_probability_matches_chebyshev(lat33):
    """The closed form against the engine's march of the hsf_ideal scheme (the
    decoupled probe drive), with one probe and with two."""
    ts = np.linspace(0.0, 3.0, 23)
    for lat, n_probe in ((lat33, 1), (Lattice(3, 6), 2)):
        part = canonical_partition(lat)
        assert part.n_probe == n_probe
        psi, h, proj = ramsey_setup("hsf_ideal", 0.7, lat, part, None)
        got = [proj.expectation(state) for state in EvolutionEngine(h).evolve_grid(psi, ts)]
        want = ideal_probability(n_probe, 0.7, ts)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-13)
        assert ideal_probability(n_probe, 0.7, ts[5]) == want[5]  # a scalar t gives the array's entry


def test_fidelity_one_for_identical_hamiltonians(lat33, dis33):
    h = ham.op_tfim(lat33, dis33, 0.4)
    psi = states.ghz_x(9)
    for t in (0.0, 0.5, 2.0):
        assert dynamical_fidelity(psi, h, h, t) == pytest.approx(1.0, abs=1e-12)


def test_fidelity_grid_matches_scalar(lat33, dis33):
    h_ideal = ham.op_omega(lat33, 0.4)
    h_actual = ham.op_tfim(lat33, dis33, 0.4)
    psi = states.ghz_x(9)
    ts = np.linspace(0.0, 1.0, 6)
    grid = dynamical_fidelity_grid(h_actual, 0.4, ts)
    assert grid[0] == pytest.approx(1.0, abs=1e-12)
    for k, t in enumerate(ts):
        assert grid[k] == pytest.approx(dynamical_fidelity(psi, h_ideal, h_actual, t), abs=1e-10)
    assert np.all((grid >= -1e-12) & (grid <= 1.0 + 1e-12))


def test_epsilon_zero_when_dynamics_match(lat33, part33):
    h = ham.op_probe_omega(part33, lat33, 0.4)
    psi = states.embed(states.ghz_x(part33.n_probe), part33, lat33)
    proj = states.probe_projector(part33, lat33)
    assert abs(epsilon_deviation(psi, h, h, proj, 1.3)) < 1e-12


def test_epsilon_grid_matches_scalar(lat33, part33, dis33):
    h_total = ham.op_total(lat33, part33, dis33, 0.4)
    h_probe = ham.op_probe_omega(part33, lat33, 0.4)
    psi = states.embed(states.ghz_x(part33.n_probe), part33, lat33)
    proj = states.probe_projector(part33, lat33)
    ts = np.linspace(0.0, 1.0, 5)
    grid = verify_bound(lat33, part33, dis33, 0.4, ts).epsilon_values
    assert abs(grid[0]) < 1e-12
    for k, t in enumerate(ts):
        assert grid[k] == pytest.approx(epsilon_deviation(psi, h_total, h_probe, proj, t), abs=1e-9)


def test_epsilon_grid_on_operator_matches_csr(lat34, part34):
    """verify_bound's eps(t), the engine's march minus the closed-form drive,
    against both dynamics evolved by expm_multiply on the CSR matrices."""
    c = sample_gaussian(lat34, 1.0, 0.3, seed=6)
    psi = states.embed(states.ghz_x(part34.n_probe), part34, lat34)
    proj = states.probe_projector(part34, lat34)
    ts = np.linspace(0.0, 2.0, 7)
    h_total, h_probe = ham.op_total(lat34, part34, c, 0.05), ham.op_probe_omega(part34, lat34, 0.05)
    got = verify_bound(lat34, part34, c, 0.05, ts).epsilon_values

    def expectations(op):
        grid = expm_multiply(-1j * op.tocsr(), psi, start=0.0, stop=2.0, num=7, endpoint=True)
        return np.array([proj.expectation(state) for state in grid])

    want = expectations(h_total) - expectations(h_probe)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
    assert np.max(np.abs(want)) > 1e-6  # eps itself is far above the tolerance


@pytest.mark.parametrize("tangent", [False, True], ids=["plain", "tangent"])
@pytest.mark.parametrize("x", [0.05, 0.5, 3.0, 10.0, 36.5, 146.0])
def test_coefficients_match_scipy_bessel(lat33, part33, dis33, x, tangent):
    """The FFT/continued-fraction coefficients against scipy.special.jv, and Kapteyn's
    truncation against the tail of jv's own values: never shorter (the bound is
    rigorous) and at most 5 terms longer."""
    eng = EvolutionEngine(ham.op_total(lat33, part33, dis33, 0.4))
    dt = x / eng._radius
    phase, b = eng._coefficients(dt, tangent)  # at x = 146 the tangent series converges
    k = np.arange(int(1.5 * x) + 40)
    j = scipy.special.jv(k, x)
    weight = 1.0 + k * k * len(eng.hamiltonian.sites) / eng._radius if tangent else 1.0
    tail = 2.0 * np.cumsum((np.abs(j) * weight)[::-1])[::-1]
    jv_terms = int(np.argmax(tail < evolve_module._TAIL_TOL))
    assert jv_terms <= b.size <= jv_terms + 5
    got = evolve_module._bessel_j(x, b.size)
    np.testing.assert_allclose(got, j[: b.size], rtol=0, atol=1e-14)
    # the decaying orders to rounding relative to their size: the tangent weighs them by k^2/x
    np.testing.assert_allclose(got[k[: b.size] > x + 1], j[: b.size][k[: b.size] > x + 1], rtol=1e-12, atol=0)
    want = 2.0 * (-1j) ** (k[: b.size] % 4) * j[: b.size]
    want[0] = j[0]
    got = b * np.array([1.0, -1j])[np.arange(b.size) % 2]
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-14)
    assert phase == np.exp(-1j * eng._center * dt)


def test_kapteyn_bound_holds():
    k = np.arange(300)
    for x in (0.0, 1e-3, 0.05, 0.5, 3.0, 10.0, 36.5, 146.0, -7.0):
        assert np.all(np.abs(scipy.special.jv(k, x)) <= evolve_module._bessel_bound(k, x) * (1 + 1e-12))


def test_real_start_matches_the_complex_path(lat34, part34, monkeypatch):
    """The recurrence always runs in float64: e^{i phi} psi is marched as its real
    and imaginary parts, lanes of one march with as many block flip sums over
    twice the lanes, and e^{-i phi} times its result must give the same states."""
    op = ham.op_total(lat34, part34, sample_gaussian(lat34, 1.0, 0.3, seed=5), 0.4)
    psi = np.random.default_rng(2).normal(size=1 << lat34.n_sites)
    psi /= np.linalg.norm(psi)
    turn = np.exp(0.7j)
    sums = []
    flip_block = ham.TransverseFieldOperator.flip_block
    monkeypatch.setattr(
        ham.TransverseFieldOperator,
        "flip_block",
        lambda self, v, out, block: sums.append(v) or flip_block(self, v, out, block),
    )
    ts = np.linspace(0.0, 2.0, 23)
    for call, width in (
        (lambda eng, v: [eng.evolve(v, 1.3)], 1),
        (lambda eng, v: eng.evolve_grid(v, ts), 1),
        (lambda eng, v: list(eng.readout_tangent(v, 0.9, whole(lat34.n_sites))), 2),
    ):
        sums.clear()
        got = call(EvolutionEngine(op), psi)
        real = [(v.dtype, v.shape) for v in sums]
        assert set(real) == {(np.dtype(np.float64), (width, psi.size))}
        sums.clear()
        want = call(EvolutionEngine(op), turn * psi)
        assert [(v.dtype, v.shape) for v in sums] == [(np.dtype(np.float64), (2 * width, psi.size))] * len(real)
        for g, w in zip(got, want):
            assert g.dtype == np.complex128
            np.testing.assert_allclose(g, w / turn, rtol=0, atol=1e-13)


@pytest.mark.parametrize("size,block", [("33", 2), ("34", 5)], ids=["3x3-block2", "3x4-block5"])
def test_march_does_not_depend_on_the_block_size(request, monkeypatch, size, block):
    """Every Tier-1 march fits one block of 2^15 states.  With 4 states a block
    at 3x3, or 32 at 3x4, the march runs 128 blocks a term, and every output is
    the one-block one within the march's own budget, (_TAIL_TOL + 8 terms
    eps) times the start norm: with a diagonal and without, from a real and
    from a complex start.  Not bit for bit: a nibble of sites that the small
    block cuts is summed partly by its product and partly by partner adds.
    Times are short: each block costs interpreter time."""
    lat, part = request.getfixturevalue(f"lat{size}"), request.getfixturevalue(f"part{size}")
    ops = (
        ham.op_total(lat, part, sample_gaussian(lat, 1.0, 0.3, seed=5), 0.4),
        ham.op_probe_omega(part, lat, 0.4),
    )
    rng = np.random.default_rng(8)
    real = rng.normal(size=1 << lat.n_sites)
    starts = (real, real + 1j * rng.normal(size=real.size))
    ts = np.linspace(0.0, 0.3, 23)
    calls = (  # (outputs, their times, tangent)
        (lambda eng, v: [eng.evolve(v, 0.3)], [0.3], False),
        (lambda eng, v: eng.evolve_grid(v, ts), ts, False),
        (lambda eng, v: list(eng.readout_tangent(v, 0.3, whole(lat.n_sites))), [0.3, 0.3], True),
    )

    def outputs():
        return [
            (op, psi, t, tangent, out)
            for op in ops
            for psi in starts
            for call, times, tangent in calls
            for t, out in zip(times, call(EvolutionEngine(op), psi))
        ]

    want = outputs()
    monkeypatch.setattr(ham, "_BLOCK", block)
    assert [len(op.blocks()) for op in ops] == [128, 128]
    for (op, psi, t, tangent, w), (*_, g) in zip(want, outputs(), strict=True):
        terms = EvolutionEngine(op)._coefficients(t, tangent)[1].size
        budget = (evolve_module._TAIL_TOL + 8 * terms * np.finfo(float).eps) * np.linalg.norm(psi)
        assert np.linalg.norm(g - w) <= budget


def test_bound_on_two_blocks_equals_one_block(monkeypatch):
    """The 4x4 bound grid has 2^16 states: two blocks of 2^15, or one of 2^16."""
    lat = Lattice(4, 4)
    part, c = canonical_partition(lat), sample_gaussian(lat, 1.0, 0.3, seed=3)
    ts = np.linspace(0.0, 2.0, 20)
    two = verify_bound(lat, part, c, 0.005, ts).epsilon_values
    monkeypatch.setattr(ham, "_BLOCK", 16)
    one = verify_bound(lat, part, c, 0.005, ts).epsilon_values
    assert np.asarray(two).tobytes() == np.asarray(one).tobytes()


def test_march_does_not_depend_on_the_order_of_the_groups(monkeypatch):
    """A term writes only its own block and reads the one before, and its norm
    is an exact sum, so the order of the groups is free: at 3x6 with 2^10-state
    blocks (probe 13 above a block, so 128 groups of two) the groups in reverse
    give every output bit for bit."""
    lat = Lattice(3, 6)
    part, c = canonical_partition(lat), sample_gaussian(lat, 1.0, 0.3, seed=3)
    monkeypatch.setattr(ham, "_BLOCK", 10)
    psi, h, proj = ramsey_setup("hsf", 0.05, lat, part, c)
    real = np.random.default_rng(4).normal(size=1 << lat.n_sites)
    tfim = ham.op_tfim(lat, c, 0.4)

    def outputs():
        eng = EvolutionEngine(h)
        got = eng.readout_grid(psi, [0.1, 0.2], proj) + list(eng.readout_tangent(psi, 0.1, proj))
        got += eng.evolve_grid(real, [0.1])  # no sites: 256 groups of one block
        got.append(dynamical_fidelity_grid(tfim, 0.4, [0.1, 0.2]))
        return [g.tobytes() for g in got]

    want = outputs()
    walk = states.Projector.walk

    def walk_back(self, blocks):  # the groups, the runs of blocks that share entries, in reverse
        groups = {}
        for item in walk(self, blocks):
            groups.setdefault(item[2].start, []).append(item)
        return [item for group in reversed(groups.values()) for item in group]

    assert len({e.start for _, _, e in walk(proj, h.blocks())}) == 128
    monkeypatch.setattr(states.Projector, "walk", walk_back)
    assert proj.walk(h.blocks())[0][0].start > 0
    assert outputs() == want


def test_threads_sharing_an_engine_read_out_the_sequential_bits():
    """An operator keeps no state between calls: its nibble matrices come from
    one read-only cache and each flip sum allocates its own scratch.  So two
    threads that share one engine, readout and ket at 4x4 ``hsf`` (two 2^15-state
    blocks) read out, three rounds each, every bit of a sequential run: a grid
    of two times (a ring of two terms) and a tangent.  A deadlock fails at the
    join's timeout instead of hanging."""
    lat = Lattice(4, 4)
    part, c = canonical_partition(lat), sample_gaussian(lat, 1.0, 0.3, seed=3)
    psi, h, proj = ramsey_setup("hsf", 0.05, lat, part, c)
    eng = EvolutionEngine(h)

    def outputs():
        got = eng.readout_grid(psi, [0.3, 0.6], proj) + list(eng.readout_tangent(psi, 0.3, proj))
        return [a.tobytes() for a in got]

    want = outputs()
    start, runs = threading.Barrier(2, timeout=60), [[], []]

    def worker(k):
        start.wait()
        for _ in range(3):
            runs[k].append(outputs())

    threads = [threading.Thread(target=worker, args=(k,), daemon=True) for k in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
    assert not any(thread.is_alive() for thread in threads)
    assert runs == [[want] * 3] * 2
    _, m = ham._nibbles(h.sites, ham._BLOCK)[0]
    with pytest.raises(ValueError, match="read-only"):
        m[0, 0] = 2.0


@pytest.mark.parametrize("w,h", [(3, 3), (4, 4)])
def test_an_operator_without_a_diagonal_marches_as_with_a_zero_one(w, h):
    """The march's scalar shift for an operator with no diagonal is a fast path
    only: ``op_omega`` and ``op_probe_omega`` read out bit for bit as the same
    operators with a zero ``Diagonal``, on one block (3x3) and on two (4x4)."""
    lat = Lattice(w, h)
    part = canonical_partition(lat)
    for scheme in ("ghz_free", "hsf_ideal"):
        psi, op, proj = ramsey_setup(scheme, 0.05, lat, part, None)
        assert op.diag is None
        zero = ham.TransverseFieldOperator(op.n_sites, ham._diagonal(op.n_sites, []), op.value, op.sites)
        got, want = (
            [a.tobytes() for a in EvolutionEngine(o).readout_grid(psi, [0.0, 0.3, 1.1], proj)]
            + [a.tobytes() for a in EvolutionEngine(o).readout_tangent(psi, 0.7, proj)]
            for o in (op, zero)
        )
        assert got == want, scheme


@pytest.mark.parametrize("n", [8, 10])
def test_a_readout_of_another_size_is_an_evolution_error(lat33, n):
    """A readout over another number of sites than the operator's fails, naming
    the mismatch, before anything is built: before even the times are checked."""
    eng = EvolutionEngine(ham.op_omega(lat33, 0.4))
    ket = states.GHZKet(range(lat33.n_sites), 0, lat33.n_sites)
    readout = states.Projector(states.PRIMED, (0, 1), n)
    for call in (lambda: eng.readout_grid(ket, [np.nan], readout), lambda: eng.readout_tangent(ket, np.nan, readout)):
        with pytest.raises(EvolutionError, match=r"^readout/Hamiltonian dimension mismatch$"):
            call()


def test_a_series_too_long_to_build_is_an_evolution_error(lat33, dis33):
    """Past 2^20 terms (r t ~ 7e5) the coefficient arrays grow past ~0.3 GB, and
    at r t ~ 1e200 numpy cannot index them: the error names t and r t before
    anything is built."""
    eng = EvolutionEngine(ham.op_tfim(lat33, dis33, 0.4))
    psi = states.ghz_x(lat33.n_sites)
    for t in (1e200, 7.0e5 / eng._radius):
        with pytest.raises(EvolutionError, match=r"t=.*\(r\*t = .*\) would need more than 1048576 terms"):
            eng.evolve(psi, t)
    with pytest.raises(EvolutionError, match="would need more than"):
        EvolutionEngine(ham.op_tfim(lat33, dis33, 1e300)).evolve_grid(psi, [0.0, 0.5])


def test_march_memory_is_two_lane_stacks_and_the_readout_sums(lat34, part34, monkeypatch):
    """The engine keeps no basis-sized array, and a march holds two stacks of
    its lanes beside the readout sums: p_k is written over p_{k-2} block by
    block.  A grid of _RING_TERMS or more times also holds a ring of as many
    terms' branch sums; one time, as every tangent is, holds none.  With
    2^6-state blocks every block-sized buffer is small; the one vector of
    slack covers the readout's buffers and the output being made."""
    monkeypatch.setattr(ham, "_BLOCK", 6)
    psi, h, proj = ramsey_setup("hsf", 0.05, lat34, part34, sample_gaussian(lat34, 1.0, 0.3, seed=3))
    vector = (1 << lat34.n_sites) * np.dtype(np.float64).itemsize
    ring = evolve_module._RING_TERMS
    grid = list(np.linspace(0.1, 0.4, ring + 2))
    calls = (  # (call, lanes, rows, ring terms)
        (lambda eng: eng.readout_grid(psi, [0.1], proj), 1, 1, 0),
        (lambda eng: eng.readout_tangent(psi, 0.1, proj), 2, 1, 0),
        (lambda eng: eng.readout_grid(psi, grid, proj), 1, len(grid), ring),
    )
    for call, *_ in calls:  # numpy's first calls fill caches that stay
        call(EvolutionEngine(h))
    tracemalloc.start()
    try:
        eng = EvolutionEngine(h)
        assert tracemalloc.get_traced_memory()[1] < 0.1 * vector
        for call, lanes, rows, terms in calls:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            out = call(eng)
            peak = tracemalloc.get_traced_memory()[1] - base
            sums = 2 * lanes * proj.size * np.dtype(np.float64).itemsize  # one row: (Re, -Im) per lane
            assert peak < 2 * lanes * vector + (rows + terms) * sums + vector, (lanes, rows, peak / vector)
            del out
    finally:
        tracemalloc.stop()


def test_fidelity_holds_two_lane_stacks_and_no_start_vector():
    """At 3x6 (N = 18) the fidelity grid, operator build included, holds its
    two lane stacks, the 2^15 low table (1/8 of a vector) and block-sized
    buffers: no diagonal and no GHZ start vector (4.4 vectors before)."""
    lat = Lattice(3, 6)
    c = sample_gaussian(lat, 1.0, 0.3, seed=3)
    vector = (1 << lat.n_sites) * np.dtype(np.float64).itemsize
    dynamical_fidelity_grid(ham.op_tfim(lat, c, 0.4), 0.4, [0.1])  # numpy's first calls fill caches that stay
    tracemalloc.start()
    try:
        dynamical_fidelity_grid(ham.op_tfim(lat, c, 0.4), 0.4, [0.1, 0.2])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.75 * vector, peak / vector


def test_calls_leave_the_state_unchanged(lat34, part34):
    """The march runs in place on its own lanes, never on the caller's state."""
    op = ham.op_total(lat34, part34, sample_gaussian(lat34, 1.0, 0.3, seed=5), 0.4)
    rng = np.random.default_rng(3)
    real = rng.normal(size=1 << lat34.n_sites)
    for psi in (real, real + 1j * rng.normal(size=real.size)):
        before = psi.copy()
        eng = EvolutionEngine(op)
        eng.evolve(psi, 1.3)
        eng.evolve_grid(psi, [0.0, 0.4, 2.0])
        eng.readout_tangent(psi, 0.9, whole(lat34.n_sites))
        assert psi.dtype == before.dtype and np.array_equal(psi, before)


def test_sparse_matrix_rejected(lat33, dis33):
    with pytest.raises(EvolutionError, match="TransverseFieldOperator"):
        EvolutionEngine(ham.op_tfim(lat33, dis33, 0.4).tocsr())
