"""End-to-end acceptance checks: one test per headline claim.

Each test prints a PASS line on success so the suite doubles as a short
verification report when run with ``pytest -v -s``.
"""

import math

import numpy as np
import pytest
import scipy.linalg
from scipy.sparse.linalg import expm_multiply

from hsfsense import hamiltonian as ham
from hsfsense import states
from hsfsense.bound import delta_pr_numeric, j_gap, verify_bound
from hsfsense.couplings import homogeneous, k_ratio, sample_gaussian
from hsfsense.evolve import EvolutionEngine, dynamical_fidelity_grid
from hsfsense.fragments import adjacency_components, refinement_check
from hsfsense.lattice import Boundary, Lattice, canonical_partition
from hsfsense.sensing import (
    RamseyConfig,
    ZenoParams,
    bond_square_sum,
    estimator_mse_analytic,
    monte_carlo_estimator,
    numeric_sensitivity,
    ramsey_setup,
    zeno_uncertainty,
)

from test_fragments import fragment_of
from test_hamiltonian import (
    SMALL_LATTICES,
    h_eff_hom_oracle,
    h_eff_inhom_oracle,
    h_int_oracle,
    h_omega_oracle,
    h_shift_oracle,
    site_op,
    small_partition,
    X,
)


def test_acceptance_1_heisenberg_limit():
    """HSF probes under the pure probe drive reach the Heisenberg limit, also
    with two probes (3x6), where the full disordered dynamics stay close to it."""
    rc = RamseyConfig(omega=0.05, t_int=0.1, t_all=10.0)
    for w, h in ((3, 3), (4, 3), (3, 6)):
        lat = Lattice(w, h)
        part = canonical_partition(lat)
        got = numeric_sensitivity("hsf_ideal", rc, lat, part)
        want = 1.0 / (part.n_probe * math.sqrt(rc.t_int * rc.t_int * rc.repetitions))
        assert abs(got - want) / want < 1e-12, f"{w}x{h}: {got} vs {want}"
    assert part.n_probe == 2
    got = numeric_sensitivity("hsf", rc, lat, part, sample_gaussian(lat, 1.0, 0.3, seed=3))
    assert abs(got - want) / want < 1e-3, f"3x6 full dynamics: {got} vs {want}"
    print("\nACCEPTANCE 1 (Heisenberg-limited sensitivity): PASS")


def test_acceptance_2_fidelity_decay_ordering():
    """Fidelity decays from 1, faster for stronger couplings, on 3 seeds."""
    lat = Lattice(4, 3)
    ts = np.linspace(0.0, 0.3, 16)
    jbars = (1.0, 2.0, 4.0)
    for seed in (1, 2, 3):
        curves = {}
        for jbar in jbars:
            c = sample_gaussian(lat, jbar, 0.3 * jbar, seed=seed)
            curves[jbar] = dynamical_fidelity_grid(ham.op_tfim(lat, c, 0.4), 0.4, ts)
        for jbar in jbars:
            assert abs(curves[jbar][0] - 1.0) < 1e-12
        # initial decay window: while the fastest (largest jbar) curve still drops
        kend = 1
        fast = curves[max(jbars)]
        while kend + 1 < len(ts) and fast[kend + 1] < fast[kend]:
            kend += 1
        assert kend >= 2, "decay window too short to compare"
        for jbar in jbars:
            assert np.all(np.diff(curves[jbar][: kend + 1]) < 0), f"not decreasing at J={jbar}"
        for small, large in zip(jbars, jbars[1:]):
            assert np.all(curves[large][1 : kend + 1] <= curves[small][1 : kend + 1]), (
                f"seed {seed}: ordering violated between J={small} and J={large}"
            )
    print("\nACCEPTANCE 2 (fidelity decay and coupling ordering): PASS")


def test_acceptance_3_error_bound_never_violated():
    """|eps(t)| <= rhs(t) pointwise for N = 12, both drive strengths, 5 seeds."""
    lat = Lattice(4, 3)
    part = canonical_partition(lat)
    ts = np.linspace(0.0, 2.0, 50)
    checked = 0
    for ratio in (1e-2, 1e-3):
        for seed in range(5):
            c = sample_gaussian(lat, 1.0, 0.2, seed=seed)
            report = verify_bound(lat, part, c, omega=ratio * c.jbar, t_grid=ts)
            assert report.satisfied, (
                f"violation at ratio={ratio}, seed={seed}, max_ratio={report.max_ratio}"
            )
            assert np.all(np.abs(report.epsilon_values) <= report.rhs_values)
            checked += len(ts)
    print(f"\nACCEPTANCE 3 (universal error bound, {checked} grid points): PASS")


# eps(t) of the 2-probe case below on np.linspace(0, 2, 10): the projector
# expectation of expm_multiply(-1j * H, psi, start=0, stop=2, num=10, endpoint=True)
# under op_total(...).tocsr() minus the one under op_probe_omega(...).tocsr().
# Pinned: at N=18 that reference takes ~18 s on 2 cores, six times the bound check itself.
EPS_3X6_EXPM_MULTIPLY = [
    0.0, -4.448557577862999e-08, -4.6668201336697024e-07, -1.129327737547925e-06,
    -1.1780600431832156e-06, -6.29311716737746e-07, -2.735363132666535e-07,
    -2.3958864403539337e-07, -2.994299385106203e-07, -5.245894393324235e-07,
]


def test_acceptance_3_error_bound_with_two_probes():
    """The bound holds, and is not vacuous, with two probes (3x6); eps(t) matches
    an expm_multiply reference far below its own size."""
    lat = Lattice(3, 6)
    part = canonical_partition(lat)
    assert part.n_probe == 2
    ts = np.linspace(0.0, 2.0, 10)
    report = verify_bound(lat, part, sample_gaussian(lat, 1.0, 0.2, seed=0), omega=0.005, t_grid=ts)
    assert report.satisfied and not report.vacuous, f"max_ratio={report.max_ratio}"
    np.testing.assert_allclose(report.epsilon_values, EPS_3X6_EXPM_MULTIPLY, rtol=0, atol=1e-10)
    assert np.max(np.abs(report.epsilon_values)) > 1e-6
    print(f"\nACCEPTANCE 3 (error bound with two probes, max_ratio={report.max_ratio:.2g}): PASS")


def test_acceptance_4_gap_inequalities():
    """delta_pr >= j_gap >= 4(1-k)jbar > 0; homogeneous case exactly 4 jbar."""
    lat = Lattice(3, 3)
    part = canonical_partition(lat)
    hom = homogeneous(lat, 1.0)
    assert j_gap(lat, part, hom) == pytest.approx(4.0, abs=1e-14)
    assert delta_pr_numeric(part, ham.op_total(lat, part, hom, 0.0).diag) == pytest.approx(4.0, abs=1e-14)
    for seed in range(20):
        c = sample_gaussian(lat, 1.0, 0.25, seed=seed)
        jg = j_gap(lat, part, c)
        dpr = delta_pr_numeric(part, ham.op_total(lat, part, c, 0.0).diag)
        floor = 4.0 * (1.0 - k_ratio(c)) * c.jbar
        assert dpr >= jg - 1e-12 >= floor - 2e-12 and floor > 0, (
            f"seed {seed}: dpr={dpr}, j_gap={jg}, floor={floor}"
        )
    print("\nACCEPTANCE 4 (spectral gap inequalities on 20 maps): PASS")


def test_acceptance_5_zeno_scaling():
    """log-log slope -0.75 +/- 0.02 at the origin; origin is the grid optimum."""
    params = ZenoParams(tau=0.1, beta=0.0, gamma=0.0, omega0=1e-3, jbar=2.0)
    ns = [2**k for k in range(6, 13)]
    xs = [math.log(n) for n in ns]
    ys = [math.log(zeno_uncertainty(params, n, 1.0)) for n in ns]
    slope = float(np.polyfit(xs, ys, 1)[0])
    assert abs(slope + 0.75) <= 0.02, f"slope {slope}"
    base = zeno_uncertainty(params, 4096, 1.0)
    grid = np.linspace(0.0, 0.5, 11)
    for beta in grid:
        for gamma in grid:
            p = ZenoParams(tau=0.1, beta=float(beta), gamma=float(gamma), omega0=1e-3, jbar=2.0)
            assert zeno_uncertainty(p, 4096, 1.0) >= base - 1e-15, (
                f"minimum not at origin: beta={beta}, gamma={gamma}"
            )
    print(f"\nACCEPTANCE 5 (intermediate-scale scaling, slope={slope:.4f}): PASS")


def test_acceptance_5_exact_dynamics_follow_the_zeno_closed_form():
    """The closed form against exact dynamics: ``ghz_interacting`` with
    homogeneous jbar = 1, omega = 1e-3/N and t_int = tau N^(-1/2), so
    t_all = 1000 t_int holds whole repetitions, on N = 9, 12, 16 and 18 under
    both boundaries.  The closed form drops the order t_int^2 sum J^2, so the
    relative gap over that order stays near 1 (0.93-0.98 measured at both tau,
    0.974 on a disordered 4x4 map); at tau = 0.05 the fitted exponent of
    delta_omega sqrt(t_all) in N is -3/4."""

    def gap_over_dropped_order(lat, c, tau):
        n = lat.n_sites
        t_int = tau / math.sqrt(n)
        rc = RamseyConfig(omega=1e-3 / n, t_int=t_int, t_all=1000 * t_int)
        exact = numeric_sensitivity("ghz_interacting", rc, lat, None, c)
        closed = zeno_uncertainty(ZenoParams(tau=tau, beta=0.0, gamma=0.0, omega0=1e-3, jbar=1.0), n, rc.t_all)
        return (exact - closed) / closed / (t_int**2 * bond_square_sum(c)), exact * math.sqrt(rc.t_all)

    for boundary in Boundary:
        for tau in (0.1, 0.05):
            ns, scaled = [], []
            for w, h in ((3, 3), (4, 3), (4, 4), (3, 6)):
                lat = Lattice(w, h, boundary)
                ratio, y = gap_over_dropped_order(lat, homogeneous(lat, 1.0), tau)
                assert 0.85 <= ratio <= 1.1, (boundary, tau, lat.n_sites, ratio)
                ns.append(lat.n_sites)
                scaled.append(y)
            slope = float(np.polyfit(np.log(ns), np.log(scaled), 1)[0])
            if tau == 0.05:
                assert abs(slope + 0.75) <= 0.005, (boundary, slope)
    lat = Lattice(4, 4)
    ratio, _ = gap_over_dropped_order(lat, sample_gaussian(lat, 1.0, 0.3, seed=3), 0.1)
    assert 0.85 <= ratio <= 1.1, ratio
    print("\nACCEPTANCE 5 (exact dynamics against the Zeno closed form, N = 9-18): PASS")


def test_acceptance_6_second_order_series():
    """Series error falls by a factor in [4, 16] per halving of t_int."""
    from hsfsense.sensing import p_s_second_order

    lat = Lattice(3, 3)
    c = sample_gaussian(lat, 1.0, 0.3, seed=7)
    psi0, h, proj = ramsey_setup("ghz_interacting", 0.4, lat, None, c)
    eng = EvolutionEngine(h)
    errs = []
    for t in (0.02, 0.01, 0.005):
        rc = RamseyConfig(omega=0.4, t_int=t, t_all=10.0)
        exact = states.measurement_probability(eng.evolve(psi0, t), proj)
        errs.append(abs(exact - p_s_second_order(rc, c)))
    ratios = [errs[0] / errs[1], errs[1] / errs[2]]
    assert all(4.0 <= r <= 16.0 for r in ratios), f"ratios {ratios}"
    print(f"\nACCEPTANCE 6 (second-order series, halving ratios {ratios[0]:.2f}, {ratios[1]:.2f}): PASS")


def test_acceptance_7_estimator_mse():
    """Empirical estimator MSE matches the analytic expression within 10%."""
    rc = RamseyConfig(omega=0.4, t_int=0.1, t_all=10.0)
    n_probe = 1
    p_true = 0.5 * (1.0 + math.sin(n_probe * rc.omega * rc.t_int))
    eps = p_true - 0.5 * (1.0 + n_probe * rc.omega * rc.t_int)
    for m in (100, 1000):
        _, mse = monte_carlo_estimator(rc, p_true, n_probe, m, seed=(12, m), trials=10_000)
        want = estimator_mse_analytic(p_true, eps, n_probe, rc.t_int, m)
        assert abs(mse - want) / want < 0.10, f"M={m}: {mse} vs {want}"
    print("\nACCEPTANCE 7 (estimator mean-square error): PASS")


def test_acceptance_8_fragmentation_structure():
    import scipy.sparse as sp

    lat = Lattice(3, 3)
    part = canonical_partition(lat)
    h_hom = ham.build_h_eff_homogeneous(lat, 1.0, 0.1)
    dw = sp.diags(ham.dw_diagonal(lat).astype(float))
    rep_hom = adjacency_components(h_hom, lat)
    comm = h_hom @ dw - dw @ h_hom
    assert comm.nnz == 0 or abs(comm).max() == 0.0
    sector, _, size = rep_hom.fragments.T
    assert np.bincount(sector[size >= 2]).max() >= 2
    assert (rep_hom.total_fragments, rep_hom.max_fragment_size, rep_hom.frozen_states) == (66, 122, 45)
    leak_max = 0.0
    for seed in (1, 2, 3):
        c = sample_gaussian(lat, 1.0, 0.3, seed=seed)
        for dth in (0.03, 0.1, 0.3):
            h_in = ham.build_h_eff_inhomogeneous(lat, part, c, 0.1, dth)
            comm = h_in @ dw - dw @ h_in
            assert comm.nnz == 0 or abs(comm).max() == 0.0
            rep_in = adjacency_components(h_in, lat)
            masks_in = ham.flip_masks_inhomogeneous(lat, part, c, dth)
            assert refinement_check(rep_hom, rep_in, ham.flip_masks_homogeneous(lat), masks_in), (
                f"seed {seed}, delta_th {dth}: not a refinement"
            )
            psi = states.embed(states.ghz_x(part.n_probe), part, lat)
            frag = fragment_of(psi, h_in)
            frozen = states.frozen_bits(part)
            amask = sum(1 << a for a in part.ancilla_sites)
            assert all((s & amask) == frozen for s in frag)
            outside = np.array(sorted(set(range(1 << 9)) - frag))
            leak = np.linalg.norm(expm_multiply(-3j * h_in, psi)[outside])
            leak_max = max(leak_max, leak)
            assert leak < 1e-12
    print(f"\nACCEPTANCE 8 (fragmentation census and confinement, max leak {leak_max:.1e}): PASS")


def test_acceptance_8_confinement_with_two_probes():
    """With two probes (3x6), the fragment of the embedded GHZ state is the frozen
    subspace: every probe configuration over the frozen ancilla pattern, with no
    matrix element of h_eff leaving it."""
    lat = Lattice(3, 6)
    part = canonical_partition(lat)
    assert part.n_probe == 2
    h_in = ham.build_h_eff_inhomogeneous(lat, part, sample_gaussian(lat, 1.0, 0.3, seed=1), 0.1, 0.1)
    psi = states.embed(states.ghz_x(part.n_probe), part, lat)
    frag = np.array(sorted(fragment_of(psi, h_in)))
    amask = sum(1 << a for a in part.ancilla_sites)
    assert np.all((frag & amask) == states.frozen_bits(part))
    assert frag.size == 1 << part.n_probe
    outside = np.setdiff1d(np.arange(1 << lat.n_sites), frag)
    assert h_in[outside][:, frag].count_nonzero() == 0
    print(f"\nACCEPTANCE 8 (confinement with two probes, fragment of {frag.size} states): PASS")


def test_acceptance_9_oracle_equivalence():
    """Builders match the dense Kronecker oracle; the Chebyshev propagator matches
    dense expm at N=10."""
    for lat in SMALL_LATTICES:
        c = sample_gaussian(lat, 1.2, 0.3, seed=6)
        np.testing.assert_allclose(
            ham.build_h_omega(lat, 0.7).toarray(), h_omega_oracle(lat, 0.7), atol=1e-14
        )
        np.testing.assert_allclose(
            ham.build_h_int(lat, c).toarray(), h_int_oracle(lat, c), atol=1e-14
        )
        np.testing.assert_allclose(
            ham.build_h_eff_homogeneous(lat, 1.0, 0.4).toarray(),
            h_eff_hom_oracle(lat, 1.0, 0.4),
            atol=1e-14,
        )
    lat22 = Lattice(2, 2)
    part22 = small_partition(lat22)
    c22 = sample_gaussian(lat22, 1.0, 0.2, seed=8)
    np.testing.assert_allclose(
        ham.build_h_shift(part22, c22).toarray(), h_shift_oracle(lat22, part22, c22), atol=1e-14
    )
    np.testing.assert_allclose(
        ham.build_h_total(lat22, part22, c22, 0.5).toarray(),
        h_omega_oracle(lat22, 0.5) + h_int_oracle(lat22, c22) + h_shift_oracle(lat22, part22, c22),
        atol=1e-14,
    )
    np.testing.assert_allclose(
        ham.build_h_eff_inhomogeneous(lat22, part22, c22, 0.4, 0.15).toarray(),
        h_eff_inhom_oracle(lat22, part22, c22, 0.4, 0.15),
        atol=1e-14,
    )
    np.testing.assert_array_equal(
        ham.build_h_probe_omega(part22, lat22, 0.9).toarray(), 0.45 * site_op(4, 0, X)
    )

    lat = Lattice(5, 2)
    c = sample_gaussian(lat, 1.0, 0.3, seed=4)
    h = ham.op_tfim(lat, c, 0.4)
    psi = states.ghz_x(10)
    worst = 0.0
    for t in (0.3, 1.0, 2.5):
        want = scipy.linalg.expm(-1j * t * h.tocsr().toarray()) @ psi  # dense oracle
        worst = max(worst, float(np.linalg.norm(EvolutionEngine(h).evolve(psi, t) - want)))
    assert worst < 1e-9, f"Chebyshev/dense expm mismatch {worst}"
    print(f"\nACCEPTANCE 9 (oracle equivalence, Chebyshev-expm distance {worst:.1e}): PASS")
