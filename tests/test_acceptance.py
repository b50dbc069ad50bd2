"""End-to-end acceptance checks: one test per headline claim.

Each test prints a PASS line on success so the suite doubles as a short
verification report when run with ``pytest -v -s``.
"""

import math

import numpy as np
import pytest
import scipy.linalg

from hsfsense import hamiltonian as ham
from hsfsense import states
from hsfsense.bound import delta_pr_numeric, j_gap, verify_bound
from hsfsense.couplings import homogeneous, k_ratio, sample_gaussian
from hsfsense.evolve import EvolutionEngine, dynamical_fidelity_grid
from hsfsense.fragments import adjacency_components, fragment_of, refinement_check
from hsfsense.lattice import Lattice, canonical_partition
from hsfsense.sensing import (
    RamseyConfig,
    ZenoParams,
    estimator_mse_analytic,
    monte_carlo_estimator,
    numeric_sensitivity,
    zeno_uncertainty,
)

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
        got = numeric_sensitivity("hsf", rc, lat, part, None, ideal=True)
        want = 1.0 / (part.n_probe * math.sqrt(rc.t_int * rc.t_int * rc.repetitions))
        assert abs(got - want) / want < 1e-6, f"{w}x{h}: {got} vs {want}"
    assert part.n_probe == 2
    got = numeric_sensitivity("hsf", rc, lat, part, sample_gaussian(lat, 1.0, 0.3, seed=3))
    assert abs(got - want) / want < 1e-3, f"3x6 full dynamics: {got} vs {want}"
    print("\nACCEPTANCE 1 (Heisenberg-limited sensitivity): PASS")


def test_acceptance_2_fidelity_decay_ordering():
    """Fidelity decays from 1, faster for stronger couplings, on 3 seeds."""
    lat = Lattice(4, 3)
    psi = states.ghz_x(12)
    ts = np.linspace(0.0, 0.3, 16)
    jbars = (1.0, 2.0, 4.0)
    for seed in (1, 2, 3):
        curves = {}
        for jbar in jbars:
            c = sample_gaussian(lat, jbar, 0.3 * jbar, seed=seed)
            curves[jbar] = dynamical_fidelity_grid(
                psi, ham.build_h_omega(lat, 0.4), ham.build_h_tfim(lat, c, 0.4), ts
            )
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


def test_acceptance_4_gap_inequalities():
    """delta_pr >= j_gap >= 4(1-k)jbar > 0; homogeneous case exactly 4 jbar."""
    lat = Lattice(3, 3)
    part = canonical_partition(lat)
    hom = homogeneous(lat, 1.0)
    assert j_gap(lat, part, hom) == pytest.approx(4.0, abs=1e-14)
    assert delta_pr_numeric(lat, part, hom) == pytest.approx(4.0, abs=1e-14)
    for seed in range(20):
        c = sample_gaussian(lat, 1.0, 0.25, seed=seed)
        jg = j_gap(lat, part, c)
        dpr = delta_pr_numeric(lat, part, c)
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


def test_acceptance_6_second_order_series():
    """Series error falls by a factor in [4, 16] per halving of t_int."""
    from hsfsense.sensing import p_s_second_order

    lat = Lattice(3, 3)
    c = sample_gaussian(lat, 1.0, 0.3, seed=7)
    psi0 = states.ghz_x(9)
    proj = states.rank1_projector(states.ghz_x(9, "primed"))
    eng = EvolutionEngine(ham.build_h_tfim(lat, c, 0.4))
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
    assert any(sum(s >= 2 for s in sec.fragment_sizes) >= 2 for sec in rep_hom.sectors)
    assert (rep_hom.total_fragments, rep_hom.max_fragment_size, rep_hom.frozen_states) == (66, 122, 45)
    leak_max = 0.0
    for seed in (1, 2, 3):
        c = sample_gaussian(lat, 1.0, 0.3, seed=seed)
        for dth in (0.03, 0.1, 0.3):
            h_in = ham.build_h_eff_inhomogeneous(lat, part, c, 0.1, dth)
            comm = h_in @ dw - dw @ h_in
            assert comm.nnz == 0 or abs(comm).max() == 0.0
            rep_in = adjacency_components(h_in, lat)
            assert refinement_check(rep_hom, rep_in, h_hom, h_in), (
                f"seed {seed}, delta_th {dth}: not a refinement"
            )
            psi = states.embed(states.ghz_x(part.n_probe), part, lat)
            frag = fragment_of(psi, h_in)
            frozen = states.frozen_bits(part)
            amask = sum(1 << a for a in part.ancilla_sites)
            assert all((s & amask) == frozen for s in frag)
            outside = np.array(sorted(set(range(1 << 9)) - frag))
            leak = np.linalg.norm(EvolutionEngine(h_in).evolve(psi, 3.0)[outside])
            leak_max = max(leak_max, leak)
            assert leak < 1e-12
    print(f"\nACCEPTANCE 8 (fragmentation census and confinement, max leak {leak_max:.1e}): PASS")


def test_acceptance_9_oracle_equivalence():
    """Builders match the dense Kronecker oracle; Krylov matches eig at N=10."""
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
    h = ham.build_h_tfim(lat, c, 0.4)
    psi = states.ghz_x(10)
    worst = 0.0
    for t in (0.3, 1.0, 2.5):
        want = scipy.linalg.expm(-1j * t * h.toarray()) @ psi  # dense oracle
        worst = max(worst, float(np.linalg.norm(EvolutionEngine(h).evolve(psi, t) - want)))
    assert worst < 1e-9, f"Chebyshev/dense expm mismatch {worst}"
    print(f"\nACCEPTANCE 9 (oracle equivalence, Chebyshev-expm distance {worst:.1e}): PASS")
