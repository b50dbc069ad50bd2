import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hsfsense import hamiltonian as ham
from hsfsense import states
from hsfsense.couplings import homogeneous, sample_gaussian
from hsfsense.errors import SensingError
from hsfsense.evolve import EvolutionEngine
from hsfsense.lattice import Lattice, canonical_partition
from hsfsense.sensing import (
    SCHEMES,
    RamseyConfig,
    ZenoParams,
    bond_square_sum,
    estimator_mse_analytic,
    monte_carlo_estimator,
    _ramsey_setup,
    numeric_sensitivity,
    p_s_second_order,
    ramsey_uncertainty,
    zeno_asymptote,
    zeno_uncertainty,
)


def test_ramsey_uncertainty_formula():
    assert ramsey_uncertainty(0.5, 2.0, 4) == pytest.approx(0.5 / (2.0 * 2.0))


def test_ramsey_uncertainty_degenerate_inputs():
    with pytest.raises(SensingError):
        ramsey_uncertainty(0.0, 1.0, 10)
    with pytest.raises(SensingError):
        ramsey_uncertainty(0.5, 0.0, 10)
    with pytest.raises(SensingError):
        ramsey_uncertainty(0.5, 1.0, 0)


@given(st.floats(0.01, 0.99), st.floats(0.1, 50.0), st.integers(1, 10000))
def test_ramsey_uncertainty_positive(p, dp, m):
    assert ramsey_uncertainty(p, dp, m) > 0


def test_repetitions_floor():
    cases = {(0.3, 1.0): 3, (0.3, 0.5): 1, (0.1, 10.0): 100}
    # t_all / t_int rounds just below the integer for these three
    cases.update({(0.1, 0.3): 3, (0.2, 0.6): 3, (0.1, 0.7): 7})
    for (t_int, t_all), want in cases.items():
        assert RamseyConfig(omega=0.1, t_int=t_int, t_all=t_all).repetitions == want, (t_int, t_all)


def richardson_sensitivity(scheme, rc, lat, part, couplings, ideal=False):
    """Test oracle: delta-omega from a central difference with one Richardson
    refinement at step max(1e-6, 1e-3 |omega|), each P(omega) one evolution."""
    psi0, h, proj = _ramsey_setup(scheme, rc.omega, lat, part, couplings, ideal)

    def p_of(w):
        state = EvolutionEngine(replace(h, value=w / 2.0)).evolve(psi0, rc.t_int)
        return states.measurement_probability(state, proj)

    step = max(1e-6, 1e-3 * abs(rc.omega))
    d_coarse = (p_of(rc.omega + step) - p_of(rc.omega - step)) / (2 * step)
    d_fine = (p_of(rc.omega + step / 2) - p_of(rc.omega - step / 2)) / step
    return ramsey_uncertainty(p_of(rc.omega), (4 * d_fine - d_coarse) / 3.0, rc.repetitions)


@settings(max_examples=12, deadline=None)
@given(
    st.sampled_from([(3, 3), (4, 3)]),
    st.sampled_from(SCHEMES),
    st.floats(0.01, 0.2),
    st.floats(0.02, 0.3),
    st.integers(0, 1000),
)
def test_exact_slope_matches_richardson_oracle(shape, scheme, omega, t_int, seed):
    lat = Lattice(*shape)
    part = canonical_partition(lat)
    c = sample_gaussian(lat, 1.0, 0.3, seed=seed)
    rc = RamseyConfig(omega=omega, t_int=t_int, t_all=10.0)
    want = richardson_sensitivity(scheme, rc, lat, part, c)
    assert numeric_sensitivity(scheme, rc, lat, part, c) == pytest.approx(want, rel=1e-8)


def test_exact_slope_matches_richardson_oracle_with_two_probes():
    lat = Lattice(3, 6)
    part = canonical_partition(lat)
    assert part.n_probe == 2
    c = sample_gaussian(lat, 1.0, 0.3, seed=7919)
    rc = RamseyConfig(omega=0.05, t_int=0.1, t_all=10.0)
    want = richardson_sensitivity("hsf", rc, lat, part, c)
    assert numeric_sensitivity("hsf", rc, lat, part, c) == pytest.approx(want, rel=1e-8)


def test_config_rejects_bad_times():
    with pytest.raises(SensingError):
        RamseyConfig(omega=0.1, t_int=0.0, t_all=1.0)
    with pytest.raises(SensingError):
        RamseyConfig(omega=0.1, t_int=2.0, t_all=1.0)


def test_phase_warning_trips_on_large_accumulated_phase():
    rc = RamseyConfig(omega=0.4, t_int=0.1, t_all=10.0)
    assert not rc.phase_warning(9)
    assert rc.phase_warning(20)


def test_ghz_free_attains_heisenberg_limit(lat33):
    """Non-interacting GHZ Ramsey: delta-omega = 1/(N sqrt(T_int T_all))."""
    rc = RamseyConfig(omega=0.05, t_int=0.1, t_all=10.0)
    got = numeric_sensitivity("ghz_free", rc, lat33)
    m = rc.repetitions
    want = 1.0 / (9 * math.sqrt(rc.t_int * rc.t_int * m))
    assert got == pytest.approx(want, rel=1e-6)


def test_hsf_ideal_attains_probe_heisenberg_limit(lat33, part33):
    rc = RamseyConfig(omega=0.05, t_int=0.1, t_all=10.0)
    got = numeric_sensitivity("hsf", rc, lat33, part33, None, ideal=True)
    m = rc.repetitions
    want = 1.0 / (part33.n_probe * math.sqrt(rc.t_int * rc.t_int * m))
    assert got == pytest.approx(want, rel=1e-6)


def test_interacting_ghz_is_never_better_than_free(lat33, dis33):
    rc = RamseyConfig(omega=0.05, t_int=0.1, t_all=10.0)
    free = numeric_sensitivity("ghz_free", rc, lat33)
    inter = numeric_sensitivity("ghz_interacting", rc, lat33, couplings=dis33)
    assert inter >= free * (1 - 1e-9)


def test_unknown_scheme_rejected(lat33):
    rc = RamseyConfig(omega=0.05, t_int=0.1, t_all=10.0)
    with pytest.raises(SensingError):
        numeric_sensitivity("bell", rc, lat33)


def test_bond_square_sum_homogeneous(lat33):
    """12 dynamical bonds at J^2 plus coherent corner/edge frame fields.

    Corners carry two unit frame bonds (field 2, square 4), edge centers one.
    """
    s = bond_square_sum(homogeneous(lat33, 1.0))
    assert s == pytest.approx(12 + 4 * 4 + 4 * 1)


def test_second_order_series_has_third_order_error(lat33, dis33):
    """|P_exact - P_series| must fall as t^3 when t halves."""
    n = lat33.n_sites
    psi0 = states.ghz_x(n)
    proj = states.rank1_projector(states.ghz_x(n, "primed"))
    h = ham.build_h_tfim(lat33, dis33, 0.4)
    eng = EvolutionEngine(h)
    errs = []
    for t in (0.02, 0.01, 0.005):
        rc = RamseyConfig(omega=0.4, t_int=t, t_all=10.0)
        exact = states.measurement_probability(eng.evolve(psi0, t), proj)
        errs.append(abs(exact - p_s_second_order(rc, dis33)))
    assert errs[0] / errs[1] > 4.0
    assert errs[1] / errs[2] > 4.0


def test_zeno_slope_is_minus_three_quarters():
    p = ZenoParams(tau=0.1, beta=0.0, gamma=0.0, omega0=1e-3, jbar=1.0)
    ns = [2**k for k in range(6, 13)]
    ys = [math.log(zeno_uncertainty(p, n, 1.0)) for n in ns]
    xs = [math.log(n) for n in ns]
    slope = np.polyfit(xs, ys, 1)[0]
    assert slope == pytest.approx(-0.75, abs=0.02)


def test_zeno_approaches_asymptote():
    p = ZenoParams(tau=0.1, beta=0.0, gamma=0.0, omega0=1e-3, jbar=2.0)
    n = 1 << 16
    assert zeno_uncertainty(p, n, 3.0) == pytest.approx(zeno_asymptote(p, n, 3.0), rel=1e-2)


def test_zeno_minimum_at_origin():
    p0 = ZenoParams(tau=0.1, beta=0.0, gamma=0.0, omega0=1e-3, jbar=2.0)
    base = zeno_uncertainty(p0, 4096, 1.0)
    for beta in np.linspace(0.0, 0.5, 6):
        for gamma in np.linspace(0.0, 0.5, 6):
            p = ZenoParams(tau=0.1, beta=float(beta), gamma=float(gamma), omega0=1e-3, jbar=2.0)
            assert zeno_uncertainty(p, 4096, 1.0) >= base - 1e-15


def test_zeno_rejects_negative_exponents_and_breakdown():
    with pytest.raises(SensingError):
        ZenoParams(tau=1.0, beta=-0.1, gamma=0.0, omega0=1e-3, jbar=1.0)
    # tau too long: the subtracted third-order term dominates
    p = ZenoParams(tau=10.0, beta=0.0, gamma=0.0, omega0=1e-3, jbar=1.0)
    with pytest.raises(SensingError):
        zeno_uncertainty(p, 64, 1.0)


def test_estimator_mse_analytic_formula():
    got = estimator_mse_analytic(0.52, 0.0, 1, 0.1, 100)
    assert got == pytest.approx(4.0 / 0.01 * 0.52 * 0.48 / 100)


def test_monte_carlo_estimator_reproducible():
    rc = RamseyConfig(omega=0.4, t_int=0.1, t_all=10.0)
    a = monte_carlo_estimator(rc, 0.52, 1, 100, seed=3, trials=50)
    b = monte_carlo_estimator(rc, 0.52, 1, 100, seed=3, trials=50)
    assert a == b
    c = monte_carlo_estimator(rc, 0.52, 1, 100, seed=4, trials=50)
    assert a != c


def test_monte_carlo_estimator_is_unbiased_at_linear_order():
    rc = RamseyConfig(omega=0.4, t_int=0.1, t_all=10.0)
    p_lin = 0.5 * (1.0 + 1 * rc.omega * rc.t_int)
    mean, _ = monte_carlo_estimator(rc, p_lin, 1, 400, seed=0, trials=4000)
    se = math.sqrt(estimator_mse_analytic(p_lin, 0.0, 1, rc.t_int, 400) / 4000)
    assert abs(mean - rc.omega) < 5 * se


def test_monte_carlo_rejects_bad_inputs():
    rc = RamseyConfig(omega=0.4, t_int=0.1, t_all=10.0)
    with pytest.raises(SensingError):
        monte_carlo_estimator(rc, 1.5, 1, 100, seed=1)
    with pytest.raises(SensingError):
        monte_carlo_estimator(rc, 0.5, 1, 0, seed=1)
