import math

import numpy as np
import pytest

from hsfsense import hamiltonian as ham
from hsfsense import states
from hsfsense.bound import (
    delta_pr_numeric,
    error_bound_rhs,
    j_gap,
    verify_bound,
)
from hsfsense.couplings import homogeneous, k_ratio, sample_gaussian
from hsfsense.errors import BoundError, PartitionError
from hsfsense.lattice import Lattice, SitePartition, canonical_partition


def test_homogeneous_gaps_are_exactly_4j(lat33, part33, hom33):
    assert j_gap(lat33, part33, hom33) == pytest.approx(4.0, abs=1e-14)
    diag = ham.op_total(lat33, part33, hom33, 0.0).diag
    assert delta_pr_numeric(part33, diag) == pytest.approx(4.0, abs=1e-14)


def test_gap_inequality_chain(lat33, part33):
    """delta_pr >= j_gap >= 4(1-k) jbar > 0 on random maps."""
    for seed in range(8):
        c = sample_gaussian(lat33, 1.0, 0.25, seed=seed)
        jg = j_gap(lat33, part33, c)
        dpr = delta_pr_numeric(part33, ham.op_total(lat33, part33, c, 0.0).diag)
        floor = 4.0 * (1.0 - k_ratio(c)) * c.jbar
        assert dpr >= jg - 1e-12
        assert jg >= floor - 1e-12
        assert floor > 0.0


def single_flip_gap(diag, part):
    """min |diag[s ^ 2^a] - diag[s]| over the frozen states s and ancillas a, one state at a time."""
    best = math.inf
    for s in states.frozen_subspace(part).tolist():
        for a in part.ancilla_sites:
            best = min(best, abs(diag[s ^ (1 << a)] - diag[s]))
    return best


def test_delta_pr_matches_scalar_enumeration(lat33, part33):
    """delta_pr is the single-flip gap of the marched operator's expanded
    diagonal bit for bit.  Against ``ising_diagonal + shift_diagonal`` it is
    bit for bit while the low table spans the basis, and within 1e-13 relative
    past it (N = 16-20), where a state's terms are summed in two tables."""
    cases = [(lat33, part33)] + [(lat, canonical_partition(lat)) for lat in (Lattice(3, 6), Lattice(4, 4), Lattice(5, 4))]
    assert cases[1][1].n_probe == 2
    for lat, part in cases:
        c = sample_gaussian(lat, 1.0, 0.3, seed=5)
        diag = ham.op_total(lat, part, c, 0.0).diag
        got = delta_pr_numeric(part, diag)
        assert got == single_flip_gap(diag.expand(), part)
        whole = single_flip_gap(ham.ising_diagonal(c) + ham.shift_diagonal(part, c), part)
        if lat.n_sites <= 15:
            assert got == whole
        else:
            assert got == pytest.approx(whole, rel=1e-13, abs=0)


def test_j_gap_scales_with_jbar(lat33, part33):
    a = j_gap(lat33, part33, homogeneous(lat33, 1.0))
    b = j_gap(lat33, part33, homogeneous(lat33, 2.5))
    assert b == pytest.approx(2.5 * a)


def test_rhs_formula_and_monotonicity():
    n, omega, jg = 9, 0.01, 4.0
    x = n * omega / jg
    assert error_bound_rhs(n, omega, jg, 0.0) == pytest.approx(2 * x)
    assert error_bound_rhs(n, omega, jg, 2.0) == pytest.approx(
        2 * x + 2 * (math.exp(x) - 1) * n * omega * 2.0
    )
    ts = np.linspace(0.0, 5.0, 30)
    vals = [error_bound_rhs(n, omega, jg, t) for t in ts]
    assert all(b >= a for a, b in zip(vals, vals[1:]))


def test_rhs_takes_the_whole_grid():
    """An array t gives each scalar call's value bitwise; any t < 0 is rejected."""
    ts = np.linspace(0.0, 5.0, 30)
    want = [error_bound_rhs(9, 0.01, 4.0, t) for t in ts]
    np.testing.assert_array_equal(error_bound_rhs(9, 0.01, 4.0, ts), want)
    with pytest.raises(BoundError):
        error_bound_rhs(9, 0.01, 4.0, np.array([0.0, 1.0, -1e-3]))
    with pytest.raises(BoundError):
        error_bound_rhs(9, 0.01, 4.0, -1.0)


def test_rhs_rejects_nonpositive_gap():
    with pytest.raises(BoundError):
        error_bound_rhs(9, 0.01, 0.0, 1.0)


def test_verify_bound_holds_on_3x3(lat33, part33):
    c = sample_gaussian(lat33, 1.0, 0.2, seed=3)
    ts = np.linspace(0.0, 2.0, 25)
    report = verify_bound(lat33, part33, c, omega=0.01, t_grid=ts)
    assert report.satisfied
    assert not report.vacuous
    assert report.max_ratio < 1.0
    assert np.all(np.abs(report.epsilon_values) <= report.rhs_values + 1e-15)
    assert report.j_g > 0 and report.delta_pr >= report.j_g - 1e-12


def test_verify_bound_with_delta_pr_gap(lat33, part33):
    c = sample_gaussian(lat33, 1.0, 0.2, seed=3)
    ts = np.linspace(0.0, 1.0, 10)
    report = verify_bound(lat33, part33, c, omega=0.01, t_grid=ts)
    sharp = np.array([error_bound_rhs(lat33.n_sites, 0.01, report.delta_pr, t) for t in ts])
    assert np.all(np.abs(report.epsilon_values) <= sharp + 1e-14)
    # a larger gap gives a smaller right-hand side
    assert np.all(sharp <= report.rhs_values + 1e-15)


def test_report_csv_shape(lat33, part33, hom33):
    ts = np.linspace(0.0, 0.5, 6)
    report = verify_bound(lat33, part33, hom33, omega=0.01, t_grid=ts)
    lines = report.to_csv().strip().splitlines()
    assert lines[0] == "t,epsilon,rhs,margin"
    assert len(lines) == 1 + len(ts)
    summary = report.summary()
    assert set(summary) >= {"j_g", "delta_pr", "satisfied", "max_ratio"}


def test_verify_bound_rejects_a_partition_that_breaks_the_freezing_rules(lat33, part33, hom33):
    # site 7 up leaves ancilla 6 with two down neighbours and the probe with three up
    pattern = {**part33.frozen_pattern, 7: True}
    bad = SitePartition(part33.probe_sites, part33.ancilla_sites, pattern)
    with pytest.raises(BoundError, match="site 6: ancilla has 2 down"):
        verify_bound(lat33, bad, hom33, omega=0.01, t_grid=np.linspace(0.0, 0.5, 3))


def test_verify_bound_rejects_a_site_that_is_probe_and_ancilla(lat33, part33, hom33):
    overlap = SitePartition(
        part33.probe_sites, frozenset(range(9)), {**part33.frozen_pattern, 4: False}
    )
    with pytest.raises(PartitionError):
        verify_bound(lat33, overlap, hom33, omega=0.01, t_grid=np.linspace(0.0, 0.5, 3))


def test_verify_bound_rejects_negative_omega_before_evolving(lat33, part33, hom33, monkeypatch):
    def no_march(*args, **kwargs):
        pytest.fail("verify_bound evolved before checking omega")

    monkeypatch.setattr("hsfsense.evolve.EvolutionEngine._series", no_march)
    with pytest.raises(BoundError, match="omega >= 0"):
        verify_bound(lat33, part33, hom33, omega=-0.005, t_grid=np.linspace(0.0, 2.0, 20))
