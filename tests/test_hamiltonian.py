"""Operator builders checked against a dense Kronecker-product oracle.

The oracle uses only numpy.kron and scalar loops -- no code shared with the
sparse builders.  Bit i of a basis index is site i's z spin (1 = up), so
site 0 is the least significant kron factor.
"""

import numpy as np
import pytest

from hsfsense import hamiltonian as ham
from hsfsense.couplings import homogeneous, sample_gaussian
from hsfsense.errors import EvolutionError, PartitionError
from hsfsense.evolve import EvolutionEngine
from hsfsense.lattice import Boundary, Lattice, SitePartition, canonical_partition

I2 = np.eye(2)
X = np.array([[0.0, 1.0], [1.0, 0.0]])
Z = np.diag([-1.0, 1.0])  # bit 0 = down, bit 1 = up


def site_op(n, i, m):
    op = np.eye(1)
    for k in range(n):
        op = np.kron(m if k == i else I2, op)
    return op


def h_omega_oracle(lat, omega):
    n = lat.n_sites
    return omega / 2.0 * sum(site_op(n, i, X) for i in range(n))


def h_int_oracle(lat, couplings):
    n = lat.n_sites
    out = np.zeros((1 << n, 1 << n))
    for (i, j), jij in couplings.items():
        if lat.is_frame(j):
            out += jij * site_op(n, i, Z)  # frame spin fixed at z = -1
        else:
            out -= jij * site_op(n, i, Z) @ site_op(n, j, Z)
    return out


def collar_field_oracle(lat, partition, couplings, probe):
    total = 0.0
    for j in lat.neighbors(probe):
        up = True if (not lat.is_frame(j) and partition.frozen_pattern[j]) else False
        total += (-1.0 if up else 1.0) * couplings.bond_delta(probe, j)
    return total


def h_shift_oracle(lat, partition, couplings):
    n = lat.n_sites
    out = np.zeros((1 << n, 1 << n))
    for p in partition.probe_sites:
        out -= collar_field_oracle(lat, partition, couplings, p) * site_op(n, p, Z)
    return out


def flip_oracle(lat, site, state):
    slots = lat.neighbors(site)
    if len(slots) < 4:
        return False
    ups = sum(0 if lat.is_frame(j) else (state >> j) & 1 for j in slots)
    return ups == 2


def h_eff_hom_oracle(lat, jbar, omega):
    n = lat.n_sites
    out = h_int_oracle(lat, homogeneous(lat, jbar))
    for s in range(1 << n):
        for i in range(n):
            if flip_oracle(lat, i, s):
                out[s ^ (1 << i), s] += omega / 2.0
    return out


def flip_inhom_oracle(lat, couplings, delta_th, shift, site, state):
    if not flip_oracle(lat, site, state):
        return False
    acc = shift.get(site, 0.0)
    for j in lat.neighbors(site):
        d = couplings.bond_delta(site, j)
        if lat.is_frame(j):
            acc -= d
        else:
            acc += d * (2 * ((state >> j) & 1) - 1)
    return abs(acc) <= delta_th


def h_eff_inhom_oracle(lat, partition, couplings, omega, delta_th):
    n = lat.n_sites
    shift = {p: collar_field_oracle(lat, partition, couplings, p) for p in partition.probe_sites}
    out = h_int_oracle(lat, couplings) + h_shift_oracle(lat, partition, couplings)
    for s in range(1 << n):
        for i in range(n):
            if flip_inhom_oracle(lat, couplings, delta_th, shift, i, s):
                out[s ^ (1 << i), s] += omega / 2.0
    return out


def small_partition(lat):
    """Hand-built partition on a 2x2 block (builders do not re-validate)."""
    return SitePartition(
        probe_sites=frozenset({0}),
        ancilla_sites=frozenset({1, 2, 3}),
        frozen_pattern={1: True, 2: True, 3: False},
    )


SMALL_LATTICES = [Lattice(2, 2), Lattice(2, 2, Boundary.OPEN), Lattice(4, 1), Lattice(3, 1)]


@pytest.mark.parametrize("lat", SMALL_LATTICES, ids=lambda l: f"{l.width}x{l.height}-{l.boundary.value}")
def test_h_omega_matches_oracle(lat):
    got = ham.build_h_omega(lat, 0.7).toarray()
    np.testing.assert_array_equal(got, h_omega_oracle(lat, 0.7))


@pytest.mark.parametrize("lat", SMALL_LATTICES, ids=lambda l: f"{l.width}x{l.height}-{l.boundary.value}")
def test_h_int_matches_oracle(lat):
    c = sample_gaussian(lat, 1.3, 0.3, seed=2)
    got = ham.build_h_int(lat, c).toarray()
    np.testing.assert_allclose(got, h_int_oracle(lat, c), atol=1e-14)


def test_h_shift_matches_oracle():
    lat = Lattice(2, 2)
    part = small_partition(lat)
    c = sample_gaussian(lat, 1.0, 0.2, seed=4)
    got = ham.build_h_shift(part, c).toarray()
    np.testing.assert_allclose(got, h_shift_oracle(lat, part, c), atol=1e-14)
    assert ham.effective_field(0, part, c) == pytest.approx(collar_field_oracle(lat, part, c, 0))


def test_h_tfim_and_total_are_the_advertised_sums():
    lat = Lattice(2, 2)
    part = small_partition(lat)
    c = sample_gaussian(lat, 1.0, 0.2, seed=4)
    tfim = ham.build_h_tfim(lat, c, 0.5).toarray()
    np.testing.assert_allclose(tfim, h_omega_oracle(lat, 0.5) + h_int_oracle(lat, c), atol=1e-14)
    total = ham.build_h_total(lat, part, c, 0.5).toarray()
    np.testing.assert_allclose(total, tfim + h_shift_oracle(lat, part, c), atol=1e-14)


def test_h_probe_omega_matches_oracle():
    lat = Lattice(2, 2)
    part = small_partition(lat)
    got = ham.build_h_probe_omega(part, lat, 0.9).toarray()
    np.testing.assert_array_equal(got, 0.9 / 2.0 * site_op(4, 0, X))


@pytest.mark.parametrize("lat", SMALL_LATTICES, ids=lambda l: f"{l.width}x{l.height}-{l.boundary.value}")
def test_h_eff_homogeneous_matches_oracle(lat):
    got = ham.build_h_eff_homogeneous(lat, 1.0, 0.4).toarray()
    np.testing.assert_allclose(got, h_eff_hom_oracle(lat, 1.0, 0.4), atol=1e-14)


def test_h_eff_inhomogeneous_matches_oracle(lat33, part33, dis33):
    lat22 = Lattice(2, 2)
    cases = [
        (lat22, small_partition(lat22), sample_gaussian(lat22, 1.0, 0.2, seed=8), 0.4, 0.15),
        (lat33, part33, dis33, 0.4, 0.1),  # canonical partition, disordered couplings
    ]
    for lat, part, c, omega, delta_th in cases:
        got = ham.build_h_eff_inhomogeneous(lat, part, c, omega, delta_th).toarray()
        want = h_eff_inhom_oracle(lat, part, c, omega, delta_th)
        np.testing.assert_allclose(got, want, atol=1e-14)


def test_dw_number_matches_scalar_recount(lat33):
    diag = ham.dw_diagonal(lat33)
    for state in range(1 << 9):
        expected = 0
        for i, j in lat33.bonds():
            zi = (state >> i) & 1
            zj = 0 if lat33.is_frame(j) else (state >> j) & 1
            expected += zi != zj
        assert diag[state] == expected
    assert diag[0] == 0  # all-down matches the frame
    assert diag[(1 << 9) - 1] == 12  # all-up breaks every frame bond


def test_constrained_builders_commute_with_dw(lat33, part33, dis33):
    import scipy.sparse as sp

    dw = sp.diags(ham.dw_diagonal(lat33).astype(float))
    for h in (
        ham.build_h_eff_homogeneous(lat33, 1.0, 0.3),
        ham.build_h_eff_inhomogeneous(lat33, part33, dis33, 0.3, 0.1),
    ):
        comm = h @ dw - dw @ h
        assert abs(comm).max() == 0.0 if comm.nnz else comm.nnz == 0


def test_shift_field_cancels_probe_flip_exactly(lat33, part33, dis33):
    """Flipping a probe inside its frozen collar costs zero diagonal energy."""
    diag = ham.ising_diagonal(dis33) + ham.shift_diagonal(part33, dis33)
    frozen = 0
    for s, up in part33.frozen_pattern.items():
        if up:
            frozen |= 1 << s
    probe = next(iter(part33.probe_sites))
    assert diag[frozen] == pytest.approx(diag[frozen ^ (1 << probe)], abs=1e-12)


def test_effective_field_zero_for_homogeneous(lat33, part33, hom33):
    probe = next(iter(part33.probe_sites))
    assert ham.effective_field(probe, part33, hom33) == 0.0


def test_effective_field_rejects_non_probe(lat33, part33, dis33):
    with pytest.raises(PartitionError):
        ham.effective_field(0, part33, dis33)


def test_open_boundary_edges_never_flip():
    lat = Lattice(3, 3, Boundary.OPEN)
    dense = ham.build_h_eff_homogeneous(lat, 1.0, 0.4).toarray()
    states = np.arange(1 << 9)
    for site in range(9):
        flips = dense[states ^ (1 << site), states]
        if len(lat.neighbors(site)) < 4:
            assert not np.any(flips)
        else:  # the center has four dynamical neighbors, so two-up/two-down flips exist
            assert np.any(flips)


def test_flip_predicates_match_matrix_elements(lat33, part33, dis33):
    dense = ham.build_h_eff_inhomogeneous(lat33, part33, dis33, 0.4, 0.1).toarray()
    shift = {p: collar_field_oracle(lat33, part33, dis33, p) for p in part33.probe_sites}
    rng = np.random.default_rng(0)
    for state in rng.integers(0, 1 << 9, size=40):
        for i in range(9):
            allowed = flip_inhom_oracle(lat33, dis33, 0.1, shift, i, int(state))
            assert (dense[int(state) ^ (1 << i), int(state)] != 0.0) == allowed


def test_everything_hermitian(lat33, part33, dis33):
    ops = [
        ham.build_h_omega(lat33, 0.3),
        ham.build_h_tfim(lat33, dis33, 0.3),
        ham.build_h_total(lat33, part33, dis33, 0.3),
        ham.build_h_eff_homogeneous(lat33, 1.0, 0.3),
        ham.build_h_eff_inhomogeneous(lat33, part33, dis33, 0.3, 0.1),
    ]
    assert all(ham.is_hermitian(op) for op in ops)


def test_zero_drive_stores_only_nonzero_diagonal_entries(lat33, part33, hom33, dis33):
    from hsfsense.fragments import adjacency_components

    assert np.any(ham.ising_diagonal(hom33) == 0.0)  # so the no-stored-zeros check has teeth
    for c in (hom33, dis33):
        ops = [
            ham.build_h_omega(lat33, 0.0),
            ham.build_h_tfim(lat33, c, 0.0),
            ham.build_h_total(lat33, part33, c, 0.0),
            ham.build_h_probe_omega(part33, lat33, 0.0),
            ham.build_h_eff_homogeneous(lat33, c.jbar, 0.0),
            ham.build_h_eff_inhomogeneous(lat33, part33, c, 0.0, 0.1),
        ]
        for op in ops:
            coo = op.tocoo()
            assert np.array_equal(coo.row, coo.col)
            assert op.nnz == np.count_nonzero(op.data)
    report = adjacency_components(ham.build_h_eff_homogeneous(lat33, 1.0, 0.0), lat33)
    assert report.frozen_states == 512


def one_probe_partition(lat):
    """Probe on site 0, every other site a frozen ancilla (builders do not re-validate)."""
    rest = range(1, lat.n_sites)
    return SitePartition(
        probe_sites=frozenset({0}),
        ancilla_sites=frozenset(rest),
        frozen_pattern={i: i % 2 == 1 for i in rest},
    )


def unmasked_families(lat, part, couplings, omega):
    """(name, builder CSR, matrix-free operator) of each unmasked family; the
    two drives do not depend on the couplings and are built once per omega."""
    for c in couplings:
        yield "tfim", ham.build_h_tfim(lat, c, omega), ham.op_tfim(lat, c, omega)
        yield "total", ham.build_h_total(lat, part, c, omega), ham.op_total(lat, part, c, omega)
    yield "omega", ham.build_h_omega(lat, omega), ham.op_omega(lat, omega)
    yield "probe_omega", ham.build_h_probe_omega(part, lat, omega), ham.op_probe_omega(part, lat, omega)


OPERATOR_CASES = [(lat, one_probe_partition(lat)) for lat in SMALL_LATTICES] + [
    (Lattice(3, 6), canonical_partition(Lattice(3, 6)))  # two probes
]


@pytest.mark.parametrize(
    "lat,part", OPERATOR_CASES, ids=[f"{l.width}x{l.height}-{l.boundary.value}" for l, _ in OPERATOR_CASES]
)
def test_operator_matches_builder_csr(lat, part):
    rng = np.random.default_rng(1)
    dim = 1 << lat.n_sites
    psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    psi /= np.linalg.norm(psi)
    couplings = (homogeneous(lat, 1.0), sample_gaussian(lat, 1.0, 0.3, seed=3))
    for omega in (0.0, 0.4):
        for name, csr, op in unmasked_families(lat, part, couplings, omega):
            built = op.tocsr()
            for attr in ("indptr", "indices", "data"):
                got, want = getattr(built, attr), getattr(csr, attr)
                assert got.dtype == want.dtype and np.array_equal(got, want), (name, attr)
            np.testing.assert_allclose(op @ psi, csr @ psi, rtol=0, atol=1e-13, err_msg=name)
            d = csr.diagonal()
            radius = np.asarray(abs(csr).sum(axis=1)).ravel() - np.abs(d)  # off-diagonal row sums
            want = (np.min(d - radius), np.max(d + radius))
            np.testing.assert_allclose(EvolutionEngine(op).interval, want, rtol=1e-14, atol=1e-14, err_msg=name)


@pytest.mark.parametrize(
    "kwargs,match",
    [
        ({"diag": np.zeros(8, dtype=complex)}, "real"),
        ({"diag": np.array([0.0] * 7 + [np.nan])}, "finite"),
        ({"diag": np.array([0.0] * 7 + [np.inf])}, "finite"),
        ({"diag": np.zeros(4)}, "shape"),
        ({"value": 0.5j}, "real and finite"),
        ({"value": np.inf}, "real and finite"),
        ({"value": np.nan}, "real and finite"),
        ({"sites": (0, 3)}, "in range"),
        ({"sites": (-1,)}, "in range"),
        ({"sites": (1, 1)}, "distinct"),
    ],
)
def test_operator_rejects_bad_input(kwargs, match):
    args = {"n_sites": 3, "diag": np.arange(8.0), "value": 0.2, "sites": (0, 1, 2), **kwargs}
    with pytest.raises(EvolutionError, match=match):
        ham.TransverseFieldOperator(**args)


def test_operator_rejects_a_vector_of_the_wrong_length():
    op = ham.TransverseFieldOperator(3, None, 0.2, (0, 2))
    with pytest.raises(EvolutionError, match="shape"):
        op @ np.ones(4, dtype=complex)
    # no sites: the flip sum is zero and only the diagonal acts
    diagonal = ham.TransverseFieldOperator(3, np.arange(8.0), 0.2, ())
    assert np.array_equal(diagonal @ np.ones(8), np.arange(8.0))
