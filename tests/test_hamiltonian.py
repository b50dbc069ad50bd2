"""Operator builders checked against a dense Kronecker-product oracle.

The oracle uses only numpy.kron and scalar loops -- no code shared with the
sparse builders.  Bit i of a basis index is site i's z spin (1 = up), so
site 0 is the least significant kron factor.
"""

import tracemalloc
from functools import lru_cache

import numpy as np
import pytest

from conftest import apply, flip_sum
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
    assert all(abs(op - op.conj().T).max() == 0.0 for op in ops)


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
            np.testing.assert_allclose(apply(op, psi), csr @ psi, rtol=0, atol=1e-13, err_msg=name)
            d = csr.diagonal()
            radius = np.asarray(abs(csr).sum(axis=1)).ravel() - np.abs(d)  # off-diagonal row sums
            want = (np.min(d - radius), np.max(d + radius))
            np.testing.assert_allclose(EvolutionEngine(op).interval, want, rtol=1e-14, atol=1e-14, err_msg=name)


@lru_cache(maxsize=1)
def bit_table(n):
    """Row i holds bit i of every basis index."""
    return np.array([(np.arange(1 << n) >> i) & 1 for i in range(n)], dtype=np.uint8)


def ising_diagonal_oracle(couplings):
    lat = couplings.lattice
    bits = bit_table(lat.n_sites)
    diag = np.zeros(bits.shape[1])
    for (i, j), jij in couplings.items():
        anti = bits[i] ^ (0 if lat.is_frame(j) else bits[j])
        diag -= np.array([jij, -jij])[anti]
    return diag


def shift_diagonal_oracle(partition, couplings):
    bits = bit_table(couplings.lattice.n_sites)
    diag = np.zeros(bits.shape[1])
    for site, h in ham.shift_fields(partition, couplings).items():
        diag -= np.array([-h, h])[bits[site]]
    return diag


def dw_diagonal_oracle(lat):
    bits = bit_table(lat.n_sites)
    counts = np.zeros(bits.shape[1], dtype=np.int64)
    for i, j in lat.bonds():
        counts += bits[i] ^ (0 if lat.is_frame(j) else bits[j])
    return counts


def flip_mask_oracle(lat, site):
    bits = bit_table(lat.n_sites)
    if len(lat.neighbors(site)) < 4:
        return np.zeros(bits.shape[1], dtype=bool)
    ups = np.zeros(bits.shape[1], dtype=np.uint8)
    for j in lat.neighbors(site):
        if not lat.is_frame(j):
            ups += bits[j]
    return ups == 2


def mismatch_oracle(lat, site, couplings, shift):
    bits = bit_table(lat.n_sites)
    acc = np.full(bits.shape[1], shift.get(site, 0.0))
    for j in lat.neighbors(site):
        d = couplings.bond_delta(site, j)
        if lat.is_frame(j):
            acc -= d
        else:
            acc += np.array([-d, d])[bits[j]]
    return np.abs(acc)


def h_eff_bit_table_oracles(lat, part, couplings, omega, delta_th):
    """Both constrained builders as they were built from a stored bit table, in the same assembly."""
    n = lat.n_sites
    hom = ham._assemble(
        n,
        ising_diagonal_oracle(homogeneous(lat, couplings.jbar)),
        [(i, omega / 2.0, flip_mask_oracle(lat, i)) for i in range(n)],
    )
    shift = ham.shift_fields(part, couplings)
    flips = [
        (i, omega / 2.0, flip_mask_oracle(lat, i) & (mismatch_oracle(lat, i, couplings, shift) <= delta_th))
        for i in range(n)
    ]
    diag = ising_diagonal_oracle(couplings) + shift_diagonal_oracle(part, couplings)
    return hom, ham._assemble(n, diag, flips)


# N below, at and just above the fold of the low bits (ham._LOW = 8), and N = 18 with two probes,
# where bonds and flip masks join two unfolded high bits
BIT_TABLE_SHAPES = [(2, 3), (4, 2), (3, 3), (3, 6)]
BIT_TABLE_CASES = [(w, h, b) for w, h in BIT_TABLE_SHAPES for b in Boundary]


@pytest.mark.parametrize("w,h,boundary", BIT_TABLE_CASES, ids=[f"{w}x{h}-{b.value}" for w, h, b in BIT_TABLE_CASES])
def test_diagonals_and_constrained_builders_match_the_bit_table(w, h, boundary):
    lat = Lattice(w, h, boundary)
    part = canonical_partition(Lattice(w, h)) if w >= 3 and h >= 3 else one_probe_partition(lat)
    c = sample_gaussian(lat, 1.0, 0.3, seed=3)
    for got, want in (
        (ham.ising_diagonal(c), ising_diagonal_oracle(c)),
        (ham.shift_diagonal(part, c), shift_diagonal_oracle(part, c)),
        (ham.dw_diagonal(lat), dw_diagonal_oracle(lat)),
    ):
        assert got.dtype == want.dtype and np.array_equal(got, want)
    hom, inhom = h_eff_bit_table_oracles(lat, part, c, 0.4, 0.1)
    built = (ham.build_h_eff_homogeneous(lat, c.jbar, 0.4), ham.build_h_eff_inhomogeneous(lat, part, c, 0.4, 0.1))
    for name, got, want in zip(("homogeneous", "inhomogeneous"), built, (hom, inhom)):
        if lat.boundary is Boundary.FIXED_DOWN_FRAME or min(w, h) >= 3:  # some site has four slots
            assert want.nnz > (1 << lat.n_sites), name  # so some flip survives its mask
        for attr in ("indptr", "indices", "data"):
            a, b = getattr(got, attr), getattr(want, attr)
            assert a.dtype == b.dtype and np.array_equal(a, b), (name, attr)


# N below, at and above the diagonal tables' split (ham._SPLIT = 15), with one probe and with two
DIAGONAL_CASES = [(w, h, b) for w, h in ((3, 3), (5, 3), (4, 4), (3, 6), (5, 4)) for b in Boundary]


@pytest.mark.parametrize("w,h,boundary", DIAGONAL_CASES, ids=[f"{w}x{h}-{b.value}" for w, h, b in DIAGONAL_CASES])
def test_expanded_diagonal_matches_the_whole_vector_builders(w, h, boundary):
    """op_total's and op_tfim's tables, expanded, against ``ising_diagonal +
    shift_diagonal`` and ``ising_diagonal``: bit for bit while the low table
    spans the basis, and within 1e-13 past it, where a state's terms are
    summed in two tables and the tables added."""
    lat = Lattice(w, h, boundary)
    part, c = canonical_partition(Lattice(w, h)), sample_gaussian(lat, 1.0, 0.3, seed=3)
    pairs = (
        (ham.op_total(lat, part, c, 0.4), ham.ising_diagonal(c) + ham.shift_diagonal(part, c)),
        (ham.op_tfim(lat, c, 0.4), ham.ising_diagonal(c)),
    )
    for op, want in pairs:
        got = op.diag.expand()
        assert op.diag.low.size == 1 << min(lat.n_sites, 15)
        if lat.n_sites <= 15:
            assert got.tobytes() == want.tobytes()
        else:
            assert op.diag.high.size < op.diag.low.size
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-13)


def test_operators_hold_no_basis_sized_array():
    """At 4x4 (N = 16, past the split) op_total and op_tfim hold a 2^15 low
    table and a 2^5 high one (site 15 is bonded to 11 and 14), and build no
    basis-sized array: the low table is half a vector."""
    lat = Lattice(4, 4)
    part, c = canonical_partition(lat), sample_gaussian(lat, 1.0, 0.3, seed=3)
    vector = (1 << lat.n_sites) * np.dtype(np.float64).itemsize
    for build in (lambda: ham.op_total(lat, part, c, 0.4), lambda: ham.op_tfim(lat, c, 0.4)):
        build()  # numpy's first calls fill caches that stay
        tracemalloc.start()
        try:
            op = build()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        arrays = [v for v in (*vars(op).values(), *vars(op.diag).values()) if isinstance(v, np.ndarray)]
        assert [a.size for a in arrays] == [1 << 15, 1 << 5] and op.diag.cut == 11
        assert peak < 0.75 * vector, peak / vector


def test_any_aligned_block_reads_the_expanded_diagonal():
    """Blocks below the cut, between the cut and the split, at the split and
    above it, read with one add per state, are the expanded diagonal's slices
    bit for bit; at 5x4 the high table has 2^10 entries."""
    lat = Lattice(5, 4)
    diag = ham.op_total(lat, canonical_partition(lat), sample_gaussian(lat, 1.0, 0.3, seed=4), 0.4).diag
    whole = diag.expand()
    assert diag.cut == 10
    for bits in (3, 10, 12, 15, 17, 20):
        size = 1 << bits
        for start in range(0, whole.size, max(size, whole.size // 4)):
            got = diag.block(slice(start, start + size), np.full(size, np.nan))
            assert got.tobytes() == whole[start : start + size].tobytes(), (bits, start)


@pytest.mark.parametrize("w,h,cut", [(3, 3, 9), (4, 4, 11), (5, 4, 10)])
def test_entries_at_a_few_states_are_the_expanded_diagonals(w, h, cut):
    """``Diagonal.at`` on random states below the split and past it makes the
    add ``block`` makes, so it reads the expanded diagonal bit for bit."""
    lat = Lattice(w, h)
    diag = ham.op_total(lat, canonical_partition(lat), sample_gaussian(lat, 1.0, 0.3, seed=4), 0.4).diag
    whole = diag.expand()
    assert diag.cut == cut
    rng = np.random.default_rng(5)
    below = rng.integers(0, min(whole.size, 1 << 15), 64)
    past = rng.integers(1 << 15, whole.size, 64) if whole.size > 1 << 15 else np.zeros(0, dtype=np.int64)
    for s in (below, past, np.array([0, whole.size - 1])):
        assert diag.at(s).tobytes() == whole[s].tobytes()


def low_table(low):
    """A 3-site ``Diagonal`` whose low table is ``low``, built when called."""
    return lambda: ham.Diagonal(low, np.zeros(1), 3)


@pytest.mark.parametrize(
    "kwargs,match",
    [
        ({"diag": low_table(np.zeros(8, dtype=complex))}, "real"),
        ({"diag": low_table(np.array([0.0] * 7 + [np.nan]))}, "finite"),
        ({"diag": low_table(np.array([0.0] * 7 + [np.inf]))}, "finite"),
        ({"diag": low_table(np.zeros(6))}, "shape"),
        ({"value": 0.5j}, "real and finite"),
        ({"value": np.inf}, "real and finite"),
        ({"value": np.nan}, "real and finite"),
        ({"sites": (0, 3)}, "in range"),
        ({"sites": (-1,)}, "in range"),
        ({"sites": (1, 1)}, "distinct"),
        ({"diag": lambda: np.arange(8.0)}, "None or a Diagonal over 3 sites"),
        ({"diag": lambda: ham.Diagonal(np.arange(16.0), np.zeros(1), 4)}, "None or a Diagonal over 3 sites"),
    ],
)
def test_operator_rejects_bad_input(kwargs, match):
    args = {"n_sites": 3, "diag": low_table(np.arange(8.0)), "value": 0.2, "sites": (0, 1, 2), **kwargs}
    with pytest.raises(EvolutionError, match=match):
        ham.TransverseFieldOperator(**{**args, "diag": args["diag"]()})


def test_operator_rejects_a_vector_of_the_wrong_length():
    """The engine is what applies an operator to a vector, and it checks the length."""
    op = ham.TransverseFieldOperator(3, None, 0.2, (0, 2))
    with pytest.raises(EvolutionError, match="dimension mismatch"):
        EvolutionEngine(op).evolve(np.ones(4, dtype=complex), 0.1)
    # no sites: the flip sum is zero and only the diagonal acts
    diagonal = ham.TransverseFieldOperator(3, ham.Diagonal(np.arange(8.0), np.zeros(1), 3), 0.2, ())
    assert np.array_equal(apply(diagonal, np.ones(8)), np.arange(8.0))


def test_flip_sum_of_a_stack_is_each_lanes_flip_sum(lat34, part34):
    """A stack of vectors is summed lane by lane, with the adds of one vector."""
    ops = (
        ham.op_total(lat34, part34, sample_gaussian(lat34, 1.0, 0.3, seed=5), 0.4),
        ham.op_probe_omega(part34, lat34, 0.4),
    )
    stack = np.random.default_rng(4).normal(size=(3, 1 << lat34.n_sites))
    for op in ops:
        got = flip_sum(op, stack)
        for lane, row in zip(stack, got):
            assert np.array_equal(row, flip_sum(op, lane))


def axis_flip_sum(n_sites, sites, psi):
    """sum_{i in sites} sigma^x_i psi as whole-vector flips of axis -1 - i of the
    (2,)*n_sites view, the first copied and the rest added in the order of sites."""
    shape = psi.shape[:-1] + (2,) * n_sites
    x = psi.reshape(shape)
    acc = np.zeros(shape, dtype=psi.dtype)
    for n, i in enumerate(sites):
        if n == 0:
            acc[...] = np.flip(x, axis=-1 - i)
        else:
            acc += np.flip(x, axis=-1 - i)
    return acc.reshape(psi.shape)


def integer_valued(rng, shape):
    """Integers below 2^20 in magnitude, as floats: every partial sum of a few
    dozen of them is exact, so any add order gives the same bits."""
    return rng.integers(-(1 << 20), 1 << 20, size=shape).astype(float)


def assert_within_rounding(got, n_sites, sites, psi):
    """Each entry of ``got`` within k eps times the absolute flip sum
    sum_{i in sites} |sigma^x_i psi| of the oracle's, k = len(sites), real and
    imaginary parts apart: a sum of k terms in any order is within (k - 1)
    eps/2 times their absolute sum of the exact one, to first order."""
    eps = np.finfo(float).eps
    for part in (np.real, np.imag):
        want = axis_flip_sum(n_sites, sites, part(psi))
        bound = len(sites) * eps * axis_flip_sum(n_sites, sites, np.abs(part(psi)))
        assert np.all(np.abs(part(got) - want) <= bound), sites


@pytest.mark.parametrize("n", [1, 2, 3, 14, 15, 16, 17])
def test_flip_sum_matches_the_axis_flip_oracle_bitwise(n):
    """Below, at and above one block of 2^15 states; every site set in the
    order given: all sites, a sparse set as the probes are, none, only the top
    site, and an unsorted order; single vectors and stacks.  The nibble
    products add a state's flips in another order than the oracle, so they
    match it bit for bit on integer-valued entries, where any add order gives
    the same bits while a missing or wrong flip changes them, and within
    rounding on normal entries."""
    rng = np.random.default_rng(n)
    site_sets = (
        tuple(range(n)),
        tuple(range(n // 3, n, 4)),
        (),
        (n - 1,),
        tuple(int(i) for i in rng.permutation(n)),
    )
    for sites in site_sets:
        op = ham.TransverseFieldOperator(n, None, 0.3, sites)
        for shape in (1 << n, (3, 1 << n)):
            psi = integer_valued(rng, shape)
            assert flip_sum(op, psi).tobytes() == axis_flip_sum(n, sites, psi).tobytes(), sites
            psi = rng.normal(size=shape)
            assert_within_rounding(flip_sum(op, psi), n, sites, psi)


@pytest.mark.parametrize("w,h", [(5, 3), (4, 4)])
def test_probe_flip_sum_and_complex_product_match_the_oracle_bitwise(w, h):
    """The probe drive's sites at N = 15 (one block) and 16 (two blocks), and
    the operator applied to a complex vector with a diagonal, against the
    oracle: bit for bit on integer-valued entries, within rounding on normal ones."""
    lat = Lattice(w, h)
    part = canonical_partition(lat)
    rng = np.random.default_rng(w * h)
    n = lat.n_sites
    ints = integer_valued(rng, 1 << n) + 1j * integer_valued(rng, 1 << n)
    psi = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    probe = ham.op_probe_omega(part, lat, 0.4)
    assert flip_sum(probe, ints).tobytes() == axis_flip_sum(n, probe.sites, ints).tobytes()
    assert_within_rounding(flip_sum(probe, psi), n, probe.sites, psi)
    op = ham.op_total(lat, part, sample_gaussian(lat, 1.0, 0.3, seed=2), 0.4)
    want = axis_flip_sum(n, op.sites, ints)
    want *= op.value
    want += ints * op.diag.expand()
    got = apply(op, ints)
    assert got.dtype == np.complex128 and got.tobytes() == want.tobytes()
    assert_within_rounding(flip_sum(op, psi), n, op.sites, psi)
