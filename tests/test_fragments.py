import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
import scipy.sparse as sp
from scipy.sparse.linalg import expm_multiply

from hsfsense import fragments
from hsfsense import hamiltonian as ham
from hsfsense import states
from hsfsense.couplings import sample_gaussian
from hsfsense.errors import FragmentError
from hsfsense.fragments import FragmentReport, adjacency_components, census, refinement_check
from hsfsense.lattice import Boundary, Lattice

from test_hamiltonian import flip_oracle


def bfs_components_oracle(h):
    """Independent BFS over the nonzero off-diagonal structure."""
    dim = h.shape[0]
    coo = h.tocoo()
    adj = {}
    for r, c in zip(coo.row, coo.col):
        if r != c:
            adj.setdefault(int(r), set()).add(int(c))
    label = [-1] * dim
    comps = []
    for start in range(dim):
        if label[start] != -1:
            continue
        comp = {start}
        stack = [start]
        label[start] = start
        while stack:
            cur = stack.pop()
            for nxt in adj.get(cur, ()):
                if label[nxt] == -1:
                    label[nxt] = start
                    comp.add(nxt)
                    stack.append(nxt)
        comps.append(comp)
    return comps


def fragment_of(state, h):
    """Test oracle: every basis state reachable from the support of ``state``
    (|amplitude| > 1e-12) by a BFS over the nonzero off-diagonal entries of ``h``.

    Population outside this set stays exactly zero along any h trajectory
    starting from ``state``.
    """
    csr = h.tocsr()
    reached = set(np.flatnonzero(np.abs(state) > 1e-12).tolist())
    stack = list(reached)
    while stack:
        cur = stack.pop()
        lo, hi = csr.indptr[cur], csr.indptr[cur + 1]
        for nxt, value in zip(csr.indices[lo:hi].tolist(), csr.data[lo:hi].tolist()):
            if value != 0 and nxt != cur and nxt not in reached:
                reached.add(nxt)
                stack.append(nxt)
    return reached


def min_member_labels(comps, dim):
    labels = np.empty(dim, dtype=np.int64)
    for comp in comps:
        labels[list(comp)] = min(comp)
    return labels


def test_census_matches_bfs_oracle(lat33, lat34, part34):
    c = sample_gaussian(lat34, 1.0, 0.3, seed=5)
    cases = [
        (lat33, ham.build_h_eff_homogeneous(lat33, 1.0, 0.1)),
        (lat34, ham.build_h_eff_inhomogeneous(lat34, part34, c, 0.4, 0.1)),  # disordered
    ]
    for lat, h in cases:
        report = adjacency_components(h, lat)
        comps = bfs_components_oracle(h)
        assert report.total_fragments == len(comps)
        assert report.max_fragment_size == max(len(comp) for comp in comps)
        assert report.frozen_states == sum(len(comp) == 1 for comp in comps)
        # per-state labels are the oracle's minimum members; one (dw, minimum, size) row
        # per oracle fragment, by minimum member
        np.testing.assert_array_equal(report.labels, min_member_labels(comps, h.shape[0]))
        dw = ham.dw_diagonal(lat)
        want = [(dw[min(comp)], min(comp), len(comp)) for comp in sorted(comps, key=min)]
        np.testing.assert_array_equal(report.fragments, np.array(want))


def test_3x3_homogeneous_census_golden(lat33):
    """Golden counts frozen from the BFS oracle; regression guard."""
    report = adjacency_components(ham.build_h_eff_homogeneous(lat33, 1.0, 0.1), lat33)
    assert report.total_fragments == 66
    assert report.max_fragment_size == 122
    assert report.frozen_states == 45
    # fragmentation proper: some DW sector splits into several mobile pieces
    sector, _, size = report.fragments.T
    assert np.bincount(sector[size >= 2]).max() >= 2


def test_predicate_census_equals_matrix_census(lat33):
    """The census of the built operator equals a BFS over the scalar flip predicate."""
    edges = [(s ^ (1 << i), s) for s in range(1 << 9) for i in range(9) if flip_oracle(lat33, i, s)]
    graph = sp.coo_matrix((np.ones(len(edges)), tuple(zip(*edges))), shape=(1 << 9, 1 << 9))
    comps = bfs_components_oracle(graph)
    report = adjacency_components(ham.build_h_eff_homogeneous(lat33, 1.0, 0.1), lat33)
    np.testing.assert_array_equal(report.labels, min_member_labels(comps, 1 << 9))
    assert report.total_fragments == len(comps)


def test_sector_mixing_matrix_rejected(lat33):
    with pytest.raises(FragmentError):
        adjacency_components(ham.build_h_omega(lat33, 0.3), lat33)


def test_inhomogeneous_refines_homogeneous(lat33, part33):
    masks_hom = list(ham.flip_masks_homogeneous(lat33))
    rep_hom = census(lat33, masks_hom)
    for seed in (1, 5, 9):
        for dth in (0.03, 0.1):
            c = sample_gaussian(lat33, 1.0, 0.3, seed=seed)
            masks_in = list(ham.flip_masks_inhomogeneous(lat33, part33, c, dth))
            rep_in = census(lat33, masks_in)
            assert refinement_check(rep_hom, rep_in, masks_hom, masks_in)
            assert rep_in.total_fragments >= rep_hom.total_fragments


def test_refinement_check_rejects_swapped_arguments(lat33, part33):
    masks_hom = list(ham.flip_masks_homogeneous(lat33))
    c = sample_gaussian(lat33, 1.0, 0.3, seed=1)
    masks_in = list(ham.flip_masks_inhomogeneous(lat33, part33, c, 0.03))
    rep_hom, rep_in = census(lat33, masks_hom), census(lat33, masks_in)
    assert rep_in.total_fragments > rep_hom.total_fragments  # strict refinement here
    assert not refinement_check(rep_in, rep_hom, masks_in, masks_hom)
    # reports swapped, masks not: only the partition test can fail
    assert not refinement_check(rep_in, rep_hom, masks_hom, masks_in)


def test_refinement_check_rejects_an_edge_missing_from_the_homogeneous_graph(lat33):
    """Same reports, one extra allowed flip: only the per-site mask containment can fail."""
    masks_hom = list(ham.flip_masks_homogeneous(lat33))
    rep_hom = census(lat33, masks_hom)
    site = 4  # the centre, whose flip the homogeneous mask allows on some states only
    more = np.broadcast_to(masks_hom[site], ham._view(9)).copy().reshape(-1)
    state = int(np.flatnonzero(~more)[0])
    more[[state, state ^ (1 << site)]] = True  # a mask must not depend on the bit it flips
    masks_more = masks_hom[:site] + [more.reshape(ham._view(9))] + masks_hom[site + 1:]
    assert not refinement_check(rep_hom, rep_hom, masks_hom, masks_more)
    assert refinement_check(rep_hom, rep_hom, masks_more, masks_hom)


def test_refinement_check_rejects_reports_on_different_lattices(lat33):
    lat44 = Lattice(4, 4)
    masks33, masks44 = list(ham.flip_masks_homogeneous(lat33)), list(ham.flip_masks_homogeneous(lat44))
    rep33, rep44 = census(lat33, masks33), census(lat44, masks44)
    with pytest.raises(FragmentError):
        refinement_check(rep44, rep33, masks44, masks33)
    with pytest.raises(FragmentError):
        refinement_check(rep33, rep33, masks33, masks44)


def test_fragment_of_preserves_ancilla_pattern(lat33, part33, dis33):
    h = ham.build_h_eff_inhomogeneous(lat33, part33, dis33, 0.1, 0.1)
    psi = states.embed(states.ghz_x(part33.n_probe), part33, lat33)
    frag = fragment_of(psi, h)
    frozen = states.frozen_bits(part33)
    amask = 0
    for a in part33.ancilla_sites:
        amask |= 1 << a
    assert all((s & amask) == frozen for s in frag)


def test_evolution_never_leaks_out_of_fragment(lat33, part33, dis33):
    h = ham.build_h_eff_inhomogeneous(lat33, part33, dis33, 0.1, 0.1)
    psi = states.embed(states.ghz_x(part33.n_probe), part33, lat33)
    frag = fragment_of(psi, h)
    outside = np.array(sorted(set(range(1 << 9)) - frag))
    for t in (0.5, 4.0):
        assert np.linalg.norm(expm_multiply(-1j * t * h, psi)[outside]) < 1e-12


def test_report_csv_shape(lat33):
    report = adjacency_components(ham.build_h_eff_homogeneous(lat33, 1.0, 0.1), lat33)
    lines = report.to_csv().strip().splitlines()
    assert lines[0] == "dw_sector,fragment_id,size,is_frozen"
    assert len(lines) == 1 + report.total_fragments
    sizes = [int(line.split(",")[2]) for line in lines[1:]]
    assert sum(sizes) == 1 << 9


def test_csv_chunks_join_to_one_table(monkeypatch):
    """Rows formatted a few at a time give the same CSV as one pass over every row."""
    from hsfsense import fragments

    lat = Lattice(4, 3)
    report = adjacency_components(ham.build_h_eff_homogeneous(lat, 1.0, 0.4), lat)
    whole = report.to_csv()
    monkeypatch.setattr(fragments, "_CSV_CHUNK_ROWS", 7)
    assert report.to_csv() == whole
    rows = whole.splitlines()
    assert rows[0] == "dw_sector,fragment_id,size,is_frozen"
    assert len(rows) == 1 + report.total_fragments > 7


# digit-count edges, int32 and uint32 limits, and values only int64 holds
_CSV_EDGE_VALUES = [0, 1, 9, 10, 99, 100, 2**31 - 1, 2**32 - 1, 2**32, 2**40, 2**63 - 1]
_CSV_VALUE = st.one_of(st.sampled_from(_CSV_EDGE_VALUES), st.integers(0, 2**63 - 1))


@settings(max_examples=80, deadline=None)
@given(st.lists(st.tuples(_CSV_VALUE, _CSV_VALUE, _CSV_VALUE), min_size=1, max_size=20))
@example([(0, 0, 1)])
@example([(9, 10, 99), (100, 2**31 - 1, 1), (2**32, 2**40, 0)])
def test_csv_matches_a_percent_d_oracle(rows):
    """Every table of nonnegative int64 rows prints as %d would, however it is chunked."""
    report = FragmentReport(labels=np.zeros(0, dtype=np.int64), fragments=np.array(rows, dtype=np.int64))
    want = "dw_sector,fragment_id,size,is_frozen\n" + "".join(
        "%d,%d,%d,%d\n" % (sector, root, size, size == 1) for sector, root, size in rows
    )
    for chunk_rows in (fragments._CSV_CHUNK_ROWS, 1, 7):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(fragments, "_CSV_CHUNK_ROWS", chunk_rows)
            assert report.to_csv() == want


def csgraph_min_member_labels(graph):
    """Per state: the minimum member of its ``scipy.sparse.csgraph`` component."""
    from scipy.sparse.csgraph import connected_components

    n_components, component = connected_components(graph, directed=False)
    minimum = np.full(n_components, graph.shape[0], dtype=np.int64)
    np.minimum.at(minimum, component, np.arange(graph.shape[0]))
    return minimum[component]


def random_sector_keeping_masks(lat, seed, density):
    """Per site, a flat random flip mask: the same on both values of the bit it flips, kept to
    flips inside one domain-wall sector, and holding each such flip with probability ``density``."""
    n = lat.n_sites
    rng = np.random.default_rng(seed)
    dw = ham.dw_diagonal(lat)
    masks = []
    for i in range(n):
        drawn = rng.random((1 << (n - 1 - i), 1, 1 << i)) < density
        keeps_sector = dw == dw[np.arange(1 << n) ^ (1 << i)]
        masks.append(np.broadcast_to(drawn, (1 << (n - 1 - i), 2, 1 << i)).reshape(-1) & keeps_sector)
    return masks


_RANDOM_MASKS = (
    st.integers(1, 5), st.integers(1, 5), st.sampled_from(list(Boundary)),
    st.integers(0, 2**32 - 1), st.one_of(st.just(1.0), st.floats(0.0, 1.0)),
)


@settings(max_examples=40, deadline=None)
@given(*_RANDOM_MASKS)
@example(4, 4, Boundary.FIXED_DOWN_FRAME, 1, 1.0)  # fragments of ~14k states: several hooking passes
@example(4, 4, Boundary.OPEN, 4, 0.2)
def test_census_of_random_masks_equals_csgraph(width, height, boundary, seed, density):
    """Random sector-keeping masks on up to 16 sites, up to every sector-keeping flip."""
    assume(width * height <= 16)
    lat = Lattice(width, height, boundary)
    n = lat.n_sites
    dw = ham.dw_diagonal(lat)
    masks = random_sector_keeping_masks(lat, seed, density)
    report = census(lat, (mask.reshape(ham._view(n)) for mask in masks))
    want = csgraph_min_member_labels(ham._assemble(n, None, [(i, 1.0, m) for i, m in enumerate(masks)]))
    np.testing.assert_array_equal(report.labels, want)
    roots, sizes = np.unique(want, return_counts=True)
    np.testing.assert_array_equal(report.fragments, np.column_stack((dw[roots], roots, sizes)))


@settings(max_examples=40, deadline=None)
@given(*_RANDOM_MASKS)
def test_census_rejects_one_flip_that_changes_the_sector(width, height, boundary, seed, density):
    """Random sector-keeping masks and one more allowed flip, at one random state, that
    changes the domain-wall number."""
    assume(width * height <= 10)
    lat = Lattice(width, height, boundary)
    n = lat.n_sites
    dw = ham.dw_diagonal(lat)
    masks = random_sector_keeping_masks(lat, seed, density)
    sites, states = np.nonzero([dw != dw[np.arange(1 << n) ^ (1 << i)] for i in range(n)])
    assume(sites.size)  # a lone open site has no bond, so no flip changes its sector
    pick = np.random.default_rng(seed).integers(sites.size)
    site, state = sites[pick], states[pick]
    masks[site][[state, state ^ (1 << site)]] = True  # a mask must not depend on the bit it flips
    with pytest.raises(FragmentError, match="domain-wall"):
        census(lat, (mask.reshape(ham._view(n)) for mask in masks))


def test_adjacency_components_equals_census_on_both_builders(lat33, lat34, part33, part34):
    for lat, part in ((lat33, part33), (lat34, part34), (Lattice(4, 3, Boundary.OPEN), part34)):
        c = sample_gaussian(lat, 1.0, 0.3, seed=11)
        for h, masks in (
            (ham.build_h_eff_homogeneous(lat, 1.0, 0.4), ham.flip_masks_homogeneous(lat)),
            (
                ham.build_h_eff_inhomogeneous(lat, part, c, 0.4, 0.1),
                ham.flip_masks_inhomogeneous(lat, part, c, 0.1),
            ),
        ):
            got, want = adjacency_components(h, lat), census(lat, masks)
            np.testing.assert_array_equal(got.labels, want.labels)
            np.testing.assert_array_equal(got.fragments, want.fragments)


def test_adjacency_components_rejects_a_multi_bit_entry(lat33):
    h = ham.build_h_eff_homogeneous(lat33, 1.0, 0.1)
    a, b = 0b000000011, 0b000000000  # two bits apart; symmetric, so only the one-flip test can fail
    extra = sp.coo_matrix(([0.05, 0.05], ([a, b], [b, a])), shape=h.shape)
    with pytest.raises(FragmentError, match="more than one bit"):
        adjacency_components((h + extra).tocsr(), lat33)


def test_census_rejects_masks_that_do_not_fit(lat33):
    with pytest.raises(FragmentError, match="8 flip masks for 9 sites"):
        census(lat33, list(ham.flip_masks_homogeneous(lat33))[:-1])
    # every flip allowed: the transverse field, which mixes domain-wall sectors
    with pytest.raises(FragmentError, match="domain-wall"):
        census(lat33, [np.ones(1, dtype=bool)] * 9)
