import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import expm_multiply

from hsfsense import hamiltonian as ham
from hsfsense import states
from hsfsense.couplings import sample_gaussian
from hsfsense.errors import FragmentError
from hsfsense.fragments import adjacency_components, refinement_check
from hsfsense.lattice import Lattice

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
    h_hom = ham.build_h_eff_homogeneous(lat33, 1.0, 0.1)
    rep_hom = adjacency_components(h_hom, lat33)
    for seed in (1, 5, 9):
        for dth in (0.03, 0.1):
            c = sample_gaussian(lat33, 1.0, 0.3, seed=seed)
            h_in = ham.build_h_eff_inhomogeneous(lat33, part33, c, 0.1, dth)
            rep_in = adjacency_components(h_in, lat33)
            assert refinement_check(rep_hom, rep_in, h_hom, h_in)
            assert rep_in.total_fragments >= rep_hom.total_fragments


def test_refinement_check_rejects_swapped_arguments(lat33, part33):
    h_hom = ham.build_h_eff_homogeneous(lat33, 1.0, 0.1)
    c = sample_gaussian(lat33, 1.0, 0.3, seed=1)
    h_in = ham.build_h_eff_inhomogeneous(lat33, part33, c, 0.1, 0.03)
    rep_hom = adjacency_components(h_hom, lat33)
    rep_in = adjacency_components(h_in, lat33)
    assert rep_in.total_fragments > rep_hom.total_fragments  # strict refinement here
    assert not refinement_check(rep_in, rep_hom, h_in, h_hom)
    # reports swapped, operators not: only the partition test can fail
    assert not refinement_check(rep_in, rep_hom, h_hom, h_in)


def test_refinement_check_rejects_an_edge_missing_from_the_homogeneous_graph(lat33):
    """Same partition, one extra edge inside a fragment: only the edge-subset test can fail."""
    h_hom = ham.build_h_eff_homogeneous(lat33, 1.0, 0.1)
    rep_hom = adjacency_components(h_hom, lat33)
    members = np.flatnonzero(rep_hom.labels == np.bincount(rep_hom.labels).argmax())
    a = members[0]
    b = next(m for m in members[1:] if h_hom[a, m] == 0)
    extra = sp.coo_matrix(([0.05, 0.05], ([a, b], [b, a])), shape=h_hom.shape)
    h_more = (h_hom + extra).tocsr()
    rep_more = adjacency_components(h_more, lat33)
    np.testing.assert_array_equal(rep_more.labels, rep_hom.labels)
    assert not refinement_check(rep_hom, rep_more, h_hom, h_more)
    assert refinement_check(rep_more, rep_hom, h_more, h_hom)


def test_refinement_check_rejects_reports_on_different_lattices(lat33):
    h33 = ham.build_h_eff_homogeneous(lat33, 1.0, 0.1)
    lat44 = Lattice(4, 4)
    h44 = ham.build_h_eff_homogeneous(lat44, 1.0, 0.1)
    rep33, rep44 = adjacency_components(h33, lat33), adjacency_components(h44, lat44)
    with pytest.raises(FragmentError):
        refinement_check(rep44, rep33, h44, h33)
    with pytest.raises(FragmentError):
        refinement_check(rep33, rep33, h33, h44)


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
