import pytest
from hypothesis import given
from hypothesis import strategies as st

from hsfsense.errors import LatticeError, PartitionError
from hsfsense.lattice import (
    Boundary,
    Lattice,
    SitePartition,
    canonical_partition,
    parse_layout,
    validate_partition,
)


def test_site_indexing_row_major():
    lat = Lattice(4, 3)
    assert lat.n_sites == 12
    assert lat.site(0, 0) == 0
    assert lat.site(1, 0) == 4
    assert lat.site(2, 3) == 11
    for s in range(lat.n_sites):
        assert lat.site(*lat.row_col(s)) == s


def test_invalid_dimensions_rejected():
    with pytest.raises(LatticeError):
        Lattice(0, 3)
    with pytest.raises(LatticeError):
        Lattice(3, -1)


def test_center_neighbors_are_the_four_adjacent_sites(lat33):
    # slot order: left, up, right, down (row-major, row 0 at the bottom)
    assert tuple(lat33.neighbors(4)) == (3, 7, 5, 1)


def test_frame_boundary_pads_every_site_to_four_slots(lat33):
    for s in range(lat33.n_sites):
        slots = lat33.neighbors(s)
        assert len(slots) == 4
        for j in slots:
            assert lat33.is_frame(j) == (j >= lat33.n_sites)


def test_open_boundary_drops_missing_slots():
    lat = Lattice(3, 3, Boundary.OPEN)
    assert len(lat.neighbors(0)) == 2
    assert len(lat.neighbors(1)) == 3
    assert len(lat.neighbors(4)) == 4
    assert all(not lat.is_frame(j) for s in range(9) for j in lat.neighbors(s))


def test_neighbor_symmetry(lat34):
    for i in range(lat34.n_sites):
        for j in lat34.neighbors(i):
            if not lat34.is_frame(j):
                assert i in lat34.neighbors(j)


def test_bond_counts(lat33):
    bonds = lat33.bonds()
    dyn = [b for b in bonds if not lat33.is_frame(b[1])]
    frame = [b for b in bonds if lat33.is_frame(b[1])]
    assert len(dyn) == 12  # 2 * w * h - w - h
    assert len(frame) == 12  # perimeter slots of a 3x3 block
    assert len(set(bonds)) == len(bonds)
    for i, j in dyn:
        assert i < j


def test_open_lattice_has_no_frame_bonds():
    lat = Lattice(3, 3, Boundary.OPEN)
    assert all(not lat.is_frame(j) for _, j in lat.bonds())
    assert len(lat.bonds()) == 12


def test_frame_index_unique_per_slot(lat33):
    seen = set()
    for s in range(lat33.n_sites):
        for d in range(4):
            idx = lat33.frame_index(s, d)
            assert idx >= lat33.n_sites
            assert idx not in seen
            seen.add(idx)


@given(st.integers(1, 6), st.integers(1, 6))
def test_site_row_col_roundtrip(w, h):
    lat = Lattice(w, h)
    for s in range(lat.n_sites):
        r, c = lat.row_col(s)
        assert 0 <= r < h and 0 <= c < w
        assert lat.site(r, c) == s


def test_canonical_partition_3x3(lat33):
    part = canonical_partition(lat33)
    assert part.probe_sites == frozenset({4})
    assert part.frozen_pattern[3] and part.frozen_pattern[5]
    assert not part.frozen_pattern[1] and not part.frozen_pattern[7]
    assert validate_partition(lat33, part) == []


def test_canonical_partition_3x4(lat34):
    part = canonical_partition(lat34)
    assert part.probe_sites == frozenset({5})
    assert validate_partition(lat34, part) == []
    assert part.n_probe == 1


def test_probe_freezing_violation_reported(lat33):
    # three up ancillas around the probe: the two-up/two-down rule fails
    bad = SitePartition(
        probe_sites=frozenset({4}),
        ancilla_sites=frozenset(range(9)) - {4},
        frozen_pattern={s: s in (1, 3, 5) for s in range(9) if s != 4},
    )
    problems = validate_partition(lat33, bad)
    assert any(site == 4 for site, _ in problems)


def test_ancilla_freezing_violation_reported(lat33):
    # an up ancilla adjacent to two other ups has fewer than 3 down neighbors
    bad = SitePartition(
        probe_sites=frozenset({4}),
        ancilla_sites=frozenset(range(9)) - {4},
        frozen_pattern={s: s in (0, 1, 3) for s in range(9) if s != 4},
    )
    problems = validate_partition(lat33, bad)
    assert problems != []


def test_overlapping_roles_rejected(lat33):
    bad = SitePartition(
        probe_sites=frozenset({4}),
        ancilla_sites=frozenset(range(9)),
        frozen_pattern={s: False for s in range(9)},
    )
    with pytest.raises(PartitionError):
        validate_partition(lat33, bad)


def canonical_layout_lines(lattice, partition):
    """One ``index role [state]`` line per site of ``partition``."""
    return [
        f"{s} P" if s in partition.probe_sites
        else f"{s} A {'up' if partition.frozen_pattern[s] else 'down'}"
        for s in range(lattice.n_sites)
    ]


def test_parse_layout_roundtrip(lat33, part33):
    parsed = parse_layout("\n".join(canonical_layout_lines(lat33, part33)), lat33)
    assert parsed.probe_sites == part33.probe_sites
    assert parsed.frozen_pattern == part33.frozen_pattern


def test_parse_layout_rejects_bad_site(lat33):
    with pytest.raises(PartitionError):
        parse_layout("99 P", lat33)


def test_parse_layout_rejects_a_non_integer_site_with_its_line(lat33, part33):
    lines = canonical_layout_lines(lat33, part33)
    lines[2] = "two A down"
    with pytest.raises(PartitionError, match="line 3: site must be an integer"):
        parse_layout("\n".join(lines), lat33)


def test_parse_layout_rejects_a_site_listed_twice(lat33, part33):
    lines = canonical_layout_lines(lat33, part33) + ["4 A down"]
    with pytest.raises(PartitionError, match="line 10: site 4 is listed twice"):
        parse_layout("\n".join(lines), lat33)


def test_probe_order_ascending(part34):
    order = part34.probe_order()
    assert order == sorted(order)
