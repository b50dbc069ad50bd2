"""Square-lattice geometry, the fixed down-spin frame, and probe/ancilla partitions.

Sites are indexed row-major: site = row * width + col.  Under the
``FIXED_DOWN_FRAME`` boundary every edge site carries virtual bonds to
permanently-down frame spins, so that every dynamical site has exactly four
neighbor slots.  Frame slots are encoded as pseudo-indices ``>= n_sites``
(one per (site, direction) pair) so that bonds can be keyed uniformly by an
integer pair; frame spins are never basis degrees of freedom.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from .errors import LatticeError, PartitionError

# Neighbor slot order: left, down, right, up.
DIRECTIONS = ((0, -1), (1, 0), (0, 1), (-1, 0))


class Boundary(Enum):
    FIXED_DOWN_FRAME = "frame"
    OPEN = "open"


@dataclass(frozen=True)
class Lattice:
    width: int
    height: int
    boundary: Boundary = Boundary.FIXED_DOWN_FRAME

    def __post_init__(self):
        if self.width < 1 or self.height < 1:
            raise LatticeError(f"lattice dimensions must be positive, got {self.width}x{self.height}")

    @property
    def n_sites(self) -> int:
        return self.width * self.height

    def site(self, row: int, col: int) -> int:
        return row * self.width + col

    def row_col(self, site: int) -> tuple[int, int]:
        return divmod(site, self.width)

    def is_frame(self, index: int) -> bool:
        """True if ``index`` is a frame pseudo-index rather than a dynamical site."""
        return index >= self.n_sites

    def frame_index(self, site: int, direction: int) -> int:
        return self.n_sites + 4 * site + direction

    def neighbors(self, site: int) -> list[int]:
        """The neighbor slots of ``site``.

        Returns exactly 4 entries under FIXED_DOWN_FRAME (frame slots as
        pseudo-indices); under OPEN, missing slots are omitted.
        """
        if not 0 <= site < self.n_sites:
            raise LatticeError(f"site {site} out of range for {self.width}x{self.height} lattice")
        row, col = self.row_col(site)
        slots = []
        for d, (dr, dc) in enumerate(DIRECTIONS):
            r, c = row + dr, col + dc
            if 0 <= r < self.height and 0 <= c < self.width:
                slots.append(self.site(r, c))
            elif self.boundary is Boundary.FIXED_DOWN_FRAME:
                slots.append(self.frame_index(site, d))
        return slots

    def bonds(self) -> list[tuple[int, int]]:
        """All bonds as (i, j) pairs with i < j; frame bonds use pseudo-indices."""
        out = []
        for i in range(self.n_sites):
            for j in self.neighbors(i):
                if self.is_frame(j) or i < j:
                    out.append((i, j))
        return out


@dataclass(frozen=True)
class SitePartition:
    """Split of the lattice into probe sites and frozen ancillary sites.

    ``frozen_pattern`` maps each ancilla site to True (up) / False (down).
    """

    probe_sites: frozenset[int]
    ancilla_sites: frozenset[int]
    frozen_pattern: dict[int, bool] = field(hash=False)

    @property
    def n_probe(self) -> int:
        return len(self.probe_sites)

    def probe_order(self) -> list[int]:
        """Probe sites in ascending order; fixes the probe-factor bit layout."""
        return sorted(self.probe_sites)

    def slot_state(self, lattice: Lattice, index: int) -> bool | None:
        """Spin of a neighbor slot: True/False for frozen ancilla or frame, None for a probe."""
        if lattice.is_frame(index):
            return False
        if index in self.probe_sites:
            return None
        return self.frozen_pattern[index]


def validate_partition(lattice: Lattice, partition: SitePartition) -> list[tuple[int, str]]:
    """Check both freezing conditions at every site.

    Every probe must see exactly two up and two down spins among its frozen
    ancilla / frame neighbors, and every ancilla must have at least three
    down neighbors among its ancilla / frame neighbors.  Violations are
    reported as (site, message) pairs, never raised.
    """
    report = []
    all_sites = set(range(lattice.n_sites))
    covered = set(partition.probe_sites) | set(partition.ancilla_sites)
    if covered != all_sites or partition.probe_sites & partition.ancilla_sites:
        raise PartitionError("partition does not cover the lattice with disjoint probe/ancilla sets")

    for site in partition.probe_sites:
        states = [partition.slot_state(lattice, j) for j in lattice.neighbors(site)]
        ups = sum(1 for s in states if s is True)
        downs = sum(1 for s in states if s is False)
        if not (ups == 2 and downs == 2):
            report.append((site, f"probe has {ups} up / {downs} down frozen neighbors, needs 2/2"))

    for site in partition.ancilla_sites:
        states = [partition.slot_state(lattice, j) for j in lattice.neighbors(site)]
        downs = sum(1 for s in states if s is False)
        if downs < 3:
            report.append((site, f"ancilla has {downs} down ancilla/frame neighbors, needs >= 3"))

    return sorted(report)


def describe_violations(violations: list[tuple[int, str]]) -> str:
    """One message that names every violation ``validate_partition`` reported."""
    return "partition breaks the freezing rules: " + "; ".join(f"site {site}: {msg}" for site, msg in violations)


def canonical_partition(lattice: Lattice) -> SitePartition:
    """Deterministic probe tiling with the two-up/two-down collar.

    Probes go on interior sites on a (3-row, 5-column)-spaced grid; each
    probe's left/right neighbors are frozen up and everything else down.
    The validator, not the tiler, is the source of truth: the result is
    always re-validated and a PartitionError raised on any violation.
    """
    if lattice.boundary is not Boundary.FIXED_DOWN_FRAME:
        raise PartitionError("canonical partition requires the fixed-down frame boundary")
    if lattice.width < 3 or lattice.height < 3:
        raise PartitionError(
            "lattice too small to host a probe: a probe needs two up and two down "
            "frozen neighbors, which requires at least a 3x3 interior collar"
        )

    probes = set()
    ups = set()
    for row in range(1, lattice.height - 1, 3):
        for col in range(1, lattice.width - 1, 5):
            site = lattice.site(row, col)
            probes.add(site)
            ups.add(lattice.site(row, col - 1))
            ups.add(lattice.site(row, col + 1))

    ancillas = frozenset(range(lattice.n_sites)) - probes
    pattern = {a: (a in ups) for a in ancillas}
    partition = SitePartition(frozenset(probes), ancillas, pattern)
    report = validate_partition(lattice, partition)
    if report:
        site, msg = report[0]
        raise PartitionError(f"canonical tiling failed at site {site}: {msg}")
    return partition


def parse_layout(text: str, lattice: Lattice) -> SitePartition:
    """Parse an explicit layout file: one line per site, ``index role state``.

    Role is P or A; state is ``up``/``down`` and is required for ancillas.
    Raises PartitionError, naming the line, on a malformed line or a site
    listed twice.
    """
    probes, ancillas, pattern = set(), set(), {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) < 2:
            raise PartitionError(f"layout line {lineno}: expected 'index role [state]'")
        try:
            site = int(parts[0])
        except ValueError:
            raise PartitionError(
                f"layout line {lineno}: site must be an integer, got {parts[0]!r}"
            ) from None
        if not 0 <= site < lattice.n_sites:
            raise PartitionError(f"layout line {lineno}: site {site} out of range")
        if site in probes or site in ancillas:
            raise PartitionError(f"layout line {lineno}: site {site} is listed twice")
        role = parts[1].upper()
        if role == "P":
            probes.add(site)
        elif role == "A":
            if len(parts) < 3 or parts[2] not in ("up", "down"):
                raise PartitionError(f"layout line {lineno}: ancilla needs state 'up' or 'down'")
            ancillas.add(site)
            pattern[site] = parts[2] == "up"
        else:
            raise PartitionError(f"layout line {lineno}: role must be P or A, got {parts[1]}")
    missing = set(range(lattice.n_sites)) - probes - ancillas
    if missing:
        raise PartitionError(f"layout does not assign sites {sorted(missing)}")
    return SitePartition(frozenset(probes), frozenset(ancillas), pattern)
