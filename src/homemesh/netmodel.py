"""Immutable network model: node ids, planar positions, pairwise distance tables.

Node ids are 1-based everywhere. Distances are non-negative reals in the same
abstract unit as the per-hop transmission radius; no unit is assumed.
"""

from __future__ import annotations

import hashlib
import json
import math
import weakref
from dataclasses import dataclass
from functools import cached_property
from enum import Enum

from .errors import AsymmetricTable, InvalidInput, UnknownNode

Position = tuple[float, float]


class SymmetryPolicy(Enum):
    """How validate_table treats an asymmetric input matrix."""

    STRICT = "strict"
    SYMMETRIZE_UPPER = "symmetrize-upper"


@dataclass(frozen=True)
class DistanceTable:
    """n x n pairwise costs; cost[i-1][j-1] is the distance from node i to node j.

    Rows are tuples, so a table can be shared freely between threads. Entries
    are read in travel direction, which keeps directed tables meaningful even
    though the shipped fixtures are symmetric.
    """

    cost: tuple[tuple[float, ...], ...]

    @property
    def n(self) -> int:
        return len(self.cost)

    @property
    def nodes(self) -> range:
        return range(1, len(self.cost) + 1)

    @cached_property
    def max_cost(self) -> float:
        """The largest finite entry (0.0 when there is none), computed once per table."""
        if math.isfinite(sum(map(sum, self.cost))):  # no inf or NaN entry: max() at C speed
            return max(map(max, self.cost))
        return max((c for row in self.cost for c in row if -math.inf < c < math.inf),
                   default=0.0)

    def check_node(self, node: int) -> None:
        if not isinstance(node, int) or isinstance(node, bool) or not 1 <= node <= self.n:
            raise UnknownNode(node)

    def distance(self, a: int, b: int) -> float:
        self.check_node(a)
        self.check_node(b)
        return self.cost[a - 1][b - 1]

    def as_lists(self) -> list[list[float]]:
        return [list(row) for row in self.cost]

    @classmethod
    def from_rows(cls, rows) -> "DistanceTable":
        """Freeze a square matrix without semantic validation (see validate_table)."""
        frozen = tuple(tuple(float(x) for x in row) for row in rows)
        if not frozen or any(len(row) != len(frozen) for row in frozen):
            raise InvalidInput("distance table must be a non-empty square matrix")
        return cls(frozen)


def _points(positions) -> tuple[Position, ...]:
    """Positions as a tuple of finite (x, y) float pairs, or InvalidInput."""
    try:
        pts = tuple((float(x), float(y)) for x, y in positions)
    except (TypeError, ValueError) as exc:
        raise InvalidInput(f"positions must be (x, y) pairs of reals: {exc}") from exc
    if not pts:
        raise InvalidInput("at least one position is required")
    for x, y in pts:
        if not (math.isfinite(x) and math.isfinite(y)):
            raise InvalidInput(f"non-finite coordinate ({x}, {y})")
    return pts


# each live positions table, keyed by its checked points: the Topology that
# topology_from_positions builds checks its table against the table of the
# same points, which is found here instead of built again. Held weakly, so a
# table goes with its last holder
_position_tables: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


def table_from_positions(positions) -> DistanceTable:
    """Pairwise Euclidean distance table for planar node positions.

    Output is exactly symmetric with a zero diagonal; distances are unrounded.
    """
    pts = _points(positions)
    table = _position_tables.get(pts)
    if table is None:
        table = _position_tables[pts] = _euclidean_table(pts)
    return table


def _euclidean_table(pts: tuple[Position, ...]) -> DistanceTable:
    n = len(pts)
    cost = [[0.0] * n for _ in range(n)]
    inf = math.inf  # a local: the overflow test runs once per pair
    for i in range(n):
        for j in range(i + 1, n):
            d = math.hypot(pts[i][0] - pts[j][0], pts[i][1] - pts[j][1])
            if d == inf:
                raise InvalidInput(f"distance between nodes {i + 1} and {j + 1} overflows")
            cost[i][j] = d
            cost[j][i] = d
    return DistanceTable(tuple(tuple(row) for row in cost))


def validate_table(raw, policy: SymmetryPolicy = SymmetryPolicy.STRICT) -> DistanceTable:
    """Check a raw square matrix and return an immutable symmetric table.

    STRICT rejects any asymmetric pair; SYMMETRIZE_UPPER repairs by copying
    the upper triangle onto the lower (upper wins). Entries must be finite,
    non-negative, and zero on the diagonal.
    """
    try:
        rows = [[float(x) for x in row] for row in raw]
    except (TypeError, ValueError) as exc:
        raise InvalidInput(f"distance table entries must be reals: {exc}") from exc
    n = len(rows)
    if n == 0 or any(len(row) != n for row in rows):
        raise InvalidInput("distance table must be a non-empty square matrix")
    for i, row in enumerate(rows):
        for j, value in enumerate(row):
            if not math.isfinite(value):
                raise InvalidInput(f"non-finite distance at ({i + 1}, {j + 1})")
            if value < 0:
                raise InvalidInput(f"negative distance {value} at ({i + 1}, {j + 1})")
        if row[i] != 0.0:
            raise InvalidInput(f"nonzero diagonal {row[i]} at node {i + 1}")
    for i in range(n):
        for j in range(i + 1, n):
            if rows[i][j] != rows[j][i]:
                if policy is SymmetryPolicy.STRICT:
                    raise AsymmetricTable(i + 1, j + 1, rows[i][j], rows[j][i])
                rows[j][i] = rows[i][j]
    return DistanceTable(tuple(tuple(row) for row in rows))


def neighbors(table: DistanceTable, v: int, radius: float) -> set[int]:
    """All nodes other than v reachable from v in one hop of at most `radius`."""
    table.check_node(v)
    if not radius >= 0:  # also catches NaN
        raise InvalidInput(f"radius must be non-negative, got {radius}")
    row = table.cost[v - 1]
    return {i for i in table.nodes if i != v and row[i - 1] <= radius}


@dataclass(frozen=True)
class Topology:
    """A concrete network: distance table, optional positions, coordinator id.

    With positions, the table must be exactly table_from_positions(positions).
    """

    table: DistanceTable
    positions: tuple[Position, ...] | None = None
    coordinator: int = 1

    def __post_init__(self):
        self.table.check_node(self.coordinator)
        if self.positions is not None and self.table != table_from_positions(self.positions):
            raise InvalidInput("table is not the Euclidean table of its positions")

    @property
    def n(self) -> int:
        return self.table.n

    @property
    def nodes(self) -> range:
        return self.table.nodes


def topology_from_positions(positions, coordinator: int = 1) -> Topology:
    pts = _points(positions)
    return Topology(table=table_from_positions(pts), positions=pts, coordinator=coordinator)


def parse_topology(doc: dict) -> Topology:
    """Build a Topology from the JSON document schema.

    Exactly one of "positions" ([[x, y], ...]) or "matrix" ([[...], ...]) is
    required; "symmetrize": true selects the upper-wins repair for matrices;
    "coordinator" overrides the default coordinator node 1.
    """
    if not isinstance(doc, dict):
        raise InvalidInput("topology document must be a JSON object")
    has_positions = "positions" in doc
    has_matrix = "matrix" in doc
    if has_positions == has_matrix:
        raise InvalidInput('topology needs exactly one of "positions" or "matrix"')
    coordinator = doc.get("coordinator", 1)
    if not isinstance(coordinator, int) or isinstance(coordinator, bool):
        raise InvalidInput('"coordinator" must be an integer node id')
    if has_positions:
        return topology_from_positions(doc["positions"], coordinator=coordinator)
    policy = (
        SymmetryPolicy.SYMMETRIZE_UPPER if doc.get("symmetrize") else SymmetryPolicy.STRICT
    )
    return Topology(table=validate_table(doc["matrix"], policy), coordinator=coordinator)


def load_topology(path) -> Topology:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise InvalidInput(f"{path}:{exc.lineno}: {exc.msg}") from exc
        except UnicodeDecodeError as exc:
            raise InvalidInput(f"{path}: not UTF-8 at byte {exc.start}") from exc
        except RecursionError:
            raise InvalidInput(f"{path}: JSON nested too deeply") from None
    return parse_topology(doc)


def topology_digest(topology: Topology) -> str:
    """Stable sha256 of the routing-relevant content (matrix + coordinator)."""
    doc = {"coordinator": topology.coordinator, "matrix": topology.table.as_lists()}
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


# The ten-node reference network, shipped verbatim in fixtures/table1.json.
# One pair (5, 7) disagrees between the triangles; the upper-wins repair
# applies, so the effective cost is 5 both ways.
REFERENCE_MATRIX = (
    (0, 4, 2, 5, 5, 7, 6, 8, 9, 9),
    (4, 0, 2, 7, 6, 5, 5, 7, 7, 8),
    (2, 2, 0, 5, 4, 5, 4, 6, 7, 8),
    (5, 7, 5, 0, 3, 8, 7, 7, 9, 8),
    (5, 6, 4, 3, 0, 6, 5, 2, 7, 5),
    (7, 5, 5, 8, 6, 0, 3, 8, 2, 5),
    (6, 5, 4, 7, 4, 3, 0, 5, 4, 4),
    (8, 7, 6, 7, 2, 8, 5, 0, 6, 4),
    (9, 7, 7, 9, 7, 2, 4, 6, 0, 4),
    (9, 8, 8, 8, 5, 5, 4, 4, 4, 0),
)


def reference_topology() -> Topology:
    """The repaired ten-node reference topology (coordinator node 1)."""
    table = validate_table(REFERENCE_MATRIX, SymmetryPolicy.SYMMETRIZE_UPPER)
    return Topology(table=table)
