"""Optimal paths under a per-hop radius.

An edge (a, b) is usable only when cost[a][b] <= radius. Among feasible simple
paths the winner minimizes, in lexicographic order: total distance, then hop
count, then the node-id sequence itself. The hop tie-break is what makes a
two-hop route beat an equally long three-hop one.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from enum import Enum

from .errors import InstanceTooLarge, InvalidInput, InvalidPath, NoPath
from .netmodel import DistanceTable

# brute_force_route refuses networks above this size
ENUMERATION_LIMIT = 12


@dataclass(frozen=True)
class RouteQuery:
    """A routing request: source, destination, per-hop transmission radius."""

    src: int
    dst: int
    radius: float


@dataclass(frozen=True)
class Route:
    """A feasible path with its total distance and hop count."""

    path: tuple[int, ...]
    dist: float
    hops: int


class CountingMode(Enum):
    """What counts as a visit when a delivered route is tallied."""

    TRANSMITTERS_ONLY = "transmitters-only"  # every path node except the final receiver
    ALL_PATH_NODES = "all-path-nodes"  # every path node, receiver included


@dataclass(frozen=True)
class VisitStats:
    """Per-node visit tallies over a set of routed transmissions."""

    counts: dict[int, int]
    relay_counts: dict[int, int]  # interior-node attributions only
    transmissions: int  # delivered transmissions
    unreachable: int
    mode: CountingMode

    def top_relays(self, count: int = 3) -> list[int]:
        """Node ids ranked by relay-attributable visits, ties to the smaller id."""
        ranked = sorted(self.relay_counts, key=lambda n: (-self.relay_counts[n], n))
        return ranked[:count]


def _check_query(table: DistanceTable, query: RouteQuery) -> None:
    table.check_node(query.src)
    table.check_node(query.dst)
    if not query.radius >= 0:  # also catches NaN
        raise InvalidInput(f"radius must be non-negative, got {query.radius}")


def find_optimal_path(table: DistanceTable, query: RouteQuery) -> Route:
    """Best route by (dist, hops, path) order, every hop within the radius.

    Dijkstra over the radius-pruned edge set with composite labels: heap
    entries compare as (distance so far, hops so far, node sequence), so the
    first time the destination is settled its label is the global optimum.
    Costs are read in travel direction; directed tables are fine.

    Raises NoPath when the destination is unreachable under the radius.
    """
    _check_query(table, query)
    src, dst, radius = query.src, query.dst, query.radius
    if src == dst:
        return Route((src,), 0.0, 0)
    cost = table.cost
    n = table.n
    settled = [False] * (n + 1)
    heap: list[tuple[float, int, tuple[int, ...]]] = [(0.0, 0, (src,))]
    while heap:
        dist, hops, path = heapq.heappop(heap)
        node = path[-1]
        if settled[node]:
            continue
        settled[node] = True
        if node == dst:
            return Route(path, dist, hops)
        row = cost[node - 1]
        for nxt in range(1, n + 1):
            if settled[nxt] or nxt == node:
                continue
            edge = row[nxt - 1]
            if edge <= radius:
                heapq.heappush(heap, (dist + edge, hops + 1, path + (nxt,)))
    raise NoPath(src, dst, radius)


def brute_force_route(table: DistanceTable, query: RouteQuery) -> Route:
    """Independent oracle: enumerate every simple src->dst path and pick the best.

    Same contract as find_optimal_path, implemented by depth-first enumeration
    instead of a label search. A prefix is cut only when every completion is
    provably worse than the incumbent (completions add >= 0 distance and >= 1
    hop), so the cut never drops a potential winner.
    """
    _check_query(table, query)
    if table.n > ENUMERATION_LIMIT:
        raise InstanceTooLarge(
            f"{table.n} nodes exceed the enumeration bound of {ENUMERATION_LIMIT}"
        )
    src, dst, radius = query.src, query.dst, query.radius
    if src == dst:
        return Route((src,), 0.0, 0)
    cost = table.cost
    n = table.n
    adjacency = {
        node: [nxt for nxt in range(1, n + 1) if nxt != node and cost[node - 1][nxt - 1] <= radius]
        for node in range(1, n + 1)
    }
    best: tuple[float, int, tuple[int, ...]] | None = None

    def extend(node, dist, hops, path, visited):
        nonlocal best
        for nxt in adjacency[node]:
            if nxt in visited:
                continue
            d = dist + cost[node - 1][nxt - 1]
            h = hops + 1
            if nxt == dst:
                candidate = (d, h, path + (nxt,))
                if best is None or candidate < best:
                    best = candidate
                continue
            if best is not None and (d, h + 1) > (best[0], best[1]):
                continue
            extend(nxt, d, h, path + (nxt,), visited | {nxt})

    extend(src, 0.0, 0, (src,), {src})
    if best is None:
        raise NoPath(src, dst, radius)
    return Route(best[2], best[0], best[1])


def path_distance(table: DistanceTable, path) -> float:
    """Sum of hop costs along an explicit path; 0 for a single node."""
    nodes = list(path)
    if not nodes:
        raise InvalidPath("empty path")
    for node in nodes:
        table.check_node(node)
    if len(set(nodes)) != len(nodes):
        raise InvalidPath(f"repeated node in path {nodes}")
    return sum(table.cost[a - 1][b - 1] for a, b in zip(nodes, nodes[1:]))


def tally_pairs(table: DistanceTable, pairs, radius: float, mode: CountingMode) -> VisitStats:
    """Route each (src, dst) pair in order and tally per-node visits and relays.

    Unreachable pairs contribute nothing to the counts and are reported in
    `unreachable`. The relay tallies feed the top-relays ranking.
    """
    counts = {node: 0 for node in table.nodes}
    relay_counts = {node: 0 for node in table.nodes}
    delivered = 0
    unreachable = 0
    for src, dst in pairs:
        try:
            path = find_optimal_path(table, RouteQuery(src, dst, radius)).path
        except NoPath:
            unreachable += 1
            continue
        delivered += 1
        for node in path[:-1] if mode is CountingMode.TRANSMITTERS_ONLY else path:
            counts[node] += 1
        for node in path[1:-1]:
            relay_counts[node] += 1
    return VisitStats(counts, relay_counts, delivered, unreachable, mode)


def all_pairs_profile(table: DistanceTable, radius: float, mode: CountingMode) -> VisitStats:
    """Route every ordered pair once and tally the visits analytically."""
    if table.n < 2:
        raise InvalidInput("profile needs at least 2 nodes")
    if not radius >= 0:  # also catches NaN
        raise InvalidInput(f"radius must be non-negative, got {radius}")
    return tally_pairs(table, itertools.permutations(table.nodes, 2), radius, mode)
