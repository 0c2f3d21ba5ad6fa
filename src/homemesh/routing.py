"""Optimal paths under a per-hop radius.

An edge (a, b) is usable only when cost[a][b] <= radius. Among feasible simple
paths the winner minimizes, in lexicographic order: total distance, then hop
count, then the node-id sequence itself. The hop tie-break is what makes a
two-hop route beat an equally long three-hop one.

A route's distance is the sum of its costs, each first rounded to one binary
grid per table (_grid). On that grid no sum along a simple path rounds, so
distances are exact in any order of addition and compare exactly.

Every route comes from a search state: flat lists indexed by node id (each
node's best distance, hop count and parent so far, whether it is settled,
and the order nodes settled in) and a heap of (dist, hops, node). One plain
function, _settle, runs a state until a given node is settled or its heap
is empty, and a later call runs it further: a settled node never changes,
so a state run in steps settles what one run in one go settles.
find_optimal_path runs a fresh state until its destination is settled. A
parent is a node id, so a relaxation copies no path, and a route is read up
the parent list once it is wanted. Node sequences are compared only between
two routes of one node that tie on distance and hops, by walking both up
the parent list. Routes is the one owner of kept states: callers that route
many pairs on a table at a radius ask one Routes object, which keeps one
state per source, runs it only as far as each pair asks, and reads each
path out of it once.

The all-pairs profile never walks the n(n-1) paths. A route extends its
node-before-last's own route, so a node's visits over every route from the
source follow from its subtree size (Brandes' dependency accumulation, one
search per source). The profile folds over the sources, summing subtree
sizes up each state's parent list in reverse settle order and dropping the
state before the next source, so it holds one state at a time; tally_pairs,
which keeps every source's paths, serves drawn traffic, where pairs repeat.

A Routes builds one radius-pruned adjacency, each node's (next node, cost)
pairs within the radius, when it is built and shares it with every search,
so a search costs n times the degree instead of n squared, and walks only
usable edges, testing none against the radius. The row scan has one caller,
find_optimal_path's single query: it settles only part of the net, and
building the adjacency for it costs more than the scan it saves.
"""

from __future__ import annotations

import heapq
import math
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


def _check_radius(radius: float) -> None:
    if not radius >= 0:  # also catches NaN
        raise InvalidInput(f"radius must be non-negative, got {radius}")


def _check_query(table: DistanceTable, query: RouteQuery) -> None:
    table.check_node(query.src)
    table.check_node(query.dst)
    _check_radius(query.radius)


def _grid(table: DistanceTable) -> float:
    """The table's grid constant G: a cost c enters every route sum as (c + G) - G.

    With C the table's largest finite cost and e the least integer with
    n*C < 2**e, G is 2**(e - 1). For n >= 2 a finite cost lies in [0, G), so
    c + G lies in [G, 2G), where one ulp is q = 2**(e - 53), and (c + G) - G
    is c rounded half-to-even to a multiple of q. A simple path has fewer
    than n hops, so each sum along it is a multiple of q below 2**53 * q:
    exact in a double, whatever the order of addition. (Where q would be
    below the least subnormal, c is kept as it is, and sums stay exact.) G
    is 0 when C is, and costs are used as they are. An infinite cost stays
    infinite and a NaN unusable. A table with n*C of 2**1023 or more is
    refused: its grid or a sum could overflow.
    """
    top = table.max_cost
    if top == 0:
        return 0.0
    # C = num / 2**k, so n*C < 2**e iff n*num < 2**(e + k): e + k is the
    # bit length of n*num, and no float n*C is formed to overflow
    num, den = top.as_integer_ratio()
    e = (table.n * num).bit_length() - (den.bit_length() - 1)
    if e > 1023:
        raise InvalidInput(f"costs up to {top:g} on {table.n} nodes are too large to add exactly")
    return math.ldexp(1.0, e - 1)


def _precedes(parent, a, b) -> bool:
    """Whether the route to a has a smaller node sequence than the route to b; both have equal hops.

    Walks both routes up the parent list in lockstep. They have the same
    length, so they reach the source together, or meet earlier at a shared
    node, above which the two sequences agree. The topmost node where they
    differ decides.
    """
    less = False
    while a != b:
        less = a < b
        a = parent[a]
        b = parent[b]
    return less


def _path(parent, node) -> tuple[int, ...]:
    """The node sequence of the route to `node`, read up the parent list."""
    nodes = []
    while node:
        nodes.append(node)
        node = parent[node]
    nodes.reverse()
    return tuple(nodes)


def _start(n: int, src: int):
    """A new search state from src: (dist, hops, parent, done, order, heap).

    dist, hops and parent hold each node's best route found so far, indexed
    by node id: its distance, its hop count, and the node before it (0 above
    the source). A node not reached yet has an infinite distance and n hops,
    more than any simple path has, so a route at infinite distance still
    replaces it. done[v] is 1 once v is settled, order lists the settled
    nodes in the order they settled, and heap holds (dist, hops, node)
    entries still to pop.
    """
    dist = [math.inf] * (n + 1)
    hops = [n] * (n + 1)
    dist[src] = 0.0
    hops[src] = 0
    return dist, hops, [0] * (n + 1), bytearray(n + 1), [], [(0.0, 0, src)]


def _settle(table: DistanceTable, radius: float, state, stop: int, edges=None) -> None:
    """Run a search state until node `stop` is settled or its heap is empty; 0 runs it to its end.

    Dijkstra over the radius-pruned edge set, with routes ordered as
    (distance, hops, node sequence): the first route settled for a node is
    its global optimum. Costs enter on the table's grid (_grid), so every
    distance is exact. A candidate replaces a node's best route when it is
    shorter, or as long with fewer hops, and is then pushed;
    when it is as long with as many hops and a smaller node sequence
    (_precedes), only the node's parent changes, as its heap entry is the
    same. A popped entry settles its node unless the node is already
    settled: an entry that a better route replaced pops after that route's
    entry. Costs are non-negative, so no candidate ever improves a settled
    node, and only settled nodes are parents. A settled node's edges are
    relaxed at once, so a later call resumes exactly where this one
    stopped. A state that stops with every node settled empties its heap, as
    nothing left in it could settle another.

    A settled node's out-edges come from `edges[node]`, a Routes adjacency
    of (next node, cost) pairs within the radius in id order, costs already
    on the grid, when one is given, and otherwise, for find_optimal_path's
    single query, from a scan of its whole cost row, each cost tested
    against the radius and then put on the grid; the two offer the same
    usable edges in the same order, but for the self edge, which the scan
    offers and which never wins. The two loops share one relaxation, written
    out in each: on the adjacency a radius test per edge is dead work, and
    on the scan a call per edge or a pruned copy of each row costs more than
    the test it saves.
    """
    dist, hops, parent, done, order, heap = state
    if edges is None:
        cost = table.cost
        grid = _grid(table)
    while heap:
        d, h, node = heapq.heappop(heap)
        if done[node]:
            continue
        done[node] = 1
        order.append(node)
        next_hops = h + 1
        if edges is not None:
            for nxt, edge in edges[node]:
                next_dist = d + edge
                if next_dist <= dist[nxt]:
                    if next_dist < dist[nxt] or next_hops < hops[nxt]:
                        dist[nxt] = next_dist
                        hops[nxt] = next_hops
                        parent[nxt] = node
                        heapq.heappush(heap, (next_dist, next_hops, nxt))
                    elif next_hops == hops[nxt] and _precedes(parent, node, parent[nxt]):
                        parent[nxt] = node
        else:
            for nxt, edge in enumerate(cost[node - 1], 1):
                if edge <= radius:
                    next_dist = d + ((edge + grid) - grid)
                    if next_dist <= dist[nxt]:
                        if next_dist < dist[nxt] or next_hops < hops[nxt]:
                            dist[nxt] = next_dist
                            hops[nxt] = next_hops
                            parent[nxt] = node
                            heapq.heappush(heap, (next_dist, next_hops, nxt))
                        elif next_hops == hops[nxt] and _precedes(parent, node, parent[nxt]):
                            parent[nxt] = node
        if node == stop:
            if len(order) == len(done) - 1:
                heap.clear()
            return


def find_optimal_path(table: DistanceTable, query: RouteQuery) -> Route:
    """Best route by (dist, hops, path) order, every hop within the radius.

    A fresh search state from the source, run until the destination is
    settled and then dropped. Costs are read in travel direction; directed
    tables are fine.

    Raises NoPath when the destination is unreachable under the radius.
    """
    _check_query(table, query)
    dst = query.dst
    state = _start(table.n, query.src)
    _settle(table, query.radius, state, dst)
    dist, hops, parent, done, _, _ = state
    if not done[dst]:
        raise NoPath(query.src, dst, query.radius)
    return Route(_path(parent, dst), dist[dst], hops[dst])


_UNREAD = object()  # a Routes path entry not yet read out of its state


class Routes:
    """Best routes on one table at one radius, one search state per source on demand.

    path(src, dst) is the path find_optimal_path returns for (src, dst,
    radius), or None when dst is unreachable. A source's state starts on its
    first pair and runs only until that pair's destination is settled; it is
    kept, and a later pair runs it further only when its destination is not
    settled yet and its heap is not empty. Traffic asks a few destinations
    per source, so most of each search is never run. The states are kept
    for the life of the object, as is each path, read out of its state on
    its first pair. Construction checks the radius and the table's grid, so
    a table too large to add exactly is refused there, and builds the
    radius-pruned adjacency that every state walks: entry v lists the (next
    node, cost) pairs of v's cost row within the radius, v itself left out,
    each cost on the table's grid.
    """

    def __init__(self, table: DistanceTable, radius: float):
        _check_radius(radius)
        grid = _grid(table)
        self.table = table
        self.radius = radius
        # per source, its search state and each destination's path, None, or _UNREAD
        self._states: list[tuple | None] = [None] * (table.n + 1)
        self._paths: list[list | None] = [None] * (table.n + 1)
        self._edges = [[]] + [
            [(nxt, (edge + grid) - grid) for nxt, edge in enumerate(row, 1)
             if edge <= radius and nxt != node]
            for node, row in enumerate(table.cost, 1)
        ]

    def _run(self, src: int, stop: int) -> None:
        """Run src's kept state until stop is settled, to its end for 0.

        A state that raised may hold a settled node whose edges were never
        relaxed, so the nodes past it would read as unreachable: on an error
        src's state and paths are both dropped, and its next pair starts over.
        """
        try:
            _settle(self.table, self.radius, self._states[src], stop, self._edges)
        except BaseException:
            self._states[src] = self._paths[src] = None
            raise

    def _tree(self, src: int):
        """src's search state run to its end: the kept one, else a new one not kept."""
        self.table.check_node(src)
        state = self._states[src]
        if state is None:
            state = _start(self.table.n, src)
            _settle(self.table, self.radius, state, 0, self._edges)
        elif state[5]:
            self._run(src, 0)
        return state

    def path(self, src: int, dst: int) -> tuple[int, ...] | None:
        n = self.table.n
        # one inline guard on both ids; a bool, another subclass of int or an
        # id out of range takes the checked way
        if not (type(src) is int and type(dst) is int and 0 < src <= n and 0 < dst <= n):
            self.table.check_node(src)
            self.table.check_node(dst)
        paths = self._paths[src]
        if paths is None:
            paths = self._paths[src] = [_UNREAD] * (n + 1)
            self._states[src] = _start(n, src)
        path = paths[dst]
        if path is _UNREAD:
            _, _, parent, done, _, heap = self._states[src]
            if not done[dst] and heap:
                self._run(src, dst)
            path = paths[dst] = _path(parent, dst) if done[dst] else None
        return path


def brute_force_route(table: DistanceTable, query: RouteQuery) -> Route:
    """Independent oracle: enumerate every simple src->dst path and pick the best.

    Same contract as find_optimal_path, implemented by depth-first enumeration
    instead of a Dijkstra search, on the same grid costs. A prefix is cut only
    when every completion is provably worse than the incumbent (completions
    add >= 0 distance and >= 1 hop), so the cut never drops a potential winner.
    """
    _check_query(table, query)
    if table.n > ENUMERATION_LIMIT:
        raise InstanceTooLarge(
            f"{table.n} nodes exceed the enumeration bound of {ENUMERATION_LIMIT}"
        )
    grid = _grid(table)
    src, dst, radius = query.src, query.dst, query.radius
    if src == dst:
        return Route((src,), 0.0, 0)
    n = table.n
    adjacency = {
        node: [(nxt, (edge + grid) - grid) for nxt, edge in enumerate(row, 1)
               if nxt != node and edge <= radius]
        for node, row in enumerate(table.cost, 1)
    }
    best: tuple[float, int, tuple[int, ...]] | None = None

    def extend(node, dist, hops, path, visited):
        nonlocal best
        for nxt, edge in adjacency[node]:
            if nxt in visited:
                continue
            d = dist + edge
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
    """Sum of the hop costs along an explicit path, each on the table's grid; 0 for one node.

    The sum is exact (see _grid), so it is a route's dist whatever order the
    hops are added in.
    """
    nodes = list(path)
    if not nodes:
        raise InvalidPath("empty path")
    for node in nodes:
        table.check_node(node)
    if len(set(nodes)) != len(nodes):
        raise InvalidPath(f"repeated node in path {nodes}")
    grid = _grid(table)
    cost = table.cost
    return sum(((cost[a - 1][b - 1] + grid) - grid for a, b in zip(nodes, nodes[1:])), 0.0)


def tally_pairs(routes: Routes, pairs, mode: CountingMode) -> VisitStats:
    """Route each (src, dst) pair in order and tally per-node visits and relays.

    Unreachable pairs contribute nothing to the counts and are reported in
    `unreachable`. The relay tallies feed the top-relays ranking.
    """
    counts = {node: 0 for node in routes.table.nodes}
    relay_counts = {node: 0 for node in routes.table.nodes}
    delivered = 0
    unreachable = 0
    for src, dst in pairs:
        path = routes.path(src, dst)
        if path is None:
            unreachable += 1
            continue
        delivered += 1
        for node in path[:-1] if mode is CountingMode.TRANSMITTERS_ONLY else path:
            counts[node] += 1
        for node in path[1:-1]:
            relay_counts[node] += 1
    return VisitStats(counts, relay_counts, delivered, unreachable, mode)


def tally_all_pairs(routes: Routes, mode: CountingMode) -> VisitStats:
    """What tally_pairs reports for every ordered pair, folded over one search per source.

    A route extends its parent's route by one node. Below v hang size[v]
    reached nodes, v included, and v lies on the route to each of them. So v
    transmits on size[v] - 1 routes; a v other than the source also relays
    on size[v] - 1 and is the receiver of one more, which only
    ALL_PATH_NODES counts. A node settles after its parent, so sizes are
    summed child to parent in reverse settle order. A state is dropped once
    tallied, unless `routes` keeps it.
    """
    nodes = routes.table.nodes
    n = routes.table.n
    counts = [0] * (n + 1)
    relay_counts = [0] * (n + 1)
    receiver = 1 if mode is CountingMode.ALL_PATH_NODES else 0
    delivered = 0
    for src in nodes:
        _, _, parent, _, order, _ = routes._tree(src)
        size = [1] * (n + 1)
        for node in order[:0:-1]:  # every reached node but the source, children first
            below = size[node]
            counts[node] += below - 1 + receiver
            relay_counts[node] += below - 1
            size[parent[node]] += below
        counts[src] += len(order) - 1
        delivered += len(order) - 1
    return VisitStats({node: counts[node] for node in nodes},
                      {node: relay_counts[node] for node in nodes},
                      delivered, n * (n - 1) - delivered, mode)


def all_pairs_profile(table: DistanceTable, radius: float, mode: CountingMode) -> VisitStats:
    """Route every ordered pair once and tally the visits, one tree at a time."""
    if table.n < 2:
        raise InvalidInput("profile needs at least 2 nodes")
    return tally_all_pairs(Routes(table, radius), mode)
