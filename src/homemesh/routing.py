"""Optimal paths under a per-hop radius.

An edge (a, b) is usable only when cost[a][b] <= radius. Among feasible simple
paths the winner minimizes, in lexicographic order: total distance, then hop
count, then the node-id sequence itself. The hop tie-break is what makes a
two-hop route beat an equally long three-hop one.

A route's distance is the sum of its costs, each first rounded to one binary
grid per table (_grid). On that grid no sum along a simple path rounds, so
distances are exact in any order of addition and compare exactly.

One label search serves every query. It settles labels into a list its
caller owns and can pause once a given node is settled and be resumed later:
find_optimal_path asks it one destination; shortest_path_tree runs it to its
end and returns every node's route from the source. The two agree exactly:
a label, once settled, is never changed by the rest of the search, so
pausing or stopping early only leaves later nodes unsettled. A label is
(dist, hops, node, parent), where parent is the label it extends, so a
relaxation copies no path and labels share their prefixes. Node sequences
are compared only between labels of one node that tie on distance and hops,
by walking both parent chains. Routes is the one owner of searches: callers
that route many pairs on a table at a radius ask one Routes object, which
keeps one paused search per source, resumes it only as far as each pair
asks, and reads each path out of its labels once.

The all-pairs profile never walks the n(n-1) paths. A route extends its
node-before-last's own route, so a node's visits over every route from the
source follow from its subtree size (Brandes' dependency accumulation, one
search per source). The profile folds over the sources, tallying each
search's settled labels and dropping them before the next search, so it
holds one search at a time; tally_pairs, which keeps every source's paths,
serves drawn traffic, where pairs repeat.

A Routes builds one radius-pruned adjacency, each node's (next node, cost)
pairs within the radius, with its first search and shares it with every
later one, so a search costs n times the degree instead of n squared, and
walks only usable edges, testing none against the radius. A single
find_optimal_path query keeps the row scan: it settles only part of
the net, and building the adjacency for it costs more than the scan it
saves.
"""

from __future__ import annotations

import heapq
import math
from operator import itemgetter
from dataclasses import dataclass
from enum import Enum

from .errors import InstanceTooLarge, InvalidInput, InvalidPath, NoPath
from .netmodel import DistanceTable

# brute_force_route refuses networks above this size
ENUMERATION_LIMIT = 12

_HOPS = itemgetter(1)  # a label's hop count


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


def _precedes(a, b) -> bool:
    """Whether label a's node sequence is less than label b's; a and b have equal hops.

    Walks both parent chains in lockstep from the labels up. The chains have
    the same length, so they reach the source together, or meet earlier at a
    shared label, above which the two sequences agree. The topmost node where
    they differ decides.
    """
    less = False
    while a is not b:
        if a[2] != b[2]:
            less = a[2] < b[2]
        a = a[3]
        b = b[3]
    return less


def _path(label) -> tuple[int, ...]:
    """A label's node sequence, read up its parent chain."""
    nodes = []
    while label is not None:
        nodes.append(label[2])
        label = label[3]
    nodes.reverse()
    return tuple(nodes)


def _label_search(table: DistanceTable, src: int, radius: float,
                  settled: list[tuple | None], edges=None):
    """Settle each node's (dist, hops, node, parent) label into `settled`, pausing on request.

    A generator. `settled` is the caller's list, n + 1 entries of None; the
    search writes each node's label there as it settles it and leaves None
    for nodes it never reaches. It pauses first once the source is settled,
    so the first next() settles the source. Each later resume sends the node
    to pause at next: the search runs on until that node is settled and
    pauses again, or runs until the heap is empty and ends (StopIteration)
    when the node is unreachable or the sent value is None. The node sent
    must not be settled yet, or the search runs to its end. A search that
    would pause with every node settled ends instead, as nothing left in
    its heap can settle one, so a caller that asks every node of a connected
    net need not resume it again to let it go. A paused search resumes
    exactly where it stopped, so every label it settles is the one a search
    run to its end in one go settles.

    Dijkstra over the radius-pruned edge set with composite labels: a label
    orders as (distance so far, hops so far, node sequence), and the first
    label settled for a node is its global optimum. Costs enter on the
    table's grid (_grid), so every distance is exact. `parent` is the label
    this one extends, None at the source, so a label's node sequence is read
    up its parent chain and a relaxation copies no path. `queued[v]` is the
    best label found for v so far and `best[v]` its distance: a candidate
    replaces it when it is shorter, or as long with fewer hops, or as long
    with as many hops and a smaller sequence (_precedes). The heap compares
    the label tuples as they are, so a replaced label may still pop; a
    popped label settles iff it is its node's queued one, and is skipped
    otherwise. Only settled labels are expanded, so a label's parent is its
    node's settled label.

    A settled node's out-edges come from `edges[node]`, a list of (next node,
    cost) pairs within the radius in id order, costs already on the grid,
    when an adjacency is given, and from a scan of its whole cost row, each
    cost tested against the radius and then put on the grid, otherwise; the
    two offer the same usable edges in the same order, but for the self
    edge, which the scan offers and which never wins. The two loops share
    one relaxation, written out in each: on the adjacency a radius test per
    edge is dead work, and on the scan a call per edge or a pruned copy of
    each row costs more than the test it saves.
    """
    cost = table.cost
    n = table.n
    grid = _grid(table)
    queued: list[tuple | None] = [None] * (n + 1)
    best = [math.inf] * (n + 1)
    label = queued[src] = (0.0, 0, src, None)
    best[src] = 0.0
    heap = [label]
    stop = src
    while heap:
        label = heapq.heappop(heap)
        dist, hops, node, _ = label
        if label is not queued[node]:  # a better label of its node replaced it
            continue
        settled[node] = label
        if node == stop:
            if settled.count(None) == 1:  # entry 0 only: every node is settled
                return
            stop = yield
        next_hops = hops + 1
        if edges is not None:
            for nxt, edge in edges[node]:
                next_dist = dist + edge
                if next_dist <= best[nxt]:
                    # a queued label of nxt also ends at nxt, so on equal
                    # hops the sequences differ where label and its parent do
                    least = queued[nxt]
                    if (least is None or next_dist < least[0] or next_hops < least[1]
                            or next_hops == least[1] and _precedes(label, least[3])):
                        queued[nxt] = candidate = (next_dist, next_hops, nxt, label)
                        best[nxt] = next_dist
                        heapq.heappush(heap, candidate)
            continue
        for nxt, edge in enumerate(cost[node - 1], 1):
            if edge <= radius:
                next_dist = dist + ((edge + grid) - grid)
                if next_dist <= best[nxt]:
                    least = queued[nxt]
                    if (least is None or next_dist < least[0] or next_hops < least[1]
                            or next_hops == least[1] and _precedes(label, least[3])):
                        queued[nxt] = candidate = (next_dist, next_hops, nxt, label)
                        best[nxt] = next_dist
                        heapq.heappush(heap, candidate)


def _settle_all(table: DistanceTable, src: int, radius: float, edges=None) -> list[tuple | None]:
    """Every node's settled label from src, one search run to its end."""
    settled: list[tuple | None] = [None] * (table.n + 1)
    for _ in _label_search(table, src, radius, settled, edges):
        pass  # the only pause, at the source, is resumed with None: run to the end
    return settled


def find_optimal_path(table: DistanceTable, query: RouteQuery) -> Route:
    """Best route by (dist, hops, path) order, every hop within the radius.

    The one label search from the source, asked one destination: it runs
    until the destination is settled and is then dropped. Costs are read in
    travel direction; directed tables are fine.

    Raises NoPath when the destination is unreachable under the radius.
    """
    _check_query(table, query)
    settled: list[tuple | None] = [None] * (table.n + 1)
    search = _label_search(table, query.src, query.radius, settled)
    try:
        next(search)  # settles the source
        if settled[query.dst] is None:
            search.send(query.dst)
    except StopIteration:  # the search ended: it settled every node it reaches
        pass
    label = settled[query.dst]
    if label is None:
        raise NoPath(query.src, query.dst, query.radius)
    return Route(_path(label), label[0], label[1])


def shortest_path_tree(table: DistanceTable, src: int,
                       radius: float) -> list[tuple[int, ...] | None]:
    """Every node's best route from `src`, indexed by node id.

    Entry v is the path find_optimal_path returns for (src, v, radius), or
    None when v is unreachable; entry 0 is always None.
    """
    table.check_node(src)
    _check_radius(radius)
    return [label and _path(label) for label in _settle_all(table, src, radius)]


_UNREAD = object()  # a Routes path entry not yet read out of its labels


class Routes:
    """Best routes on one table at one radius, one search per source on demand.

    path(src, dst) is the path find_optimal_path returns for (src, dst,
    radius), or None when dst is unreachable. A source's search starts on
    its first pair and runs only until that pair's destination is settled;
    it is kept paused there, and a later pair resumes it only when its
    destination is not settled yet. Traffic asks a few destinations per
    source, so most of each search is never run. A search that ends, its
    heap empty or every node settled, is dropped, and with it its heap and
    per-node state. The settled labels are kept for the life of the object,
    as is each path, read out of them on its first pair. labels(src) runs a
    kept search to its end and hands out its labels, or runs a search it
    does not keep, for a caller that reads each source once. The first
    search also builds the radius-pruned adjacency that every search then
    walks: entry v lists the (next node, cost) pairs of v's cost row within
    the radius, v itself left out, each cost on the table's grid.
    """

    def __init__(self, table: DistanceTable, radius: float):
        _check_radius(radius)
        self.table = table
        self.radius = radius
        # per source, the labels settled so far, its paused search (None once
        # it ended), and each destination's path, None, or _UNREAD
        self._labels: list[list[tuple | None] | None] = [None] * (table.n + 1)
        self._searches: list = [None] * (table.n + 1)
        self._paths: list[list | None] = [None] * (table.n + 1)
        self._edges: list[list[tuple[int, float]]] | None = None

    def _adjacency(self) -> list[list[tuple[int, float]]]:
        if self._edges is None:
            radius = self.radius
            grid = _grid(self.table)
            self._edges = [[]] + [
                [(nxt, (edge + grid) - grid) for nxt, edge in enumerate(row, 1)
                 if edge <= radius and nxt != node]
                for node, row in enumerate(self.table.cost, 1)
            ]
        return self._edges

    def _resume(self, src: int, stop: int | None) -> None:
        """Send `stop` to src's search: run it until stop is settled, to its end for None.

        A search that raised reads as ended when resumed, so the nodes it
        never settled would read as unreachable: on an error src's labels,
        paths and search are all dropped, and its next pair starts over.
        """
        try:
            self._searches[src].send(stop)
        except StopIteration:
            self._searches[src] = None
        except BaseException:
            self._labels[src] = self._paths[src] = self._searches[src] = None
            raise

    def labels(self, src: int) -> list[tuple | None]:
        """src's settled label for every node: the kept ones, else those of a search not kept."""
        self.table.check_node(src)
        labels = self._labels[src]
        if labels is None:
            return _settle_all(self.table, src, self.radius, self._adjacency())
        if self._searches[src] is not None:
            self._resume(src, None)
        return labels

    def path(self, src: int, dst: int) -> tuple[int, ...] | None:
        n = self.table.n
        # one inline guard on both ids; a bool, another subclass of int or an
        # id out of range takes the checked way
        if not (type(src) is int and type(dst) is int and 0 < src <= n and 0 < dst <= n):
            self.table.check_node(src)
            self.table.check_node(dst)
        paths = self._paths[src]
        if paths is None:
            edges = self._adjacency()  # first: a table _grid refuses leaves src no state
            paths = self._paths[src] = [_UNREAD] * (n + 1)
            labels = self._labels[src] = [None] * (n + 1)
            self._searches[src] = _label_search(self.table, src, self.radius, labels, edges)
            self._resume(src, None)  # a new search first runs until src is settled
        path = paths[dst]
        if path is _UNREAD:
            labels = self._labels[src]
            if labels[dst] is None and self._searches[src] is not None:
                self._resume(src, dst)
            label = labels[dst]
            path = paths[dst] = label and _path(label)
        return path


def brute_force_route(table: DistanceTable, query: RouteQuery) -> Route:
    """Independent oracle: enumerate every simple src->dst path and pick the best.

    Same contract as find_optimal_path, implemented by depth-first enumeration
    instead of a label search, on the same grid costs. A prefix is cut only
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

    A route extends its parent label's route by one node, and that parent
    is the settled label of its node. Below v hang size[v] reached nodes, v
    included, and v lies on the route to each of them. So v transmits on
    size[v] - 1 routes; a v other than the source also relays on size[v] - 1
    and is the receiver of one more, which only ALL_PATH_NODES counts. Sizes
    are summed child to parent, most hops first. A search's labels are
    dropped once tallied, unless `routes` keeps them.
    """
    nodes = routes.table.nodes
    n = routes.table.n
    counts = [0] * (n + 1)
    relay_counts = [0] * (n + 1)
    receiver = 1 if mode is CountingMode.ALL_PATH_NODES else 0
    delivered = 0
    for src in nodes:
        reached = [label for label in routes.labels(src) if label is not None]
        reached.sort(key=_HOPS, reverse=True)
        size = [1] * (n + 1)
        for label in reached[:-1]:  # every reached node but the source, children first
            node = label[2]
            below = size[node]
            counts[node] += below - 1 + receiver
            relay_counts[node] += below - 1
            size[label[3][2]] += below
        counts[src] += len(reached) - 1
        delivered += len(reached) - 1
    return VisitStats({node: counts[node] for node in nodes},
                      {node: relay_counts[node] for node in nodes},
                      delivered, n * (n - 1) - delivered, mode)


def all_pairs_profile(table: DistanceTable, radius: float, mode: CountingMode) -> VisitStats:
    """Route every ordered pair once and tally the visits, one tree at a time."""
    if table.n < 2:
        raise InvalidInput("profile needs at least 2 nodes")
    return tally_all_pairs(Routes(table, radius), mode)
