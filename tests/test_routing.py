import hashlib
import itertools
import math
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from homemesh import routing
from homemesh.errors import (
    InstanceTooLarge,
    InvalidInput,
    InvalidPath,
    NoPath,
    UnknownNode,
)
from homemesh.netmodel import DistanceTable, table_from_positions
from homemesh.routing import (
    CountingMode,
    RouteQuery,
    Routes,
    all_pairs_profile,
    brute_force_route,
    find_optimal_path,
    path_distance,
    shortest_path_tree,
    tally_all_pairs,
    tally_pairs,
)

from conftest import random_symmetric_table
from reference_impls import enum_best_route

# frozen by enumerating every simple pair route on the repaired reference table
PROFILE_K5_TRANSMITTERS = {1: 9, 2: 9, 3: 25, 4: 9, 5: 23, 6: 17, 7: 19, 8: 9, 9: 9, 10: 11}
PROFILE_K5_ALL_NODES = {1: 18, 2: 18, 3: 34, 4: 18, 5: 32, 6: 26, 7: 28, 8: 18, 9: 18, 10: 20}
PROFILE_K5_RELAY = {1: 0, 2: 0, 3: 16, 4: 0, 5: 14, 6: 8, 7: 10, 8: 0, 9: 0, 10: 2}

# sha256 of "src dst path" lines for every ordered pair on planar60_table() at
# radius 18, routed on the table's grid; a Dijkstra over exact Fraction sums
# of the raw costs gives the same routes (118 pairs unreachable, routes up to
# 15 hops)
PLANAR60_K18_ROUTES = "ad49ebb8d2ba61711b6b9f6a4888a99b33f6acf6ab114eab5523d2febe0a07a7"


def as_tuple(route):
    return (route.path, route.dist, route.hops)


def both_routes(table, query):
    try:
        fast = as_tuple(find_optimal_path(table, query))
    except NoPath:
        fast = None
    try:
        slow = as_tuple(brute_force_route(table, query))
    except NoPath:
        slow = None
    return fast, slow


def test_headline_route_prefers_fewer_hops(table1):
    route = find_optimal_path(table1, RouteQuery(1, 10, 5))
    assert as_tuple(route) == ((1, 5, 10), 10.0, 2)
    # the three-hop alternative ties on distance but loses on hops
    assert path_distance(table1, [1, 3, 7, 10]) == 10.0
    for a, b in zip([1, 3, 7, 10], [3, 7, 10]):
        assert table1.distance(a, b) <= 5


def test_same_source_and_destination(table1):
    assert as_tuple(find_optimal_path(table1, RouteQuery(7, 7, 5))) == ((7,), 0.0, 0)
    assert as_tuple(brute_force_route(table1, RouteQuery(7, 7, 5))) == ((7,), 0.0, 0)


def test_tight_radius_forces_three_hops(table1):
    route = find_optimal_path(table1, RouteQuery(1, 10, 4))
    assert as_tuple(route) == ((1, 3, 7, 10), 10.0, 3)


def test_wide_radius_goes_direct(table1):
    route = find_optimal_path(table1, RouteQuery(1, 10, 9))
    assert as_tuple(route) == ((1, 10), 9.0, 1)


def test_radius_one_unreachable(table1):
    with pytest.raises(NoPath):
        find_optimal_path(table1, RouteQuery(1, 10, 1))
    with pytest.raises(NoPath):
        brute_force_route(table1, RouteQuery(1, 10, 1))


def test_brute_force_examples(table1):
    assert as_tuple(brute_force_route(table1, RouteQuery(1, 10, 5))) == ((1, 5, 10), 10.0, 2)
    two = DistanceTable.from_rows([[0, 4], [4, 0]])
    assert as_tuple(brute_force_route(two, RouteQuery(1, 2, 4))) == ((1, 2), 4.0, 1)


def test_brute_force_lexicographic_tie(table1):
    # three routes tie at (12, 3); the smallest node sequence wins
    route = brute_force_route(table1, RouteQuery(4, 9, 5))
    assert as_tuple(route) == ((4, 3, 6, 9), 12.0, 3)
    ties = []
    for path in [(4, 3, 6, 9), (4, 5, 7, 9), (4, 5, 10, 9)]:
        assert path_distance(table1, path) == 12.0
        assert all(table1.distance(a, b) <= 5 for a, b in zip(path, path[1:]))
        ties.append(path)
    assert route.path == min(ties)


def test_query_validation(table1):
    with pytest.raises(UnknownNode):
        find_optimal_path(table1, RouteQuery(0, 5, 5))
    with pytest.raises(UnknownNode):
        find_optimal_path(table1, RouteQuery(1, 11, 5))
    with pytest.raises(InvalidInput):
        find_optimal_path(table1, RouteQuery(1, 2, -1))
    with pytest.raises(InvalidInput):
        find_optimal_path(table1, RouteQuery(1, 2, float("nan")))


def test_enumeration_bound():
    n = 13
    rows = [[0 if i == j else 1 for j in range(n)] for i in range(n)]
    table = DistanceTable.from_rows(rows)
    with pytest.raises(InstanceTooLarge):
        brute_force_route(table, RouteQuery(1, 2, 5))


def test_path_distance_examples(table1):
    assert path_distance(table1, [1, 5, 10]) == 10.0
    assert path_distance(table1, [7]) == 0.0
    assert path_distance(table1, [1, 3, 7, 10]) == 10.0


def test_path_distance_is_the_exact_sum_on_the_table_grid():
    # n = 4 and a largest cost of 1 give e = 3 (4 * 1 < 2**3): each cost is
    # rounded half to even to a multiple of q = 2**-50, and the sum is exact.
    # Added hop by hop in path order, the raw costs read 0.6000000000000001
    rows = [[0, 0.3, 1, 1], [0.3, 0, 0.1, 1], [1, 0.1, 0, 0.2], [1, 1, 0.2, 0]]
    table = DistanceTable.from_rows(rows)
    route = find_optimal_path(table, RouteQuery(1, 4, 0.3))
    assert route.path == (1, 2, 3, 4)
    q = Fraction(2) ** -50
    exact = sum(round(Fraction(cost) / q) * q for cost in (0.3, 0.1, 0.2))
    assert path_distance(table, route.path) == route.dist == exact == 0.5999999999999996
    assert path_distance(table, route.path[::-1]) == route.dist


def test_path_distance_errors(table1):
    with pytest.raises(InvalidPath):
        path_distance(table1, [])
    with pytest.raises(InvalidPath):
        path_distance(table1, [1, 5, 1])
    with pytest.raises(UnknownNode):
        path_distance(table1, [1, 99])


@pytest.mark.parametrize("radius", [5, math.inf])
def test_infinite_and_nan_costs(radius):
    # the largest finite cost sets the grid; an infinite cost is usable only
    # at an infinite radius, and then loses; a NaN cost is never usable
    table = DistanceTable.from_rows([[0, 1, math.inf], [1, 0, 2], [math.inf, 2, 0]])
    query = RouteQuery(1, 3, radius)
    assert as_tuple(find_optimal_path(table, query)) == ((1, 2, 3), 3.0, 2)
    assert both_routes(table, query)[1] == ((1, 2, 3), 3.0, 2)
    assert Routes(table, radius).path(1, 3) == (1, 2, 3)
    table = DistanceTable.from_rows([[0, math.nan], [1, 0]])
    with pytest.raises(NoPath):
        find_optimal_path(table, RouteQuery(1, 2, radius))
    assert as_tuple(find_optimal_path(table, RouteQuery(2, 1, radius))) == ((2, 1), 1.0, 1)


def test_nodes_reached_only_over_infinite_costs_are_routed():
    # node 2 is reached at an infinite distance; one hop beats (1, 3, 2), as
    # long, so a node not reached yet must hold more hops than any path has
    table = DistanceTable.from_rows([[0, math.inf, 1], [math.inf, 0, math.inf], [1, math.inf, 0]])
    query = RouteQuery(1, 2, math.inf)
    expected = ((1, 2), math.inf, 1)
    assert both_routes(table, query) == (expected, expected)
    assert Routes(table, math.inf).path(1, 2) == (1, 2)
    assert shortest_path_tree(table, 1, math.inf)[2] == (1, 2)
    assert all_pairs_profile(table, math.inf, CountingMode.TRANSMITTERS_ONLY).unreachable == 0


# the two-hop route 1, 2, 3 is the shorter one in each; 3 * 2.8e307 stays
# below 2**1023, and 1e-320 is subnormal
FLOAT_RANGE_ROWS = {
    "large": [[0, 1e307, 2.8e307], [1e307, 0, 1.5e307], [2.8e307, 1.5e307, 0]],
    "small": [[0, 1e-301, 3e-301], [1e-301, 0, 1.5e-301], [3e-301, 1.5e-301, 0]],
    "subnormal": [[0, 1e-320, 3e-320], [1e-320, 0, 1.5e-320], [3e-320, 1.5e-320, 0]],
}


@pytest.mark.parametrize("rows", FLOAT_RANGE_ROWS.values(), ids=FLOAT_RANGE_ROWS.keys())
def test_tables_at_the_ends_of_the_float_range_route_on_their_grid(rows):
    table = DistanceTable.from_rows(rows)
    routes = Routes(table, math.inf)
    for src, dst in itertools.product(table.nodes, repeat=2):
        dist, hops, path = enum_best_route(table.cost, src, dst, math.inf)
        query = RouteQuery(src, dst, math.inf)
        assert both_routes(table, query) == ((path, dist, hops), (path, dist, hops))
        assert routes.path(src, dst) == path
        assert path_distance(table, path) == dist
    assert routes.path(1, 3) == (1, 2, 3)


def test_costs_too_large_to_add_exactly_are_refused():
    # n * C = 2e308 is past 2**1023, about 9e307: the grid or a sum could overflow
    table = DistanceTable.from_rows([[0, 1e308], [1e308, 0]])
    routes = Routes(table, 1)
    # routes is asked twice: a refusal must not leave 1's route reading as unreachable
    for call in (lambda: find_optimal_path(table, RouteQuery(1, 2, math.inf)),
                 lambda: brute_force_route(table, RouteQuery(1, 1, 1)),
                 lambda: shortest_path_tree(table, 1, 1),
                 lambda: routes.path(1, 2),
                 lambda: routes.path(1, 2),
                 lambda: tally_all_pairs(routes, CountingMode.TRANSMITTERS_ONLY),
                 lambda: all_pairs_profile(table, 1, CountingMode.TRANSMITTERS_ONLY),
                 lambda: path_distance(table, [1, 2])):
        with pytest.raises(InvalidInput, match="too large to add exactly"):
            call()


# --- oracle agreement -------------------------------------------------------


def test_search_matches_enumeration_on_random_tables():
    rng = random.Random(1234)
    for _ in range(40):
        n = rng.randint(2, 8)
        table = random_symmetric_table(rng, n)
        radius = rng.randint(1, 9)
        for src in table.nodes:
            for dst in table.nodes:
                if src == dst:
                    continue
                fast, slow = both_routes(table, RouteQuery(src, dst, radius))
                assert fast == slow


def test_brute_force_matches_pure_enumeration():
    # validates the pruned enumerator itself against permutations
    rng = random.Random(99)
    for _ in range(25):
        n = rng.randint(2, 6)
        table = random_symmetric_table(rng, n)
        radius = rng.randint(1, 9)
        for src in table.nodes:
            for dst in table.nodes:
                if src == dst:
                    continue
                expected = enum_best_route(table.cost, src, dst, radius)
                try:
                    got = brute_force_route(table, RouteQuery(src, dst, radius))
                    got_key = (got.dist, got.hops, got.path)
                except NoPath:
                    got_key = None
                assert got_key == expected


plane = st.floats(min_value=-100, max_value=100, allow_nan=False, allow_infinity=False)


@given(st.lists(st.tuples(plane, plane), min_size=2, max_size=6),
       st.floats(min_value=0, max_value=300, allow_nan=False))
@settings(max_examples=60, deadline=None)
def test_euclidean_tables_agree(points, radius):
    from homemesh.netmodel import table_from_positions

    table = table_from_positions(points)
    for src in table.nodes:
        for dst in table.nodes:
            if src != dst:
                fast, slow = both_routes(table, RouteQuery(src, dst, radius))
                assert fast == slow


directed_matrix = st.integers(min_value=2, max_value=5).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(min_value=1, max_value=9), min_size=n, max_size=n),
        min_size=n,
        max_size=n,
    )
)


@given(directed_matrix, st.integers(min_value=1, max_value=9))
@settings(max_examples=60, deadline=None)
def test_directed_tables_agree(rows, radius):
    n = len(rows)
    for i in range(n):
        rows[i][i] = 0
    table = DistanceTable.from_rows(rows)
    for src in table.nodes:
        for dst in table.nodes:
            if src != dst:
                fast, slow = both_routes(table, RouteQuery(src, dst, radius))
                assert fast == slow


def test_returned_routes_are_feasible_and_consistent(table1):
    for radius in (2, 3, 4, 5, 7, 9):
        for src in table1.nodes:
            for dst in table1.nodes:
                try:
                    route = find_optimal_path(table1, RouteQuery(src, dst, radius))
                except NoPath:
                    continue
                assert len(set(route.path)) == len(route.path)
                assert all(
                    table1.distance(a, b) <= radius
                    for a, b in zip(route.path, route.path[1:])
                )
                assert route.dist == path_distance(table1, route.path)
                assert route.hops == len(route.path) - 1


def test_radius_monotonicity(table1):
    for src in table1.nodes:
        for dst in table1.nodes:
            if src == dst:
                continue
            previous = None
            for radius in range(1, 10):
                try:
                    dist = find_optimal_path(table1, RouteQuery(src, dst, radius)).dist
                except NoPath:
                    assert previous is None  # once reachable, always reachable
                    continue
                if previous is not None:
                    assert dist <= previous
                previous = dist


def test_symmetric_table_symmetric_costs(table1):
    for src in table1.nodes:
        for dst in table1.nodes:
            if src == dst:
                continue
            forward = find_optimal_path(table1, RouteQuery(src, dst, 5))
            backward = find_optimal_path(table1, RouteQuery(dst, src, 5))
            assert forward.dist == backward.dist
            assert forward.hops == backward.hops


# --- all-pairs profile --------------------------------------------------------


def test_profile_transmitters_only(table1):
    stats = all_pairs_profile(table1, 5, CountingMode.TRANSMITTERS_ONLY)
    assert stats.counts == PROFILE_K5_TRANSMITTERS
    assert stats.relay_counts == PROFILE_K5_RELAY
    assert stats.transmissions == 90
    assert stats.unreachable == 0
    assert stats.top_relays() == [3, 5, 7]


def test_profile_all_path_nodes(table1):
    stats = all_pairs_profile(table1, 5, CountingMode.ALL_PATH_NODES)
    assert stats.counts == PROFILE_K5_ALL_NODES
    assert stats.relay_counts == PROFILE_K5_RELAY


def test_profile_two_node_table():
    table = DistanceTable.from_rows([[0, 4], [4, 0]])
    stats = all_pairs_profile(table, 4, CountingMode.TRANSMITTERS_ONLY)
    assert stats.counts == {1: 1, 2: 1}
    assert stats.unreachable == 0


def test_profile_everything_unreachable(table1):
    stats = all_pairs_profile(table1, 1, CountingMode.TRANSMITTERS_ONLY)
    assert all(count == 0 for count in stats.counts.values())
    assert stats.unreachable == 90
    assert stats.transmissions == 0


def test_profile_rejects_tiny_table():
    with pytest.raises(InvalidInput):
        all_pairs_profile(DistanceTable.from_rows([[0]]), 5, CountingMode.TRANSMITTERS_ONLY)


def test_profile_conservation(table1):
    transmitters = all_pairs_profile(table1, 5, CountingMode.TRANSMITTERS_ONLY)
    everyone = all_pairs_profile(table1, 5, CountingMode.ALL_PATH_NODES)
    # each delivered route counts exactly one more node under ALL_PATH_NODES
    assert sum(everyone.counts.values()) - sum(transmitters.counts.values()) == 90


# --- shortest-path trees ----------------------------------------------------------


# From 3, (3, 5, 4) costs 0.1 + 0.2. On to 2, 0.3 direct and 0.2 + 0.1 through
# 6 tie on the grid, where added in path order the direct hop rounds an ulp
# above, so the fewer hops win; on to 1, (3, 5, 4, 2, 1) and (3, 5, 4, 6, 1)
# tie at 0.8 over four hops, and the first wins on node sequence
ROUNDING_ROWS = [
    [0.0, 0.2, 1.0, 1.0, 1.0, 0.3],
    [0.2, 0.0, 1.0, 0.3, 1.0, 0.1],
    [1.0, 1.0, 0.0, 1.0, 0.1, 1.0],
    [1.0, 0.3, 1.0, 0.0, 0.2, 0.2],
    [1.0, 1.0, 0.1, 0.2, 0.0, 1.0],
    [0.3, 0.1, 1.0, 0.2, 1.0, 0.0],
]

# From 1, (1, 4, 2) at 0.3 + 0.3 and (1, 3, 2) at 0.2 + 0.4 are equal in decimal
# but one grid step apart, (1, 4, 2) below, so distance decides, not the node
# sequence that favours (1, 3, 2). From 2, (2, 4, 1) and (2, 3, 1) do the same
SETTLED_TIE_ROWS = [
    [0.0, 0.7, 0.2, 0.3],
    [0.7, 0.0, 0.4, 0.3],
    [0.2, 0.4, 0.0, 0.1],
    [0.3, 0.3, 0.1, 0.0],
]


tied_costs = st.sampled_from([0.1, 0.2, 0.3, 1.0, 1.0, 2.0, 3.0])


@st.composite
def cost_rows(draw):
    """Square cost matrices, n <= 7, directed or symmetric, with many tied sums."""
    n = draw(st.integers(min_value=1, max_value=7))
    symmetric = draw(st.booleans())
    rows = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if i != j and not (symmetric and j < i):
                rows[i][j] = draw(tied_costs)
                if symmetric:
                    rows[j][i] = rows[i][j]
    return rows


@given(cost_rows(), st.sampled_from([0.2, 0.3, 0.5, 1.0, 2.0, 3.0]))
@settings(max_examples=60, deadline=None)
@example(ROUNDING_ROWS, 0.3)
@example(SETTLED_TIE_ROWS, 1.0)
def test_tree_paths_match_enumeration(rows, radius):
    table = DistanceTable.from_rows(rows)
    for src in table.nodes:
        tree = shortest_path_tree(table, src, radius)
        assert len(tree) == table.n + 1 and tree[0] is None
        for dst in table.nodes:
            best = enum_best_route(table.cost, src, dst, radius)
            assert tree[dst] == (None if best is None else best[2])


@given(cost_rows(), st.sampled_from([0.2, 0.3, 0.5, 1.0, 2.0, 3.0]))
@settings(max_examples=60, deadline=None)
@example(ROUNDING_ROWS, 0.3)
@example(SETTLED_TIE_ROWS, 1.0)
def test_routes_match_enumeration(rows, radius):
    # Routes searches its radius-pruned adjacency, not the cost rows; directed
    # tables check it reads costs from the sender's row, tied costs that ties
    # still break on the node sequence
    table = DistanceTable.from_rows(rows)
    routes = Routes(table, radius)
    for src in table.nodes:
        for dst in table.nodes:
            best = enum_best_route(table.cost, src, dst, radius)
            assert routes.path(src, dst) == (None if best is None else best[2])


@given(cost_rows().filter(lambda rows: rows == [list(column) for column in zip(*rows)]),
       st.sampled_from([0.2, 0.3, 0.5, 1.0, 2.0, 3.0]))
@settings(max_examples=60, deadline=None)
@example(ROUNDING_ROWS, 0.3)
def test_symmetric_tables_give_symmetric_distances(rows, radius):
    # sums added in path order break both on ROUNDING_ROWS: 0.1 + 0.2 + 0.3
    # and 0.3 + 0.2 + 0.1 round apart
    table = DistanceTable.from_rows(rows)
    for src, dst in itertools.permutations(table.nodes, 2):
        try:
            forward = find_optimal_path(table, RouteQuery(src, dst, radius))
        except NoPath:
            continue
        assert find_optimal_path(table, RouteQuery(dst, src, radius)).dist == forward.dist
        assert path_distance(table, forward.path[::-1]) == path_distance(table, forward.path)


@given(cost_rows(), st.sampled_from([0.2, 0.3, 0.5, 1.0, 2.0]))
@settings(max_examples=60, deadline=None)
@example(ROUNDING_ROWS, 0.3)
def test_profile_fold_matches_tally_over_every_pair(rows, radius):
    # the fold sums subtree sizes; tally_pairs walks each of the n(n-1) paths
    table = DistanceTable.from_rows(rows)
    assume(table.n >= 2)
    for mode in CountingMode:
        routes = Routes(table, radius)
        walked = tally_pairs(routes, itertools.permutations(table.nodes, 2), mode)
        assert all_pairs_profile(table, radius, mode) == walked
        assert tally_all_pairs(routes, mode) == walked  # from the trees routes kept


def traced_peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_profile_holds_one_tree_at_a_time():
    # a Routes keeps every tree it built for path(); the profile keeps none.
    # 200 nodes at the bench's density: 100 per 100 x 100 square, radius 30
    rng = random.Random(200)
    side = 100 * math.sqrt(2)
    table = table_from_positions([(rng.uniform(0, side), rng.uniform(0, side))
                                  for _ in range(200)])
    mode = CountingMode.TRANSMITTERS_ONLY
    pairs = list(itertools.permutations(table.nodes, 2))
    kept = traced_peak(lambda: tally_pairs(Routes(table, 30.0), pairs, mode))
    folded = traced_peak(lambda: all_pairs_profile(table, 30.0, mode))
    assert folded <= kept / 4, (folded, kept)


def planar60_table():
    """60 nodes at integer points of a 100 x 100 square; costs are exact sqrt."""
    rng = random.Random(60)
    points = [(rng.randint(0, 100), rng.randint(0, 100)) for _ in range(60)]
    return DistanceTable.from_rows(
        [[math.sqrt((ax - bx) ** 2 + (ay - by) ** 2) for bx, by in points] for ax, ay in points]
    )


def routes_digest(table, route_of):
    digest = hashlib.sha256()
    for src in table.nodes:
        for dst in table.nodes:
            digest.update(f"{src} {dst} {route_of(src, dst)}\n".encode())
    return digest.hexdigest()


def test_frozen_routes_on_planar_net():
    table = planar60_table()
    trees = {}

    def tree_path(src, dst):
        if src not in trees:
            trees[src] = shortest_path_tree(table, src, 18)
        return trees[src][dst]

    def query_path(src, dst):
        try:
            return find_optimal_path(table, RouteQuery(src, dst, 18)).path
        except NoPath:
            return None

    assert routes_digest(table, tree_path) == PLANAR60_K18_ROUTES
    assert routes_digest(table, query_path) == PLANAR60_K18_ROUTES
    assert routes_digest(table, Routes(table, 18).path) == PLANAR60_K18_ROUTES


# From 1, (1, 3, 4, 6) and (1, 2, 5, 6) both cost 6 over 3 hops. 4 settles
# before 5, so the larger sequence is pushed first; the two differ last at
# 4 < 5 but first at 2 < 3, and the first difference decides
TIED_ROWS = [
    [0, 1, 1, 9, 9, 9],
    [1, 0, 9, 9, 2, 9],
    [1, 9, 0, 1, 9, 9],
    [9, 9, 1, 0, 9, 4],
    [9, 2, 9, 9, 0, 3],
    [9, 9, 9, 4, 3, 0],
]


def test_exact_tie_pushed_second_wins_on_node_sequence():
    table = DistanceTable.from_rows(TIED_ROWS)
    assert path_distance(table, (1, 3, 4, 6)) == path_distance(table, (1, 2, 5, 6)) == 6
    assert path_distance(table, (1, 3, 4)) < path_distance(table, (1, 2, 5))
    routes = Routes(table, 4)
    for src in table.nodes:
        tree = shortest_path_tree(table, src, 4)
        for dst in table.nodes:
            best = brute_force_route(table, RouteQuery(src, dst, 4))
            assert as_tuple(find_optimal_path(table, RouteQuery(src, dst, 4))) == as_tuple(best)
            assert tree[dst] == routes.path(src, dst) == best.path
    assert routes.path(1, 6) == (1, 2, 5, 6)


@given(cost_rows(), st.sampled_from([0.2, 0.3, 0.5, 1.0, 2.0, 3.0]), st.integers(0, 2**32))
@settings(max_examples=60, deadline=None)
@example(ROUNDING_ROWS, 0.3, 0)
@example(ROUNDING_ROWS, 0.3, 1)
@example(TIED_ROWS, 4, 0)
@example(TIED_ROWS, 4, 1)
def test_paused_searches_change_no_route(rows, radius, seed):
    # pairs in a drawn order stop and run on each source's state at drawn
    # nodes; _tree() then runs the kept states to their end
    table = DistanceTable.from_rows(rows)
    trees = {src: shortest_path_tree(table, src, radius) for src in table.nodes}
    pairs = list(itertools.product(table.nodes, repeat=2))
    rng = random.Random(seed)
    rng.shuffle(pairs)
    asked = rng.randrange(len(pairs) + 1)
    routes = Routes(table, radius)
    for src, dst in pairs[:asked]:
        assert routes.path(src, dst) == trees[src][dst]
    fresh = Routes(table, radius)
    for src in table.nodes:
        assert routes._tree(src) == fresh._tree(src)
    for src, dst in pairs[asked:]:
        assert routes.path(src, dst) == trees[src][dst]


def test_a_search_that_raised_starts_over(monkeypatch):
    # from 1, _precedes first runs when 5 is expanded and ties 6's two routes
    table = DistanceTable.from_rows(TIED_ROWS)
    precedes = routing._precedes
    raised = []

    def raise_once(parent, a, b):
        if not raised:
            raised.append((a, b))
            raise RuntimeError("injected")
        return precedes(parent, a, b)

    monkeypatch.setattr(routing, "_precedes", raise_once)
    routes = Routes(table, 4)
    assert routes.path(1, 2) == (1, 2)  # stops 1's state before 5 is settled
    with pytest.raises(RuntimeError):
        routes.path(1, 6)
    assert raised
    for src in table.nodes:
        for dst in table.nodes:
            assert routes.path(src, dst) == brute_force_route(table, RouteQuery(src, dst, 4)).path


def test_tree_validation(table1):
    with pytest.raises(UnknownNode):
        shortest_path_tree(table1, 11, 5)
    with pytest.raises(UnknownNode):
        shortest_path_tree(table1, True, 5)
    with pytest.raises(InvalidInput):
        shortest_path_tree(table1, 1, float("nan"))
    with pytest.raises(InvalidInput):
        shortest_path_tree(table1, 1, -1)


# --- Routes: every tree on one table at one radius ------------------------------


@pytest.mark.parametrize("radius", [1, 4, 5, 9])
def test_routes_match_single_queries(table1, radius):
    routes = Routes(table1, radius)
    for src in table1.nodes:
        for dst in table1.nodes:
            try:
                expected = find_optimal_path(table1, RouteQuery(src, dst, radius)).path
            except NoPath:
                expected = None
            assert routes.path(src, dst) == expected


def test_routes_build_one_tree_per_source(table1, tree_calls):
    routes = Routes(table1, 5)
    for _ in range(3):
        for src in table1.nodes:
            for dst in table1.nodes:
                routes.path(src, dst)
    assert tree_calls == list(table1.nodes)
    # each source's nearest destinations stop its state early, the farthest
    # run it further, and the fold over every source runs it to its end, as
    # simulate does after its traffic
    tree_calls.clear()
    routes = Routes(table1, 5)
    by_distance = {src: sorted(table1.nodes, key=lambda dst: table1.cost[src - 1][dst - 1])
                   for src in table1.nodes}
    for src in table1.nodes:
        for dst in by_distance[src][:3]:
            routes.path(src, dst)
    assert any(state[5] for state in routes._states if state)  # some heaps are not empty
    for src in table1.nodes:
        for dst in by_distance[src][-2:]:
            routes.path(src, dst)
    tally_all_pairs(routes, CountingMode.TRANSMITTERS_ONLY)
    assert tree_calls == list(table1.nodes)


@pytest.mark.parametrize("radius", [1, 4, 5])
def test_finished_searches_release_their_state(table1, radius):
    # at radius 1 nothing is reachable, at 4 and 5 everything is
    routes = Routes(table1, radius)
    for src in table1.nodes:
        for dst in table1.nodes:
            routes.path(src, dst)
    assert not any(state[5] for state in routes._states[1:])  # every heap is empty


@pytest.mark.parametrize("radius", [float("nan"), -1, -0.5])
def test_routes_reject_bad_radius_at_construction(table1, radius):
    with pytest.raises(InvalidInput):
        Routes(table1, radius)


@pytest.mark.parametrize("bad", [0, 11, True])
def test_routes_reject_unknown_nodes(table1, bad):
    routes = Routes(table1, 5)
    assert routes.path(1, 2) == (1, 2)  # source 1's tree is now cached
    with pytest.raises(UnknownNode):
        routes.path(bad, 2)
    with pytest.raises(UnknownNode):
        routes.path(1, bad)
