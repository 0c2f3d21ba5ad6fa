"""traffic-n100: the body of `homemesh simulate` on a seeded planar network.

Each rep builds a fresh topology (n nodes uniform in a side x side square,
redrawn until the radius graph is connected) and runs discovery; that is the
set-up. A profile rep times `all_pairs_profile` (transmitters-only); a
traffic rep times `run_traffic` on seeded transmissions and then single
`find_optimal_path` queries, the body of `homemesh route`. A fresh topology
per rep keeps every rep as cold as a new `simulate` process, so a route cache
cannot turn later reps into cache reads.
"""

from __future__ import annotations

import hashlib
import json
import time

from common import HostSpeed, Pass, median, stream

SIZES = {
    "full": {"n": 100, "side": 100.0, "radius": 30.0, "transmissions": 500, "queries": 150},
    "tiny": {"n": 12, "side": 30.0, "radius": 12.0, "transmissions": 60, "queries": 5},
}

TRAFFIC_TOPOLOGY, TRAFFIC_DRAWS, PROFILE_TOPOLOGY, QUERIES = 1, 2, 3, 4


def draw_positions(rng, n: int, side: float, radius: float) -> list[tuple[float, float]]:
    while True:
        points = [(rng.uniform() * side, rng.uniform() * side) for _ in range(n)]
        reached = {0}
        frontier = [0]
        while frontier:
            x, y = points[frontier.pop()]
            for j, (u, v) in enumerate(points):
                if j not in reached and (x - u) ** 2 + (y - v) ** 2 <= radius * radius:
                    reached.add(j)
                    frontier.append(j)
        if len(reached) == n:
            return points


def draw_pair(rng, n: int) -> tuple[int, int]:
    src = 1 + rng.below(n)
    dst = 1 + rng.below(n - 1)
    return src, dst + (dst >= src)


def build(hm, points, outcome) -> tuple[object, float]:
    """The set-up a user pays per network: topology build plus discovery."""
    started = time.perf_counter()
    topology = hm["netmodel"].topology_from_positions(points)
    table, messages = hm["simnet"].run_discovery(topology, topology.coordinator)
    elapsed = time.perf_counter() - started
    outcome.check(table.cost == topology.table.cost and messages == topology.n,
                  "discovery did not reproduce the topology")
    return topology, elapsed


def check_visits(stats, delivered: int, n: int, outcome, what: str) -> None:
    """Transmitters-only tallies: each delivered route counts its source once
    in `counts` but never in `relay_counts`, so the totals differ by exactly
    the number of routes."""
    counts = [stats.counts[v] for v in range(1, n + 1)]
    relays = [stats.relay_counts[v] for v in range(1, n + 1)]
    outcome.check(stats.transmissions == delivered and stats.unreachable == 0,
                  f"{what}: {stats.transmissions} delivered, {stats.unreachable} unreachable,"
                  f" {delivered} expected")
    outcome.check(sum(counts) - sum(relays) == delivered,
                  f"{what}: visit and relay tallies disagree with {delivered} routes")
    outcome.check(all(c >= r for c, r in zip(counts, relays)),
                  f"{what}: a relay count exceeds its visit count")


def check_route(hm, table, route, src: int, dst: int, radius: float, outcome) -> None:
    path = route.path
    feasible = all(table.cost[a - 1][b - 1] <= radius for a, b in zip(path, path[1:]))
    outcome.check(path[0] == src and path[-1] == dst and len(set(path)) == len(path)
                  and feasible and route.hops == len(path) - 1,
                  f"route {src}->{dst} is not a simple radius-feasible path: {path}")
    outcome.check(route.dist == hm["routing"].path_distance(table, path),
                  f"route {src}->{dst}: dist {route.dist} is not its path distance")


def visits_digest(stats_list) -> str:
    doc = [[sorted(s.counts.items()), sorted(s.relay_counts.items())] for s in stats_list]
    return hashlib.sha256(json.dumps(doc).encode()).hexdigest()


def measure(hm, root: str, seed: int, seconds: float, size: str, outcome, expected) -> Pass:
    cfg = SIZES[size]
    n, radius, tx = cfg["n"], cfg["radius"], cfg["transmissions"]
    simnet, routing = hm["simnet"], hm["routing"]
    mode = routing.CountingMode.TRANSMITTERS_ONLY
    traffic_s = 0.0
    setups, profile_s, query_ms = [], [], []
    first = {}
    routes = routed = 0
    busy = {"profile": 0.0, "traffic": 0.0}
    reps = {"profile": 0, "traffic": 0}
    raw = {"setup": [], "profile": [], "traffic": 0.0, "query": []}
    speed = HostSpeed()
    pass_started = time.perf_counter()
    # profile and traffic reps alternate, each phase getting half the run, so
    # each figure samples the whole run rather than one half of it
    while min(busy.values()) < seconds / 2 or 0 in reps.values():
        kind = min(busy, key=busy.get)
        rep = reps[kind]
        rep_started = time.perf_counter()
        if kind == "profile":
            points = draw_positions(stream(seed, PROFILE_TOPOLOGY, rep), n, cfg["side"], radius)
            topology, setup = build(hm, points, outcome)
            profile, elapsed = speed.call(routing.all_pairs_profile, topology.table, radius, mode)
            pairs = n * (n - 1)
            outcome.attempted += pairs
            outcome.failed += pairs - profile.transmissions
            routes += profile.transmissions
            check_visits(profile, pairs, n, outcome, f"profile rep {rep}")
            outcome.check(all(profile.counts[v] >= n - 1 for v in topology.nodes),
                          f"profile rep {rep}: a node sources fewer than {n - 1} routes")
            first.setdefault(kind, profile)
        else:
            points = draw_positions(stream(seed, TRAFFIC_TOPOLOGY, rep), n, cfg["side"], radius)
            topology, setup = build(hm, points, outcome)
            draw_seed = stream(seed, TRAFFIC_DRAWS, rep).next_u64()
            started = time.perf_counter()
            stats = simnet.run_traffic(topology, simnet.SimConfig(radius, tx, draw_seed, mode))
            elapsed = time.perf_counter() - started
            outcome.attempted += tx
            outcome.failed += tx - stats.transmissions
            routes += stats.transmissions
            routed += tx
            check_visits(stats, tx, n, outcome, f"traffic rep {rep}")
            first.setdefault(kind, stats)
            rng = stream(seed, QUERIES, rep)
            rep_query_ms = []
            for _ in range(cfg["queries"]):
                src, dst = draw_pair(rng, n)
                query = routing.RouteQuery(src, dst, radius)
                started = time.perf_counter()
                route = routing.find_optimal_path(topology.table, query)
                rep_query_ms.append((time.perf_counter() - started) * 1e3)
                outcome.attempted += 1
                routes += 1
                check_route(hm, topology.table, route, src, dst, radius, outcome)
        busy[kind] += time.perf_counter() - rep_started
        reps[kind] += 1
        scale = speed.factor()
        setups.append(setup * scale)
        raw["setup"].append(setup)
        if kind == "profile":
            profile_s.append(elapsed * scale)
            raw["profile"].append(elapsed)
        else:
            traffic_s += elapsed * scale
            raw["traffic"] += elapsed
            query_ms += [t * scale for t in rep_query_ms]
            raw["query"] += rep_query_ms

    digest = visits_digest([first["profile"], first["traffic"]])
    if expected is not None:
        outcome.check(digest == expected, f"visit counts digest {digest} != recorded {expected}")

    profile_median = median(profile_s)
    metrics = {
        "setup_s": median(setups),
        "throughput_per_s": routed / traffic_s,
        "latency_p50_ms": median(query_ms),
        "request_p50_ms": profile_median * 1e3,
    }
    named = [
        ("setup_s", metrics["setup_s"], "s"),
        ("traffic_tx_per_s", metrics["throughput_per_s"], "1/s"),
        ("profile_pairs_per_s", n * (n - 1) / profile_median, "1/s"),
        ("route_p50_ms", metrics["latency_p50_ms"], "ms"),
        ("raw_setup_s", median(raw["setup"]), "s"),
        ("raw_traffic_tx_per_s", routed / raw["traffic"], "1/s"),
        ("raw_profile_pairs_per_s", n * (n - 1) / median(raw["profile"]), "1/s"),
        ("raw_route_p50_ms", median(raw["query"]), "ms"),
    ]
    counts = {"routes": routes, "digest": digest}
    wall_s = time.perf_counter() - pass_started - speed.probe_s
    return Pass(metrics, named, wall_s, counts, speed.median_ms)
