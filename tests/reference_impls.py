"""Independent reference implementations used only to cross-check the package.

Nothing here imports from homemesh: the enumeration router, the bitwise CRC,
and the generator below are written from their definitions so the tests stay
a second, separate route to every checked value. The tick-loop copies at the
end derive a frame or node state with dataclasses.replace, which carries over
every field it is not told to change, whatever fields the class has.
"""

import dataclasses
import functools
import itertools
import math
from fractions import Fraction

MASK64 = (1 << 64) - 1


def crc32_bitwise(data: bytes) -> int:
    """CRC-32 (IEEE 802.3, reflected), one bit at a time."""
    crc = 0xFFFFFFFF
    for byte in data:
        crc ^= byte
        for _ in range(8):
            crc = (crc >> 1) ^ (0xEDB88320 if crc & 1 else 0)
    return crc ^ 0xFFFFFFFF


def splitmix64_stream(seed: int):
    state = seed & MASK64
    while True:
        state = (state + 0x9E3779B97F4A7C15) & MASK64
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        yield z ^ (z >> 31)


@functools.lru_cache(maxsize=8)
def grid_steps(cost_rows):
    """The routing grid of a cost table, from its definition, in exact arithmetic.

    C is the largest finite cost, e the least integer with n*C < 2**e, and
    the step q is 2**(e - 53). Returns q and each cost as a whole number of
    steps, rounded half to even (costs as they are when C is 0; a
    non-finite cost is kept as it is). cost_rows must be hashable, as a
    DistanceTable's tuple rows are: the grid is worked out once per table.
    """
    n = len(cost_rows)
    top = Fraction(max((c for row in cost_rows for c in row if math.isfinite(c)), default=0))
    if top == 0:
        return Fraction(1), cost_rows
    e = 0
    while n * top >= Fraction(2) ** e:
        e += 1
    while n * top < Fraction(2) ** (e - 1):
        e -= 1
    q = Fraction(2) ** (e - 53)
    return q, tuple(tuple(round(Fraction(c) / q) if math.isfinite(c) else c for c in row)
                    for row in cost_rows)


def enum_best_route(cost_rows, src, dst, radius):
    """Purely enumerative optimum over permutations of intermediate nodes.

    Returns (dist, hops, path) minimizing lexicographic order, or None when no
    simple path respects the radius. A hop is usable when its raw cost is
    within the radius; distances are exact sums of the costs on the table's
    grid (grid_steps), compared as whole numbers of steps. Exponential: keep
    n <= 7 or so.
    """
    n = len(cost_rows)
    if src == dst:
        return (0.0, 0, (src,))
    q, steps = grid_steps(cost_rows)
    others = [x for x in range(1, n + 1) if x not in (src, dst)]
    best = None
    for size in range(len(others) + 1):
        for middle in itertools.permutations(others, size):
            path = (src, *middle, dst)
            hops = list(zip(path, path[1:]))
            if all(cost_rows[a - 1][b - 1] <= radius for a, b in hops):
                key = (sum(steps[a - 1][b - 1] for a, b in hops), len(hops), path)
                if best is None or key < best:
                    best = key
    return None if best is None else (float(best[0] * q), best[1], best[2])


def cid_checksum_brute(digits15: str):
    """All digits that complete the mod-15 rule ('0' worth 10)."""
    value = lambda ch: 10 if ch == "0" else int(ch)
    total = sum(value(ch) for ch in digits15)
    return [c for c in "0123456789" if (total + value(c)) % 15 == 0]


def woken_by_replace(state, now, reading):
    """The state of a due node after one wake: it keeps `reading` and sleeps
    until next_wake + sample_period, or now + sample_period if that is past."""
    next_wake = state.next_wake + state.sample_period
    if next_wake <= now:
        next_wake = now + state.sample_period
    return dataclasses.replace(state, next_wake=next_wake, last_reading=reading)


def relayed_by_replace(frame):
    """A frame passed on to the next node of its route."""
    return dataclasses.replace(frame, hop_index=frame.hop_index + 1)


def switched_by_replace(state, switch):
    """A node state with its relay switch set to `switch`."""
    return dataclasses.replace(state, relay_switch=switch)


def routed_by_replace(frame, route):
    """A node-originated frame with its route attached, on the air toward route[1]."""
    return dataclasses.replace(frame, route=route, hop_index=1)
