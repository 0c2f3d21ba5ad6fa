"""Deterministic network emulation: discovery, duty-cycled nodes, frame relay,
and seeded traffic generation.

Time is integer ticks inside a single-threaded loop; one radio hop takes one
tick. Every run is a pure function of (topology, config), so a fixed seed
reproduces bit-identical statistics and event traces.
"""

from __future__ import annotations

import struct
from collections import deque
from dataclasses import dataclass, replace
from enum import Enum

from . import wire
from .errors import InvalidInput, MisroutedFrame, NoPath, UnknownNode
from .netmodel import DistanceTable, Topology, table_from_positions
from .routing import (
    CountingMode,
    RouteQuery,
    VisitStats,
    find_optimal_path,
    tally_pairs,
)

MAX_FRAME_PAYLOAD = 96  # small-frame discipline for the radio side

_MASK64 = (1 << 64) - 1


class SplitMix64:
    """The documented generator behind every seeded draw.

    next_u64 is, with all arithmetic mod 2**64:

        state += 0x9E3779B97F4A7C15
        z = state
        z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
        z = (z ^ (z >> 27)) * 0x94D049BB133111EB
        return z ^ (z >> 31)

    Any implementation of this recurrence reproduces the same sequence, and
    therefore the same traffic, for a given 64-bit seed.
    """

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)


def draw_pair(rng: SplitMix64, n: int) -> tuple[int, int]:
    """One ordered (src, dst) pair, src != dst, uniform over the n*(n-1) pairs.

    index = next_u64() mod n*(n-1); src = 1 + index // (n-1); the remaining
    ids in ascending order supply dst. Fixed here so other implementations of
    the generator draw identical traffic.
    """
    index = rng.next_u64() % (n * (n - 1))
    src = 1 + index // (n - 1)
    offset = index % (n - 1)
    dst = offset + 1 if offset + 1 < src else offset + 2
    return src, dst


def draw_pairs(n: int, count: int, seed: int) -> list[tuple[int, int]]:
    rng = SplitMix64(seed)
    return [draw_pair(rng, n) for _ in range(count)]


def synthetic_reading(node_id: int, tick: int, seed: int = 0) -> int:
    """Deterministic stand-in sensor sample: a 16-bit value of (id, tick, seed)."""
    mixed = (seed ^ (node_id * 0x9E3779B97F4A7C15) ^ (tick * 0xBF58476D1CE4E5B9)) & _MASK64
    return SplitMix64(mixed).next_u64() & 0xFFFF


class FrameKind(Enum):
    SENSOR_READING = "sensor-reading"
    COMMAND = "command"
    DISCOVERY_REQUEST = "discovery-request"
    DISCOVERY_REPORT = "discovery-report"
    ALARM = "alarm"


@dataclass(frozen=True)
class RadioFrame:
    """One mesh-side message travelling along a precomputed route.

    `route` is the full node sequence from originator to destination;
    `hop_index` points at the node currently expected to hold the frame.
    """

    src: int
    dst: int
    kind: FrameKind
    payload: bytes = b""
    route: tuple[int, ...] = ()
    hop_index: int = 0

    def __post_init__(self):
        if len(self.payload) > MAX_FRAME_PAYLOAD:
            raise InvalidInput(
                f"radio payload of {len(self.payload)} bytes exceeds {MAX_FRAME_PAYLOAD}"
            )
        if self.hop_index > len(self.route):
            raise InvalidInput(f"hop_index {self.hop_index} beyond route {self.route}")

    @property
    def at_destination(self) -> bool:
        return bool(self.route) and self.hop_index == len(self.route) - 1


class SwitchState(Enum):
    ON = "on"
    OFF = "off"


@dataclass(frozen=True)
class NodeState:
    """One duty-cycled sensor node, advanced functionally by the tick loop.

    The duty cycle is sample -> send -> hibernate; a full cycle runs inside
    one due tick, so a node at rest is always hibernating until next_wake.
    Interrupt handling (node_on_receive) never touches next_wake.
    """

    id: int
    sample_period: int
    next_wake: int = 0
    relay_switch: SwitchState = SwitchState.OFF
    last_reading: int = 0
    coordinator: int = 1
    seed: int = 0


READING_PAYLOAD = struct.Struct(">QH")  # sample tick, scaled reading

_SWITCH_ACK = b"SWACK"


def switch_ack_payload(opcode: wire.SwitchOpcode, switch: SwitchState) -> bytes:
    return _SWITCH_ACK + bytes([int(opcode), 1 if switch is SwitchState.ON else 0])


def is_switch_ack(payload: bytes) -> bool:
    return payload.startswith(_SWITCH_ACK)


def parse_switch_ack(payload: bytes) -> tuple[wire.SwitchOpcode, SwitchState]:
    if not is_switch_ack(payload) or len(payload) != len(_SWITCH_ACK) + 2:
        raise InvalidInput("not a switch acknowledgment payload")
    opcode = wire.SwitchOpcode(payload[len(_SWITCH_ACK)])
    switch = SwitchState.ON if payload[len(_SWITCH_ACK) + 1] else SwitchState.OFF
    return opcode, switch


def node_tick(state: NodeState, now: int) -> tuple[NodeState, list[RadioFrame]]:
    """Advance the duty cycle: a due node samples once, emits one reading
    addressed to its coordinator, and hibernates until next_wake + period."""
    if now < state.next_wake:
        return state, []
    reading = synthetic_reading(state.id, now, state.seed)
    next_wake = state.next_wake + state.sample_period
    if next_wake <= now:  # catch up after missed wakes
        next_wake = now + state.sample_period
    new_state = replace(
        state,
        last_reading=reading,
        next_wake=next_wake,
    )
    frame = RadioFrame(
        src=state.id,
        dst=state.coordinator,
        kind=FrameKind.SENSOR_READING,
        payload=READING_PAYLOAD.pack(now, reading),
    )
    return new_state, [frame]


def node_on_receive(state: NodeState, frame: RadioFrame) -> tuple[NodeState, list[RadioFrame]]:
    """Interrupt path: relay a frame onward, or consume one addressed here.

    Relays re-emit the frame with hop_index advanced. A destination node
    applies switch commands to its relay and answers with an acknowledgment
    reading. Hibernation resumes untouched (next_wake is never altered).
    """
    route = frame.route
    if state.id not in route:
        raise MisroutedFrame(f"node {state.id} is not on route {list(route)}")
    if frame.hop_index >= len(route) or route[frame.hop_index] != state.id:
        raise MisroutedFrame(
            f"node {state.id} received frame out of turn (hop {frame.hop_index} of {list(route)})"
        )
    if not frame.at_destination:
        return state, [replace(frame, hop_index=frame.hop_index + 1)]
    if frame.kind is FrameKind.COMMAND:
        _target, opcode = wire.decode_command_payload(frame.payload)
        switch = state.relay_switch
        if opcode is wire.SwitchOpcode.SWITCH_ON:
            switch = SwitchState.ON
        elif opcode is wire.SwitchOpcode.SWITCH_OFF:
            switch = SwitchState.OFF
        new_state = replace(state, relay_switch=switch)
        ack = RadioFrame(
            src=state.id,
            dst=state.coordinator,
            kind=FrameKind.SENSOR_READING,
            payload=switch_ack_payload(opcode, switch),
        )
        return new_state, [ack]
    return state, []


def run_discovery(topology: Topology, root: int, trace=None) -> tuple[DistanceTable, int]:
    """Root floods one request; every other node reports its id and location
    (or distance row); the assembled table equals the ground truth exactly.

    Discovery is reliable flooding, independent of the data-plane radius.
    Returns (table, message_count) with message_count = 1 + (n - 1).
    """
    n = topology.n
    if not isinstance(root, int) or isinstance(root, bool) or not 1 <= root <= n:
        raise UnknownNode(root)
    if trace is not None:
        trace.append((0, "discovery-request", root, 0, "broadcast"))
    messages = 1
    if topology.positions is not None:
        collected = {root: topology.positions[root - 1]}
        for node in topology.nodes:
            if node == root:
                continue
            collected[node] = topology.positions[node - 1]
            messages += 1
            if trace is not None:
                trace.append((0, "discovery-report", node, root, f"pos={collected[node]}"))
        table = table_from_positions([collected[node] for node in sorted(collected)])
    else:
        rows = {root: topology.table.cost[root - 1]}
        for node in topology.nodes:
            if node == root:
                continue
            rows[node] = topology.table.cost[node - 1]
            messages += 1
            if trace is not None:
                trace.append((0, "discovery-report", node, root, "distance-row"))
        table = DistanceTable(tuple(rows[node] for node in sorted(rows)))
    return table, messages


@dataclass(frozen=True)
class SimConfig:
    """Traffic-run parameters; identical config implies bit-identical results."""

    radius: float
    transmissions: int
    seed: int
    mode: CountingMode = CountingMode.TRANSMITTERS_ONLY

    def __post_init__(self):
        if self.transmissions < 0:
            raise InvalidInput(f"transmissions must be >= 0, got {self.transmissions}")


def run_pairs(topology: Topology, pairs, radius: float, mode: CountingMode) -> VisitStats:
    """Route and tally an explicit sequence of (src, dst) transmissions."""
    return tally_pairs(topology.table, pairs, radius, mode)


def run_traffic(topology: Topology, config: SimConfig) -> VisitStats:
    """Seeded uniform random traffic over ordered pairs; see draw_pair for the
    documented draw so other implementations reproduce the same sequence."""
    if topology.n < 2:
        raise InvalidInput("traffic needs at least 2 nodes")
    pairs = draw_pairs(topology.n, config.transmissions, config.seed)
    return run_pairs(topology, pairs, config.radius, config.mode)


class Coordinator:
    """Mesh-to-uplink bridge: radio frames become datagrams and command
    datagrams become routed radio frames.

    Sensor and alarm payloads cross the bridge byte-for-byte. Command
    acknowledgments are correlated FIFO per target node, so the uplink ACK
    echoes the seq of the COMMAND that caused it.
    """

    def __init__(self, table: DistanceTable, radius: float, node_id: int = 1):
        table.check_node(node_id)
        self.table = table
        self.radius = radius
        self.node_id = node_id
        self._seq = 0
        self._pending: dict[int, deque[int]] = {}

    def _next_seq(self) -> int:
        seq = self._seq
        self._seq = (self._seq + 1) & 0xFFFF
        return seq

    def step(self, frames=(), datagrams=()) -> tuple[list[wire.Datagram], list[RadioFrame]]:
        """One translation pass; returns (uplink datagrams, radio frames)."""
        uplink: list[wire.Datagram] = []
        downlink: list[RadioFrame] = []
        for frame in frames:
            uplink.extend(self._translate_frame(frame))
        for datagram in datagrams:
            up, down = self._handle_datagram(datagram)
            uplink.extend(up)
            downlink.extend(down)
        return uplink, downlink

    def _translate_frame(self, frame: RadioFrame) -> list[wire.Datagram]:
        if frame.kind is FrameKind.SENSOR_READING and is_switch_ack(frame.payload):
            queue = self._pending.get(frame.src)
            if not queue:
                return []  # orphan acknowledgment
            return [wire.Datagram(wire.MsgType.ACK, queue.popleft(), frame.src)]
        if frame.kind is FrameKind.SENSOR_READING:
            return [wire.Datagram(wire.MsgType.SENSOR_DATA, self._next_seq(), frame.src, frame.payload)]
        if frame.kind is FrameKind.ALARM:
            return [wire.Datagram(wire.MsgType.ALARM_CID, self._next_seq(), frame.src, frame.payload)]
        return []

    def _handle_datagram(self, d: wire.Datagram) -> tuple[list[wire.Datagram], list[RadioFrame]]:
        if d.msg_type is not wire.MsgType.COMMAND:
            return [], []  # monitor-side ACK/NACK of our uplink traffic
        target, _opcode = wire.decode_command_payload(d.payload)
        nack = wire.Datagram(wire.MsgType.NACK, d.seq, target)
        if not 1 <= target <= self.table.n or target == self.node_id:
            return [nack], []
        try:
            route = find_optimal_path(self.table, RouteQuery(self.node_id, target, self.radius))
        except NoPath:
            return [nack], []
        frame = RadioFrame(
            src=self.node_id,
            dst=target,
            kind=FrameKind.COMMAND,
            payload=d.payload,  # preserved byte-for-byte
            route=route.path,
            hop_index=1,
        )
        self._pending.setdefault(target, deque()).append(d.seq)
        return [], [frame]


class SimNetwork:
    """Single-threaded tick loop owning every node, the coordinator, and all
    in-flight frames.

    One radio hop takes one tick. The trace records one line per event as
    'tick<TAB>event<TAB>src<TAB>dst<TAB>detail' for diffing across runs.
    """

    def __init__(self, topology: Topology, radius: float, seed: int = 0,
                 sample_period: int = 50):
        self.topology = topology
        self.radius = radius
        self.coordinator = Coordinator(topology.table, radius, topology.coordinator)
        self.nodes: dict[int, NodeState] = {
            node: NodeState(
                id=node,
                sample_period=sample_period,
                coordinator=topology.coordinator,
                seed=seed,
            )
            for node in topology.nodes
            if node != topology.coordinator
        }
        self.now = 0
        self.uplink_out: list[wire.Datagram] = []
        self._uplink_in: deque[wire.Datagram] = deque()
        self._alarm_queue: deque[tuple[int, bytes]] = deque()
        self._due: dict[int, list[RadioFrame]] = {}
        self.trace: list[tuple[int, str, int, int, str]] = []
        self.readings_emitted = 0
        self.frames_dropped = 0

    # --- inputs -----------------------------------------------------------

    def inject_datagram(self, d: wire.Datagram) -> None:
        """Queue an uplink-side datagram for the coordinator's next step."""
        self._uplink_in.append(d)

    def inject_alarm(self, node_id: int, digits: str) -> None:
        """Make a node raise a Contact-ID alarm on the next tick."""
        if node_id not in self.nodes:
            raise UnknownNode(node_id)
        self._alarm_queue.append((node_id, digits.encode("ascii")))

    def run_discovery(self, root: int | None = None) -> tuple[DistanceTable, int]:
        return run_discovery(self.topology, root or self.topology.coordinator,
                             trace=self.trace)

    # --- the loop ---------------------------------------------------------

    def _log(self, event: str, src: int, dst: int, detail: str) -> None:
        self.trace.append((self.now, event, src, dst, detail))

    def _schedule(self, frame: RadioFrame) -> None:
        self._due.setdefault(self.now + 1, []).append(frame)

    def _launch(self, frame: RadioFrame) -> None:
        """Attach a route to a node-originated frame and put it on the air."""
        if frame.src == frame.dst:
            return
        try:
            route = find_optimal_path(self.topology.table,
                                      RouteQuery(frame.src, frame.dst, self.radius))
        except NoPath:
            self.frames_dropped += 1
            self._log("drop", frame.src, frame.dst, f"no-route kind={frame.kind.value}")
            return
        routed = replace(frame, route=route.path, hop_index=1)
        self._log("send", frame.src, frame.dst,
                  f"kind={frame.kind.value} route={'-'.join(map(str, route.path))}")
        self._schedule(routed)

    def step(self) -> None:
        """Advance one tick: pump the uplink, wake due nodes, deliver frames."""
        if self._uplink_in:
            datagrams = list(self._uplink_in)
            self._uplink_in.clear()
            for d in datagrams:
                self._log("downlink", 0, self.coordinator.node_id,
                          f"type={d.msg_type.name} seq={d.seq}")
            up, down = self.coordinator.step((), datagrams)
            self._emit_uplink(up)
            for frame in down:
                self._log("send", frame.src, frame.dst,
                          f"kind={frame.kind.value} route={'-'.join(map(str, frame.route))}")
                self._schedule(frame)

        for node_id in sorted(self.nodes):
            state, frames = node_tick(self.nodes[node_id], self.now)
            self.nodes[node_id] = state
            for frame in frames:
                self.readings_emitted += 1
                self._log("wake", node_id, frame.dst, f"reading={state.last_reading}")
                self._launch(frame)

        while self._alarm_queue:
            node_id, payload = self._alarm_queue.popleft()
            self._log("alarm", node_id, self.topology.coordinator, payload.decode("ascii"))
            self._launch(RadioFrame(src=node_id, dst=self.topology.coordinator,
                                    kind=FrameKind.ALARM, payload=payload))

        for frame in self._due.pop(self.now, []):
            self._deliver(frame)

        self.now += 1

    def _deliver(self, frame: RadioFrame) -> None:
        holder = frame.route[frame.hop_index]
        if holder == self.coordinator.node_id:
            self._log("deliver", frame.src, holder, f"kind={frame.kind.value}")
            up, down = self.coordinator.step((frame,), ())
            self._emit_uplink(up)
            for out in down:
                self._schedule(out)
            return
        state, frames = node_on_receive(self.nodes[holder], frame)
        self.nodes[holder] = state
        for out in frames:
            if out.route:
                self._log("relay", holder, out.route[out.hop_index], f"kind={out.kind.value}")
                self._schedule(out)
            else:
                if out.kind is FrameKind.SENSOR_READING and is_switch_ack(out.payload):
                    self._log("switch", holder, out.dst,
                              f"state={state.relay_switch.value}")
                self._launch(out)

    def _emit_uplink(self, datagrams) -> None:
        for d in datagrams:
            self._log("uplink", d.src_node, 0, f"type={d.msg_type.name} seq={d.seq}")
            self.uplink_out.append(d)

    def drain_uplink(self) -> list[wire.Datagram]:
        out = self.uplink_out
        self.uplink_out = []
        return out

    def run(self, ticks: int) -> None:
        for _ in range(ticks):
            self.step()

    def trace_lines(self) -> list[str]:
        return [f"{t}\t{event}\t{src}\t{dst}\t{detail}"
                for t, event, src, dst, detail in self.trace]
