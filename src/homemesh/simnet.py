"""Deterministic network emulation: discovery, duty-cycled nodes, frame relay,
and seeded traffic generation.

Time is integer ticks inside a single-threaded loop; one radio hop takes one
tick. Every run is a pure function of (topology, config), so a fixed seed
reproduces bit-identical statistics and event traces.
"""

from __future__ import annotations

import struct
from collections import deque
from dataclasses import dataclass
from enum import Enum

from . import wire
from .errors import InvalidInput, MisroutedFrame, UnknownNode
from .netmodel import DistanceTable, Topology
from .routing import CountingMode, Routes, VisitStats, tally_pairs
from .wire import _build

MAX_FRAME_PAYLOAD = 96  # small-frame discipline for the radio side

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


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
        self._state = state = (self._state + _GOLDEN) & _MASK64
        return _mix64(state)


def _mix64(z: int) -> int:
    """SplitMix64's output function of an advanced state."""
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
    mixed = (seed ^ (node_id * _GOLDEN) ^ (tick * 0xBF58476D1CE4E5B9)) & _MASK64
    # the first draw of SplitMix64(mixed)
    return _mix64((mixed + _GOLDEN) & _MASK64) & 0xFFFF


def _check_frame(frame: RadioFrame) -> None:
    """Every RadioFrame's checks: the payload fits a radio frame, and
    hop_index points into the route (or just past it)."""
    if len(frame.payload) > MAX_FRAME_PAYLOAD:
        raise InvalidInput(
            f"radio payload of {len(frame.payload)} bytes exceeds {MAX_FRAME_PAYLOAD}"
        )
    if not 0 <= frame.hop_index <= len(frame.route):
        raise InvalidInput(f"hop_index {frame.hop_index} outside route {frame.route}")


class FrameKind(Enum):
    SENSOR_READING = "sensor-reading"
    COMMAND = "command"
    ALARM = "alarm"

    def __init__(self, value):
        # the trace's `kind=` detail, formatted once: reading `.value` goes
        # through a Python-level descriptor on every event
        self.trace_detail = f"kind={value}"


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

    # run by the generated __init__ and by wire._build alike
    __post_init__ = _check_frame


class SwitchState(Enum):
    ON = "on"
    OFF = "off"


# bound once: the loop names these for every reading and every datagram, and
# an Enum member read off its class costs 110-205 ns on Python 3.10 and 3.11
# (30-47 ns on 3.12 and 3.13) against 8-30 ns for a module global
_SENSOR_READING, _COMMAND, _ALARM = FrameKind.SENSOR_READING, FrameKind.COMMAND, FrameKind.ALARM
_SENSOR_DATA, _ACK, _ALARM_CID = wire.MsgType.SENSOR_DATA, wire.MsgType.ACK, wire.MsgType.ALARM_CID
_COMMAND_TYPE, _NACK = wire.MsgType.COMMAND, wire.MsgType.NACK


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


def _wake(state: NodeState, now: int) -> tuple[NodeState, bytes]:
    """One duty cycle of a due node (now >= next_wake): it samples once and
    hibernates until next_wake + period. Returns the woken state and the
    payload of the reading it sends to its coordinator."""
    reading = synthetic_reading(state.id, now, state.seed)
    next_wake = state.next_wake + state.sample_period
    if next_wake <= now:  # catch up after missed wakes
        next_wake = now + state.sample_period
    fields = state.__dict__.copy()
    fields["next_wake"] = next_wake
    fields["last_reading"] = reading
    return _build(NodeState, fields), READING_PAYLOAD.pack(now, reading)


def _advanced(frame: RadioFrame) -> RadioFrame:
    """A frame passed on to the next node of its route: the one relay rule."""
    fields = frame.__dict__.copy()
    fields["hop_index"] = frame.hop_index + 1
    return _build(RadioFrame, fields)


def node_on_receive(state: NodeState, frame: RadioFrame) -> tuple[NodeState, list[RadioFrame]]:
    """Interrupt path: relay a frame onward, or consume one addressed here.

    Relays re-emit the frame with hop_index advanced. A destination node
    applies switch commands to its relay and answers with an acknowledgment
    reading. Hibernation resumes untouched (next_wake is never altered).
    """
    route, hop = frame.route, frame.hop_index
    if state.id not in route:
        raise MisroutedFrame(f"node {state.id} is not on route {list(route)}")
    if hop >= len(route) or route[hop] != state.id:
        raise MisroutedFrame(
            f"node {state.id} received frame out of turn (hop {hop} of {list(route)})"
        )
    if hop != len(route) - 1:  # a relay: the route goes on past this node
        return state, [_advanced(frame)]
    if frame.kind is _COMMAND:
        _target, opcode = wire.decode_command_payload(frame.payload)
        switch = state.relay_switch
        if opcode is wire.SwitchOpcode.SWITCH_ON:
            switch = SwitchState.ON
        elif opcode is wire.SwitchOpcode.SWITCH_OFF:
            switch = SwitchState.OFF
        new_state = _build(NodeState, {**state.__dict__, "relay_switch": switch})
        ack = _build(RadioFrame, {"src": state.id, "dst": state.coordinator,
                                  "kind": _SENSOR_READING,
                                  "payload": switch_ack_payload(opcode, switch),
                                  "route": (), "hop_index": 0})
        return new_state, [ack]
    return state, []


# an uplink or downlink event's detail up to its seq, formatted once per type
_TYPE_DETAIL = {msg_type: f"type={msg_type.name} seq=" for msg_type in wire.MsgType}


def trace_line(tick: int, event: str, src: int, dst: int, detail: str) -> str:
    """One trace event as 'tick<TAB>event<TAB>src<TAB>dst<TAB>detail'."""
    return f"{tick}\t{event}\t{src}\t{dst}\t{detail}"


def run_discovery(topology: Topology, root: int, trace=None,
                  tick: int = 0) -> tuple[DistanceTable, int]:
    """Root floods one request; every other node reports its id and location
    (or distance row); the assembled table is the topology's own table.

    Discovery is reliable flooding, independent of the data-plane radius.
    Returns (topology.table, message_count) with message_count = 1 + (n - 1).
    Trace events carry `tick`, the time the flood starts.
    """
    topology.table.check_node(root)
    positions = topology.positions
    if trace is not None:
        trace.append((tick, "discovery-request", root, 0, "broadcast"))
        for node in topology.nodes:
            if node != root:
                detail = "distance-row" if positions is None else f"pos={positions[node - 1]}"
                trace.append((tick, "discovery-report", node, root, detail))
    return topology.table, topology.n


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


def run_traffic(topology: Topology, config: SimConfig) -> VisitStats:
    """Seeded uniform random traffic over ordered pairs; see draw_pair for the
    documented draw so other implementations reproduce the same sequence."""
    if topology.n < 2:
        raise InvalidInput("traffic needs at least 2 nodes")
    pairs = draw_pairs(topology.n, config.transmissions, config.seed)
    return tally_pairs(Routes(topology.table, config.radius), pairs, config.mode)


class Coordinator:
    """Mesh-to-uplink bridge, one message at a time: a radio frame becomes a
    datagram (receive_frame) and a command datagram a routed radio frame
    (receive_datagram).

    Sensor and alarm payloads cross the bridge byte-for-byte. Command
    acknowledgments are correlated FIFO per target node, so the uplink ACK
    echoes the seq of the COMMAND that caused it.
    """

    def __init__(self, table: DistanceTable, radius: float, node_id: int = 1):
        table.check_node(node_id)
        self.routes = Routes(table, radius)
        self.node_id = node_id
        self._seq = 0
        self._pending: dict[int, deque[int]] = {}

    def receive_frame(self, frame: RadioFrame) -> wire.Datagram | None:
        """The uplink datagram one frame delivered here becomes, if any."""
        kind, payload = frame.kind, frame.payload
        if kind is _SENSOR_READING:
            if payload.startswith(_SWITCH_ACK):  # is_switch_ack, inline
                queue = self._pending.get(frame.src)
                if not queue:
                    return None  # orphan acknowledgment
                return _build(wire.Datagram, {"msg_type": _ACK, "seq": queue.popleft(),
                                              "src_node": frame.src, "payload": b""})
            msg_type = _SENSOR_DATA
        elif kind is _ALARM:
            msg_type = _ALARM_CID
        else:
            return None
        seq = self._seq
        self._seq = (seq + 1) & 0xFFFF
        return _build(wire.Datagram, {"msg_type": msg_type, "seq": seq,
                                      "src_node": frame.src, "payload": payload})

    def receive_datagram(self, d: wire.Datagram) -> RadioFrame | wire.Datagram | None:
        """The one message a monitor datagram becomes: a COMMAND's routed
        frame, the NACK of a COMMAND that cannot be routed, or None."""
        if d.msg_type != _COMMAND_TYPE:  # a plain int equals its MsgType member
            return None  # monitor-side ACK/NACK of our uplink traffic
        try:
            target, _opcode = wire.decode_command_payload(d.payload)
        except InvalidInput:
            target, path = d.src_node, None
        else:
            inside = 1 <= target <= self.routes.table.n and target != self.node_id
            path = self.routes.path(self.node_id, target) if inside else None
        if path is None:  # undecodable, outside the mesh, or out of reach
            return _build(wire.Datagram, {"msg_type": _NACK, "seq": d.seq,
                                          "src_node": target, "payload": b""})
        frame = _build(RadioFrame, {"src": self.node_id, "dst": target,
                                    "kind": _COMMAND,
                                    "payload": d.payload,  # preserved byte-for-byte
                                    "route": path, "hop_index": 1})
        self._pending.setdefault(target, deque()).append(d.seq)
        return frame


class SimNetwork:
    """Single-threaded tick loop owning every node, the coordinator, and all
    in-flight frames.

    One radio hop takes one tick. The trace records one event per line, in
    trace_line's format, for diffing across runs.
    """

    def __init__(self, topology: Topology, radius: float, seed: int = 0,
                 sample_period: int = 50):
        if sample_period < 1:
            raise InvalidInput(f"sample_period must be >= 1 tick, got {sample_period}")
        self.topology = topology
        self.coordinator = Coordinator(topology.table, radius, topology.coordinator)
        self.routes = self.coordinator.routes
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
        self._uplink_in: list[wire.Datagram] = []
        self._alarms: list[RadioFrame] = []  # raised on the next tick
        self._in_flight: list[RadioFrame] = []  # sent this tick, delivered the next
        self.trace: list[tuple[int, str, int, int, str]] = []
        self._route_text: dict[tuple[int, ...], str] = {}  # filled by _send
        self.readings_emitted = 0
        self.frames_dropped = 0

    # --- inputs -----------------------------------------------------------

    def inject_datagram(self, d: wire.Datagram) -> None:
        """Queue an uplink-side datagram for the coordinator's next step; a
        msg_type that is not a MsgType value is refused here, before the tick,
        where its `downlink` trace line could not be written."""
        try:
            wire.MsgType(d.msg_type)
        except ValueError:
            raise InvalidInput(f"unknown msg_type {d.msg_type!r}") from None
        self._uplink_in.append(d)

    def inject_alarm(self, node_id: int, digits: str) -> None:
        """Make a node raise a Contact-ID alarm on the next tick; digits that
        no radio frame can carry, or that would break the alarm's trace line
        (a tab, a newline or another control character), are refused here,
        before the tick."""
        if node_id not in self.nodes:
            raise UnknownNode(node_id)
        if not (digits.isascii() and digits.isprintable()):
            raise InvalidInput(f"alarm digits must be printable ASCII, got {digits!r}")
        self._alarms.append(RadioFrame(src=node_id, dst=self.topology.coordinator,
                                       kind=FrameKind.ALARM, payload=digits.encode("ascii")))

    def run_discovery(self, root: int | None = None) -> tuple[DistanceTable, int]:
        return run_discovery(self.topology,
                             root if root is not None else self.topology.coordinator,
                             trace=self.trace, tick=self.now)

    # --- the loop ---------------------------------------------------------

    def _send(self, frame: RadioFrame) -> None:
        """Put a routed frame on the air; it reaches route[1] next tick."""
        route = frame.route
        text = self._route_text.get(route)
        if text is None:
            text = self._route_text[route] = "route=" + "-".join(map(str, route))
        self.trace.append((self.now, "send", frame.src, frame.dst,
                           f"{frame.kind.trace_detail} {text}"))
        self._in_flight.append(frame)

    def _launch(self, src: int, dst: int, kind: FrameKind, payload: bytes) -> None:
        """Put a node-originated frame on the air, built once with its route,
        or drop it when src has no route to dst."""
        path = self.routes.path(src, dst)
        if path is None:
            self.frames_dropped += 1
            self.trace.append((self.now, "drop", src, dst, f"no-route {kind.trace_detail}"))
            return
        self._send(_build(RadioFrame, {"src": src, "dst": dst, "kind": kind, "payload": payload,
                                       "route": path, "hop_index": 1}))

    def step(self) -> None:
        """Advance one tick: pump the uplink, wake due nodes, raise alarms, then
        deliver the frames sent last tick."""
        arriving, self._in_flight = self._in_flight, []
        datagrams, self._uplink_in = self._uplink_in, []
        nodes, now, trace = self.nodes, self.now, self.trace
        if datagrams:
            for d in datagrams:
                trace.append((now, "downlink", 0, self.coordinator.node_id,
                              f"{_TYPE_DETAIL[d.msg_type]}{d.seq}"))
            # a tick's trace keeps its phases: every NACK uplink before any command send
            replies = [self.coordinator.receive_datagram(d) for d in datagrams]
            for reply in replies:
                if isinstance(reply, wire.Datagram):
                    self._uplink(reply)
            for reply in replies:
                if isinstance(reply, RadioFrame):
                    self._send(reply)

        for node_id, state in nodes.items():  # in id order, as __init__ filled it
            if now < state.next_wake:  # hibernating
                continue
            state, payload = _wake(state, now)
            nodes[node_id] = state
            self.readings_emitted += 1
            dst = state.coordinator
            trace.append((now, "wake", node_id, dst, f"reading={state.last_reading}"))
            self._launch(node_id, dst, _SENSOR_READING, payload)

        alarms, self._alarms = self._alarms, []
        for frame in alarms:
            trace.append((now, "alarm", frame.src, frame.dst, frame.payload.decode("ascii")))
            self._launch(frame.src, frame.dst, frame.kind, frame.payload)

        for frame in arriving:
            self._deliver(frame)

        self.now += 1

    def _deliver(self, frame: RadioFrame) -> None:
        route, hop = frame.route, frame.hop_index
        holder = route[hop]
        if holder == self.coordinator.node_id:
            self.trace.append((self.now, "deliver", frame.src, holder, frame.kind.trace_detail))
            d = self.coordinator.receive_frame(frame)
            if d is not None:
                self._uplink(d)
            return
        state = self.nodes[holder]
        if hop != len(route) - 1 and state.id == holder:
            # node_on_receive's relay, without the call: holder is route[hop],
            # so its route checks come down to the held state's id
            self.trace.append((self.now, "relay", holder, route[hop + 1], frame.kind.trace_detail))
            self._in_flight.append(_advanced(frame))
            return
        # a frame at its destination, or a state held under another node's id,
        # which node_on_receive refuses with MisroutedFrame
        state, frames = node_on_receive(state, frame)
        self.nodes[holder] = state
        for out in frames:  # a switch acknowledgment, the only frame a node answers with
            self.trace.append((self.now, "switch", holder, out.dst,
                               f"state={state.relay_switch.value}"))
            self._launch(out.src, out.dst, out.kind, out.payload)

    def _uplink(self, d: wire.Datagram) -> None:
        self.trace.append((self.now, "uplink", d.src_node, 0, f"{_TYPE_DETAIL[d.msg_type]}{d.seq}"))
        self.uplink_out.append(d)

    def drain_uplink(self) -> list[wire.Datagram]:
        out = self.uplink_out
        self.uplink_out = []
        return out

    def run(self, ticks: int) -> None:
        for _ in range(ticks):
            self.step()

    def trace_lines(self) -> list[str]:
        return [trace_line(*event) for event in self.trace]
