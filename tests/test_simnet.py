import dataclasses
import hashlib
import math
import random
import struct

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from homemesh import routing, simnet, wire
from homemesh.errors import InvalidInput, MisroutedFrame, UnknownNode
from homemesh.netmodel import Topology, topology_from_positions, validate_table
from homemesh.routing import CountingMode, RouteQuery, brute_force_route
from homemesh.simnet import (
    Coordinator,
    FrameKind,
    NodeState,
    RadioFrame,
    SimConfig,
    SimNetwork,
    SplitMix64,
    SwitchState,
    draw_pair,
    draw_pairs,
    node_on_receive,
    parse_switch_ack,
    run_discovery,
    run_pairs,
    run_traffic,
    switch_ack_payload,
    synthetic_reading,
)

from conftest import random_symmetric_table
from reference_impls import (
    relayed_by_replace,
    routed_by_replace,
    splitmix64_stream,
    switched_by_replace,
    woken_by_replace,
)

# frozen reference output for seed 42 (cross-implementation determinism)
SPLITMIX_SEED42 = [
    0xBDD732262FEB6E95,
    0x28EFE333B266F103,
    0x47526757130F9F52,
    0x581CE1FF0E4AE394,
    0x09BC585A244823F2,
    0xDE4431FA3C80DB06,
]
PAIRS_SEED42_N10 = [(9, 2), (1, 3), (3, 1), (7, 1), (8, 9), (5, 8)]

# frozen by replaying the documented draws through the enumeration oracle
TRAFFIC_K5_N1000_SEED42 = {1: 96, 2: 106, 3: 293, 4: 91, 5: 248, 6: 190,
                           7: 223, 8: 96, 9: 97, 10: 115}
TRAFFIC_K5_N3000_SEED7 = {1: 278, 2: 296, 3: 841, 4: 313, 5: 766, 6: 549,
                          7: 620, 8: 327, 9: 265, 10: 361}


# --- generator -----------------------------------------------------------------


def test_splitmix_reference_sequence():
    rng = SplitMix64(42)
    assert [rng.next_u64() for _ in range(6)] == SPLITMIX_SEED42


def test_splitmix_matches_independent_implementation():
    stream = splitmix64_stream(987654321)
    rng = SplitMix64(987654321)
    assert [rng.next_u64() for _ in range(100)] == [next(stream) for _ in range(100)]


def test_draw_pair_reference_sequence():
    rng = SplitMix64(42)
    assert [draw_pair(rng, 10) for _ in range(6)] == PAIRS_SEED42_N10


def test_draw_pair_never_repeats_endpoint():
    rng = SplitMix64(7)
    for _ in range(2000):
        src, dst = draw_pair(rng, 10)
        assert src != dst
        assert 1 <= src <= 10 and 1 <= dst <= 10


def test_draw_pair_covers_all_pairs_roughly_uniformly():
    rng = SplitMix64(3)
    draws = 90 * 200
    freq = {}
    for _ in range(draws):
        pair = draw_pair(rng, 10)
        freq[pair] = freq.get(pair, 0) + 1
    assert len(freq) == 90
    expectation = draws / 90
    sigma = math.sqrt(draws * (1 / 90) * (89 / 90))
    for count in freq.values():
        assert abs(count - expectation) < 5 * sigma


def test_synthetic_reading_is_pure_and_16_bit():
    a = synthetic_reading(3, 100, seed=5)
    assert a == synthetic_reading(3, 100, seed=5)
    assert 0 <= a <= 0xFFFF
    assert synthetic_reading(3, 100, seed=6) != a or synthetic_reading(4, 100, seed=5) != a


# --- node state machine -----------------------------------------------------------


def one_sensor_net(state: NodeState, now: int) -> SimNetwork:
    """A network of the coordinator and node 2, one hop apart, at tick `now`
    with node 2 in `state`."""
    net = SimNetwork(Topology(table=validate_table([[0, 3], [3, 0]])), radius=5)
    net.nodes[2], net.now = state, now
    return net


def test_node_tick_asleep():
    state = NodeState(id=2, sample_period=60, next_wake=100)
    net = one_sensor_net(state, 50)
    net.step()
    assert net.nodes[2] is state
    assert net._in_flight == []
    assert net.readings_emitted == 0


def test_node_tick_due_emits_one_reading():
    state = NodeState(id=2, sample_period=60, next_wake=100, coordinator=1, seed=9)
    new, payload = simnet._wake(state, 100)
    assert new.next_wake == 160
    assert new.last_reading == synthetic_reading(2, 100, seed=9)
    net = one_sensor_net(state, 100)
    net.step()
    assert net.nodes[2] == new
    [frame] = net._in_flight
    assert frame.kind is FrameKind.SENSOR_READING
    assert (frame.src, frame.dst) == (2, 1)
    assert frame.payload == payload
    assert (frame.route, frame.hop_index) == ((2, 1), 1)


def test_node_tick_one_frame_per_due_tick():
    net = one_sensor_net(NodeState(id=2, sample_period=1, next_wake=10), 10)
    for emitted in (1, 2, 3):
        net.step()
        assert net.readings_emitted == emitted
        assert len(net._in_flight) == 1
    assert net.nodes[2].next_wake == 13


def test_node_tick_catches_up_after_long_sleep():
    state = NodeState(id=2, sample_period=10, next_wake=0)
    state, payload = simnet._wake(state, 95)
    assert payload == simnet.READING_PAYLOAD.pack(95, state.last_reading)
    assert state.next_wake == 105


def test_relay_advances_hop_index():
    state = NodeState(id=5, sample_period=60, next_wake=1000)
    frame = RadioFrame(src=1, dst=10, kind=FrameKind.SENSOR_READING,
                       payload=b"x", route=(1, 5, 10), hop_index=1)
    new, out = node_on_receive(state, frame)
    assert new is state  # relaying does not disturb the duty cycle
    assert len(out) == 1
    assert out[0].hop_index == 2
    assert out[0].route == (1, 5, 10)
    assert out[0].payload == b"x"


def test_destination_command_switches_on_and_acks():
    state = NodeState(id=10, sample_period=60, next_wake=1000, coordinator=1)
    assert state.relay_switch is SwitchState.OFF
    payload = wire.encode_command_payload(10, wire.SwitchOpcode.SWITCH_ON)
    frame = RadioFrame(src=1, dst=10, kind=FrameKind.COMMAND,
                       payload=payload, route=(1, 5, 10), hop_index=2)
    new, out = node_on_receive(state, frame)
    assert new.relay_switch is SwitchState.ON
    assert new.next_wake == state.next_wake
    assert len(out) == 1
    opcode, switch = parse_switch_ack(out[0].payload)
    assert opcode is wire.SwitchOpcode.SWITCH_ON
    assert switch is SwitchState.ON


def test_destination_query_switch_does_not_toggle():
    state = NodeState(id=10, sample_period=60, next_wake=1000)
    payload = wire.encode_command_payload(10, wire.SwitchOpcode.QUERY_SWITCH)
    frame = RadioFrame(src=1, dst=10, kind=FrameKind.COMMAND,
                       payload=payload, route=(1, 10), hop_index=1)
    new, out = node_on_receive(state, frame)
    assert new.relay_switch is SwitchState.OFF
    assert len(out) == 1


def test_misrouted_frame_rejected():
    state = NodeState(id=4, sample_period=60)
    frame = RadioFrame(src=1, dst=10, kind=FrameKind.SENSOR_READING,
                       route=(1, 5, 10), hop_index=1)
    with pytest.raises(MisroutedFrame):
        node_on_receive(state, frame)


def test_out_of_turn_frame_rejected():
    state = NodeState(id=10, sample_period=60)
    frame = RadioFrame(src=1, dst=10, kind=FrameKind.SENSOR_READING,
                       route=(1, 5, 10), hop_index=1)
    with pytest.raises(MisroutedFrame):
        node_on_receive(state, frame)


def test_radio_frame_payload_bound():
    with pytest.raises(InvalidInput):
        RadioFrame(src=1, dst=2, kind=FrameKind.SENSOR_READING, payload=bytes(97))


def test_radio_frame_hop_index_bound():
    with pytest.raises(InvalidInput):
        RadioFrame(src=1, dst=2, kind=FrameKind.SENSOR_READING, route=(1, 2), hop_index=3)


def test_radio_frame_rejects_negative_hop_index():
    # hop -1 would put route[-1], the destination, in turn to relay it back
    with pytest.raises(InvalidInput):
        RadioFrame(src=1, dst=3, kind=FrameKind.COMMAND, route=(1, 2, 3), hop_index=-1)


@pytest.mark.parametrize("payload", [b"", b"\x01\x02", b"SWACK\x01", b"SWACK\x01\x01\x00"])
def test_parse_switch_ack_rejects_other_payloads(payload):
    with pytest.raises(InvalidInput):
        parse_switch_ack(payload)


# --- direct construction against dataclasses.replace ----------------------------

NODE_FIELDS = {
    "id": st.integers(1, 30),
    "sample_period": st.integers(1, 100),
    "next_wake": st.integers(0, 1000),
    "relay_switch": st.sampled_from(SwitchState),
    "last_reading": st.integers(0, 0xFFFF),
    "coordinator": st.integers(1, 30),
    "seed": st.integers(0, 2**64 - 1),
}
FRAME_FIELDS = {  # route and hop_index are drawn together by held_frames
    "src": st.integers(1, 30),
    "dst": st.integers(1, 30),
    "kind": st.sampled_from(FrameKind),
    "payload": st.binary(max_size=simnet.MAX_FRAME_PAYLOAD),
}


def test_strategies_cover_every_field():
    # a field added to either class needs a strategy here, or the checks
    # below could not see a direct constructor in simnet that drops it
    assert set(NODE_FIELDS) == {f.name for f in dataclasses.fields(NodeState)}
    assert set(FRAME_FIELDS) | {"route", "hop_index"} == {
        f.name for f in dataclasses.fields(RadioFrame)}


@st.composite
def held_frames(draw, case):
    """A node and a frame it holds in turn: one to relay ("relay"), or one
    addressed to it ("command", or "other" for a reading or an alarm)."""
    route = tuple(draw(st.lists(st.integers(1, 30), min_size=2, max_size=6, unique=True)))
    frame = {name: draw(strategy) for name, strategy in FRAME_FIELDS.items()}
    frame["route"] = route
    if case == "relay":
        frame["hop_index"] = draw(st.integers(0, len(route) - 2))
    else:
        frame["hop_index"] = len(route) - 1
    if case == "command":
        frame["kind"] = FrameKind.COMMAND
        frame["payload"] = wire.encode_command_payload(
            draw(st.integers(0, 0xFF)), draw(st.sampled_from(wire.SwitchOpcode)))
    elif case == "other":
        frame["kind"] = draw(st.sampled_from([FrameKind.SENSOR_READING, FrameKind.ALARM]))
    state = {name: draw(strategy) for name, strategy in NODE_FIELDS.items()}
    state["id"] = route[frame["hop_index"]]
    return NodeState(**state), RadioFrame(**frame)


@given(state=st.builds(NodeState, **NODE_FIELDS), now=st.integers(0, 2000))
def test_node_tick_builds_the_state_replace_would(state, now):
    now = max(now, state.next_wake)  # _wake runs on due nodes only
    new, payload = simnet._wake(state, now)
    reading = synthetic_reading(state.id, now, state.seed)
    assert new == woken_by_replace(state, now, reading)
    assert payload == struct.pack(">QH", now, reading)


@pytest.mark.parametrize("case", ["relay", "command", "other"])
@given(data=st.data())
def test_node_on_receive_builds_what_replace_would(case, data):
    state, frame = data.draw(held_frames(case))
    new, out = node_on_receive(state, frame)
    if case == "relay":
        assert (new, out) == (state, [relayed_by_replace(frame)])
    elif case == "command":
        _target, opcode = wire.decode_command_payload(frame.payload)
        switch = {wire.SwitchOpcode.SWITCH_ON: SwitchState.ON,
                  wire.SwitchOpcode.SWITCH_OFF: SwitchState.OFF}.get(opcode, state.relay_switch)
        assert new == switched_by_replace(state, switch)
        assert out == [RadioFrame(src=state.id, dst=state.coordinator,
                                  kind=FrameKind.SENSOR_READING,
                                  payload=switch_ack_payload(opcode, switch))]
    else:
        assert (new, out) == (state, [])


def holding_net(holder: int, state: NodeState, frame: RadioFrame) -> SimNetwork:
    """A network whose one node entry, under `holder`, is `state`, asleep this
    tick, and whose only frame on the air is `frame`. Node 1 is its
    coordinator."""
    net = SimNetwork(Topology(table=validate_table([[0, 3], [3, 0]])), radius=5)
    net.nodes = {holder: dataclasses.replace(state, next_wake=net.now + 1)}
    net._in_flight = [frame]
    return net


@given(data=st.data())
def test_step_relays_a_held_frame_as_node_on_receive_does(data):
    state, frame = data.draw(held_frames("relay"))
    holder = state.id
    assume(holder != 1)  # the coordinator takes a frame it holds itself
    net = holding_net(holder, state, frame)
    asleep = net.nodes[holder]
    _, [out] = node_on_receive(asleep, frame)
    net.step()
    assert net._in_flight == [relayed_by_replace(frame)] == [out]
    assert net.trace == [(0, "relay", holder, out.route[out.hop_index], out.kind.trace_detail)]
    assert net.nodes == {holder: asleep}


@pytest.mark.parametrize("case", ["relay", "command", "other"])
@given(data=st.data())
def test_step_refuses_a_frame_held_under_another_nodes_id(case, data):
    state, frame = data.draw(held_frames(case))
    holder = state.id
    assume(holder != 1)
    other = data.draw(st.integers(1, 30).filter(lambda node: node != holder))
    net = holding_net(holder, dataclasses.replace(state, id=other), frame)
    with pytest.raises(MisroutedFrame):
        net.step()


# --- wire._build against the public constructors ---------------------------------

DATAGRAM_FIELDS = {
    "msg_type": st.sampled_from(wire.MsgType),
    "seq": st.integers(0, 0xFFFF),
    "src_node": st.integers(0, 0xFFFF),
    "payload": st.binary(max_size=64),
}


@st.composite
def frame_fields(draw):
    fields = {name: draw(strategy) for name, strategy in FRAME_FIELDS.items()}
    fields["route"] = tuple(draw(st.lists(st.integers(1, 30), max_size=6)))
    fields["hop_index"] = draw(st.integers(0, len(fields["route"])))
    return fields


MESSAGES = {
    "node-state": (NodeState, st.fixed_dictionaries(NODE_FIELDS)),
    "radio-frame": (RadioFrame, frame_fields()),
    "datagram": (wire.Datagram, st.fixed_dictionaries(DATAGRAM_FIELDS)),
}


@pytest.mark.parametrize("message", sorted(MESSAGES))
@given(data=st.data())
def test_build_makes_what_the_constructor_makes(message, data):
    cls, strategy = MESSAGES[message]
    fields = data.draw(strategy)
    made = cls(**fields)
    built = wire._build(cls, dict(fields))
    assert type(built) is cls
    assert built == made and made == built
    assert hash(built) == hash(made)
    name = data.draw(st.sampled_from(sorted(fields)))
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(built, name, getattr(made, name))


@given(fields=frame_fields(), fault=st.sampled_from(["payload", "hop-high", "hop-negative"]),
       by=st.integers(1, 5))
def test_build_checks_every_frame(fields, fault, by):
    if fault == "payload":
        fields["payload"] = bytes(simnet.MAX_FRAME_PAYLOAD + by)
    elif fault == "hop-high":
        fields["hop_index"] = len(fields["route"]) + by
    else:
        fields["hop_index"] = -by
    with pytest.raises(InvalidInput) as made:
        RadioFrame(**fields)
    with pytest.raises(InvalidInput) as built:
        wire._build(RadioFrame, dict(fields))
    assert str(built.value) == str(made.value)


# --- discovery ---------------------------------------------------------------------


def test_discovery_reference_topology(table1_topology):
    table, messages = run_discovery(table1_topology, 1)
    assert table.cost == table1_topology.table.cost
    assert messages == 10


def test_discovery_single_node():
    topo = topology_from_positions([(0.0, 0.0)])
    table, messages = run_discovery(topo, 1)
    assert table.cost == ((0.0,),)
    assert messages == 1


def test_discovery_collinear_positions():
    topo = topology_from_positions([(0, 0), (3, 4), (6, 8)])
    table, messages = run_discovery(topo, 2)
    assert messages == 3
    assert table.distance(1, 3) == 10.0


def test_discovery_unknown_root(table1_topology):
    with pytest.raises(UnknownNode):
        run_discovery(table1_topology, 99)


def test_discovery_matches_ground_truth_on_random_topologies():
    rng = random.Random(4242)
    for _ in range(50):
        n = rng.randint(1, 9)
        if rng.random() < 0.5:
            positions = [(rng.uniform(-50, 50), rng.uniform(-50, 50)) for _ in range(n)]
            topo = topology_from_positions(positions)
        else:
            topo = Topology(table=random_symmetric_table(rng, n))
        root = rng.randint(1, n)
        table, messages = run_discovery(topo, root)
        assert table is topo.table
        assert messages == n


# --- traffic -------------------------------------------------------------------------


def test_traffic_zero_transmissions(table1_topology):
    stats = run_traffic(table1_topology, SimConfig(5, 0, 1))
    assert all(count == 0 for count in stats.counts.values())
    assert stats.transmissions == 0
    assert stats.unreachable == 0


def test_forced_single_pair(table1_topology):
    stats = run_pairs(table1_topology, [(1, 10)], 5, CountingMode.TRANSMITTERS_ONLY)
    expected = {node: 0 for node in range(1, 11)}
    expected[1] = 1
    expected[5] = 1  # relay transmits; node 10 only receives
    assert stats.counts == expected
    assert stats.relay_counts[5] == 1


def test_traffic_frozen_counts(table1_topology):
    stats = run_traffic(table1_topology, SimConfig(5, 1000, 42))
    assert stats.counts == TRAFFIC_K5_N1000_SEED42
    stats3 = run_traffic(table1_topology, SimConfig(5, 3000, 7))
    assert stats3.counts == TRAFFIC_K5_N3000_SEED7


def test_traffic_deterministic(table1_topology):
    config = SimConfig(5, 500, 123)
    first = run_traffic(table1_topology, config)
    second = run_traffic(table1_topology, config)
    assert first == second


def test_traffic_matches_oracle_replay(table1_topology):
    config = SimConfig(5, 200, 31337)
    stats = run_traffic(table1_topology, config)
    counts = {node: 0 for node in table1_topology.nodes}
    relay = {node: 0 for node in table1_topology.nodes}
    for src, dst in draw_pairs(10, 200, 31337):
        route = brute_force_route(table1_topology.table, RouteQuery(src, dst, 5))
        for node in route.path[:-1]:
            counts[node] += 1
        for node in route.path[1:-1]:
            relay[node] += 1
    assert stats.counts == counts
    assert stats.relay_counts == relay


def test_traffic_conservation(table1_topology):
    pairs = draw_pairs(10, 300, 9)
    transmitters = run_pairs(table1_topology, pairs, 5, CountingMode.TRANSMITTERS_ONLY)
    everything = run_pairs(table1_topology, pairs, 5, CountingMode.ALL_PATH_NODES)
    lengths = 0
    for src, dst in pairs:
        lengths += len(brute_force_route(table1_topology.table, RouteQuery(src, dst, 5)).path)
    assert sum(everything.counts.values()) == lengths
    assert sum(transmitters.counts.values()) == lengths - 300


def test_traffic_unreachable_only_counts(table1_topology):
    stats = run_traffic(table1_topology, SimConfig(1, 50, 5))
    assert stats.unreachable == 50
    assert stats.transmissions == 0
    assert all(count == 0 for count in stats.counts.values())


def test_traffic_rejects_tiny_topology():
    topo = topology_from_positions([(0.0, 0.0)])
    with pytest.raises(InvalidInput):
        run_traffic(topo, SimConfig(5, 10, 1))


def test_config_rejects_negative_transmissions():
    with pytest.raises(InvalidInput):
        SimConfig(5, -1, 0)


# --- coordinator ------------------------------------------------------------------------


def test_coordinator_translates_reading(table1):
    coordinator = Coordinator(table1, 5)
    frame = RadioFrame(src=7, dst=1, kind=FrameKind.SENSOR_READING,
                       payload=b"\x01\x02", route=(7, 1), hop_index=1)
    assert coordinator.receive_frame(frame) == wire.Datagram(
        wire.MsgType.SENSOR_DATA, 0, 7, b"\x01\x02")


def test_coordinator_routes_command(table1):
    coordinator = Coordinator(table1, 5)
    command = wire.Datagram(wire.MsgType.COMMAND, 77, 10,
                            wire.encode_command_payload(10, wire.SwitchOpcode.SWITCH_ON))
    frame = coordinator.receive_datagram(command)
    assert isinstance(frame, RadioFrame)
    assert frame.kind is FrameKind.COMMAND
    assert frame.route == (1, 5, 10)
    assert frame.hop_index == 1
    assert frame.payload == command.payload  # bytes preserved


def test_coordinator_nacks_unreachable_target(table1):
    coordinator = Coordinator(table1, 1)
    command = wire.Datagram(wire.MsgType.COMMAND, 8, 10,
                            wire.encode_command_payload(10, wire.SwitchOpcode.SWITCH_ON))
    assert coordinator.receive_datagram(command) == wire.Datagram(wire.MsgType.NACK, 8, 10)


@pytest.mark.parametrize("target", [0, 11, 1])  # no such node, and the coordinator
def test_coordinator_nacks_target_outside_the_mesh(table1, target):
    coordinator = Coordinator(table1, 5)
    command = wire.Datagram(wire.MsgType.COMMAND, 9, target,
                            wire.encode_command_payload(target, wire.SwitchOpcode.SWITCH_ON))
    assert coordinator.receive_datagram(command) == wire.Datagram(wire.MsgType.NACK, 9, target)


@pytest.mark.parametrize("payload", [bytes([10, 0x09]), b"\x0a", b"\x0a\x01\x00"],
                         ids=["unknown-opcode", "short", "long"])
def test_coordinator_nacks_a_malformed_command(table1, payload):
    coordinator = Coordinator(table1, 5)
    command = wire.Datagram(wire.MsgType.COMMAND, 9, 10, payload)
    assert coordinator.receive_datagram(command) == wire.Datagram(wire.MsgType.NACK, 9, 10)


def test_coordinator_correlates_switch_ack(table1):
    coordinator = Coordinator(table1, 5)
    command = wire.Datagram(wire.MsgType.COMMAND, 55, 10,
                            wire.encode_command_payload(10, wire.SwitchOpcode.SWITCH_ON))
    ack_payload = switch_ack_payload(wire.SwitchOpcode.SWITCH_ON, SwitchState.ON)
    ack_frame = RadioFrame(src=10, dst=1, kind=FrameKind.SENSOR_READING,
                           payload=ack_payload, route=(10, 5, 1), hop_index=2)
    assert coordinator.receive_frame(ack_frame) is None  # no command pending
    assert isinstance(coordinator.receive_datagram(command), RadioFrame)
    assert coordinator.receive_frame(ack_frame) == wire.Datagram(wire.MsgType.ACK, 55, 10)
    assert coordinator.receive_frame(ack_frame) is None  # its command is acknowledged


def test_coordinator_translates_alarm(table1):
    coordinator = Coordinator(table1, 5)
    digits = b"1234181131010158"
    frame = RadioFrame(src=4, dst=1, kind=FrameKind.ALARM, payload=digits,
                       route=(4, 1), hop_index=1)
    assert coordinator.receive_frame(frame) == wire.Datagram(wire.MsgType.ALARM_CID, 0, 4, digits)


# --- the tick loop -------------------------------------------------------------------------


def build_net(table1_topology, radius=5.0, seed=0):
    return SimNetwork(table1_topology, radius, seed=seed, sample_period=20)


@pytest.mark.parametrize("radius", [float("nan"), -1])
def test_bad_radius_raises_at_construction(table1_topology, radius):
    with pytest.raises(InvalidInput):
        Coordinator(table1_topology.table, radius)
    with pytest.raises(InvalidInput):
        SimNetwork(table1_topology, radius)
    with pytest.raises(InvalidInput):
        run_traffic(table1_topology, SimConfig(radius, 0, 1))


def test_table_too_large_to_route_raises_at_construction():
    # n * C = 2e308 is past 2**1023: routing refuses the table, so a network
    # must refuse it before its first tick, not trace a wake and then raise
    topology = Topology(table=validate_table([[0, 1e308], [1e308, 0]]))
    with pytest.raises(InvalidInput, match="too large to add exactly"):
        Coordinator(topology.table, 2e308)
    with pytest.raises(InvalidInput, match="too large to add exactly"):
        SimNetwork(topology, 2e308, sample_period=1)


@pytest.mark.parametrize("period", [0, -3])
def test_sample_period_below_one_raises_at_construction(table1_topology, period):
    with pytest.raises(InvalidInput):
        SimNetwork(table1_topology, 5.0, sample_period=period)


def test_launch_attaches_the_route_replace_would(table1_topology):
    net = build_net(table1_topology)
    frame = RadioFrame(src=7, dst=1, kind=FrameKind.ALARM, payload=b"1234181131010158")
    net._launch(frame.src, frame.dst, frame.kind, frame.payload)
    assert net._in_flight == [routed_by_replace(frame, net.routes.path(7, 1))]


@pytest.mark.parametrize("due", [0, 1, 4, 9])
def test_readings_launch_through_the_launch_method(table1_topology, monkeypatch, due):
    # bench/spans.py times this class attribute; a path around it reads 0
    launched = []
    launch = SimNetwork.__dict__["_launch"]

    def counting(self, *args):
        launched.append(args[:2])
        return launch(self, *args)

    monkeypatch.setattr(SimNetwork, "_launch", counting)
    net = SimNetwork(table1_topology, 5, sample_period=1000)
    sensors = list(net.nodes)
    for node in sensors[due:]:
        net.nodes[node] = dataclasses.replace(net.nodes[node], next_wake=1)
    net.step()
    assert launched == [(node, 1) for node in sensors[:due]]
    assert net.readings_emitted == due


def test_step_wakes_only_the_nodes_that_are_due(table1_topology, monkeypatch):
    woken = []
    original = simnet._wake

    def counted(state, now):
        woken.append((state.id, now))
        return original(state, now)

    monkeypatch.setattr(simnet, "_wake", counted)
    net = SimNetwork(table1_topology, 5, sample_period=50)
    net.run(200)
    assert len(woken) == net.readings_emitted == 9 * 4
    assert woken == [(node, now) for now in (0, 50, 100, 150) for node in range(2, 11)]


@given(state=st.builds(NodeState, **{**NODE_FIELDS, "id": st.just(2), "coordinator": st.just(1)}),
       now=st.integers(0, 2000))
def test_step_wakes_a_node_as_the_reference_does(state, now):
    net = one_sensor_net(state, now)
    net.step()
    if now < state.next_wake:
        assert (net.nodes[2], net._in_flight) == (state, [])
        return
    reading = synthetic_reading(2, now, state.seed)
    assert net.nodes[2] == woken_by_replace(state, now, reading)
    frame = RadioFrame(src=2, dst=1, kind=FrameKind.SENSOR_READING,
                       payload=struct.pack(">QH", now, reading))
    assert net._in_flight == [routed_by_replace(frame, net.routes.path(2, 1))]


def test_network_delivers_every_reachable_reading(table1_topology):
    net = build_net(table1_topology)
    net.run(100)
    sensor_up = [d for d in net.uplink_out if d.msg_type is wire.MsgType.SENSOR_DATA]
    assert net.readings_emitted > 0
    assert net.frames_dropped == 0
    # everything emitted at least max-hops ticks before the end has landed
    in_flight = len(net._in_flight)
    assert len(sensor_up) + in_flight == net.readings_emitted


def test_network_drops_everything_at_radius_one(table1_topology):
    net = build_net(table1_topology, radius=1.0)
    net.run(50)
    assert net.frames_dropped == net.readings_emitted > 0
    assert net.uplink_out == []


def test_network_trace_is_deterministic(table1_topology):
    first = build_net(table1_topology, seed=11)
    second = build_net(table1_topology, seed=11)
    first.run(80)
    second.run(80)
    assert first.trace_lines() == second.trace_lines()
    assert first.trace_lines()  # non-empty
    line = first.trace_lines()[0]
    assert len(line.split("\t")) == 5


def test_network_trace_shape_for_one_reading():
    # two nodes: node 2 wakes at tick 0, its reading lands next tick
    topo = Topology(table=validate_table([[0, 3], [3, 0]]))
    net = SimNetwork(topo, radius=5, sample_period=100)
    net.run(3)
    events = [line.split("\t")[1] for line in net.trace_lines()]
    assert events[:4] == ["wake", "send", "deliver", "uplink"]
    ticks = [int(line.split("\t")[0]) for line in net.trace_lines()]
    assert ticks == sorted(ticks)


def test_network_discovery_is_stamped_with_the_current_tick(table1_topology):
    net = build_net(table1_topology)
    net.run(3)
    start = len(net.trace)
    net.run_discovery()
    ticks = [int(line.split("\t")[0]) for line in net.trace_lines()]
    assert ticks == sorted(ticks)
    discovery = net.trace[start:]
    assert len(discovery) == table1_topology.n
    assert all(event[0] == 3 and event[1].startswith("discovery-") for event in discovery)


def test_tick_timeline_of_a_command_and_an_alarm(table1_topology):
    # frames sent in a tick are delivered at the end of the next: one hop per tick
    net = SimNetwork(table1_topology, 5, sample_period=1000)
    net.run(1)  # every node wakes at tick 0, next at tick 1000
    start = len(net.trace)
    net.inject_datagram(wire.Datagram(wire.MsgType.COMMAND, 7, 10,
                                      wire.encode_command_payload(10, wire.SwitchOpcode.SWITCH_ON)))
    net.inject_alarm(7, "1234181131010158")
    net.run(6)
    trace = net.trace[start:]

    def picked(*details):
        return [event[:4] for event in trace if event[4] in details]

    assert picked("type=COMMAND seq=7", "kind=command route=1-5-10", "kind=command",
                  "state=on", "kind=sensor-reading route=10-5-1") == [
        (1, "downlink", 0, 1), (1, "send", 1, 10), (2, "relay", 5, 10),
        (3, "switch", 10, 1), (3, "send", 10, 1)]
    # the tick-0 readings have all landed by tick 3, so ticks 4 and 5 carry only the ack
    assert [event[:4] for event in trace if event[0] >= 4] == [
        (4, "relay", 5, 1), (5, "deliver", 10, 1), (5, "uplink", 10, 0)]
    assert trace[-1][4] == "type=ACK seq=7"
    assert picked("1234181131010158", "kind=alarm route=7-3-1", "kind=alarm") == [
        (1, "alarm", 7, 1), (1, "send", 7, 1), (2, "relay", 3, 1), (3, "deliver", 7, 1)]


def test_a_tick_logs_every_downlink_then_every_nack_then_every_command_send(table1_topology):
    # the coordinator takes one datagram at a time, yet the tick's trace keeps
    # its phases: all downlink lines, then the NACK uplinks, then the sends
    net = SimNetwork(table1_topology, 5, sample_period=1000)
    net.run(1)  # every node wakes at tick 0, next at tick 1000
    start = len(net.trace)
    switch_on = wire.SwitchOpcode.SWITCH_ON
    # the routed command comes first, yet its send follows the later one's NACK
    net.inject_datagram(wire.Datagram(wire.MsgType.COMMAND, 3, 10,
                                      wire.encode_command_payload(10, switch_on)))
    net.inject_datagram(wire.Datagram(wire.MsgType.ACK, 0, 1))
    net.inject_datagram(wire.Datagram(wire.MsgType.COMMAND, 4, 11,
                                      wire.encode_command_payload(11, switch_on)))
    net.step()
    assert net.trace_lines()[start:start + 5] == [
        "1\tdownlink\t0\t1\ttype=COMMAND seq=3",
        "1\tdownlink\t0\t1\ttype=ACK seq=0",
        "1\tdownlink\t0\t1\ttype=COMMAND seq=4",
        "1\tuplink\t11\t0\ttype=NACK seq=4",
        "1\tsend\t1\t10\tkind=command route=1-5-10",
    ]
    # the rest of the tick hands on the readings sent at tick 0
    assert {event[1] for event in net.trace[start + 5:]} == {"deliver", "relay", "uplink"}


def test_network_nacks_a_malformed_command_and_keeps_the_frames_on_the_air(table1_topology):
    net = SimNetwork(table1_topology, 5, sample_period=1)
    net.run(1)
    on_air = len(net._in_flight)
    assert on_air > 0
    start = len(net.trace)
    net.inject_datagram(wire.Datagram(wire.MsgType.COMMAND, 7, 10, bytes([10, 0x09])))
    net.step()
    assert net.now == 2
    nacks = [(d.seq, d.src_node) for d in net.uplink_out if d.msg_type is wire.MsgType.NACK]
    assert nacks == [(7, 10)]
    arrived = [event for event in net.trace[start:] if event[1] in ("deliver", "relay")]
    assert len(arrived) == on_air


@pytest.mark.parametrize("msg_type", [0, 99, "COMMAND"])
def test_inject_datagram_refuses_an_unknown_type_and_keeps_the_tick(table1_topology, msg_type):
    net = SimNetwork(table1_topology, 5, sample_period=1)
    net.run(1)
    on_air = len(net._in_flight)
    with pytest.raises(InvalidInput):
        net.inject_datagram(wire.Datagram(msg_type, 0, 10, b""))
    start = len(net.trace)
    net.step()
    assert net.now == 2
    assert [event for event in net.trace[start:] if event[1] == "downlink"] == []
    arrived = [event for event in net.trace[start:] if event[1] in ("deliver", "relay")]
    assert len(arrived) == on_air == 9


COMMAND_PAYLOADS = st.one_of(
    st.binary(max_size=3),
    st.builds(lambda target, opcode: bytes([target, opcode]),
              st.integers(0, 12), st.sampled_from(wire.SwitchOpcode)))
DOWNLINK = st.builds(wire.Datagram, st.sampled_from(wire.MsgType), st.integers(0, 0xFFFF),
                     st.integers(0, 12), COMMAND_PAYLOADS)


@given(datagrams=st.lists(DOWNLINK, max_size=4))
def test_a_plain_int_type_is_handled_as_its_member(table1_topology, datagrams):
    as_ints = [dataclasses.replace(d, msg_type=int(d.msg_type)) for d in datagrams]
    by_member, by_int = (Coordinator(table1_topology.table, 5) for _ in range(2))
    assert ([by_member.receive_datagram(d) for d in datagrams]
            == [by_int.receive_datagram(d) for d in as_ints])
    nets = []
    for queued in (datagrams, as_ints):
        net = SimNetwork(table1_topology, 5, sample_period=1000)
        for d in queued:
            net.inject_datagram(d)
        net.run(6)
        nets.append(net)
    assert nets[0].trace_lines() == nets[1].trace_lines()
    assert nets[0].uplink_out == nets[1].uplink_out


def test_network_command_round_trip_switches_node(table1_topology):
    net = build_net(table1_topology)
    command = wire.Datagram(wire.MsgType.COMMAND, 5, 10,
                            wire.encode_command_payload(10, wire.SwitchOpcode.SWITCH_ON))
    net.inject_datagram(command)
    net.run(10)
    assert net.nodes[10].relay_switch is SwitchState.ON
    acks = [d for d in net.uplink_out if d.msg_type is wire.MsgType.ACK]
    assert len(acks) == 1
    assert acks[0].seq == 5


def test_network_alarm_reaches_uplink(table1_topology):
    net = build_net(table1_topology)
    net.inject_alarm(7, "1234181131010158")
    net.run(10)
    alarms = [d for d in net.uplink_out if d.msg_type is wire.MsgType.ALARM_CID]
    assert len(alarms) == 1
    assert alarms[0].payload == b"1234181131010158"
    assert alarms[0].src_node == 7


def test_network_discovery_from_node_zero_is_unknown(table1_topology):
    net = build_net(table1_topology)
    with pytest.raises(UnknownNode):
        net.run_discovery(0)


def test_network_alarm_unknown_node(table1_topology):
    net = build_net(table1_topology)
    with pytest.raises(UnknownNode):
        net.inject_alarm(99, "1234181131010158")


@pytest.mark.parametrize("digits", ["1" * (simnet.MAX_FRAME_PAYLOAD + 1), "12341811310101é8",
                                    "1234\t18\n1131", "1234181131010158\n"],
                         ids=["too-long", "non-ascii", "tab", "newline"])
def test_network_refuses_alarm_digits_no_frame_can_carry(table1_topology, digits):
    net = SimNetwork(table1_topology, 5, sample_period=1)
    net.run(1)
    on_air = len(net._in_flight)
    with pytest.raises(InvalidInput):
        net.inject_alarm(7, digits)
    # the refused alarm costs the frames already on the air nothing
    start = len(net.trace)
    net.step()
    assert net.now == 2
    assert len([event for event in net.trace[start:] if event[1] in ("deliver", "relay")]) == on_air


# --- one search per source ------------------------------------------------------


def test_profile_builds_one_tree_per_source(table1, tree_calls):
    routing.all_pairs_profile(table1, 5, CountingMode.TRANSMITTERS_ONLY)
    assert sorted(tree_calls) == list(table1.nodes)


def test_traffic_builds_one_tree_per_distinct_source(table1_topology, tree_calls):
    run_traffic(table1_topology, SimConfig(5, 500, 123))
    sources = {src for src, _dst in draw_pairs(10, 500, 123)}
    assert sorted(tree_calls) == sorted(sources)


def test_network_builds_at_most_one_tree_per_node(table1_topology, tree_calls):
    net = build_net(table1_topology)
    net.inject_datagram(wire.Datagram(wire.MsgType.COMMAND, 5, 10,
                                      wire.encode_command_payload(10, wire.SwitchOpcode.SWITCH_ON)))
    net.run(200)
    assert net.nodes[10].relay_switch is SwitchState.ON
    assert net.readings_emitted > table1_topology.n
    assert len(tree_calls) <= table1_topology.n


# --- a long run, pinned byte for byte ------------------------------------------------

# sha256 of the 300-tick run below: its trace lines, its uplink frames and its
# final node states, recorded before the tick loop built messages in one step
LONG_RUN_TRACE = "c08a5fc00f8e07514d1b2c352f540cffbc65650853388efcf4f0af060c556cd5"
LONG_RUN_UPLINK = "66faf65e88db45dae630aa82f44e0e9e6ed3f799fb964821a0f9a711a9599c29"
LONG_RUN_NODES = "e1b8fa9f468c016f62b7dab75590ff87f5faa1e8185302bb90862e1d4908405a"


def test_long_run_is_byte_stable(table1_topology):
    # mesh-ref's shape: every node samples every tick, a seeded switch command
    # arrives every 50 ticks and a seeded alarm is raised every 100
    rng = random.Random(20)
    net = SimNetwork(table1_topology, 5, seed=3, sample_period=1)
    net.run_discovery()
    sensors = sorted(net.nodes)
    uplink = bytearray()
    decoder = wire.StreamDecoder()
    for tick in range(300):
        if tick % 50 == 0:
            target = rng.choice(sensors)
            opcode = rng.choice([wire.SwitchOpcode.SWITCH_ON, wire.SwitchOpcode.SWITCH_OFF])
            net.inject_datagram(wire.Datagram(wire.MsgType.COMMAND, tick // 50, target,
                                              wire.encode_command_payload(target, opcode)))
        if tick % 100 == 50:
            net.inject_alarm(rng.choice(sensors), "".join(rng.choice("0123456789")
                                                          for _ in range(16)))
        net.step()
        out = net.drain_uplink()
        frames = b"".join(wire.encode_datagram(d) for d in out)
        assert decoder.feed(frames) == out
        uplink += frames
    assert net.frames_dropped == 0

    def digest(data: bytes) -> str:
        return hashlib.sha256(data).hexdigest()

    assert (digest("\n".join(net.trace_lines()).encode()), digest(bytes(uplink)),
            digest(repr(sorted(net.nodes.items())).encode())) == (
        LONG_RUN_TRACE, LONG_RUN_UPLINK, LONG_RUN_NODES)


# sha256 of the 200-tick run below, recorded before the tick loop stopped
# calling node_tick on sleeping nodes
DROP_RUN_TRACE = "61575b4cb354ca407fc4e34ce243fa17d0d87da5b374d4c94a9649808b0fad48"
DROP_RUN_UPLINK = "18df8abb1d8d206b5172a4b936e867caeee7dc7af2d040727f4b8e5f151197f8"
DROP_RUN_NODES = "ab4b412e5abbf3accd7257c1725a4afe14fad2054a4b88cffc9c8c0f26e264c3"


def test_run_with_drops_is_byte_stable(table1_topology):
    # at radius 3 only nodes 2 and 3 reach the coordinator: the readings and
    # the alarm of nodes 4-10 are dropped and a command to node 8 is NACKed
    net = SimNetwork(table1_topology, 3, seed=5, sample_period=7)
    net.run_discovery()
    assert [v for v in sorted(net.nodes) if net.routes.path(v, 1) is not None] == [2, 3]
    inputs = {
        10: lambda: net.inject_datagram(wire.Datagram(
            wire.MsgType.COMMAND, 1, 8, wire.encode_command_payload(8, wire.SwitchOpcode.SWITCH_ON))),
        20: lambda: net.inject_datagram(wire.Datagram(
            wire.MsgType.COMMAND, 2, 2, wire.encode_command_payload(2, wire.SwitchOpcode.SWITCH_ON))),
        30: lambda: net.inject_alarm(9, "1234181131010158"),
        40: lambda: net.inject_alarm(3, "1234113101020160"),
    }
    uplink = bytearray()
    for tick in range(200):
        if tick in inputs:
            inputs[tick]()
        net.step()
        uplink += b"".join(wire.encode_datagram(d) for d in net.drain_uplink())
    lines = net.trace_lines()
    assert sum(line.split("\t")[1] == "drop" for line in lines) == net.frames_dropped > 0
    assert "10\tuplink\t8\t0\ttype=NACK seq=1" in lines
    assert "30\tdrop\t9\t1\tno-route kind=alarm" in lines
    assert net.nodes[2].relay_switch is SwitchState.ON

    def digest(data: bytes) -> str:
        return hashlib.sha256(data).hexdigest()

    assert (digest("\n".join(lines).encode()), digest(bytes(uplink)),
            digest(repr(sorted(net.nodes.items())).encode())) == (
        DROP_RUN_TRACE, DROP_RUN_UPLINK, DROP_RUN_NODES)
