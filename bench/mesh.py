"""mesh-ref: the SimNetwork tick loop on the ten-node reference network.

Every node samples every tick (sample_period=1), so each tick carries the same
number of readings. A seeded switch command arrives from the uplink every 50
ticks and a seeded Contact-ID alarm is raised every 100 ticks. Every uplink
datagram goes through wire.encode_datagram and StreamDecoder.feed in-process,
as the coordinator's link would. Each rep is a fresh network of fixed length,
so the trace, which grows by one line per event, stays small.
"""

from __future__ import annotations

import hashlib
import os
import struct
import time

from common import HostSpeed, Pass, contact_id, median, stream

SIZES = {
    "full": {"ticks": 500, "command_every": 50, "alarm_every": 100},
    "tiny": {"ticks": 100, "command_every": 50, "alarm_every": 100},
}
RADIUS = 5.0
SETTLE = 20  # ticks an operation may still be in flight when a rep ends
READING = struct.Struct(">QH")
REP = 5


def run_rep(hm, topology_path: str, rep_seed: int, rng, cfg, outcome, check_digest):
    netmodel, simnet, wire = hm["netmodel"], hm["simnet"], hm["wire"]
    started = time.perf_counter()
    topology = netmodel.load_topology(topology_path)
    net = simnet.SimNetwork(topology, RADIUS, seed=rep_seed, sample_period=1)
    table, messages = net.run_discovery()
    setup = time.perf_counter() - started
    outcome.check(table.cost == topology.table.cost and messages == topology.n,
                  "discovery did not reproduce the reference table")

    ticks = cfg["ticks"]
    sensors = [v for v in topology.nodes if v != topology.coordinator]
    # commands visit the sensors in a seeded order, so every run sees the same
    # mix of route lengths and the round-trip median cannot flip between them
    order = sorted(sensors, key=lambda v: rng.next_u64())
    commands, alarms, uplinks = {}, {}, []
    began, ended = [0.0] * ticks, [0.0] * ticks
    decoder = wire.StreamDecoder()
    encode = wire.encode_datagram
    for tick in range(ticks):
        if tick % cfg["command_every"] == 0:
            seq = len(commands)
            target = order[seq % len(order)]
            opcode = wire.SwitchOpcode.SWITCH_ON if rng.below(2) else wire.SwitchOpcode.SWITCH_OFF
            commands[seq] = (tick, target, opcode)
            net.inject_datagram(wire.Datagram(wire.MsgType.COMMAND, seq, target,
                                              bytes([target, opcode])))
        if tick % cfg["alarm_every"] == cfg["alarm_every"] // 2:
            node = sensors[rng.below(len(sensors))]
            digits = contact_id(rng)
            alarms[(node, digits)] = tick
            net.inject_alarm(node, digits)
        began[tick] = time.perf_counter()
        net.step()
        out = net.drain_uplink()
        if out:
            decoded = decoder.feed(b"".join(encode(d) for d in out))
        ended[tick] = time.perf_counter()
        if out:
            outcome.check(decoded == out, f"tick {tick}: uplink datagrams did not round-trip")
            uplinks.append((tick, out))

    elapsed = ended[-1] - began[0]
    cutoff = ticks - SETTLE
    seen, reading_ms, command_ms, acked, alarmed = {}, [], [], {}, set()
    for tick, datagrams in uplinks:
        for d in datagrams:
            if d.msg_type is wire.MsgType.SENSOR_DATA:
                sampled, _value = READING.unpack(d.payload)
                seen[(d.src_node, sampled)] = seen.get((d.src_node, sampled), 0) + 1
                reading_ms.append((ended[tick] - began[sampled]) * 1e3)
            elif d.msg_type is wire.MsgType.ACK:
                sent, target, opcode = commands[d.seq]
                outcome.check(d.src_node == target and d.seq not in acked,
                              f"command seq {d.seq}: unexpected ACK from node {d.src_node}")
                acked[d.seq] = tick
                command_ms.append((ended[tick] - began[sent]) * 1e3)
            elif d.msg_type is wire.MsgType.ALARM_CID:
                key = (d.src_node, d.payload.decode("ascii"))
                outcome.check(key in alarms and key not in alarmed,
                              f"uplinked alarm {key} was never raised or arrived twice")
                alarmed.add(key)

    readings_due = [(v, t) for t in range(cutoff) for v in sensors]
    commands_due = [seq for seq, (sent, _, _) in commands.items() if sent < cutoff]
    alarms_due = [key for key, raised in alarms.items() if raised < cutoff]
    outcome.attempted += len(readings_due) + len(commands_due) + len(alarms_due)
    outcome.failed += sum(seen.get(key) != 1 for key in readings_due)
    outcome.failed += sum(seq not in acked for seq in commands_due)
    outcome.failed += sum(key not in alarmed for key in alarms_due)
    outcome.check(net.frames_dropped == 0, f"{net.frames_dropped} frames dropped")
    switch = {}
    for seq in sorted(acked):
        _, target, opcode = commands[seq]
        switch[target] = "on" if opcode is wire.SwitchOpcode.SWITCH_ON else "off"
    for target, state in switch.items():
        outcome.check(net.nodes[target].relay_switch.value == state,
                      f"node {target} switch is {net.nodes[target].relay_switch.value},"
                      f" last acknowledged command set {state}")

    digest = None
    if check_digest:
        digest = hashlib.sha256("\n".join(net.trace_lines()).encode()).hexdigest()
    sends = sum(1 for event in net.trace if event[1] == "send")
    counts = {"events": len(net.trace), "frames_dropped": net.frames_dropped, "routes": sends}
    return setup, elapsed, reading_ms, command_ms, counts, digest


def measure(hm, root: str, seed: int, seconds: float, size: str, outcome, expected) -> Pass:
    cfg = SIZES[size]
    topology_path = os.path.join(root, "fixtures", "table1.json")
    setups, reading_ms, command_ms = [], [], []
    ticked = ticking_s = 0
    raw = {"setup": [], "ticking": 0.0, "reading": [], "command": []}
    totals = {"events": 0, "frames_dropped": 0, "routes": 0}
    digest = None
    speed = HostSpeed()
    pass_started = time.perf_counter()
    rep = 0
    while rep == 0 or time.perf_counter() - pass_started < seconds:
        rng = stream(seed, REP, rep)
        setup, elapsed, readings, commands, counts, rep_digest = run_rep(
            hm, topology_path, rng.next_u64(), rng, cfg, outcome, rep == 0)
        scale = speed.factor()
        setups.append(setup * scale)
        ticked += cfg["ticks"]
        ticking_s += elapsed * scale
        reading_ms += [t * scale for t in readings]
        command_ms += [t * scale for t in commands]
        raw["setup"].append(setup)
        raw["ticking"] += elapsed
        raw["reading"] += readings
        raw["command"] += commands
        for key, value in counts.items():
            totals[key] += value
        digest = digest or rep_digest
        rep += 1
    if expected is not None:
        outcome.check(digest == expected, f"trace digest {digest} != recorded {expected}")

    metrics = {
        "setup_s": median(setups),
        "throughput_per_s": ticked / ticking_s,
        "latency_p50_ms": median(reading_ms),
        "request_p50_ms": median(command_ms),
    }
    named = [
        ("setup_s", metrics["setup_s"], "s"),
        ("mesh_ticks_per_s", metrics["throughput_per_s"], "1/s"),
        ("reading_p50_ms", metrics["latency_p50_ms"], "ms"),
        ("command_roundtrip_p50_ms", metrics["request_p50_ms"], "ms"),
        ("raw_setup_s", median(raw["setup"]), "s"),
        ("raw_mesh_ticks_per_s", ticked / raw["ticking"], "1/s"),
        ("raw_reading_p50_ms", median(raw["reading"]), "ms"),
        ("raw_command_roundtrip_p50_ms", median(raw["command"]), "ms"),
    ]
    totals["digest"] = digest
    wall_s = time.perf_counter() - pass_started - speed.probe_s
    return Pass(metrics, named, wall_s, totals, speed.median_ms)
