"""Command-line entry point.

Subcommands: route, discover, simulate, profile, cid, serve, send-command,
query, snapshot, demo. Exit codes: 0 success, 1 domain error (no path, command
or admin request refused), 2 usage error, 3 I/O or protocol error.
"""

from __future__ import annotations

import argparse
import csv
import json
import select
import signal
import socket
import sys
import time
from dataclasses import dataclass

from . import monitor, wire
from .errors import HomemeshError, InvalidInput
from .netmodel import Topology, load_topology, reference_topology, topology_digest
from .routing import (
    CountingMode,
    RouteQuery,
    Routes,
    VisitStats,
    all_pairs_profile,
    brute_force_route,
    find_optimal_path,
    tally_all_pairs,
    tally_pairs,
)
from .simnet import SimConfig, SimNetwork, draw_pairs, run_discovery, trace_line


def _fmt(value: float) -> str:
    return f"{value:g}"


def _parse_port(text: str) -> int:
    if not text.isdigit() or int(text) > 65535:
        raise argparse.ArgumentTypeError(f"expected a port in 0-65535, got {text!r}")
    return int(text)


def _parse_addr(text: str) -> tuple[str, int]:
    host, _, port = text.rpartition(":")
    if not host or not port.isdigit():
        raise argparse.ArgumentTypeError(f"expected HOST:PORT, got {text!r}")
    return host, _parse_port(port)


def _load(args) -> Topology:
    return load_topology(args.topology)


# --- route / discover ------------------------------------------------------

def cmd_route(args) -> int:
    topology = _load(args)
    query = RouteQuery(args.src, args.dst, args.k)
    route = find_optimal_path(topology.table, query)
    if args.oracle:
        check = brute_force_route(topology.table, query)
        if (check.path, check.dist, check.hops) != (route.path, route.dist, route.hops):
            print(
                f"divergence: search {route.path} dist={_fmt(route.dist)} hops={route.hops}"
                f" vs enumeration {check.path} dist={_fmt(check.dist)} hops={check.hops}",
                file=sys.stderr,
            )
            return 1
    print("path:", " -> ".join(map(str, route.path)))
    print("dist:", _fmt(route.dist))
    print("hops:", route.hops)
    return 0


def cmd_discover(args) -> int:
    topology = _load(args)
    trace: list = []
    root = args.root if args.root is not None else topology.coordinator
    table, messages = run_discovery(topology, root, trace=trace)
    print(f"nodes: {table.n}")
    print(f"messages: {messages}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"matrix": table.as_lists()}, fh)
            fh.write("\n")
        print(f"wrote {args.out}")
    if args.trace:
        with open(args.trace, "w", encoding="utf-8") as fh:
            fh.writelines(trace_line(*event) + "\n" for event in trace)
    return 0


# --- simulate / profile ------------------------------------------------------

@dataclass(frozen=True)
class ExperimentReport:
    """One traffic experiment: simulated counts next to analytic expectations.

    Everything except `runtime` is byte-stable for fixed inputs; runtime is
    display-only.
    """

    topology_digest: str
    radius: float
    seed: int
    mode: CountingMode
    transmissions: int
    stats: VisitStats
    expected: dict[int, float]
    analytic: VisitStats
    runtime: float

    def stable_lines(self) -> list[str]:
        lines = [
            f"topology: {self.topology_digest}",
            f"k={_fmt(self.radius)} seed={self.seed} transmissions={self.transmissions}"
            f" mode={self.mode.value}",
            f"delivered: {self.stats.transmissions} unreachable: {self.stats.unreachable}",
        ]
        for node in sorted(self.stats.counts):
            lines.append(
                f"node {node}: simulated={self.stats.counts[node]}"
                f" expected={self.expected[node]:.6f}"
            )
        top = ", ".join(map(str, self.analytic.top_relays()))
        lines.append(f"top-3 visited (relay-attributable): {top}")
        return lines


def run_experiment(topology: Topology, radius: float, transmissions: int, seed: int,
                   mode: CountingMode, out_path: str | None) -> ExperimentReport:
    """Run seeded traffic plus the analytic profile; optionally emit visits.csv.

    The two are run_traffic and the all-pairs fold on one Routes: the fold
    runs each search state the traffic kept on to its end, and runs each
    missing one once.
    """
    started = time.perf_counter()
    config = SimConfig(radius, transmissions, seed, mode)
    if topology.n < 2:
        raise InvalidInput("traffic needs at least 2 nodes")
    routes = Routes(topology.table, radius)
    stats = tally_pairs(routes, draw_pairs(topology.n, config.transmissions, config.seed),
                        config.mode)
    analytic = tally_all_pairs(routes, config.mode)
    pair_count = topology.n * (topology.n - 1)
    expected = {
        node: transmissions * analytic.counts[node] / pair_count
        for node in topology.nodes
    }
    report = ExperimentReport(
        topology_digest=topology_digest(topology),
        radius=radius,
        seed=seed,
        mode=mode,
        transmissions=transmissions,
        stats=stats,
        expected=expected,
        analytic=analytic,
        runtime=time.perf_counter() - started,
    )
    if out_path:
        with open(out_path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["node_id", "simulated_count", "expected_count"])
            for node in sorted(stats.counts):
                writer.writerow([node, stats.counts[node], f"{expected[node]:.6f}"])
    return report


def cmd_simulate(args) -> int:
    topology = _load(args)
    report = run_experiment(topology, args.k, args.n, args.seed,
                            CountingMode(args.mode), args.out)
    for line in report.stable_lines():
        print(line)
    if args.out:
        print(f"wrote {args.out}")
    print(f"runtime: {report.runtime:.3f}s")
    return 0


def cmd_profile(args) -> int:
    topology = _load(args)
    stats = all_pairs_profile(topology.table, args.k, CountingMode(args.mode))
    print(f"pairs: {stats.transmissions + stats.unreachable}"
          f" delivered: {stats.transmissions} unreachable: {stats.unreachable}")
    for node in sorted(stats.counts):
        print(f"node {node}: visits={stats.counts[node]} relay={stats.relay_counts[node]}")
    print("top-3 visited (relay-attributable):", ", ".join(map(str, stats.top_relays())))
    return 0


# --- cid ----------------------------------------------------------------------

def cmd_cid(args) -> int:
    if args.checksum:
        digit = wire.cid_checksum(args.digits)
        print(f"checksum: {digit}")
        print(f"message: {args.digits}{digit}")
        return 0
    event = wire.decode_cid(args.digits)
    qualifier_names = {1: "new event", 3: "restore", 6: "status report"}
    print(f"account: {event.account}")
    print(f"message_type: {event.message_type}")
    print(f"qualifier: {event.qualifier} ({qualifier_names[event.qualifier]})")
    print(f"event_code: {event.event_code}")
    print(f"partition: {event.partition}")
    print(f"zone: {event.zone}")
    print(f"checksum: {event.checksum}")
    return 0


# --- service and admin clients --------------------------------------------------

def cmd_serve(args) -> int:
    service = monitor.serve(listen=args.listen, admin=args.admin,
                            store_path=args.store, command_timeout=args.command_timeout)
    # a supervisor or a container stop sends SIGTERM: stop cleanly, as on
    # Ctrl-C. SIGINT is mapped too: a process that starts with it ignored, as
    # a background job of a non-interactive shell does, gets no
    # KeyboardInterrupt from Python
    previous = {sig: signal.signal(sig, signal.default_int_handler)
                for sig in (signal.SIGINT, signal.SIGTERM)}
    try:
        host, port = service.address
        admin_host, admin_port = service.admin_address
        print(f"listening on {host}:{port}, admin on {admin_host}:{admin_port}")
        print(f"store: {args.store}", flush=True)  # a supervisor reads the ports from these lines
        while True:
            time.sleep(1)
    except KeyboardInterrupt:
        pass
    finally:
        for sig, handler in previous.items():
            signal.signal(sig, handler)
        service.stop()
    return 0


def _admin_request(addr: tuple[str, int], request: dict, timeout: float = 5.0) -> dict:
    """One admin round trip; a request the service refuses raises HomemeshError."""
    with socket.create_connection(addr, timeout=timeout) as conn:
        conn.sendall(json.dumps(request).encode() + b"\n")
        with conn.makefile("rb") as reader:
            line = reader.readline()
    if not line:
        raise OSError("admin connection closed without a response")
    response = json.loads(line)
    if not response.get("ok"):
        raise HomemeshError(response.get("error"))
    return response


def cmd_send_command(args) -> int:
    ticket = _admin_request(args.admin, {
        "op": "send-command", "target": args.target, "opcode": args.opcode,
    })["ticket"]
    deadline = time.monotonic() + args.wait
    while (monitor.TicketState(ticket["state"]) not in monitor.TERMINAL_STATES
           and time.monotonic() < deadline):
        time.sleep(0.05)
        ticket = _admin_request(args.admin, {"op": "ticket", "id": ticket["ticket_id"]})["ticket"]
    print(json.dumps(ticket))
    return 0 if ticket["state"] == monitor.TicketState.ACKED.value else 1


def cmd_query(args) -> int:
    request = {"op": "query"}
    for key in ("node", "kind", "since", "until", "limit", "cursor"):
        value = getattr(args, key)
        if value is not None:
            request[key] = value
    response = _admin_request(args.admin, request)
    for record in response["records"]:
        print(json.dumps(record))
    if response.get("cursor") is not None:
        print(json.dumps({"cursor": response["cursor"]}))
    return 0


def cmd_snapshot(args) -> int:
    for record in _admin_request(args.admin, {"op": "snapshot"})["records"]:
        print(json.dumps(record))
    return 0


# --- demo ------------------------------------------------------------------------

DEMO_ALARM = "1234181131010158"  # zone 015 burglary, checksum completes mod 15


def _pump(net: SimNetwork, sock: socket.socket, decoder: wire.StreamDecoder,
          ticks: int, until=None) -> bool:
    """Step the mesh while shuttling datagrams over the socket.

    Returns early (True) once `until` is satisfied; False on budget exhausted.
    """
    for _ in range(ticks):
        net.step()
        for datagram in net.drain_uplink():
            sock.sendall(wire.encode_datagram(datagram))
        ready, _, _ = select.select([sock], [], [], 0)
        if ready:
            data = sock.recv(4096)
            for datagram in decoder.feed(data):
                net.inject_datagram(datagram)
        if until is not None:
            if until():
                return True
            time.sleep(0.001)  # let the service catch up
    return until() if until is not None else True


def cmd_demo(args) -> int:
    topology = load_topology(args.topology) if args.topology else reference_topology()
    store_path = args.store or "demo-store.log"
    try:
        service = monitor.serve(listen=("127.0.0.1", args.port), admin=("127.0.0.1", 0),
                                store_path=store_path, command_timeout=args.command_timeout)
    except OSError as exc:
        print(f"demo: cannot start monitor: {exc}", file=sys.stderr)
        return 3
    failures = []
    try:
        # records already in the store belong to earlier runs
        records, _ = service.query_history()
        cursor = records[-1].record_id if records else 0
        net = SimNetwork(topology, args.k, seed=args.seed, sample_period=20)
        table, messages = net.run_discovery()
        ok = table.cost == topology.table.cost and messages == topology.n
        print(f"discovery: {messages} messages, table {'ok' if ok else 'MISMATCH'}")
        if not ok:
            failures.append("discovery mismatch")

        with socket.create_connection(service.address) as sock:
            sock.settimeout(1.0)
            decoder = wire.StreamDecoder()
            sock.sendall(wire.encode_datagram(
                wire.Datagram(wire.MsgType.HEARTBEAT, 0, topology.coordinator)))
            # its ACK shows the service has registered the session
            while True:
                data = sock.recv(4096)
                if not data:
                    raise OSError("monitor closed the coordinator session")
                if decoder.feed(data):
                    break

            def readings_seen():
                records, _ = service.query_history(kind=monitor.RecordKind.READING,
                                                   limit=1, cursor=cursor)
                return bool(records)

            _pump(net, sock, decoder, args.ticks, until=readings_seen)
            count = len(service.query_history(kind=monitor.RecordKind.READING,
                                              cursor=cursor)[0])
            print(f"readings ingested: {count}")
            if count == 0:
                failures.append("no readings ingested")

            ticket = service.dispatch_command(args.target, wire.SwitchOpcode.SWITCH_ON)
            _pump(net, sock, decoder, args.ticks,
                  until=lambda: ticket.state in monitor.TERMINAL_STATES)
            if ticket.state is monitor.TicketState.ACKED:
                route = net.routes.path(topology.coordinator, args.target)
                print(f"command route: {'-'.join(map(str, route))}")
            print(f"switch command to node {args.target}: {ticket.state.value}")
            if ticket.state is not monitor.TicketState.ACKED:
                failures.append(f"command {ticket.state.value}")
            elif args.target in net.nodes and net.nodes[args.target].relay_switch.value != "on":
                failures.append("switch did not turn on")

            net.inject_alarm(args.alarm_node, DEMO_ALARM)

            def alarm_parsed():
                records, _ = service.query_history(kind=monitor.RecordKind.ALARM, cursor=cursor)
                return any(r.cid is not None for r in records)

            _pump(net, sock, decoder, args.ticks, until=alarm_parsed)
            alarms, _ = service.query_history(kind=monitor.RecordKind.ALARM, cursor=cursor)
            parsed = [r for r in alarms if r.cid is not None]
            if parsed:
                print(f"alarm ingested: event_code={parsed[0].cid.event_code}"
                      f" zone={parsed[0].cid.zone}")
            else:
                failures.append("no parsed alarm record")
                print("alarm ingested: none")
    finally:
        service.stop()
    if failures:
        print("demo FAILED: " + "; ".join(failures), file=sys.stderr)
        return 1
    print("demo OK")
    return 0


# --- parser -------------------------------------------------------------------

def _add_admin(p: argparse.ArgumentParser) -> None:
    p.add_argument("--admin", type=_parse_addr, default=monitor.DEFAULT_ADMIN,
                   metavar="HOST:PORT")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="homemesh",
                                     description="smart-home sensor mesh emulator")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("route", help="optimal path between two nodes")
    p.add_argument("--topology", required=True)
    p.add_argument("--from", dest="src", type=int, required=True, metavar="NODE")
    p.add_argument("--to", dest="dst", type=int, required=True, metavar="NODE")
    p.add_argument("--k", type=float, required=True, help="transmission radius")
    p.add_argument("--oracle", action="store_true",
                   help="cross-check against exhaustive enumeration")
    p.set_defaults(func=cmd_route)

    p = sub.add_parser("discover", help="run the distance-table discovery protocol")
    p.add_argument("--topology", required=True)
    p.add_argument("--root", type=int, default=None)
    p.add_argument("--out", help="write the discovered table as JSON")
    p.add_argument("--trace", help="write the event trace")
    p.set_defaults(func=cmd_discover)

    p = sub.add_parser("simulate", help="seeded random traffic with visit statistics")
    p.add_argument("--topology", required=True)
    p.add_argument("--k", type=float, required=True, help="transmission radius")
    p.add_argument("--n", type=int, required=True, help="number of transmissions")
    p.add_argument("--seed", type=int, required=True,
                   help="generator seed (required: no hidden entropy)")
    p.add_argument("--mode", choices=[m.value for m in CountingMode],
                   default=CountingMode.TRANSMITTERS_ONLY.value)
    p.add_argument("--out", default="visits.csv", help="CSV output path")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("profile", help="analytic all-pairs visit profile")
    p.add_argument("--topology", required=True)
    p.add_argument("--k", type=float, required=True, help="transmission radius")
    p.add_argument("--mode", choices=[m.value for m in CountingMode],
                   default=CountingMode.TRANSMITTERS_ONLY.value)
    p.set_defaults(func=cmd_profile)

    p = sub.add_parser("cid", help="decode a Contact-ID message or compute its checksum")
    p.add_argument("digits")
    p.add_argument("--checksum", action="store_true",
                   help="treat input as 15 digits and print the completing checksum")
    p.set_defaults(func=cmd_cid)

    p = sub.add_parser("serve", help="run the monitoring-center service")
    p.add_argument("--listen", type=_parse_addr, default=monitor.DEFAULT_LISTEN,
                   metavar="HOST:PORT")
    _add_admin(p)
    p.add_argument("--store", default="monitor-store.log")
    p.add_argument("--command-timeout", type=float, default=monitor.DEFAULT_COMMAND_TIMEOUT)
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser("send-command", help="dispatch a switch command via a running service")
    _add_admin(p)
    p.add_argument("--target", type=int, required=True)
    p.add_argument("--opcode", choices=list(monitor.OPCODE_NAMES), required=True)
    p.add_argument("--wait", type=float, default=6.0,
                   help="seconds to wait for the ticket to settle")
    p.set_defaults(func=cmd_send_command)

    p = sub.add_parser("query", help="query history records from a running service")
    _add_admin(p)
    p.add_argument("--node", type=int, default=None)
    p.add_argument("--kind", choices=[k.value for k in monitor.RecordKind], default=None)
    p.add_argument("--since", type=int, default=None, help="ns timestamp lower bound")
    p.add_argument("--until", type=int, default=None, help="ns timestamp upper bound")
    p.add_argument("--limit", type=int, default=None)
    p.add_argument("--cursor", type=int, default=None)
    p.set_defaults(func=cmd_query)

    p = sub.add_parser("snapshot", help="latest record per node from a running service")
    _add_admin(p)
    p.set_defaults(func=cmd_snapshot)

    p = sub.add_parser("demo", help="end-to-end run: mesh, coordinator, service, alarm")
    p.add_argument("--topology", default=None,
                   help="topology JSON (default: built-in ten-node reference)")
    p.add_argument("--k", type=float, default=5.0, help="transmission radius")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--ticks", type=int, default=300, help="tick budget per stage")
    p.add_argument("--target", type=int, default=10, help="switch command target node")
    p.add_argument("--alarm-node", type=int, default=7)
    p.add_argument("--port", type=_parse_port, default=0, help="monitor port (0 = ephemeral)")
    p.add_argument("--store", default=None)
    p.add_argument("--command-timeout", type=float, default=monitor.DEFAULT_COMMAND_TIMEOUT)
    p.set_defaults(func=cmd_demo)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except (wire.ProtocolError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except HomemeshError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
