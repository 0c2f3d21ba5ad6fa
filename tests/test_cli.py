import csv
import json
import logging
import os
import select
import signal
import socket
import subprocess
import sys
import threading
import time

import pytest

from homemesh import cli, monitor, wire
from homemesh.cli import main, run_experiment
from homemesh.errors import InvalidInput
from homemesh.monitor import serve
from homemesh.netmodel import load_topology, topology_from_positions
from homemesh.routing import CountingMode, Route

from conftest import REPO_ROOT, TABLE1_PATH

TABLE1 = str(TABLE1_PATH)
GOLDEN = TABLE1_PATH.parent.parent / "tests" / "golden" / "visits_k5_n1000_seed42.csv"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_route_headline(capsys):
    code, out, _ = run(capsys, "route", "--topology", TABLE1,
                       "--from", "1", "--to", "10", "--k", "5")
    assert code == 0
    assert "path: 1 -> 5 -> 10" in out
    assert "dist: 10" in out
    assert "hops: 2" in out


def test_python_dash_m_runs_the_cli():
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    done = subprocess.run(
        [sys.executable, "-m", "homemesh", "route", "--topology", TABLE1,
         "--from", "1", "--to", "10", "--k", "5"],
        capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == ["path: 1 -> 5 -> 10", "dist: 10", "hops: 2"]


def test_route_oracle_agrees(capsys):
    code, out, _ = run(capsys, "route", "--topology", TABLE1,
                       "--from", "4", "--to", "9", "--k", "5", "--oracle")
    assert code == 0
    assert "path: 4 -> 3 -> 6 -> 9" in out


def test_route_oracle_divergence_is_domain_error(capsys, monkeypatch):
    monkeypatch.setattr(cli, "brute_force_route", lambda table, query: Route((4, 5, 9), 13.0, 2))
    code, out, err = run(capsys, "route", "--topology", TABLE1,
                         "--from", "4", "--to", "9", "--k", "5", "--oracle")
    assert code == 1
    assert out == ""
    assert err == ("divergence: search (4, 3, 6, 9) dist=12 hops=3"
                   " vs enumeration (4, 5, 9) dist=13 hops=2\n")


def test_route_no_path_is_domain_error(capsys):
    code, _, err = run(capsys, "route", "--topology", TABLE1,
                       "--from", "1", "--to", "10", "--k", "1")
    assert code == 1
    assert "no path" in err


def test_route_unknown_node(capsys):
    code, _, err = run(capsys, "route", "--topology", TABLE1,
                       "--from", "1", "--to", "99", "--k", "5")
    assert code == 1
    assert "unknown node" in err


def test_missing_topology_file_is_io_error(capsys):
    code, _, err = run(capsys, "route", "--topology", "/does/not/exist.json",
                       "--from", "1", "--to", "2", "--k", "5")
    assert code == 3


@pytest.mark.parametrize("content, message", [
    (b'{"coordinator": 1, "matrix": [[0]], "name": "\xff"}', "not UTF-8 at byte 45"),
    (b"[" * 100_000 + b"]" * 100_000, "JSON nested too deeply"),
], ids=["not-utf8", "over-nested"])
def test_unreadable_topology_file_is_input_error(tmp_path, capsys, content, message):
    path = tmp_path / "t.json"
    path.write_bytes(content)
    code, out, err = run(capsys, "route", "--topology", str(path),
                         "--from", "1", "--to", "2", "--k", "5")
    assert (code, out) == (1, "")
    assert err == f"error: {path}: {message}\n"


def test_usage_error_exit_code(capsys):
    # simulate without --seed: randomness must be explicit
    code, _, _ = run(capsys, "simulate", "--topology", TABLE1, "--k", "5", "--n", "10")
    assert code == 2


def test_simulate_matches_golden_file(tmp_path, capsys):
    out_path = tmp_path / "visits.csv"
    code, out, _ = run(capsys, "simulate", "--topology", TABLE1, "--k", "5",
                       "--n", "1000", "--seed", "42", "--out", str(out_path))
    assert code == 0
    assert out_path.read_bytes() == GOLDEN.read_bytes()
    assert "top-3 visited (relay-attributable): 3, 5, 7" in out


def test_simulate_zero_transmissions(tmp_path, capsys):
    out_path = tmp_path / "visits.csv"
    code, _, _ = run(capsys, "simulate", "--topology", TABLE1, "--k", "5",
                     "--n", "0", "--seed", "1", "--out", str(out_path))
    assert code == 0
    with open(out_path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["node_id", "simulated_count", "expected_count"]
    assert len(rows) == 11
    assert all(row[1] == "0" for row in rows[1:])


def test_simulate_stable_output_excludes_runtime(tmp_path):
    topology = load_topology(TABLE1)
    first = run_experiment(topology, 5, 200, 9, CountingMode.TRANSMITTERS_ONLY, None)
    second = run_experiment(topology, 5, 200, 9, CountingMode.TRANSMITTERS_ONLY, None)
    assert first.stable_lines() == second.stable_lines()


def test_simulate_builds_one_tree_per_source(tree_calls):
    topology = load_topology(TABLE1)
    run_experiment(topology, 5, 500, 123, CountingMode.TRANSMITTERS_ONLY, None)
    # the profile routes from every node, so every node is a source
    assert sorted(tree_calls) == list(topology.nodes)


def test_simulate_rejects_tiny_topology_and_negative_transmissions():
    with pytest.raises(InvalidInput):
        run_experiment(topology_from_positions([(0.0, 0.0)]), 5, 10, 1,
                       CountingMode.TRANSMITTERS_ONLY, None)
    with pytest.raises(InvalidInput):
        run_experiment(load_topology(TABLE1), 5, -1, 1, CountingMode.TRANSMITTERS_ONLY, None)


def test_profile_top3(capsys):
    code, out, _ = run(capsys, "profile", "--topology", TABLE1, "--k", "5")
    assert code == 0
    assert "top-3 visited (relay-attributable): 3, 5, 7" in out
    assert "node 3: visits=25 relay=16" in out


@pytest.mark.parametrize("mode", [mode.value for mode in CountingMode])
def test_profile_matches_golden_file(capsys, mode):
    code, out, _ = run(capsys, "profile", "--topology", TABLE1, "--k", "5", "--mode", mode)
    assert code == 0
    assert out == (GOLDEN.parent / f"profile_table1_k5_{mode}.txt").read_text()


def test_discover(tmp_path, capsys):
    out_path = tmp_path / "table.json"
    trace_path = tmp_path / "trace.tsv"
    code, out, _ = run(capsys, "discover", "--topology", TABLE1,
                       "--out", str(out_path), "--trace", str(trace_path))
    assert code == 0
    assert "messages: 10" in out
    doc = json.loads(out_path.read_text())
    assert doc["matrix"][4][6] == 5.0  # repaired pair
    lines = trace_path.read_text().splitlines()
    assert len(lines) == 10
    assert lines[0].split("\t")[1] == "discovery-request"


@pytest.mark.parametrize("name", ["table1", "positions5"])
def test_discover_trace_matches_golden_file(tmp_path, capsys, name):
    trace_path = tmp_path / "trace.tsv"
    code, _, _ = run(capsys, "discover", "--topology", str(TABLE1_PATH.parent / f"{name}.json"),
                     "--trace", str(trace_path))
    assert code == 0
    assert trace_path.read_bytes() == \
        (GOLDEN.parent / f"discover_{name}_trace.tsv").read_bytes()


def test_cid_decode(capsys):
    code, out, _ = run(capsys, "cid", "1234181131010158")
    assert code == 0
    assert "event_code: 131" in out
    assert "qualifier: 1 (new event)" in out


def test_cid_checksum(capsys):
    code, out, _ = run(capsys, "cid", "--checksum", "123418113101015")
    assert code == 0
    assert "checksum: 8" in out
    assert "message: 1234181131010158" in out


def test_cid_bad_checksum_is_domain_error(capsys):
    code, _, err = run(capsys, "cid", "1234181131010157")
    assert code == 1
    assert "multiple of 15" in err


def test_cid_no_valid_checksum(capsys):
    code, _, err = run(capsys, "cid", "--checksum", "5" * 15)
    assert code == 1


# --- admin clients against a live service -----------------------------------------


@pytest.fixture
def live_service(tmp_path):
    handle = serve(listen=("127.0.0.1", 0), admin=("127.0.0.1", 0),
                   store_path=tmp_path / "store.log", command_timeout=0.5)
    yield handle
    handle.stop()


def admin_flag(service):
    host, port = service.admin_address
    return f"{host}:{port}"


def test_query_and_snapshot_subcommands(capsys, live_service):
    sock = socket.create_connection(live_service.address, timeout=5)
    sock.sendall(wire.encode_datagram(wire.Datagram(wire.MsgType.SENSOR_DATA, 4, 7, b"\xaa")))
    sock.recv(4096)
    code, out, _ = run(capsys, "query", "--admin", admin_flag(live_service), "--node", "7")
    assert code == 0
    (line,) = out.strip().splitlines()
    record = json.loads(line)
    assert record["node"] == 7 and record["payload"] == "aa"
    code, out, _ = run(capsys, "snapshot", "--admin", admin_flag(live_service))
    assert code == 0
    assert json.loads(out.strip().splitlines()[0])["node"] == 7
    sock.close()


def test_send_command_subcommand_nacked_without_route(capsys, live_service):
    # coordinator session answers NACK to everything, like a k=1 mesh would
    sock = socket.create_connection(live_service.address, timeout=5)
    sock.sendall(wire.encode_datagram(wire.Datagram(wire.MsgType.HEARTBEAT, 0, 1)))
    decoder = wire.StreamDecoder()

    def answer():
        try:
            while True:
                data = sock.recv(4096)
                if not data:
                    return
                for datagram in decoder.feed(data):
                    if datagram.msg_type is wire.MsgType.COMMAND:
                        sock.sendall(wire.encode_datagram(
                            wire.Datagram(wire.MsgType.NACK, datagram.seq, datagram.src_node)))
        except OSError:
            return

    thread = threading.Thread(target=answer, daemon=True)
    thread.start()
    code, out, _ = run(capsys, "send-command", "--admin", admin_flag(live_service),
                       "--target", "10", "--opcode", "on", "--wait", "3")
    assert code == 1
    assert json.loads(out.strip())["state"] == "nacked"
    sock.close()


def test_send_command_subcommand_no_coordinator(capsys, live_service):
    code, _, err = run(capsys, "send-command", "--admin", admin_flag(live_service),
                       "--target", "10", "--opcode", "on")
    assert code == 1
    assert "no coordinator" in err


def test_send_command_subcommand_refused_poll_is_domain_error(capsys, live_service,
                                                             monkeypatch):
    # the coordinator never answers; the timed-out ticket is forgotten at once
    monkeypatch.setattr(monitor, "TICKET_RETENTION", 0)
    sock = socket.create_connection(live_service.address, timeout=5)
    sock.sendall(wire.encode_datagram(wire.Datagram(wire.MsgType.HEARTBEAT, 0, 1)))
    sock.recv(4096)
    code, out, err = run(capsys, "send-command", "--admin", admin_flag(live_service),
                         "--target", "10", "--opcode", "on", "--wait", "3")
    sock.close()
    assert (code, out, err) == (1, "", "error: unknown ticket id 1\n")


def test_serve_rejects_a_malformed_address(capsys):
    code, _, err = run(capsys, "serve", "--listen", "nonsense")
    assert code == 2
    assert "expected HOST:PORT, got 'nonsense'" in err


@pytest.mark.parametrize("argv", [
    ("serve", "--listen", "127.0.0.1:70000"),
    ("serve", "--admin", "127.0.0.1:65536"),
    ("query", "--admin", "127.0.0.1:99999"),
    ("snapshot", "--admin", "127.0.0.1:70000"),
    ("demo", "--port", "70000"),
    ("demo", "--port", "-1"),
])
def test_ports_outside_0_to_65535_are_usage_errors(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert "expected a port in 0-65535" in err


@pytest.mark.parametrize("command", ["serve", "demo"])
@pytest.mark.parametrize("timeout", ["nan", "inf", "0", "-1", "soon"])
def test_command_timeouts_that_are_not_positive_finite_numbers_are_usage_errors(
        capsys, monkeypatch, command, timeout):
    def refuse(self):
        raise AssertionError("a service started")

    monkeypatch.setattr(monitor.MonitorService, "start", refuse)
    code, out, err = run(capsys, command, "--command-timeout", timeout)
    assert (code, out) == (2, "")
    assert "expected a positive finite number of seconds" in err


@pytest.mark.parametrize("reply", [b"hello\n", b"[1]\n", b"\xff\n"])
def test_an_admin_reply_that_is_not_a_json_object_is_an_io_error(capsys, reply):
    peer = socket.create_server(("127.0.0.1", 0))

    def answer():
        conn, _ = peer.accept()
        with conn:
            conn.recv(4096)
            conn.sendall(reply)

    thread = threading.Thread(target=answer)
    thread.start()
    host, port = peer.getsockname()
    try:
        code, out, err = run(capsys, "snapshot", "--admin", f"{host}:{port}")
    finally:
        thread.join(timeout=5)
        peer.close()
    assert (code, out) == (3, "")
    assert err.startswith("error: admin reply is not a JSON object")


def read_datagrams(sock, decoder, count, timeout=10.0):
    """The next count datagrams the peer sends, each read waited for with select."""
    got = []
    deadline = time.monotonic() + timeout
    while len(got) < count:
        ready = select.select([sock], [], [], max(0.0, deadline - time.monotonic()))[0]
        assert ready, f"{len(got)} of {count} datagrams came"
        data = sock.recv(65536)
        assert data, "serve closed the session"
        got.extend(decoder.feed(data))
    return got


def test_serve_process_ingests_answers_and_exits_on_sigint(tmp_path, capsys, serve_process):
    proc, address, (admin_host, admin_port) = serve_process(tmp_path / "store.log")
    with socket.create_connection(address, timeout=5) as sock:
        sock.sendall(wire.encode_datagram(wire.Datagram(wire.MsgType.HEARTBEAT, 3, 1)))
        replies = read_datagrams(sock, wire.StreamDecoder(), 1)
    assert [(d.msg_type, d.seq) for d in replies] == [(wire.MsgType.ACK, 3)]
    code, out, _ = run(capsys, "query", "--admin", f"{admin_host}:{admin_port}")
    assert code == 0
    (record,) = map(json.loads, out.splitlines())
    assert (record["kind"], record["seq"], record["node"]) == ("heartbeat", 3, 1)
    proc.send_signal(signal.SIGINT)
    assert proc.wait(timeout=10) == 0


def test_serve_process_started_with_sigint_ignored_exits_on_sigint(tmp_path, serve_process):
    store = tmp_path / "store.log"
    proc, address, _ = serve_process(store, sigint_ignored=True)
    with socket.create_connection(address, timeout=5) as sock:
        sock.sendall(wire.encode_datagram(wire.Datagram(wire.MsgType.HEARTBEAT, 3, 1)))
        read_datagrams(sock, wire.StreamDecoder(), 1)
    proc.send_signal(signal.SIGINT)
    assert proc.wait(timeout=10) == 0
    assert (tmp_path / "store.log.cols").is_file()  # stop() closed the store


def test_serve_process_stops_cleanly_on_sigterm(tmp_path, caplog, serve_process):
    store = tmp_path / "store.log"
    proc, address, _ = serve_process(store)
    with socket.create_connection(address, timeout=5) as sock:
        sock.sendall(wire.encode_datagram(wire.Datagram(wire.MsgType.HEARTBEAT, 3, 1)))
        read_datagrams(sock, wire.StreamDecoder(), 1)
    proc.send_signal(signal.SIGTERM)
    assert proc.wait(timeout=10) == 0
    # stop() closed the store, which wrote the column file
    with caplog.at_level(logging.INFO, logger="homemesh.monitor"):
        reopened = monitor.RecordStore(store)
    assert "1 records from the column file" in caplog.text
    assert [r.seq for r in reopened.query()[0]] == [3]
    reopened.close()


def test_serve_process_keeps_every_acked_frame_through_sigkill(tmp_path, serve_process):
    # a chunk's ACKs leave only once its records are written: the OS holds
    # them, so a killed process loses none (no fsync: a power loss could)
    store = tmp_path / "store.log"
    proc, address, _ = serve_process(store)
    chunks = [[wire.Datagram(wire.MsgType.SENSOR_DATA, 60 * c + i, 2 + i % 5, bytes([c, i]))
               for i in range(60)] for c in range(5)]
    chunks[2].insert(40, chunks[2][7])  # a retransmit inside one chunk: ACKed, stored once
    acked = []
    with socket.create_connection(address, timeout=5) as sock:
        decoder = wire.StreamDecoder()
        for chunk in chunks:
            sock.sendall(b"".join(map(wire.encode_datagram, chunk)))
            replies = read_datagrams(sock, decoder, len(chunk))
            assert [(r.msg_type, r.seq) for r in replies] == \
                [(wire.MsgType.ACK, d.seq) for d in chunk]
            acked += chunk
        proc.kill()
        assert proc.wait(timeout=10) == -signal.SIGKILL
    assert not os.path.exists(f"{store}.cols")  # no clean stop wrote one
    reopened = monitor.RecordStore(store)
    stored = [(r.seq, r.src_node, r.payload) for r in reopened.query()[0]]
    reopened.close()
    assert stored == list(dict.fromkeys((d.seq, d.src_node, d.payload) for d in acked))
    assert len(stored) == 300


# --- demo ---------------------------------------------------------------------------


def test_demo_radius_one_is_nacked(tmp_path, capsys):
    code, out, err = run(capsys, "demo", "--k", "1",
                         "--store", str(tmp_path / "demo.log"))
    assert code == 1
    assert "nacked" in out
    assert "demo FAILED" in err


def test_demo_occupied_port(tmp_path, capsys):
    blocker = socket.create_server(("127.0.0.1", 0))
    _, port = blocker.getsockname()
    code, _, err = run(capsys, "demo", "--port", str(port),
                       "--store", str(tmp_path / "demo.log"))
    blocker.close()
    assert code == 3
    assert "cannot start monitor" in err


def test_demo_succeeds(tmp_path, capsys):
    code, out, _ = run(capsys, "demo", "--store", str(tmp_path / "demo.log"))
    assert code == 0
    assert "demo OK" in out
    assert "acked" in out
    assert "event_code=131" in out


def test_demo_twice_on_one_store(tmp_path, capsys):
    store = str(tmp_path / "demo.log")
    first, _, _ = run(capsys, "demo", "--store", store)
    second, out, err = run(capsys, "demo", "--store", store)
    assert (first, second) == (0, 0), err
    assert "demo OK" in out
