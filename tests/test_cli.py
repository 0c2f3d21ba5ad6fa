import csv
import json
import socket

import pytest

from homemesh import wire
from homemesh.cli import main, run_experiment
from homemesh.monitor import serve
from homemesh.netmodel import load_topology
from homemesh.routing import CountingMode

from conftest import TABLE1_PATH

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


def test_route_oracle_agrees(capsys):
    code, out, _ = run(capsys, "route", "--topology", TABLE1,
                       "--from", "4", "--to", "9", "--k", "5", "--oracle")
    assert code == 0
    assert "path: 4 -> 3 -> 6 -> 9" in out


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


def test_profile_top3(capsys):
    code, out, _ = run(capsys, "profile", "--topology", TABLE1, "--k", "5")
    assert code == 0
    assert "top-3 visited (relay-attributable): 3, 5, 7" in out
    assert "node 3: visits=25 relay=16" in out


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

    import threading

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
