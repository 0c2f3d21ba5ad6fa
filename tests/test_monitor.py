import json
import socket
import time

import pytest

from homemesh import wire
from homemesh.errors import InvalidInput, NoCoordinator
from homemesh.monitor import (
    MonitorService,
    RecordKind,
    RecordStore,
    TicketState,
    serve,
)

VALID_CID = b"1234181131010158"


@pytest.fixture
def service(tmp_path):
    handle = serve(listen=("127.0.0.1", 0), admin=("127.0.0.1", 0),
                   store_path=tmp_path / "store.log", command_timeout=0.5)
    yield handle
    handle.stop()


class Client:
    """A scripted coordinator session for poking the service."""

    def __init__(self, service):
        self.sock = socket.create_connection(service.address, timeout=5)
        self.decoder = wire.StreamDecoder()

    def send(self, datagram):
        self.sock.sendall(wire.encode_datagram(datagram))

    def send_raw(self, data):
        self.sock.sendall(data)

    def recv(self, count=1, timeout=5.0):
        got = []
        deadline = time.monotonic() + timeout
        while len(got) < count:
            self.sock.settimeout(max(0.01, deadline - time.monotonic()))
            data = self.sock.recv(4096)
            if not data:
                break
            got.extend(self.decoder.feed(data))
        return got

    def closed_by_peer(self, timeout=5.0):
        self.sock.settimeout(timeout)
        try:
            return self.sock.recv(4096) == b""
        except OSError:
            return True

    def close(self):
        self.sock.close()


def admin(service, request):
    with socket.create_connection(service.admin_address, timeout=5) as sock:
        sock.sendall(json.dumps(request).encode() + b"\n")
        with sock.makefile("rb") as reader:
            return json.loads(reader.readline())


def wait_for(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.01)
    return predicate()


# --- store unit tests ----------------------------------------------------------


def test_store_append_and_query(tmp_path):
    store = RecordStore(tmp_path / "s.log")
    record, created = store.append(1, wire.Datagram(wire.MsgType.SENSOR_DATA, 7, 3, b"x"))
    assert created
    assert record.kind is RecordKind.READING
    assert record.src_node == 3
    records, cursor = store.query()
    assert records == [record]
    assert cursor is None
    store.close()


def test_store_deduplicates(tmp_path):
    store = RecordStore(tmp_path / "s.log")
    d = wire.Datagram(wire.MsgType.SENSOR_DATA, 7, 3, b"x")
    first, created_first = store.append(1, d)
    second, created_second = store.append(1, d)
    assert created_first and not created_second
    assert first is second
    assert len(store.query()[0]) == 1
    # same seq but different payload is a distinct record (wraparound tolerance)
    store.append(1, wire.Datagram(wire.MsgType.SENSOR_DATA, 7, 3, b"y"))
    assert len(store.query()[0]) == 2
    # same bytes from another coordinator is distinct too
    store.append(2, d)
    assert len(store.query()[0]) == 3
    store.close()


def test_store_filters(tmp_path):
    store = RecordStore(tmp_path / "s.log")
    for seq in range(10):
        node = 7 if seq % 2 == 0 else 8
        store.append(1, wire.Datagram(wire.MsgType.SENSOR_DATA, seq, node, bytes([seq])))
    store.append(1, wire.Datagram(wire.MsgType.ALARM_CID, 100, 7, VALID_CID))
    from_seven, _ = store.query(src_node=7)
    assert all(r.src_node == 7 for r in from_seven)
    assert len(from_seven) == 6
    alarms, _ = store.query(kind=RecordKind.ALARM)
    assert len(alarms) == 1
    assert alarms[0].cid.event_code == "131"
    store.close()


def test_store_time_range(tmp_path):
    store = RecordStore(tmp_path / "s.log")
    for seq in range(5):
        store.append(1, wire.Datagram(wire.MsgType.HEARTBEAT, seq, 1), received_at=1000 + seq)
    middle, _ = store.query(since=1001, until=1003)
    assert [r.received_at for r in middle] == [1001, 1002, 1003]
    store.close()


def test_store_pagination(tmp_path):
    store = RecordStore(tmp_path / "s.log")
    for seq in range(25):
        store.append(1, wire.Datagram(wire.MsgType.SENSOR_DATA, seq, 2, bytes([seq])))
    page1, cursor1 = store.query(limit=10)
    assert len(page1) == 10 and cursor1 == page1[-1].record_id
    page2, cursor2 = store.query(limit=10, cursor=cursor1)
    assert len(page2) == 10 and cursor2 == page2[-1].record_id
    page3, cursor3 = store.query(limit=10, cursor=cursor2)
    assert len(page3) == 5 and cursor3 is None
    ids = [r.record_id for r in page1 + page2 + page3]
    assert ids == sorted(ids) and len(set(ids)) == 25
    store.close()


def test_store_query_validation(tmp_path):
    store = RecordStore(tmp_path / "s.log")
    with pytest.raises(InvalidInput):
        store.query(limit=-1)
    with pytest.raises(InvalidInput):
        store.query(kind="reading")
    store.close()


def test_store_snapshot_latest_wins(tmp_path):
    store = RecordStore(tmp_path / "s.log")
    store.append(1, wire.Datagram(wire.MsgType.SENSOR_DATA, 1, 7, b"old"), received_at=5)
    store.append(1, wire.Datagram(wire.MsgType.ALARM_CID, 2, 7, VALID_CID), received_at=9)
    snapshot = store.snapshot()
    assert snapshot[(1, 7)].kind is RecordKind.ALARM
    assert snapshot[(1, 7)].received_at == 9
    store.close()


def test_store_restart_preserves_records(tmp_path):
    path = tmp_path / "s.log"
    store = RecordStore(path)
    store.append(3, wire.Datagram(wire.MsgType.ALARM_CID, 9, 4, VALID_CID), received_at=77)
    store.append(3, wire.Datagram(wire.MsgType.SENSOR_DATA, 10, 4, b"z"), received_at=78)
    store.close()
    reopened = RecordStore(path)
    records, _ = reopened.query()
    assert len(records) == 2
    assert records[0].cid.zone == "015"
    assert records[0].coordinator_id == 3
    assert records[0].received_at == 77
    # dedupe index survives the restart as well
    _, created = reopened.append(3, wire.Datagram(wire.MsgType.SENSOR_DATA, 10, 4, b"z"))
    assert not created
    reopened.close()


def test_store_dedup_window_survives_seq_wrap(tmp_path):
    store = RecordStore(tmp_path / "s.log")
    for i in range(70_000):
        _, created = store.append(1, wire.Datagram(wire.MsgType.HEARTBEAT, i & 0xFFFF, 1),
                                  received_at=i)
        assert created, f"heartbeat {i} was not stored"
    # an immediate retransmit is still a duplicate
    _, created = store.append(1, wire.Datagram(wire.MsgType.HEARTBEAT, 69_999 & 0xFFFF, 1))
    assert not created
    assert len(store.query()[0]) == 70_000
    store.close()


def test_store_truncates_torn_tail(tmp_path):
    path = tmp_path / "s.log"
    store = RecordStore(path)
    store.append(1, wire.Datagram(wire.MsgType.HEARTBEAT, 0, 1))
    store.close()
    with open(path, "ab") as fh:
        fh.write(b"\x00\x01\x02garbage")
    reopened = RecordStore(path)
    assert len(reopened.query()[0]) == 1
    record, created = reopened.append(1, wire.Datagram(wire.MsgType.HEARTBEAT, 1, 1))
    assert created
    reopened.close()
    final = RecordStore(path)
    assert len(final.query()[0]) == 2
    final.close()


# --- live service ------------------------------------------------------------------


def test_heartbeat_smoke(service):
    client = Client(service)
    client.send(wire.Datagram(wire.MsgType.HEARTBEAT, 3, 1))
    (reply,) = client.recv()
    assert reply.msg_type is wire.MsgType.ACK
    assert reply.seq == 3
    records, _ = service.query_history(kind=RecordKind.HEARTBEAT)
    assert len(records) == 1
    client.close()


def test_ack_echoes_seq_and_persists(service):
    client = Client(service)
    client.send(wire.Datagram(wire.MsgType.SENSOR_DATA, 7, 4, b"abc"))
    (reply,) = client.recv()
    assert (reply.msg_type, reply.seq) == (wire.MsgType.ACK, 7)
    records, _ = service.query_history(kind=RecordKind.READING)
    assert len(records) == 1 and records[0].payload == b"abc"
    client.close()


def test_two_coordinators_have_distinct_ids(service):
    first, second = Client(service), Client(service)
    first.send(wire.Datagram(wire.MsgType.SENSOR_DATA, 1, 2, b"one"))
    first.recv()
    second.send(wire.Datagram(wire.MsgType.SENSOR_DATA, 1, 2, b"two"))
    second.recv()
    records, _ = service.query_history()
    assert len(records) == 2
    assert len({r.coordinator_id for r in records}) == 2
    first.close()
    second.close()


def test_garbage_session_is_isolated(service):
    good, bad = Client(service), Client(service)
    bad.send_raw(b"\xde\xad\xbe\xef not a frame, not even close......")
    assert bad.closed_by_peer()
    good.send(wire.Datagram(wire.MsgType.SENSOR_DATA, 2, 9, b"fine"))
    (reply,) = good.recv()
    assert reply.msg_type is wire.MsgType.ACK
    assert len(service.query_history()[0]) == 1
    good.close()
    bad.close()


def test_duplicate_frames_acked_but_stored_once(service):
    client = Client(service)
    d = wire.Datagram(wire.MsgType.SENSOR_DATA, 11, 5, b"dup")
    client.send(d)
    client.send(d)
    replies = client.recv(count=2)
    assert [r.msg_type for r in replies] == [wire.MsgType.ACK, wire.MsgType.ACK]
    assert len(service.query_history()[0]) == 1
    client.close()


def test_alarm_decoded_and_stored(service):
    client = Client(service)
    client.send(wire.Datagram(wire.MsgType.ALARM_CID, 1, 7, VALID_CID))
    (reply,) = client.recv()
    assert reply.msg_type is wire.MsgType.ACK
    records, _ = service.query_history(kind=RecordKind.ALARM)
    assert records[0].cid.event_code == "131"
    assert records[0].cid_error is None
    client.close()


def test_bad_alarm_nacked_but_stored_raw(service):
    client = Client(service)
    client.send(wire.Datagram(wire.MsgType.ALARM_CID, 2, 7, b"1234181131010157"))
    (reply,) = client.recv()
    assert reply.msg_type is wire.MsgType.NACK
    records, _ = service.query_history(kind=RecordKind.ALARM)
    assert records[0].cid is None
    assert records[0].cid_error
    assert records[0].payload == b"1234181131010157"
    client.close()


def test_dispatch_without_coordinator(service):
    with pytest.raises(NoCoordinator):
        service.dispatch_command(10, wire.SwitchOpcode.SWITCH_ON)


def test_dispatch_acked(service):
    client = Client(service)
    client.send(wire.Datagram(wire.MsgType.HEARTBEAT, 0, 1))
    client.recv()
    ticket = service.dispatch_command(10, wire.SwitchOpcode.SWITCH_ON)
    assert ticket.state in (TicketState.QUEUED, TicketState.SENT)
    (command,) = client.recv()
    assert command.msg_type is wire.MsgType.COMMAND
    assert wire.decode_command_payload(command.payload) == (10, wire.SwitchOpcode.SWITCH_ON)
    client.send(wire.Datagram(wire.MsgType.ACK, command.seq, 10))
    assert wait_for(lambda: ticket.state is TicketState.ACKED)
    client.close()


def test_dispatch_nacked(service):
    client = Client(service)
    client.send(wire.Datagram(wire.MsgType.HEARTBEAT, 0, 1))
    client.recv()
    ticket = service.dispatch_command(10, wire.SwitchOpcode.SWITCH_ON)
    (command,) = client.recv()
    client.send(wire.Datagram(wire.MsgType.NACK, command.seq, 10))
    assert wait_for(lambda: ticket.state is TicketState.NACKED)
    client.close()


def test_dispatch_times_out(service):
    client = Client(service)
    client.send(wire.Datagram(wire.MsgType.HEARTBEAT, 0, 1))
    client.recv()
    ticket = service.dispatch_command(10, wire.SwitchOpcode.SWITCH_ON)
    client.recv()  # swallow the COMMAND, never answer
    assert wait_for(lambda: ticket.state is TicketState.TIMED_OUT, timeout=3)
    client.close()


def test_timed_out_command_clears_pending(tmp_path):
    handle = serve(listen=("127.0.0.1", 0), admin=("127.0.0.1", 0),
                   store_path=tmp_path / "store.log", command_timeout=0.2)
    try:
        client = Client(handle)
        client.send(wire.Datagram(wire.MsgType.HEARTBEAT, 0, 1))
        client.recv()
        (session,) = handle._sessions.values()
        ticket = handle.dispatch_command(10, wire.SwitchOpcode.SWITCH_ON)
        (command,) = client.recv()
        assert wait_for(lambda: ticket.state is TicketState.TIMED_OUT, timeout=3)
        assert session.pending == {}
        # a late ACK finds no pending entry; the heartbeat's ACK shows it was read
        client.send(wire.Datagram(wire.MsgType.ACK, command.seq, 10))
        client.send(wire.Datagram(wire.MsgType.HEARTBEAT, 1, 1))
        client.recv()
        assert ticket.state is TicketState.TIMED_OUT
        client.close()
    finally:
        handle.stop()


def test_ticket_never_moves_backward(service):
    client = Client(service)
    client.send(wire.Datagram(wire.MsgType.HEARTBEAT, 0, 1))
    client.recv()
    ticket = service.dispatch_command(10, wire.SwitchOpcode.SWITCH_ON)
    (command,) = client.recv()
    client.send(wire.Datagram(wire.MsgType.ACK, command.seq, 10))
    assert wait_for(lambda: ticket.state is TicketState.ACKED)
    # a late NACK for the same seq is ignored (seq already resolved)
    client.send(wire.Datagram(wire.MsgType.NACK, command.seq, 10))
    time.sleep(0.1)
    assert ticket.state is TicketState.ACKED
    # and the timeout timer cannot demote a terminal ticket
    time.sleep(0.6)
    assert ticket.state is TicketState.ACKED
    client.close()


def test_ack_for_unknown_seq_ignored(service):
    client = Client(service)
    client.send(wire.Datagram(wire.MsgType.ACK, 4242, 9))
    client.send(wire.Datagram(wire.MsgType.HEARTBEAT, 1, 1))
    (reply,) = client.recv()
    assert reply.msg_type is wire.MsgType.ACK  # service is still healthy
    client.close()


def test_durability_across_service_restart(tmp_path):
    path = tmp_path / "store.log"
    handle = serve(listen=("127.0.0.1", 0), admin=("127.0.0.1", 0), store_path=path)
    client = Client(handle)
    client.send(wire.Datagram(wire.MsgType.SENSOR_DATA, 21, 6, b"persisted"))
    (reply,) = client.recv()
    assert reply.msg_type is wire.MsgType.ACK
    client.close()
    handle.stop()

    reopened = serve(listen=("127.0.0.1", 0), admin=("127.0.0.1", 0), store_path=path)
    try:
        records, _ = reopened.query_history()
        assert len(records) == 1
        assert records[0].payload == b"persisted"
        old_id = records[0].coordinator_id
        fresh = Client(reopened)
        fresh.send(wire.Datagram(wire.MsgType.SENSOR_DATA, 21, 6, b"persisted"))
        fresh.recv()
        records, _ = reopened.query_history()
        # same bytes from a new session is a new record under a fresh id
        assert len(records) == 2
        assert records[1].coordinator_id > old_id
        fresh.close()
    finally:
        reopened.stop()


def test_live_snapshot(service):
    client = Client(service)
    client.send(wire.Datagram(wire.MsgType.SENSOR_DATA, 1, 7, b"t5"))
    client.send(wire.Datagram(wire.MsgType.SENSOR_DATA, 2, 7, b"t9"))
    client.recv(count=2)
    snapshot = service.live_snapshot()
    (key,) = snapshot.keys()
    assert snapshot[key].payload == b"t9"
    client.close()


# --- admin protocol -----------------------------------------------------------------


def test_admin_query_and_snapshot(service):
    client = Client(service)
    client.send(wire.Datagram(wire.MsgType.SENSOR_DATA, 5, 7, b"\x01\x02"))
    client.send(wire.Datagram(wire.MsgType.SENSOR_DATA, 6, 8, b"\x03"))
    client.recv(count=2)
    response = admin(service, {"op": "query", "node": 7})
    assert response["ok"]
    assert len(response["records"]) == 1
    assert response["records"][0]["payload"] == "0102"
    snapshot = admin(service, {"op": "snapshot"})
    assert {r["node"] for r in snapshot["records"]} == {7, 8}
    limited = admin(service, {"op": "query", "limit": 1})
    assert limited["cursor"] is not None
    rest = admin(service, {"op": "query", "limit": 10, "cursor": limited["cursor"]})
    assert len(rest["records"]) == 1
    client.close()


def test_admin_send_command_and_ticket(service):
    client = Client(service)
    client.send(wire.Datagram(wire.MsgType.HEARTBEAT, 0, 1))
    client.recv()
    response = admin(service, {"op": "send-command", "target": 10, "opcode": "on"})
    assert response["ok"]
    ticket_id = response["ticket"]["ticket_id"]
    (command,) = client.recv()
    client.send(wire.Datagram(wire.MsgType.ACK, command.seq, 10))
    assert wait_for(
        lambda: admin(service, {"op": "ticket", "id": ticket_id})["ticket"]["state"] == "acked"
    )
    client.close()


def test_admin_errors(service):
    assert admin(service, {"op": "nope"})["ok"] is False
    assert admin(service, {"op": "send-command", "target": 10, "opcode": "sideways"})["ok"] is False
    no_coordinator = admin(service, {"op": "send-command", "target": 10, "opcode": "on"})
    assert no_coordinator["ok"] is False and no_coordinator.get("no_coordinator")
    assert admin(service, {"op": "query", "limit": -3})["ok"] is False


def test_discovery_report_acked_but_not_stored(service):
    client = Client(service)
    client.send(wire.Datagram(wire.MsgType.DISCOVERY_REPORT, 4, 1, b"{}"))
    (reply,) = client.recv()
    assert reply.msg_type is wire.MsgType.ACK
    assert reply.seq == 4
    assert len(service.query_history()[0]) == 0
    client.close()


def test_unexpected_command_from_session_is_nacked(service):
    client = Client(service)
    client.send(wire.Datagram(wire.MsgType.COMMAND, 9, 10, b"\x0a\x01"))
    (reply,) = client.recv()
    assert reply.msg_type is wire.MsgType.NACK
    assert len(service.query_history()[0]) == 0
    client.close()


def test_concurrent_ingest_query_dispatch(service):
    import threading

    clients = [Client(service) for _ in range(4)]
    for client in clients:
        client.send(wire.Datagram(wire.MsgType.HEARTBEAT, 0xFFFF, 1))
    for client in clients:
        client.recv()
    errors = []

    def ingest(client, base):
        # the dispatched COMMAND may land on one of these sessions too; only
        # the 50 ACKs matter here
        try:
            for seq in range(50):
                client.send(wire.Datagram(wire.MsgType.SENSOR_DATA, seq,
                                          base, bytes([seq % 256])))
            acks = []
            deadline = time.monotonic() + 10
            while len(acks) < 50 and time.monotonic() < deadline:
                acks.extend(d for d in client.recv(count=1, timeout=1)
                            if d.msg_type is wire.MsgType.ACK)
            assert len(acks) == 50
        except Exception as exc:  # noqa: BLE001 - surface to the main thread
            errors.append(exc)

    def interrogate():
        try:
            for _ in range(30):
                service.query_history(limit=5)
                service.live_snapshot()
        except Exception as exc:  # noqa: BLE001
            errors.append(exc)

    threads = [threading.Thread(target=ingest, args=(client, index + 2))
               for index, client in enumerate(clients)]
    threads.append(threading.Thread(target=interrogate))
    for thread in threads:
        thread.start()
    ticket = service.dispatch_command(10, wire.SwitchOpcode.SWITCH_ON)
    for thread in threads:
        thread.join(timeout=15)
    assert not errors
    records, _ = service.query_history(kind=RecordKind.READING)
    assert len(records) == 4 * 50
    assert {r.src_node for r in records} == {2, 3, 4, 5}
    assert len({r.record_id for r in records}) == 200
    assert wait_for(lambda: ticket.state is not TicketState.QUEUED)
    for client in clients:
        client.close()


def test_occupied_port_fails_cleanly(tmp_path, service):
    host, port = service.address
    blocked = MonitorService(listen=(host, port), admin=("127.0.0.1", 0),
                             store_path=tmp_path / "other.log")
    with pytest.raises(OSError):
        blocked.start()


def test_thread_count_independent_of_connections(tmp_path):
    import threading

    before = threading.active_count()
    handle = serve(listen=("127.0.0.1", 0), admin=("127.0.0.1", 0),
                   store_path=tmp_path / "store.log", command_timeout=5.0)
    clients, admins = [], []
    try:
        for _ in range(8):
            client = Client(handle)
            client.send(wire.Datagram(wire.MsgType.HEARTBEAT, 0, 1))
            client.recv()
            clients.append(client)
        for _ in range(4):
            sock = socket.create_connection(handle.admin_address, timeout=5)
            sock.sendall(b'{"op": "snapshot"}\n')
            with sock.makefile("rb") as reader:
                assert json.loads(reader.readline())["ok"]
            admins.append(sock)
        tickets = [handle.dispatch_command(10, wire.SwitchOpcode.SWITCH_ON) for _ in range(20)]
        assert all(t.state is TicketState.SENT for t in tickets)
        assert threading.active_count() <= before + 1
    finally:
        for client in clients:
            client.close()
        for sock in admins:
            sock.close()
        handle.stop()


def test_stop_closes_open_connections(tmp_path):
    import threading

    handle = serve(listen=("127.0.0.1", 0), admin=("127.0.0.1", 0),
                   store_path=tmp_path / "store.log")
    client = Client(handle)
    client.send(wire.Datagram(wire.MsgType.HEARTBEAT, 0, 1))
    client.recv()
    admin_sock = socket.create_connection(handle.admin_address, timeout=5)
    admin_sock.sendall(b'{"op": "snapshot"}\n')
    reader = admin_sock.makefile("rb")
    assert json.loads(reader.readline())["ok"]
    stopper = threading.Thread(target=handle.stop)
    stopper.start()
    stopper.join(timeout=5)
    assert not stopper.is_alive()
    client.sock.settimeout(5)
    assert client.sock.recv(4096) == b""
    assert reader.readline() == b""
    reader.close()
    admin_sock.close()
    client.close()
