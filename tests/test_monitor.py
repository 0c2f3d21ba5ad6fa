import asyncio
import dataclasses
import errno
import gc
import json
import logging
import os
import random
import socket
import struct
import tempfile
import threading
import time
import tracemalloc
from collections import OrderedDict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homemesh import monitor, wire
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
    record_id, created = store.append(1, wire.Datagram(wire.MsgType.SENSOR_DATA, 7, 3, b"x"))
    assert created
    record = store.record(record_id)
    assert record.kind is RecordKind.READING
    assert record.src_node == 3
    records, cursor = store.query()
    assert records == [record]
    assert cursor is None
    for missing in (0, record_id + 1):
        with pytest.raises(InvalidInput):
            store.record(missing)
    store.close()


def test_store_deduplicates(tmp_path):
    store = RecordStore(tmp_path / "s.log")
    d = wire.Datagram(wire.MsgType.SENSOR_DATA, 7, 3, b"x")
    first, created_first = store.append(1, d)
    second, created_second = store.append(1, d)
    assert created_first and not created_second
    assert first == second
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


def test_store_received_at_increases_when_the_clock_stalls(tmp_path, monkeypatch):
    monkeypatch.setattr(monitor.time, "time_ns", lambda: 1_000)
    store = RecordStore(tmp_path / "s.log")
    first, _ = store.append(1, wire.Datagram(wire.MsgType.SENSOR_DATA, 1, 3, b"a"))
    second, _ = store.append(1, wire.Datagram(wire.MsgType.SENSOR_DATA, 2, 3, b"b"))
    store.close()
    assert (store.record(first).received_at, store.record(second).received_at) == (1_000, 1_001)


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


@pytest.mark.parametrize("damage", ["short-body", "bad-crc"])
def test_store_replay_truncates_a_damaged_record(tmp_path, damage):
    path = tmp_path / "s.log"
    store = RecordStore(path)
    store.append(1, wire.Datagram(wire.MsgType.HEARTBEAT, 0, 1))
    store.close()
    good_size = path.stat().st_size
    raw = wire.encode_datagram(wire.Datagram(wire.MsgType.SENSOR_DATA, 1, 1, b"abcdef"))
    # the header is whole either way; the body is cut short or its CRC is wrong
    body = raw[:-3] if damage == "short-body" else raw[:-1] + bytes([raw[-1] ^ 0xFF])
    with open(path, "ab") as fh:
        fh.write(monitor.RECORD_HEADER.pack(5, 1, len(raw)) + body)
    reopened = RecordStore(path)
    assert len(reopened.query()[0]) == 1
    assert path.stat().st_size == good_size
    reopened.append(1, wire.Datagram(wire.MsgType.HEARTBEAT, 1, 1))
    reopened.close()
    assert path.stat().st_size == 2 * good_size
    final = RecordStore(path)
    assert [r.seq for r in final.query()[0]] == [0, 1]
    final.close()


def test_store_replay_truncates_a_frame_it_never_stores(tmp_path, caplog):
    path = tmp_path / "s.log"
    store = RecordStore(path)
    store.append(1, wire.Datagram(wire.MsgType.HEARTBEAT, 0, 1))
    store.close()
    good_size = path.stat().st_size
    # a well-formed frame, but of a type the store never writes
    raw = wire.encode_datagram(wire.Datagram(wire.MsgType.ACK, 1, 1))
    with open(path, "ab") as fh:
        fh.write(monitor.RECORD_HEADER.pack(5, 1, len(raw)) + raw)
    with caplog.at_level(logging.WARNING, logger="homemesh.monitor"):
        reopened = RecordStore(path)
    assert f"corrupt record at byte {good_size}" in caplog.text
    assert [r.seq for r in reopened.query()[0]] == [0]
    assert path.stat().st_size == good_size
    reopened.close()


def test_store_refuses_a_frame_that_is_not_a_record(tmp_path):
    path = tmp_path / "s.log"
    store = RecordStore(path)
    with pytest.raises(InvalidInput):
        store.append(1, wire.Datagram(wire.MsgType.ACK, 1, 1))
    store.close()
    assert path.stat().st_size == 0


def store_state(store):
    return (bytes(store._log), [bytes(column) for column in store._columns()],
            dict(store._latest), {key: dict(window) for key, window in store._windows.items()})


@pytest.mark.parametrize("coordinator, d, error", [
    (65_536, wire.Datagram(wire.MsgType.HEARTBEAT, 9, 1), struct.error),
    (1, wire.Datagram(wire.MsgType.NACK, 9, 1), InvalidInput),
], ids=["coordinator-past-16-bits", "not-a-record"])
def test_store_append_that_raises_changes_nothing(tmp_path, coordinator, d, error):
    store = RecordStore(tmp_path / "s.log")
    store.append(1, wire.Datagram(wire.MsgType.HEARTBEAT, 0, 1))
    before = store_state(store)
    with pytest.raises(error):
        store.append(coordinator, d)
    assert store_state(store) == before
    store.close()


class CountingFile:
    """A log file that records the size of each write."""

    def __init__(self, file):
        self.file = file
        self.writes = []

    def write(self, data):
        self.writes.append(len(data))
        return self.file.write(data)

    def __getattr__(self, name):
        return getattr(self.file, name)


def test_store_writes_appended_records_at_flush_in_one_write(tmp_path):
    path = tmp_path / "s.log"
    store = RecordStore(path)
    store._file = CountingFile(store._file)
    for seq in range(3):
        store.append(1, wire.Datagram(wire.MsgType.SENSOR_DATA, seq, 2, bytes([seq])))
    assert path.stat().st_size == 0
    store.flush()
    assert path.read_bytes() == store._log
    assert store._file.writes == [len(store._log)]
    store.flush()  # nothing new to write
    store.append(1, wire.Datagram(wire.MsgType.HEARTBEAT, 3, 2))
    assert store._file.writes == [len(path.read_bytes())]
    store.close()
    assert path.read_bytes() == store._log
    assert len(store._file.writes) == 2


def write_mixed_log(path, count):
    """A log of count seeded records under 4 coordinators, mostly readings."""
    rng = random.Random(15)
    with open(path, "wb") as fh:
        for i in range(count):
            roll = rng.randrange(100)
            if roll < 90:
                d = wire.Datagram(wire.MsgType.SENSOR_DATA, i & 0xFFFF, rng.randrange(2, 52),
                                  rng.randbytes(10))
            elif roll < 98:
                d = wire.Datagram(wire.MsgType.HEARTBEAT, i & 0xFFFF, rng.randrange(2, 52))
            else:
                d = wire.Datagram(wire.MsgType.ALARM_CID, i & 0xFFFF, rng.randrange(2, 52),
                                  VALID_CID)
            raw = wire.encode_datagram(d)
            fh.write(monitor.RECORD_HEADER.pack(i, 1 + i % 4, len(raw)) + raw)


def open_retained(path) -> tuple[RecordStore, int]:
    """The opened store and the bytes the open left allocated."""
    gc.collect()
    tracemalloc.start()
    try:
        store = RecordStore(path)
        gc.collect()
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return store, retained


def test_store_replay_retains_under_100_bytes_per_record(tmp_path):
    path = tmp_path / "s.log"
    count = 20_000
    write_mixed_log(path, count)
    store, retained = open_retained(path)
    assert [r.record_id for r in store.query(cursor=count - 1)[0]] == [count]
    store.close()
    assert retained <= 100 * count, f"{retained / count:.0f} B per record"


def test_store_warm_open_retains_under_100_bytes_per_record(tmp_path, caplog):
    path = tmp_path / "s.log"
    count = 20_000
    write_mixed_log(path, count)
    store, cold = open_retained(path)
    store.close()
    with caplog.at_level(logging.INFO, logger="homemesh.monitor"):
        store, warm = open_retained(path)
    assert f"{count} records from the column file" in caplog.text
    assert [r.record_id for r in store.query(cursor=count - 1)[0]] == [count]
    store.close()
    assert warm <= 100 * count, f"{warm / count:.0f} B per record"
    # the column file's bytes (21 B per record), read whole, are not kept
    assert warm <= cold + 5 * count, f"{(warm - cold) / count:.0f} B per record beyond a replay"


def test_store_live_window_retains_under_300_bytes_per_record(tmp_path):
    # a live window maps each frame's key to a record index, not to a built record
    store = RecordStore(tmp_path / "s.log")
    count = 10_000
    frames = [wire.Datagram(wire.MsgType.SENSOR_DATA, i & 0xFFFF, 2, i.to_bytes(4, "big"))
              for i in range(count)]
    gc.collect()
    tracemalloc.start()
    try:
        for d in frames:
            store.append(1, d)
        gc.collect()
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    _, created = store.append(1, frames[0])
    store.close()
    assert not created
    assert retained <= 300 * count, f"{retained / count:.0f} B per record"


def close_three_heartbeats(path) -> bytes:
    """A store of three records, closed; returns the column file it wrote."""
    store = RecordStore(path)
    for seq in range(3):
        store.append(1, wire.Datagram(wire.MsgType.HEARTBEAT, seq, 1), received_at=seq)
    store.close()
    with open(f"{path}.cols", "rb") as fh:
        return fh.read()


def test_store_open_loads_the_column_file_and_replays_the_tail(tmp_path, caplog):
    path = tmp_path / "s.log"
    close_three_heartbeats(path)
    covered = path.stat().st_size
    raw = wire.encode_datagram(wire.Datagram(wire.MsgType.SENSOR_DATA, 3, 2, b"tail"))
    with open(path, "ab") as fh:
        fh.write(monitor.RECORD_HEADER.pack(3, 2, len(raw)) + raw)
    tail = path.stat().st_size - covered
    with caplog.at_level(logging.INFO, logger="homemesh.monitor"):
        store = RecordStore(path)
    assert f"3 records from the column file, replaying the {tail} log bytes past it" \
        in caplog.text
    assert [(r.coordinator_id, r.seq) for r in store.query()[0]] == [(1, 0), (1, 1), (1, 2), (2, 3)]
    assert store.snapshot()[(2, 2)].payload == b"tail"
    assert store.max_coordinator_id == 2
    store.close()
    caplog.clear()
    with caplog.at_level(logging.INFO, logger="homemesh.monitor"):
        RecordStore(path).close()
    assert "4 records from the column file, replaying the 0 log bytes past it" in caplog.text


def _cut_the_log(path, cols):
    with open(path, "r+b") as fh:
        fh.truncate(path.stat().st_size - 1)


def _restamp_the_first_record(path, cols):
    # the log stays well formed, but its bytes are not those the file describes
    with open(path, "r+b") as fh:
        fh.write(monitor.RECORD_HEADER.pack(99, 1, 0)[:8])


def _flip_a_column_byte(path, cols):
    cols[-1] ^= 0x01
    path.with_name(path.name + ".cols").write_bytes(cols)


def _swap_the_byte_order(path, cols):
    cols[8] = ord(">") if cols[8] == ord("<") else ord("<")
    path.with_name(path.name + ".cols").write_bytes(cols)


def _delete_the_file(path, cols):
    path.with_name(path.name + ".cols").unlink()


def _cut_the_header(path, cols):
    path.with_name(path.name + ".cols").write_bytes(cols[:monitor._COLS_HEADER.size - 1])


def _put_a_directory_there(path, cols):
    _delete_the_file(path, cols)
    path.with_name(path.name + ".cols").mkdir()


@pytest.mark.parametrize("reason, spoil", [
    ("missing", _delete_the_file),
    ("stale", _cut_the_log),
    ("stale", _restamp_the_first_record),
    ("damaged", _flip_a_column_byte),
    ("damaged", _cut_the_header),
    ("damaged", _put_a_directory_there),
    ("foreign", _swap_the_byte_order),
], ids=["missing", "stale-cut", "stale-rewritten", "damaged", "damaged-header", "damaged-directory",
        "foreign"])
def test_store_open_logs_why_it_replays_the_whole_log(tmp_path, caplog, reason, spoil):
    path = tmp_path / "s.log"
    spoil(path, bytearray(close_three_heartbeats(path)))
    valid, replayed = reference_replay(path.read_bytes())
    with caplog.at_level(logging.INFO, logger="homemesh.monitor"):
        store = RecordStore(path)
    assert [m for m in caplog.messages if "column file" in m] == \
        [f"{path}: replaying the whole log, column file {reason}"]
    assert [(r.received_at, r.seq) for r in store.query()[0]] == \
        [(received_at, d.seq) for received_at, _, d in replayed]
    store.close()
    assert path.stat().st_size == valid


def test_store_close_writes_the_column_file_at_most_once(tmp_path, monkeypatch):
    path = tmp_path / "s.log"
    replaced = []
    replace = os.replace
    monkeypatch.setattr(monitor.os, "replace", lambda *a: (replaced.append(a), replace(*a)))
    store = RecordStore(path)
    store.append(1, wire.Datagram(wire.MsgType.HEARTBEAT, 0, 1))
    store.close()
    store.close()
    assert len(replaced) == 1
    # a file that already covers the whole log is not written again
    RecordStore(path).close()
    assert len(replaced) == 1
    store = RecordStore(path)
    store.append(1, wire.Datagram(wire.MsgType.HEARTBEAT, 1, 1))
    store.close()
    assert len(replaced) == 2


def test_store_close_survives_a_column_file_it_cannot_write(tmp_path, monkeypatch, caplog):
    path = tmp_path / "s.log"

    def no_space(*args):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(monitor.os, "replace", no_space)
    store = RecordStore(path)
    store.append(1, wire.Datagram(wire.MsgType.HEARTBEAT, 0, 1))
    with caplog.at_level(logging.WARNING, logger="homemesh.monitor"):
        store.close()
    assert "cannot write the column file" in caplog.text
    assert store._file.closed
    assert sorted(os.listdir(tmp_path)) == ["s.log"]
    monkeypatch.undo()
    reopened = RecordStore(path)
    assert [r.seq for r in reopened.query()[0]] == [0]
    reopened.close()


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


def test_a_bad_frame_after_good_ones_in_one_chunk_leaves_the_chunk_unstored(service):
    client = Client(service)
    frames = [wire.encode_datagram(wire.Datagram(wire.MsgType.SENSOR_DATA, seq, 3, b"ok"))
              for seq in (1, 2, 3)]
    frames[-1] = frames[-1][:-1] + bytes([frames[-1][-1] ^ 0xFF])  # a bad CRC
    client.send_raw(b"".join(frames))
    assert client.closed_by_peer()  # with no reply before the close
    assert service.query_history()[0] == []
    client.close()


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
        (session,) = handle._core._sessions.values()
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


def test_stop_settles_open_tickets(tmp_path):
    handle = serve(listen=("127.0.0.1", 0), admin=("127.0.0.1", 0),
                   store_path=tmp_path / "store.log", command_timeout=0.2)
    try:
        client = Client(handle)
        client.send(wire.Datagram(wire.MsgType.HEARTBEAT, 0, 1))
        client.recv()
        ticket = handle.dispatch_command(10, wire.SwitchOpcode.SWITCH_ON)
        client.recv()  # swallow the COMMAND, never answer
        handle.stop()  # the timeout timer dies with the loop
        assert ticket.state is TicketState.TIMED_OUT
        handle.start()
        assert handle.ticket(ticket.ticket_id).state is TicketState.TIMED_OUT
        client.close()
    finally:
        handle.stop()


def test_disconnect_settles_open_tickets_before_the_timeout(tmp_path):
    handle = serve(listen=("127.0.0.1", 0), admin=("127.0.0.1", 0),
                   store_path=tmp_path / "store.log", command_timeout=60)
    try:
        client = Client(handle)
        client.send(wire.Datagram(wire.MsgType.HEARTBEAT, 0, 1))
        client.recv()
        ticket = handle.dispatch_command(10, wire.SwitchOpcode.SWITCH_ON)
        client.recv()
        client.close()
        assert wait_for(lambda: ticket.state is TicketState.TIMED_OUT)
    finally:
        handle.stop()


def test_finished_tickets_are_bounded(service, monkeypatch):
    monkeypatch.setattr(monitor, "TICKET_RETENTION", 3)
    client = Client(service)
    client.send(wire.Datagram(wire.MsgType.HEARTBEAT, 0, 1))
    client.recv()
    tickets = []
    for _ in range(5):
        tickets.append(service.dispatch_command(10, wire.SwitchOpcode.SWITCH_ON))
        (command,) = client.recv()
        client.send(wire.Datagram(wire.MsgType.ACK, command.seq, 10))
    assert wait_for(lambda: all(t.state is TicketState.ACKED for t in tickets))
    assert len(service._core._tickets) == 3
    assert service.ticket(tickets[-1].ticket_id) is tickets[-1]
    with pytest.raises(InvalidInput):
        service.ticket(tickets[0].ticket_id)
    client.close()


def test_unencodable_command_leaves_no_ticket(service):
    client = Client(service)
    client.send(wire.Datagram(wire.MsgType.HEARTBEAT, 0, 1))
    client.recv()
    with pytest.raises(InvalidInput):
        service.dispatch_command(300, wire.SwitchOpcode.SWITCH_ON)
    assert service._core._tickets == {}
    (session,) = service._core._sessions.values()
    assert session.pending == {}
    client.close()


def test_unknown_opcode_is_invalid_input_and_leaves_no_ticket(service):
    client = Client(service)
    client.send(wire.Datagram(wire.MsgType.HEARTBEAT, 0, 1))
    client.recv()
    with pytest.raises(InvalidInput):
        service.dispatch_command(10, 9)
    assert service._core._tickets == {}
    (session,) = service._core._sessions.values()
    assert session.pending == {}
    client.close()


def test_a_chunk_is_flushed_before_its_replies_are_written(service, monkeypatch):
    store = service._core.store
    events = []
    flush, write = RecordStore.flush, asyncio.StreamWriter.write

    def recording_flush(self):
        flush(self)
        events.append("flush")

    def recording_write(self, data):
        # whether the file holds every record when the replies leave
        events.append(("write", os.path.getsize(store._path) == len(store._log)))
        write(self, data)

    monkeypatch.setattr(RecordStore, "flush", recording_flush)
    monkeypatch.setattr(asyncio.StreamWriter, "write", recording_write)
    client = Client(service)
    frames = [wire.Datagram(wire.MsgType.SENSOR_DATA, seq, 3, b"c") for seq in (1, 2, 1)]
    client.send_raw(b"".join(map(wire.encode_datagram, frames)))
    assert [(r.msg_type, r.seq) for r in client.recv(count=3)] == \
        [(wire.MsgType.ACK, seq) for seq in (1, 2, 1)]
    assert events and events == ["flush", ("write", True)] * (len(events) // 2)
    assert [r.seq for r in service.query_history()[0]] == [1, 2]
    client.close()


class FullDiskFile:
    """A log file whose writes take a few bytes, then fail as a full disk does."""

    def __init__(self, file):
        self.file = file

    def write(self, data):
        self.file.write(bytes(data[:5]))
        raise OSError(errno.ENOSPC, "No space left on device")

    def __getattr__(self, name):
        return getattr(self.file, name)


def test_a_failed_flush_sends_none_of_its_chunks_replies(tmp_path, caplog):
    path = tmp_path / "store.log"
    handle = serve(listen=("127.0.0.1", 0), admin=("127.0.0.1", 0), store_path=path)
    try:
        first = Client(handle)
        first.send(wire.Datagram(wire.MsgType.HEARTBEAT, 0, 1))
        first.recv()
        store = handle._core.store
        flushed = path.read_bytes()
        real = store._file
        handle._on_loop(setattr, store, "_file", FullDiskFile(real))
        with caplog.at_level(logging.ERROR, logger="homemesh.monitor"):
            first.send_raw(b"".join(wire.encode_datagram(wire.Datagram(
                wire.MsgType.HEARTBEAT, seq, 1)) for seq in (1, 2, 3)))
            assert first.closed_by_peer()  # with no reply before the close
        assert "cannot write the log" in caplog.text
        # a crash now leaves the first record and part of the next: replay cuts that part
        crashed = tmp_path / "crashed.log"
        crashed.write_bytes(path.read_bytes())
        assert crashed.read_bytes() == flushed + bytes(store._log[len(flushed):len(flushed) + 5])
        image = RecordStore(crashed)
        assert [r.seq for r in image.query()[0]] == [0]
        image.close()
        # with room again, the next flush cuts the partial write, then writes the rest
        handle._on_loop(setattr, store, "_file", real)
        second = Client(handle)
        second.send(wire.Datagram(wire.MsgType.HEARTBEAT, 4, 1))
        assert [r.msg_type for r in second.recv()] == [wire.MsgType.ACK]
        assert path.read_bytes() == handle._on_loop(bytes, store._log)
        held = handle.query_history()[0]
        assert (held[0].seq, held[-1].seq) == (0, 4)
        first.close()
        second.close()
    finally:
        handle.stop()
    reopened = RecordStore(path)
    assert reopened.query()[0] == held
    reopened.close()


def test_frames_and_admin_commands_go_through_the_service_methods(service, monkeypatch):
    # bench/spans.py times these two class attributes; a path around them reads 0
    calls = {"handle_datagram": 0, "dispatch_command": 0}

    def counting(name):
        method = MonitorService.__dict__[name]

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return method(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(MonitorService, name, counting(name))
    client = Client(service)
    client.send(wire.Datagram(wire.MsgType.HEARTBEAT, 0, 1))
    client.recv()
    reply = admin(service, {"op": "send-command", "target": 10, "opcode": "on"})
    assert reply["ok"] is True
    assert calls == {"handle_datagram": 1, "dispatch_command": 1}
    client.close()


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


def test_admin_query_shows_alarm_cid_and_cid_error(service):
    client = Client(service)
    client.send(wire.Datagram(wire.MsgType.ALARM_CID, 1, 7, VALID_CID))
    client.send(wire.Datagram(wire.MsgType.ALARM_CID, 2, 7, b"1234181131010157"))
    client.recv(count=2)
    decoded, undecodable = admin(service, {"op": "query", "kind": "alarm"})["records"]
    assert decoded["cid"] == {"account": "1234", "message_type": "18", "qualifier": 1,
                              "event_code": "131", "partition": "01", "zone": "015"}
    assert "cid_error" not in decoded
    assert "cid" not in undecodable
    assert undecodable["cid_error"] == service.query_history()[0][1].cid_error
    client.close()


def test_admin_errors(service):
    assert admin(service, {"op": "nope"})["ok"] is False
    assert admin(service, {"op": "send-command", "target": 10, "opcode": "sideways"})["ok"] is False
    no_coordinator = admin(service, {"op": "send-command", "target": 10, "opcode": "on"})
    assert no_coordinator["ok"] is False and no_coordinator.get("no_coordinator")
    assert admin(service, {"op": "query", "limit": -3})["ok"] is False


def test_admin_malformed_requests_keep_the_connection(service, caplog):
    malformed = [
        b"[1]",
        b'{"op": "query", "since": "x"}',
        b'{"op": "query", "limit": true}',
        b'{"op": "ticket", "id": [1]}',
        b'{"op": "send-command", "target": 10, "opcode": [1]}',
        b'{"op": "send-command", "target": "10", "opcode": "on"}',
        b"[" * 50_000,
    ]
    with socket.create_connection(service.admin_address, timeout=5) as sock, \
            sock.makefile("rb") as reader:
        for line in malformed:
            sock.sendall(line + b"\n")
            assert json.loads(reader.readline())["ok"] is False
        sock.sendall(b'{"op": "snapshot"}\n')
        assert json.loads(reader.readline())["ok"] is True
    assert not [r for r in caplog.records if r.levelno >= logging.ERROR]


def test_admin_line_over_the_limit_closes_only_that_connection(service):
    with socket.create_connection(service.admin_address, timeout=5) as other, \
            other.makefile("rb") as other_reader:
        with socket.create_connection(service.admin_address, timeout=5) as flood:
            try:
                flood.sendall(b"x" * (1 << 17) + b"\n")  # twice the reader's 64 KiB limit
                assert flood.recv(4096) == b""
            except ConnectionError:
                pass  # closed with bytes unread: the peer reset the connection
        other.sendall(b'{"op": "snapshot"}\n')
        assert json.loads(other_reader.readline())["ok"] is True
    assert admin(service, {"op": "snapshot"})["ok"] is True


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


def test_stop_after_failed_start(tmp_path, service):
    blocked = MonitorService(listen=service.address, admin=("127.0.0.1", 0),
                             store_path=tmp_path / "other.log")
    with pytest.raises(OSError):
        blocked.start()
    blocked.stop()


def test_stop_twice(tmp_path):
    handle = MonitorService(listen=("127.0.0.1", 0), admin=("127.0.0.1", 0),
                            store_path=tmp_path / "store.log")
    with handle:
        client = Client(handle)
        client.send(wire.Datagram(wire.MsgType.HEARTBEAT, 0, 1))
        client.recv()
        handle.stop()
        assert handle._core._sessions == {}
    handle.stop()
    client.close()


def test_addresses_outlive_stop_and_restart_binds_the_configured_ones(tmp_path):
    handle = serve(listen=("127.0.0.1", 0), admin=("127.0.0.1", 0),
                   store_path=tmp_path / "store.log")
    bound = handle.address, handle.admin_address
    handle.stop()
    assert (handle.address, handle.admin_address) == bound
    handle.start()
    try:
        assert handle.address[1] != 0 and handle.admin_address[1] != 0
        assert admin(handle, {"op": "snapshot"})["ok"] is True
    finally:
        handle.stop()


def test_addresses_after_failed_start(tmp_path, service):
    blocked = MonitorService(listen=("127.0.0.1", 0), admin=service.admin_address,
                             store_path=tmp_path / "other.log")
    with pytest.raises(OSError):
        blocked.start()
    assert blocked.address == ("127.0.0.1", 0)
    assert blocked.admin_address == service.admin_address
    blocked.stop()


def test_with_on_a_running_service_starts_nothing(tmp_path):
    before = set(threading.enumerate())
    handle = serve(listen=("127.0.0.1", 0), admin=("127.0.0.1", 0),
                   store_path=tmp_path / "store.log")
    first = handle.address, handle.admin_address
    with handle as entered:
        assert entered is handle
        assert (handle.address, handle.admin_address) == first
        assert admin(handle, {"op": "snapshot"})["ok"] is True
    assert not [t for t in set(threading.enumerate()) - before if t.name == "monitor-loop"]


def test_peer_that_never_reads_stops_being_read(service):
    stalled = socket.socket()
    # small buffers for the ACKs on both ends, so they back up within a second
    stalled.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
    stalled.settimeout(0.1)
    stalled.connect(service.address)
    assert wait_for(lambda: service._on_loop(lambda: len(service._core._sessions) == 1))

    def shrink_send_buffer():
        (session,) = service._core._sessions.values()
        session.transport.get_extra_info("socket").setsockopt(
            socket.SOL_SOCKET, socket.SO_SNDBUF, 4096)
        return session.transport

    transport = service._on_loop(shrink_send_buffer)
    # retransmits of 1,024 heartbeats: each is ACKed, none is stored twice
    chunk = b"".join(wire.encode_datagram(wire.Datagram(wire.MsgType.HEARTBEAT, seq, 1))
                     for seq in range(1024))
    offset, deadline = 0, time.monotonic() + 10
    while service._on_loop(transport.is_reading):
        assert time.monotonic() < deadline, "the service kept reading a peer that never reads"
        try:
            offset = (offset + stalled.send(chunk[offset:])) % len(chunk)
        except TimeoutError:
            pass
    assert service._on_loop(transport.get_write_buffer_size) < 1 << 20
    healthy = Client(service)
    healthy.send(wire.Datagram(wire.MsgType.HEARTBEAT, 0, 2))
    (reply,) = healthy.recv()
    assert reply.msg_type is wire.MsgType.ACK
    assert not service._on_loop(transport.is_reading)
    healthy.close()
    stalled.close()


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


# --- thread confinement and query oracle ---------------------------------------


def test_store_runs_on_the_loop_thread(service, monkeypatch):
    ran_on = []

    def recording(method):
        def wrapper(*args, **kwargs):
            ran_on.append(threading.current_thread())
            return method(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(service._core.store, "query", recording(service._core.store.query))
    monkeypatch.setattr(service._core.store, "snapshot", recording(service._core.store.snapshot))
    service.query_history(limit=5)
    service.live_snapshot()
    assert ran_on == [service._thread, service._thread]
    assert service._thread is not threading.current_thread()


def test_query_after_stop_answers(tmp_path):
    handle = serve(listen=("127.0.0.1", 0), admin=("127.0.0.1", 0),
                   store_path=tmp_path / "store.log")
    client = Client(handle)
    client.send(wire.Datagram(wire.MsgType.HEARTBEAT, 0, 1))
    client.recv()
    client.close()
    handle.stop()
    answers = []
    reader = threading.Thread(
        target=lambda: answers.append((handle.query_history(), handle.live_snapshot())))
    reader.start()
    reader.join(timeout=5)
    assert not reader.is_alive()
    (records, cursor), snapshot = answers[0]
    assert [r.kind for r in records] == [RecordKind.HEARTBEAT] and cursor is None
    assert list(snapshot.values()) == records


def test_sessions_set_tcp_nodelay(service):
    client = Client(service)
    client.send(wire.Datagram(wire.MsgType.HEARTBEAT, 0, 1))
    client.recv()
    (session,) = service._on_loop(lambda: list(service._core._sessions.values()))
    sock = session.transport.get_extra_info("socket")
    assert sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)
    client.close()


def test_admin_query_limit_zero(service):
    client = Client(service)
    client.send(wire.Datagram(wire.MsgType.HEARTBEAT, 0, 1))
    client.recv()
    client.close()
    assert admin(service, {"op": "query", "limit": 0}) == \
        {"ok": True, "records": [], "cursor": 0}
    assert admin(service, {"op": "query", "limit": 0, "cursor": 1}) == \
        {"ok": True, "records": [], "cursor": None}


_KINDS = [wire.MsgType.SENSOR_DATA, wire.MsgType.ALARM_CID, wire.MsgType.HEARTBEAT]

stored_records = st.lists(
    st.tuples(st.integers(min_value=1, max_value=2),   # coordinator
              st.integers(min_value=1, max_value=4),   # src node
              st.sampled_from(_KINDS),
              st.integers(min_value=0, max_value=20)),  # received_at, not monotone
    max_size=30)

history_queries = st.fixed_dictionaries({
    "src_node": st.none() | st.integers(min_value=1, max_value=5),
    "kind": st.none() | st.sampled_from(list(RecordKind)),
    "since": st.none() | st.integers(min_value=-1, max_value=21),
    "until": st.none() | st.integers(min_value=-1, max_value=21),
    "limit": st.none() | st.integers(min_value=0, max_value=8),
    # before the first record, at 0, inside the store and past its end
    "cursor": st.one_of(st.none(), st.integers(min_value=-5, max_value=-1), st.just(0),
                        st.integers(min_value=1, max_value=35), st.just(10**9)),
})


def naive_query(records, src_node, kind, since, until, limit, cursor):
    matches = [r for r in records
               if (cursor is None or r.record_id > cursor)
               and (src_node is None or r.src_node == src_node)
               and (kind is None or r.kind is kind)
               and (since is None or r.received_at >= since)
               and (until is None or r.received_at <= until)]
    if limit is None or len(matches) <= limit:
        return matches, None
    page = matches[:limit]
    return page, page[-1].record_id if page else max(cursor or 0, 0)


@given(stored_records, history_queries)
@settings(max_examples=200, deadline=None)
def test_store_query_matches_naive_filter(specs, query):
    with tempfile.TemporaryDirectory() as tmp:
        store = RecordStore(os.path.join(tmp, "s.log"))
        records = []
        for seq, (coordinator, node, msg_type, received_at) in enumerate(specs):
            payload = VALID_CID if msg_type is wire.MsgType.ALARM_CID else bytes([seq])
            record_id, created = store.append(
                coordinator, wire.Datagram(msg_type, seq, node, payload), received_at=received_at)
            assert created
            records.append(store.record(record_id))
        assert [r.record_id for r in records] == list(range(1, len(records) + 1))

        assert store.query(**query) == naive_query(records, **query)

        if query["limit"]:
            unpaged, _ = store.query(**dict(query, limit=None, cursor=None))
            followed, cursor = [], None
            while True:
                page, cursor = store.query(**dict(query, cursor=cursor))
                followed.extend(page)
                if cursor is None:
                    break
            assert followed == unpaged

        for cursor in ("3", 1.5):
            with pytest.raises(InvalidInput):
                store.query(cursor=cursor)
        store.close()


@given(stored_records, history_queries)
@settings(max_examples=100, deadline=None)
def test_store_query_after_reopen_matches_naive_filter(specs, query):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "s.log")
        store = RecordStore(path)
        records = []
        for seq, (coordinator, node, msg_type, received_at) in enumerate(specs):
            payload = VALID_CID if msg_type is wire.MsgType.ALARM_CID else bytes([seq])
            record_id, _ = store.append(
                coordinator, wire.Datagram(msg_type, seq, node, payload), received_at=received_at)
            records.append(store.record(record_id))
        store.close()
        reopened = RecordStore(path)
        assert reopened.query(**query) == naive_query(records, **query)
        reopened.close()


_RECORD_TYPES = (wire.MsgType.SENSOR_DATA, wire.MsgType.ALARM_CID, wire.MsgType.HEARTBEAT)


def reference_replay(blob: bytes) -> tuple[int, list[tuple[int, int, wire.Datagram]]]:
    """The valid prefix of a log, one `wire.decode_datagram` per record: its
    length and its (received_at, coordinator, datagram) records."""
    header = monitor.RECORD_HEADER
    records, offset = [], 0
    while offset + header.size <= len(blob):
        received_at, coordinator, length = header.unpack_from(blob, offset)
        end = offset + header.size + length
        if end > len(blob):
            break
        try:
            d = wire.decode_datagram(blob[offset + header.size:end])
        except wire.ProtocolError:
            break
        if d.msg_type not in _RECORD_TYPES:
            break
        records.append((received_at, coordinator, d))
        offset = end
    return offset, records


def fold_window(window, key) -> bool:
    """The dedup rule on one window: whether key is new; a new key goes in."""
    if key in window:
        return False
    window[key] = None
    if len(window) > monitor.DEDUP_WINDOW:
        window.popitem(last=False)
    return True


# small seq and payload alphabets, so that duplicates occur
logged_frames = st.lists(
    st.tuples(st.integers(min_value=1, max_value=3),   # coordinator
              st.sampled_from(_RECORD_TYPES),
              st.integers(min_value=0, max_value=3),   # seq
              st.integers(min_value=1, max_value=3),   # src node
              st.sampled_from([b"", b"a", VALID_CID])),
    max_size=25)

later_frames = st.lists(
    st.tuples(st.booleans(),                           # under a logged coordinator, or a new one
              st.integers(min_value=0, max_value=3),   # seq
              st.sampled_from([b"", b"a", VALID_CID])),
    max_size=8)


# what the column file is when the store reopens: the one the last close wrote,
# one from an earlier close (records appended after it), none, one with a
# flipped byte, or the last one beside a log cut back to an earlier close's size
COLUMN_FILE_FATES = ["fresh", "stale", "missing", "flipped", "longer"]


@given(logged_frames, st.integers(min_value=0), st.sampled_from(["none", "cut", "flip"]),
       st.integers(min_value=0), st.integers(min_value=1, max_value=255),
       st.integers(min_value=1, max_value=3), later_frames)
@settings(max_examples=200, deadline=None)
def test_store_replay_matches_a_reference_replay(frames, split, damage, position, xor, logged,
                                                 later):
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        mp.setattr(monitor, "DEDUP_WINDOW", 3)
        path = os.path.join(tmp, "s.log")
        cols_path = path + ".cols"
        stored = []  # the records append created, in log order
        closes = []  # (log size, column file) after each close
        split %= len(frames) + 1
        for batch in (frames[:split], frames[split:]):
            store = RecordStore(path)
            for coordinator, msg_type, seq, node, payload in batch:
                d = wire.Datagram(msg_type, seq, node, payload)
                record_id, created = store.append(coordinator, d)
                if created:
                    stored.append(store.record(record_id))
            store.close()
            with open(cols_path, "rb") as fh:
                closes.append((os.path.getsize(path), fh.read()))

        with open(path, "rb") as fh:
            damaged = bytearray(fh.read())
        if damage == "flip" and damaged:
            damaged[position % len(damaged)] ^= xor
        elif damage != "none":
            del damaged[position % (len(damaged) + 1):]

        for fate in COLUMN_FILE_FATES:
            blob = damaged
            cols = bytearray(closes[fate == "stale"][1])
            if fate == "flipped":
                cols[position % len(cols)] ^= xor
            elif fate == "longer":
                blob = damaged[:closes[0][0]]
            with open(path, "wb") as fh:
                fh.write(blob)
            if fate == "missing":
                os.remove(cols_path)
            else:
                with open(cols_path, "wb") as fh:
                    fh.write(cols)
            check_reopen(path, bytes(blob), stored, logged, later)


def check_reopen(path, blob, stored, logged, later):
    """Reopen the store on this log and compare it with the reference replay."""
    valid, replayed = reference_replay(blob)
    assert len(replayed) <= len(stored)
    # a flipped record header still replays, with the flipped stamp or coordinator
    expected = []
    for record, (received_at, coordinator, d) in zip(stored, replayed):
        assert (d.seq, d.src_node, d.payload) == (record.seq, record.src_node, record.payload)
        expected.append(dataclasses.replace(record, received_at=received_at,
                                            coordinator_id=coordinator))

    reopened = RecordStore(path)
    assert os.path.getsize(path) == valid
    assert reopened.query() == (expected, None)
    assert reopened.snapshot() == {(r.coordinator_id, r.src_node): r for r in expected}
    new = max((r.coordinator_id for r in expected), default=0) + 1
    assert reopened.max_coordinator_id == new - 1

    windows = {}
    for record in expected:
        key = (record.seq, record.payload)
        window = windows.setdefault(record.coordinator_id, OrderedDict())
        window[key] = None  # the fold keeps a repeated key where it was
        if len(window) > monitor.DEDUP_WINDOW:
            window.popitem(last=False)
    for under_logged, seq, payload in later:
        coordinator = logged if under_logged else new
        _, created = reopened.append(
            coordinator, wire.Datagram(wire.MsgType.SENSOR_DATA, seq, 1, payload))
        window = windows.setdefault(coordinator, OrderedDict())
        assert created == fold_window(window, (seq, payload))
    reopened.close()
