"""Monitoring-center service: ingests framed datagrams over TCP, persists them
in an append-only log, answers history/live queries, and dispatches commands.

MonitorCore holds the protocol state and changes it only on explicit events,
with time passed in: it owns no socket, timer or thread. MonitorService is its
asyncio shell. Every socket and timer runs on one event loop in one thread,
the only thread that touches the core, so nothing needs a lock; public methods
called from other threads hop onto the loop. A malformed session is closed
without touching the others. A second listener speaks a line-delimited JSON
admin protocol for queries, snapshots, and command dispatch.
"""

from __future__ import annotations

import asyncio
import contextlib
import heapq
import json
import logging
import math
import os
import socket
import struct
import sys
import threading
import time
import zlib
from array import array
from collections import OrderedDict, deque
from dataclasses import dataclass
from enum import Enum

from . import wire
from .errors import InvalidInput, NoCoordinator

log = logging.getLogger(__name__)

# on-disk record: receive timestamp (ns), coordinator id, frame length
RECORD_HEADER = struct.Struct(">QHI")
# a stored record's header and its frame's header, read with one unpack
_HEADERS = struct.Struct(RECORD_HEADER.format + wire.HEADER.format.lstrip(">"))

# the column file `<log>.cols`: this header, then the five columns of the log's
# first L bytes as native-order array bytes. Header: format tag, byte order, L,
# CRC-32 of those L log bytes, record count, CRC-32 of the column bytes.
_COLS_HEADER = struct.Struct(">8scQIQI")
_COLS_TAG = b"HMCOLS\x00\x01"
_BYTE_ORDER = b"<" if sys.byteorder == "little" else b">"

DEFAULT_LISTEN = ("127.0.0.1", 7007)
DEFAULT_ADMIN = ("127.0.0.1", 7008)
DEFAULT_COMMAND_TIMEOUT = 5.0  # seconds a command waits for its ACK or NACK

# a frame repeating (seq, payload) within this many of its coordinator's stored
# frames is a retransmit; half the 16-bit seq space, so a wrapped seq is new
DEDUP_WINDOW = 1 << 15

# terminal command tickets kept for the `ticket` op; the oldest go first
TICKET_RETENTION = 4096

# bytes a session reads at once; asyncio's socket transports receive up to this
# much per recv, so one read takes whatever one recv brought
READ_SIZE = 256 * 1024


class RecordKind(Enum):
    READING = "reading"
    ALARM = "alarm"
    HEARTBEAT = "heartbeat"


_KIND_OF_TYPE = {
    wire.MsgType.SENSOR_DATA: RecordKind.READING,
    wire.MsgType.ALARM_CID: RecordKind.ALARM,
    wire.MsgType.HEARTBEAT: RecordKind.HEARTBEAT,
}
_TYPE_OF_KIND = {kind: msg_type for msg_type, kind in _KIND_OF_TYPE.items()}


@dataclass(frozen=True)
class SensorRecord:
    """One persisted uplink datagram; append-only, never mutated."""

    record_id: int
    received_at: int  # ns; the store's own stamps increase, a caller's is kept as given
    coordinator_id: int
    src_node: int
    seq: int
    kind: RecordKind
    payload: bytes
    cid: wire.CidEvent | None = None
    cid_error: str | None = None


def _decode_alarm(payload: bytes) -> tuple[wire.CidEvent | None, str | None]:
    """An alarm payload's Contact-ID event, or why it has none: a record's
    `cid` and `cid_error`."""
    try:
        return wire.decode_cid(payload.decode("ascii")), None
    except (wire.CidError, UnicodeDecodeError) as exc:
        return None, str(exc)


class TicketState(Enum):
    QUEUED = "queued"
    SENT = "sent"
    ACKED = "acked"
    NACKED = "nacked"
    TIMED_OUT = "timed-out"


TERMINAL_STATES = (TicketState.ACKED, TicketState.NACKED, TicketState.TIMED_OUT)

# bound once: the ingest path names them for every frame
_ACK, _NACK, _ALARM_CID = wire.MsgType.ACK, wire.MsgType.NACK, wire.MsgType.ALARM_CID

# the ticket state a coordinator's answer to a COMMAND moves its ticket to
_ANSWERS = {_ACK: TicketState.ACKED, _NACK: TicketState.NACKED}

# the switch opcodes by the names the admin protocol and the CLI use
OPCODE_NAMES = {
    "on": wire.SwitchOpcode.SWITCH_ON,
    "off": wire.SwitchOpcode.SWITCH_OFF,
    "query": wire.SwitchOpcode.QUERY_SWITCH,
}


@dataclass
class CommandTicket:
    """Lifecycle of one dispatched switch command; state only moves forward."""

    ticket_id: int
    target_node: int
    opcode: wire.SwitchOpcode
    state: TicketState = TicketState.QUEUED


def _positions(column: array, value, start: int = 0):
    """The indices from start on where column holds value, each found by one
    `array.index` call: the scan between matches runs in C."""
    while True:
        try:
            start = column.index(value, start)
        except ValueError:
            return
        yield start
        start += 1


class RecordStore:
    """Append-only datagram log, held as its bytes plus one array per column.

    One record on disk is RECORD_HEADER followed by the encoded datagram. Each
    column (record offset, received_at, coordinator, node, message type) gets
    one entry per record, an index of offsets into the log like Bitcask's
    keydir. Opening the store reads the log once. If the column file
    `<log>.cols` that `close()` left is whole, ours, and describes the log's
    first L bytes exactly (same length and CRC-32), the columns of those
    records are loaded from it, as Bitcask rebuilds its keydir from hint
    files; every record past L, or every record when the file is missing or
    does not match, is checked where it lies, as `wire.decode_datagram`
    would. A torn tail from a crashed writer, or a damaged record (or a frame
    type the store never writes) and everything after it, is truncated away.
    The column file is a cache: deleting it costs one full replay. A
    SensorRecord is built only when `query`, `snapshot` or `record` returns
    one. `append_frame` adds a record to the log's bytes in memory from a
    frame's checked bytes and the fields read from them, as a session
    receives it, and writes nothing (`append` does so from a Datagram, by
    encoding it); `flush()` writes every byte past the last flush to the
    file in one write and returns once the OS holds them, so a record
    appended before a `flush()` that returned survives a crash of the
    process (not a power loss: nothing is fsynced). `close()` flushes too. A frame is a
    duplicate, and is not stored again, when its coordinator stored the same
    (seq, payload) among its last DEDUP_WINDOW stored frames. A coordinator's
    window maps those keys to record indices; it is folded from the log on
    the first append under its id and lives until `drop_window`, which
    MonitorCore calls when the session ends. A store holds no lock: use it
    from one thread (MonitorService uses its loop thread).
    """

    def __init__(self, path):
        self._path = str(path)
        self._cols_path = self._path + ".cols"
        self._log = bytearray()  # the log's bytes; the file holds those flushed
        # one entry per record, at index record_id - 1
        self._offset = array("Q")
        self._received_at = array("Q")
        self._coordinator = array("H")
        self._node = array("H")
        self._type = array("B")
        # per coordinator: (seq, payload) -> record index, oldest first
        self._windows: dict[int, OrderedDict[tuple[int, bytes], int]] = {}
        self._cols_covers: int | None = None  # log bytes the loaded column file describes
        if os.path.exists(self._path):
            with open(self._path, "rb") as fh:
                self._log = bytearray(fh.read())
        self._replay(self._load_columns())
        # (coordinator, node) -> the index of its latest record
        self._latest = dict(zip(zip(self._coordinator, self._node), range(len(self._node))))
        # unbuffered: each write hands its bytes to the OS
        self._file = open(self._path, "ab", buffering=0)
        if self._file.tell() > len(self._log):
            self._file.truncate(len(self._log))
        self._flushed = len(self._log)  # the log bytes the file holds
        self._torn = False  # a failed flush may have left part of its bytes in the file

    def _columns(self) -> tuple[array, ...]:
        return self._offset, self._received_at, self._coordinator, self._node, self._type

    def _load_columns(self) -> int:
        """Load the columns of the log's first L bytes from the column file when
        it describes exactly those bytes; returns L, 0 when the whole log is to
        be replayed."""
        try:
            with open(self._cols_path, "rb") as fh:
                data = fh.read()
        except FileNotFoundError:
            return self._full_replay("missing")
        except OSError:
            return self._full_replay("damaged")
        if len(data) < _COLS_HEADER.size:
            return self._full_replay("damaged")
        tag, order, length, log_crc, count, cols_crc = _COLS_HEADER.unpack_from(data)
        if tag != _COLS_TAG or order != _BYTE_ORDER:
            return self._full_replay("foreign")
        columns = self._columns()
        body = memoryview(data)[_COLS_HEADER.size:]
        if (len(body) != count * sum(column.itemsize for column in columns)
                or zlib.crc32(body) != cols_crc):
            return self._full_replay("damaged")
        # released at once: replay may truncate the log's bytes
        with memoryview(self._log) as log_view:
            if length > len(self._log) or zlib.crc32(log_view[:length]) != log_crc:
                return self._full_replay("stale")
        start = 0
        for column in columns:
            end = start + count * column.itemsize
            column.frombytes(body[start:end])
            start = end
        self._cols_covers = length
        log.info("%s: %d records from the column file, replaying the %d log bytes past it",
                 self._path, count, len(self._log) - length)
        return length

    def _full_replay(self, reason: str) -> int:
        log.info("%s: replaying the whole log, column file %s", self._path, reason)
        return 0

    def _replay(self, offset: int) -> None:
        """Check and index the log's records from byte offset on; truncate the
        log at the first one torn or damaged."""
        blob = self._log
        add_offset, add_received_at = self._offset.append, self._received_at.append
        add_coordinator, add_node, add_type = \
            self._coordinator.append, self._node.append, self._type.append
        size = len(blob)
        while offset + RECORD_HEADER.size <= size:
            received_at, coordinator_id, length = RECORD_HEADER.unpack_from(blob, offset)
            frame = offset + RECORD_HEADER.size
            end = frame + length
            if end > size:
                break
            try:
                msg_type, _, src_node, _, _ = wire.check_frame(blob, frame, end)
            except wire.ProtocolError:
                msg_type = None
            if msg_type not in _KIND_OF_TYPE:  # damaged, or a frame the store never writes
                log.warning("%s: corrupt record at byte %d, truncating", self._path, offset)
                break
            add_offset(offset)
            add_received_at(received_at)
            add_coordinator(coordinator_id)
            add_node(src_node)
            add_type(msg_type)
            offset = end
        del blob[offset:]

    def _records(self, indices) -> list[SensorRecord]:
        """The records at these indices, read from the log at their offsets."""
        log, offsets = self._log, self._offset
        unpack_headers, headers_size = _HEADERS.unpack_from, _HEADERS.size
        alarm = RecordKind.ALARM
        # a frozen dataclass's __init__ sets its nine fields one call at a time,
        # about half the cost of a record here; each record gets them at once
        build = wire._build
        records = []
        for index in indices:
            offset = offsets[index]
            received_at, coordinator_id, _, _, _, msg_type, seq, src_node, payload_len = \
                unpack_headers(log, offset)
            payload = bytes(log[offset + headers_size:offset + headers_size + payload_len])
            kind = _KIND_OF_TYPE[msg_type]
            cid, cid_error = _decode_alarm(payload) if kind is alarm else (None, None)
            records.append(build(SensorRecord, {
                "record_id": index + 1, "received_at": received_at,
                "coordinator_id": coordinator_id, "src_node": src_node, "seq": seq,
                "kind": kind, "payload": payload, "cid": cid, "cid_error": cid_error}))
        return records

    def record(self, record_id: int) -> SensorRecord:
        """The record `append` stored under this id, built from the log."""
        if not 1 <= record_id <= len(self._offset):
            raise InvalidInput(f"no record {record_id!r}")
        [record] = self._records([record_id - 1])
        return record

    def _window(self, coordinator_id: int) -> OrderedDict:
        """The coordinator's dedup window; the first call folds its logged records."""
        window = self._windows.get(coordinator_id)
        if window is None:
            window = self._windows[coordinator_id] = OrderedDict()
            for index in _positions(self._coordinator, coordinator_id):
                [record] = self._records([index])
                window[(record.seq, record.payload)] = index
                if len(window) > DEDUP_WINDOW:
                    window.popitem(last=False)
        return window

    def drop_window(self, coordinator_id: int) -> None:
        """Forget the coordinator's dedup window; an append under its id
        would fold it from the log again."""
        self._windows.pop(coordinator_id, None)

    def append(self, coordinator_id: int, d: wire.Datagram,
               received_at: int | None = None) -> tuple[int, bool]:
        """Add one datagram to the log's bytes: `append_frame` of its
        encoded frame."""
        return self.append_frame(coordinator_id, d.msg_type, d.seq, d.src_node,
                                 wire.encode_datagram(d), d.payload, received_at)

    def append_frame(self, coordinator_id: int, msg_type: wire.MsgType, seq: int,
                     src_node: int, frame: bytes, payload: bytes,
                     received_at: int | None = None) -> tuple[int, bool]:
        """Add one checked frame to the log's bytes; returns (record_id, created).

        `frame` is the frame's bytes, as `wire.StreamDecoder.take` checked
        them, and the other fields are the ones it read from them. A
        duplicate returns the stored record's id with created=False and adds
        nothing. The file gets the record at the next `flush()`;
        `record(record_id)` builds it. An append that raises leaves the
        store as it was.
        """
        if msg_type not in _KIND_OF_TYPE:
            raise InvalidInput(f"a {wire.MsgType(msg_type).name} frame is not a record")
        stamps = self._received_at
        if received_at is None:
            received_at = time.time_ns()
            if stamps and received_at <= stamps[-1]:
                received_at = stamps[-1] + 1
        # before any state changes: a coordinator id past 16 bits raises here
        header = RECORD_HEADER.pack(received_at, coordinator_id, len(frame))
        key = (seq, payload)
        window = self._window(coordinator_id)
        existing = window.get(key)
        if existing is not None:
            return existing + 1, False
        log = self._log
        index = len(stamps)
        self._offset.append(len(log))
        log += header
        log += frame
        stamps.append(received_at)
        self._coordinator.append(coordinator_id)
        self._node.append(src_node)
        self._type.append(msg_type)
        self._latest[(coordinator_id, src_node)] = index
        window[key] = index
        if len(window) > DEDUP_WINDOW:
            window.popitem(last=False)
        return index + 1, True

    def flush(self) -> None:
        """Write the log's bytes past the last flush to the file in one write.

        On return the OS holds every record appended so far. A flush that
        raises OSError may have written part of its bytes; the next flush
        cuts the file back to the last whole flush before it writes again.
        """
        if self._flushed == len(self._log):
            return
        try:
            if self._torn:
                self._file.truncate(self._flushed)
                self._torn = False
            # a copy: a view would pin the log's size for as long as anything held it
            data = self._log[self._flushed:]
            while data:  # a write may take only part, as os.write may
                del data[:self._file.write(data)]
        except OSError:
            self._torn = True
            raise
        self._flushed = len(self._log)

    def query(self, src_node=None, kind=None, since=None, until=None,
              limit=None, cursor=None) -> tuple[list[SensorRecord], int | None]:
        """Matching records in arrival order, with cursor-based pagination.

        The cursor is the record_id of the last row already seen; the second
        return value is the cursor for the next page, or None at the end.
        Record ids are dense (record_id == index + 1): a page starts at cursor.
        """
        if limit is not None and (not isinstance(limit, int) or limit < 0):
            raise InvalidInput(f"limit must be a non-negative integer, got {limit!r}")
        if kind is not None and not isinstance(kind, RecordKind):
            raise InvalidInput(f"kind must be a RecordKind, got {kind!r}")
        if cursor is not None and not isinstance(cursor, int):
            raise InvalidInput(f"cursor must be an integer, got {cursor!r}")
        msg_type = None if kind is None else _TYPE_OF_KIND[kind]
        types, stamps = self._type, self._received_at
        start = max(cursor or 0, 0)
        # jump from match to match in the node column, or else the type column
        if src_node is not None:
            candidates = _positions(self._node, src_node, start)
        elif msg_type is not None:
            candidates = _positions(types, msg_type, start)
        else:
            candidates = range(start, len(types))
        matches: list[int] = []
        for index in candidates:
            if ((msg_type is None or types[index] == msg_type)
                    and (since is None or stamps[index] >= since)
                    and (until is None or stamps[index] <= until)):
                if limit is not None and len(matches) == limit:
                    return self._records(matches), matches[-1] + 1 if matches else start
                matches.append(index)
        return self._records(matches), None

    def snapshot(self) -> dict[tuple[int, int], SensorRecord]:
        """Most recent record per (coordinator_id, src_node)."""
        return dict(zip(self._latest, self._records(self._latest.values())))

    @property
    def max_coordinator_id(self) -> int:
        return max(self._coordinator, default=0)

    def close(self) -> None:
        """Flush and close the log, then write the column file unless the one
        loaded at open already describes the whole log; a second call does
        nothing. A flush that raises closes the log and writes no column file."""
        if self._file.closed:
            return
        try:
            self.flush()
        finally:
            self._file.close()
        if self._cols_covers != len(self._log):
            self._write_columns()

    def _write_columns(self) -> None:
        """Write the column file whole to a temporary file, then put it in
        place, so a crash leaves the older file (or none), never a part."""
        columns = self._columns()
        cols_crc = 0
        for column in columns:
            cols_crc = zlib.crc32(column, cols_crc)
        header = _COLS_HEADER.pack(_COLS_TAG, _BYTE_ORDER, len(self._log),
                                   zlib.crc32(self._log), len(self._offset), cols_crc)
        tmp = self._cols_path + ".tmp"
        try:
            with open(tmp, "wb") as fh:
                fh.write(header)
                for column in columns:
                    fh.write(column)
            os.replace(tmp, self._cols_path)
        except OSError as exc:
            # the file is a cache: without it the next open replays the log
            log.warning("%s: cannot write the column file: %s", self._path, exc)
            with contextlib.suppress(OSError):
                os.remove(tmp)


class _Session:
    """One connected coordinator; its transport has write() and is_closing()."""

    def __init__(self, session_id: int, transport):
        self.id = session_id
        self.transport = transport
        self.pending: dict[int, int] = {}  # command seq -> ticket id
        self.command_seq = 0


class MonitorCore:
    """The service's protocol state, changed only by its event methods.

    A session's frames arrive through `handle_frame`, one checked frame at a
    time as `ingest_read` splits each read, and it returns only the type of
    the reply, which the caller packs; `handle_datagram` is the same event
    for one Datagram, with the reply built as one. `dispatch` and `expire`
    take the time from the caller, in any unit that matches
    command_timeout. A ticket times out only in `expire(now)` or when
    `disconnect` ends its session. `close()` then `open()` reopen the store
    and keep the tickets, as a service restart does.
    """

    def __init__(self, store_path, command_timeout: float):
        if not 0 < command_timeout < math.inf:  # also catches NaN, which never times out
            raise InvalidInput(
                f"command timeout must be a positive finite number, got {command_timeout!r}")
        self._store_path = store_path
        self.command_timeout = command_timeout
        self.store: RecordStore | None = None
        self._sessions: dict[int, _Session] = {}
        self._next_session_id = 1
        self._tickets: dict[int, CommandTicket] = {}
        self._finished: deque[int] = deque()  # terminal ticket ids, oldest first
        self._next_ticket_id = 1
        self._deadlines: list[tuple] = []  # heap of (deadline, ticket id, session id, seq)

    def open(self) -> None:
        self.store = RecordStore(self._store_path)
        self._next_session_id = self.store.max_coordinator_id + 1  # ids go on past the log's

    def close(self) -> None:
        if self.store is not None:
            self.store.close()

    def connect(self, transport) -> _Session:
        session = self._sessions[self._next_session_id] = _Session(self._next_session_id, transport)
        self._next_session_id += 1
        return session

    def disconnect(self, session: _Session) -> None:
        del self._sessions[session.id]
        self.store.drop_window(session.id)
        # no answer can reach these any more
        for ticket_id in session.pending.values():
            self._advance(ticket_id, TicketState.TIMED_OUT)

    def handle_datagram(self, session: _Session, d: wire.Datagram) -> wire.Datagram | None:
        """Ingest one decoded datagram: `handle_frame` of its encoded frame,
        with the reply it names built as a datagram. A msg_type given as a
        plain int is handled as its MsgType member."""
        frame = wire.encode_datagram(d)  # refuses a msg_type that is no MsgType value
        reply = self.handle_frame(session, wire.MsgType(d.msg_type), d.seq, d.src_node,
                                  frame, d.payload)
        return None if reply is None else wire.Datagram(reply, d.seq, d.src_node)

    def handle_frame(self, session: _Session, msg_type: wire.MsgType, seq: int, src_node: int,
                     frame: bytes, payload: bytes) -> wire.MsgType | None:
        """Ingest one checked frame, given its fields, bytes and payload as
        `ingest_read` hands them out; returns the type of the reply to send,
        ACK or NACK with the frame's seq and src_node, or None. A stored
        record reaches the file at the store's next `flush()`, which must
        come before the reply is sent."""
        if msg_type in _KIND_OF_TYPE:
            if not self.store.append_frame(session.id, msg_type, seq, src_node, frame, payload)[1]:
                log.info("session %d: duplicate seq=%d ignored", session.id, seq)
            if msg_type is _ALARM_CID and _decode_alarm(payload)[1] is not None:
                return _NACK
            return _ACK
        if msg_type in _ANSWERS:
            ticket_id = session.pending.pop(seq, None)
            if ticket_id is None:
                log.info("session %d: %s for unknown seq %d ignored",
                         session.id, msg_type.name, seq)
            self._advance(ticket_id, _ANSWERS[msg_type])
            return None
        if msg_type is wire.MsgType.DISCOVERY_REPORT:
            log.info("session %d: discovery report, %d bytes", session.id, len(payload))
            return _ACK
        log.warning("session %d: unexpected %s", session.id, msg_type.name)
        return _NACK

    def dispatch(self, target_node: int, opcode: wire.SwitchOpcode, now: float) -> CommandTicket:
        """COMMAND the newest session not closing; time it out at now + command_timeout."""
        live = [s for s in self._sessions.values() if not s.transport.is_closing()]
        if not live:
            raise NoCoordinator("no coordinator session connected")
        payload = wire.encode_command_payload(target_node, opcode)
        session = max(live, key=lambda s: s.id)
        ticket = CommandTicket(self._next_ticket_id, target_node, wire.SwitchOpcode(opcode))
        self._next_ticket_id += 1
        self._tickets[ticket.ticket_id] = ticket
        seq = session.command_seq
        session.command_seq = (seq + 1) & 0xFFFF
        session.pending[seq] = ticket.ticket_id
        session.transport.write(wire.pack_frame(wire.MsgType.COMMAND, seq, target_node, payload))
        self._advance(ticket.ticket_id, TicketState.SENT)
        heapq.heappush(self._deadlines,
                       (now + self.command_timeout, ticket.ticket_id, session.id, seq))
        return ticket

    def expire(self, now: float) -> None:
        """Time out every command whose deadline is at or before now."""
        while self._deadlines and self._deadlines[0][0] <= now:
            _, ticket_id, session_id, seq = heapq.heappop(self._deadlines)
            session = self._sessions.get(session_id)
            # the seq is forgotten, so a late answer to it is ignored
            if session is not None and session.pending.get(seq) == ticket_id:
                del session.pending[seq]
            self._advance(ticket_id, TicketState.TIMED_OUT)

    def _advance(self, ticket_id: int | None, state: TicketState) -> None:
        ticket = self._tickets.get(ticket_id)
        if ticket is None or ticket.state in TERMINAL_STATES:
            return
        ticket.state = state
        if state in TERMINAL_STATES:
            self._finished.append(ticket_id)
            if len(self._finished) > TICKET_RETENTION:
                del self._tickets[self._finished.popleft()]


def ingest_read(decoder: wire.StreamDecoder, data: bytes, handle, session: _Session) -> bytes:
    """One read of a coordinator session: the bytes of the replies to it.

    Checks every frame the read completes before it handles any (a
    malformed one raises its wire.ProtocolError, and none is handled), then
    passes each in order to
    `handle(session, msg_type, seq, src_node, frame, payload)`, as
    `MonitorCore.handle_frame` takes them, and packs each reply type it
    returns into an ACK or NACK frame with that frame's seq and src_node.
    The replies may leave only once the store's `flush()` has returned.
    """
    chunk, frames = decoder.take(data)
    pack, payload_at, crc_size = wire.pack_frame, wire.HEADER.size, wire.CRC.size
    replies = []
    for msg_type, seq, src_node, start, end in frames:
        reply = handle(session, msg_type, seq, src_node, chunk[start:end],
                       chunk[start + payload_at:end - crc_size])
        if reply is not None:
            replies.append(pack(reply, seq, src_node))
    return b"".join(replies)


class MonitorService:
    """The running service, the I/O around one MonitorCore; use serve() or
    start()/stop() directly. It calls the core's `expire` at each deadline."""

    def __init__(self, listen=DEFAULT_LISTEN, admin=DEFAULT_ADMIN,
                 store_path="monitor-store.log", command_timeout=DEFAULT_COMMAND_TIMEOUT):
        self._configured = (tuple(listen), tuple(admin))
        # the bound addresses once start() succeeds; they outlive stop()
        self.address, self.admin_address = self._configured
        self._core = MonitorCore(store_path, command_timeout)
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._servers: list[asyncio.AbstractServer] = []
        self._connections: dict[asyncio.StreamWriter, asyncio.Task] = {}

    # --- lifecycle ---------------------------------------------------------

    def start(self) -> "MonitorService":
        """Bind both ports and run the loop; on a running service, return it."""
        if self._thread is not None and self._thread.is_alive():
            return self
        self._core.open()
        listeners: list[socket.socket] = []
        try:
            for addr in self._configured:
                listeners.append(socket.create_server(addr))
        except OSError:
            for sock in listeners:
                sock.close()
            self._core.close()
            raise
        self.address, self.admin_address = (sock.getsockname() for sock in listeners)
        loop = asyncio.new_event_loop()
        self._servers = [
            loop.run_until_complete(asyncio.start_server(handler, sock=sock))
            for handler, sock in zip((self._session, self._admin_client), listeners)
        ]
        self._loop = loop
        self._thread = threading.Thread(target=loop.run_forever, name="monitor-loop",
                                        daemon=True)
        self._thread.start()
        log.info("monitor listening on %s, admin on %s", self.address, self.admin_address)
        return self

    def stop(self) -> None:
        """Close every connection and the store; a second call does nothing."""
        if self._loop is not None and not self._loop.is_closed():
            asyncio.run_coroutine_threadsafe(self._shutdown(), self._loop).result()
            self._loop.call_soon_threadsafe(self._loop.stop)
            self._thread.join(timeout=5)
            self._loop.close()
        self._core.close()

    async def _shutdown(self) -> None:
        # before Python 3.12, Server.close() leaves accepted connections open
        for server in self._servers:
            server.close()
        for writer in self._connections:
            writer.transport.abort()
        await asyncio.gather(*self._connections.values(), return_exceptions=True)

    def __enter__(self):
        return self.start()

    def __exit__(self, *exc):
        self.stop()

    def _on_loop(self, fn, *args):
        """fn(*args) on the loop thread; at once if that is this thread or no
        loop thread is alive (before start(), after stop())."""
        thread = self._thread
        if thread is None or thread is threading.current_thread() or not thread.is_alive():
            return fn(*args)

        async def call():
            return fn(*args)

        return asyncio.run_coroutine_threadsafe(call(), self._loop).result()

    # --- coordinator sessions ----------------------------------------------

    async def _session(self, reader: asyncio.StreamReader,
                       writer: asyncio.StreamWriter) -> None:
        self._connections[writer] = asyncio.current_task()
        session = self._core.connect(writer.transport)
        # asyncio sets this only where sock.proto is IPPROTO_TCP; accepted sockets report 0
        writer.get_extra_info("socket").setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        log.info("coordinator session %d from %s", session.id, writer.get_extra_info("peername"))
        decoder = wire.StreamDecoder()
        try:
            while data := await reader.read(READ_SIZE):
                try:
                    replies = ingest_read(decoder, data, self.handle_datagram, session)
                except wire.ProtocolError as exc:
                    log.warning("session %d: protocol error: %s", session.id, exc)
                    writer.transport.abort()
                    break
                # one write for the chunk's records, and only then their replies
                try:
                    self._core.store.flush()
                except OSError as exc:
                    log.error("session %d: cannot write the log: %s", session.id, exc)
                    writer.transport.abort()
                    break
                writer.write(replies)
                # a peer that stops reading its replies stops being read
                await writer.drain()
        except ConnectionError:
            pass
        finally:
            # stop() ends every session this way
            self._core.disconnect(session)
            del self._connections[writer]
            writer.close()
            log.info("session %d closed", session.id)

    def handle_datagram(self, session: _Session, msg_type: wire.MsgType, seq: int,
                        src_node: int, frame: bytes, payload: bytes) -> wire.MsgType | None:
        """Ingest one checked frame; returns the type of the reply to send, if any."""
        return self._core.handle_frame(session, msg_type, seq, src_node, frame, payload)

    # --- command tickets -----------------------------------------------------

    def dispatch_command(self, target_node: int, opcode: wire.SwitchOpcode) -> CommandTicket:
        """Frame and send a COMMAND to the newest coordinator session.

        The returned ticket advances to ACKED/NACKED when the coordinator
        answers, or to TIMED_OUT after command_timeout seconds or when its
        session ends, whichever comes first. Only the
        newest TICKET_RETENTION finished tickets stay queryable by id.
        """
        return self._on_loop(self._dispatch_command, target_node, opcode)

    def _dispatch_command(self, target_node: int, opcode: wire.SwitchOpcode) -> CommandTicket:
        now = self._loop.time() if self._loop else 0.0  # no loop, no session: the core raises
        ticket = self._core.dispatch(target_node, opcode, now)
        deadline = now + self._core.command_timeout  # call_at may fire up to a clock tick early
        self._loop.call_at(deadline, self._core.expire, deadline)
        return ticket

    def ticket(self, ticket_id: int) -> CommandTicket:
        ticket = self._on_loop(self._core._tickets.get, ticket_id)
        if ticket is None:
            raise InvalidInput(f"unknown ticket id {ticket_id}")
        return ticket

    # --- queries -------------------------------------------------------------

    def query_history(self, **kwargs):
        return self._on_loop(lambda: self._core.store.query(**kwargs))

    def live_snapshot(self):
        return self._on_loop(lambda: self._core.store.snapshot())

    # --- admin protocol --------------------------------------------------------

    async def _admin_client(self, reader: asyncio.StreamReader,
                            writer: asyncio.StreamWriter) -> None:
        self._connections[writer] = asyncio.current_task()
        try:
            while line := await reader.readline():
                try:
                    request = json.loads(line)
                    response = self._admin_dispatch(request)
                except (ValueError, InvalidInput) as exc:
                    response = {"ok": False, "error": str(exc)}
                except RecursionError:
                    response = {"ok": False, "error": "request nested too deeply"}
                except NoCoordinator as exc:
                    response = {"ok": False, "error": str(exc), "no_coordinator": True}
                writer.write(json.dumps(response).encode() + b"\n")
                await writer.drain()
        except (OSError, ValueError):  # ValueError: a line over the reader's limit
            pass
        finally:
            del self._connections[writer]
            writer.close()

    def _admin_dispatch(self, request) -> dict:
        if not isinstance(request, dict):
            raise InvalidInput("request must be a JSON object")
        op = request.get("op")
        if op == "query":
            kind = request.get("kind")
            records, cursor = self.query_history(
                src_node=_optional_int(request, "node"),
                kind=RecordKind(kind) if kind is not None else None,
                since=_optional_int(request, "since"),
                until=_optional_int(request, "until"),
                limit=_optional_int(request, "limit"),
                cursor=_optional_int(request, "cursor"),
            )
            return {"ok": True, "records": [record_as_json(r) for r in records],
                    "cursor": cursor}
        if op == "snapshot":
            latest = self.live_snapshot()
            return {"ok": True,
                    "records": [record_as_json(latest[key]) for key in sorted(latest)]}
        if op == "send-command":
            opcode = request.get("opcode")
            if not isinstance(opcode, str) or opcode not in OPCODE_NAMES:
                raise InvalidInput(f"opcode must be one of {sorted(OPCODE_NAMES)}")
            target = request.get("target")
            if not isinstance(target, int) or isinstance(target, bool):
                raise InvalidInput("target must be an integer node id")
            ticket = self.dispatch_command(target, OPCODE_NAMES[opcode])
            return {"ok": True, "ticket": ticket_as_json(ticket)}
        if op == "ticket":
            ticket = self.ticket(_optional_int(request, "id"))
            return {"ok": True, "ticket": ticket_as_json(ticket)}
        raise InvalidInput(f"unknown op {op!r}")


def _optional_int(request: dict, field: str) -> int | None:
    value = request.get(field)
    if value is not None and (not isinstance(value, int) or isinstance(value, bool)):
        raise InvalidInput(f"{field} must be an integer or null, got {value!r}")
    return value


def record_as_json(record: SensorRecord) -> dict:
    doc = {
        "record_id": record.record_id,
        "received_at": record.received_at,
        "coordinator": record.coordinator_id,
        "node": record.src_node,
        "seq": record.seq,
        "kind": record.kind.value,
        "payload": record.payload.hex(),
    }
    if record.cid is not None:
        doc["cid"] = {
            "account": record.cid.account,
            "message_type": record.cid.message_type,
            "qualifier": record.cid.qualifier,
            "event_code": record.cid.event_code,
            "partition": record.cid.partition,
            "zone": record.cid.zone,
        }
    if record.cid_error is not None:
        doc["cid_error"] = record.cid_error
    return doc


def ticket_as_json(ticket: CommandTicket) -> dict:
    return {
        "ticket_id": ticket.ticket_id,
        "target": ticket.target_node,
        "opcode": int(ticket.opcode),
        "state": ticket.state.value,
    }


def serve(listen=DEFAULT_LISTEN, admin=DEFAULT_ADMIN, store_path="monitor-store.log",
          command_timeout: float = DEFAULT_COMMAND_TIMEOUT) -> MonitorService:
    """Start the monitoring service and return the running handle."""
    return MonitorService(listen, admin, store_path, command_timeout).start()
