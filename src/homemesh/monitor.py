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
import heapq
import json
import logging
import os
import socket
import struct
import threading
import time
from collections import OrderedDict, defaultdict, deque
from dataclasses import dataclass
from enum import Enum

from . import wire
from .errors import InvalidInput, NoCoordinator

log = logging.getLogger(__name__)

# on-disk record: receive timestamp (ns), coordinator id, frame length
RECORD_HEADER = struct.Struct(">QHI")

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


class TicketState(Enum):
    QUEUED = "queued"
    SENT = "sent"
    ACKED = "acked"
    NACKED = "nacked"
    TIMED_OUT = "timed-out"


TERMINAL_STATES = (TicketState.ACKED, TicketState.NACKED, TicketState.TIMED_OUT)

# the ticket state a coordinator's answer to a COMMAND moves its ticket to
_ANSWERS = {wire.MsgType.ACK: TicketState.ACKED, wire.MsgType.NACK: TicketState.NACKED}

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


def _build_record(record_id, received_at, coordinator_id, d: wire.Datagram) -> SensorRecord:
    kind = _KIND_OF_TYPE[d.msg_type]
    cid = None
    cid_error = None
    if kind is RecordKind.ALARM:
        try:
            cid = wire.decode_cid(d.payload.decode("ascii"))
        except (wire.CidError, UnicodeDecodeError) as exc:
            cid_error = str(exc)
    return SensorRecord(record_id, received_at, coordinator_id, d.src_node,
                        d.seq, kind, d.payload, cid, cid_error)


class RecordStore:
    """Append-only datagram log with in-memory indexes rebuilt on open.

    One record on disk is RECORD_HEADER followed by the encoded datagram.
    A torn tail from a crashed writer is truncated away on open. A frame is a
    duplicate, and is not stored again, when its coordinator stored the same
    (seq, payload) among its last DEDUP_WINDOW stored frames. A store holds
    no lock: use it from one thread (MonitorService uses its loop thread).
    """

    def __init__(self, path):
        self._path = str(path)
        self._records: list[SensorRecord] = []
        # per coordinator: (seq, payload) -> record, oldest first
        self._recent: defaultdict[int, OrderedDict[tuple[int, bytes], SensorRecord]] = \
            defaultdict(OrderedDict)
        self._latest: dict[tuple[int, int], SensorRecord] = {}
        valid = self._replay()
        self._file = open(self._path, "ab")
        if self._file.tell() > valid:
            self._file.truncate(valid)

    def _replay(self) -> int:
        if not os.path.exists(self._path):
            return 0
        valid = 0
        with open(self._path, "rb") as fh:
            blob = fh.read()
        offset = 0
        while offset + RECORD_HEADER.size <= len(blob):
            received_at, coordinator_id, length = RECORD_HEADER.unpack_from(blob, offset)
            end = offset + RECORD_HEADER.size + length
            if end > len(blob):
                break
            try:
                datagram = wire.decode_datagram(blob[offset + RECORD_HEADER.size:end])
            except wire.ProtocolError:
                log.warning("%s: corrupt record at byte %d, truncating", self._path, offset)
                break
            self._index(received_at, coordinator_id, datagram, (datagram.seq, datagram.payload))
            offset = end
            valid = end
        return valid

    def _index(self, received_at, coordinator_id, datagram, key) -> SensorRecord:
        record = _build_record(len(self._records) + 1, received_at, coordinator_id, datagram)
        self._records.append(record)
        recent = self._recent[coordinator_id]
        recent[key] = record
        if len(recent) > DEDUP_WINDOW:
            recent.popitem(last=False)
        self._latest[(coordinator_id, datagram.src_node)] = record
        return record

    def append(self, coordinator_id: int, d: wire.Datagram,
               received_at: int | None = None) -> tuple[SensorRecord, bool]:
        """Persist one datagram; returns (record, created). A duplicate returns
        the existing record with created=False and writes nothing."""
        raw = wire.encode_datagram(d)
        key = (d.seq, d.payload)
        existing = self._recent.get(coordinator_id, {}).get(key)
        if existing is not None:
            return existing, False
        if received_at is None:
            received_at = time.time_ns()
            if self._records and received_at <= self._records[-1].received_at:
                received_at = self._records[-1].received_at + 1
        self._file.write(RECORD_HEADER.pack(received_at, coordinator_id, len(raw)) + raw)
        self._file.flush()
        return self._index(received_at, coordinator_id, d, key), True

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
        records = self._records
        start = max(cursor or 0, 0)
        out: list[SensorRecord] = []
        for index in range(start, len(records)):
            record = records[index]
            if src_node is not None and record.src_node != src_node:
                continue
            if kind is not None and record.kind is not kind:
                continue
            if since is not None and record.received_at < since:
                continue
            if until is not None and record.received_at > until:
                continue
            if limit is not None and len(out) == limit:
                return out, out[-1].record_id if out else start
            out.append(record)
        return out, None

    def snapshot(self) -> dict[tuple[int, int], SensorRecord]:
        """Most recent record per (coordinator_id, src_node)."""
        return dict(self._latest)

    @property
    def max_coordinator_id(self) -> int:
        return max(self._recent, default=0)

    def close(self) -> None:
        self._file.close()


class _Session:
    """One connected coordinator; its transport has write() and is_closing()."""

    def __init__(self, session_id: int, transport):
        self.id = session_id
        self.transport = transport
        self.pending: dict[int, int] = {}  # command seq -> ticket id
        self.command_seq = 0


class MonitorCore:
    """The service's protocol state, changed only by its event methods.

    `dispatch` and `expire` take the time from the caller, in any unit that
    matches command_timeout. A ticket times out only in `expire(now)` or when
    `disconnect` ends its session. `close()` then `open()` reopen the store
    and keep the tickets, as a service restart does.
    """

    def __init__(self, store_path, command_timeout: float):
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
        # no answer can reach these any more
        for ticket_id in session.pending.values():
            self._advance(ticket_id, TicketState.TIMED_OUT)

    def handle_datagram(self, session: _Session, d: wire.Datagram) -> wire.Datagram | None:
        """Ingest one decoded datagram; returns the reply to send, if any."""
        if d.msg_type in _KIND_OF_TYPE:
            record, created = self.store.append(session.id, d)
            if not created:
                log.info("session %d: duplicate seq=%d ignored", session.id, d.seq)
            if record.cid_error is not None:
                return wire.Datagram(wire.MsgType.NACK, d.seq, d.src_node)
            return wire.Datagram(wire.MsgType.ACK, d.seq, d.src_node)
        if d.msg_type in _ANSWERS:
            ticket_id = session.pending.pop(d.seq, None)
            if ticket_id is None:
                log.info("session %d: %s for unknown seq %d ignored",
                         session.id, d.msg_type.name, d.seq)
            self._advance(ticket_id, _ANSWERS[d.msg_type])
            return None
        if d.msg_type is wire.MsgType.DISCOVERY_REPORT:
            log.info("session %d: discovery report, %d bytes", session.id, len(d.payload))
            return wire.Datagram(wire.MsgType.ACK, d.seq, d.src_node)
        log.warning("session %d: unexpected %s", session.id, d.msg_type.name)
        return wire.Datagram(wire.MsgType.NACK, d.seq, d.src_node)

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
        session.transport.write(wire.encode_datagram(
            wire.Datagram(wire.MsgType.COMMAND, seq, target_node, payload)))
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
                    datagrams = decoder.feed(data)
                except wire.ProtocolError as exc:
                    log.warning("session %d: protocol error: %s", session.id, exc)
                    writer.transport.abort()
                    break
                replies = [self.handle_datagram(session, d) for d in datagrams]
                writer.write(b"".join(wire.encode_datagram(r) for r in replies if r is not None))
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

    def handle_datagram(self, session: _Session, d: wire.Datagram) -> wire.Datagram | None:
        """Ingest one decoded datagram; returns the reply to send, if any."""
        return self._core.handle_datagram(session, d)

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
