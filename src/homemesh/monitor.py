"""Monitoring-center service: ingests framed datagrams over TCP, persists them
in an append-only log, answers history/live queries, and dispatches commands.

Every socket and timer runs on one asyncio event loop in one thread, so store
writes are serialized by the loop itself. Any number of coordinator sessions
may be connected, and a malformed session is closed without touching the
others. A second listener speaks a line-delimited JSON admin protocol for
queries, snapshots, and command dispatch.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import logging
import os
import socket
import struct
import threading
import time
from collections import OrderedDict, defaultdict
from dataclasses import dataclass
from enum import Enum

from . import wire
from .errors import InvalidInput, NoCoordinator

log = logging.getLogger(__name__)

# on-disk record: receive timestamp (ns), coordinator id, frame length
RECORD_HEADER = struct.Struct(">QHI")

DEFAULT_LISTEN = ("127.0.0.1", 7007)
DEFAULT_ADMIN = ("127.0.0.1", 7008)

# a frame repeating (seq, payload) within this many of its coordinator's stored
# frames is a retransmit; half the 16-bit seq space, so a wrapped seq is new
DEDUP_WINDOW = 1 << 15


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
    received_at: int  # ns, monotone per store
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


_TICKET_RANK = {
    TicketState.QUEUED: 0,
    TicketState.SENT: 1,
    TicketState.ACKED: 2,
    TicketState.NACKED: 2,
    TicketState.TIMED_OUT: 2,
}

TERMINAL_STATES = (TicketState.ACKED, TicketState.NACKED, TicketState.TIMED_OUT)


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


def _dedup_key(d: wire.Datagram) -> tuple[int, bytes]:
    return d.seq, hashlib.sha256(d.payload).digest()


class RecordStore:
    """Append-only datagram log with in-memory indexes rebuilt on open.

    One record on disk is RECORD_HEADER followed by the encoded datagram.
    A torn tail from a crashed writer is truncated away on open. A frame is a
    duplicate, and is not stored again, when its coordinator stored the same
    (seq, payload hash) among its last DEDUP_WINDOW stored frames.
    """

    def __init__(self, path):
        self._path = str(path)
        self._lock = threading.RLock()
        self._records: list[SensorRecord] = []
        # per coordinator: (seq, payload hash) -> record, oldest first
        self._recent: defaultdict[int, OrderedDict[tuple[int, bytes], SensorRecord]] = \
            defaultdict(OrderedDict)
        self._latest: dict[tuple[int, int], SensorRecord] = {}
        valid = self._replay()
        mode = "r+b" if os.path.exists(self._path) else "w+b"
        self._file = open(self._path, mode)
        self._file.truncate(valid)
        self._file.seek(valid)

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
            self._index(received_at, coordinator_id, datagram, _dedup_key(datagram))
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
        key = _dedup_key(d)
        with self._lock:
            existing = self._recent.get(coordinator_id, {}).get(key)
            if existing is not None:
                return existing, False
            if received_at is None:
                received_at = time.time_ns()
                if self._records and received_at <= self._records[-1].received_at:
                    received_at = self._records[-1].received_at + 1
            self._file.write(RECORD_HEADER.pack(received_at, coordinator_id, len(raw)))
            self._file.write(raw)
            self._file.flush()
            return self._index(received_at, coordinator_id, d, key), True

    def query(self, src_node=None, kind=None, since=None, until=None,
              limit=None, cursor=None) -> tuple[list[SensorRecord], int | None]:
        """Matching records in arrival order, with cursor-based pagination.

        The cursor is the record_id of the last row already seen; the second
        return value is the cursor for the next page, or None at the end.
        """
        if limit is not None and (not isinstance(limit, int) or limit < 0):
            raise InvalidInput(f"limit must be a non-negative integer, got {limit!r}")
        if kind is not None and not isinstance(kind, RecordKind):
            raise InvalidInput(f"kind must be a RecordKind, got {kind!r}")
        with self._lock:
            records = list(self._records)
        out: list[SensorRecord] = []
        for record in records:
            if cursor is not None and record.record_id <= cursor:
                continue
            if src_node is not None and record.src_node != src_node:
                continue
            if kind is not None and record.kind is not kind:
                continue
            if since is not None and record.received_at < since:
                continue
            if until is not None and record.received_at > until:
                continue
            if limit is not None and len(out) == limit:
                return out, out[-1].record_id
            out.append(record)
        return out, None

    def snapshot(self) -> dict[tuple[int, int], SensorRecord]:
        """Most recent record per (coordinator_id, src_node)."""
        with self._lock:
            return dict(self._latest)

    @property
    def max_coordinator_id(self) -> int:
        with self._lock:
            return max(self._recent, default=0)

    def close(self) -> None:
        with self._lock:
            self._file.flush()
            self._file.close()


class _Session(asyncio.Protocol):
    """One connected coordinator; runs on the service's event loop."""

    def __init__(self, service: MonitorService, session_id: int):
        self.service = service
        self.id = session_id
        self.decoder = wire.StreamDecoder()
        self.pending: dict[int, int] = {}  # command seq -> ticket id
        self.transport: asyncio.Transport | None = None
        self._command_seq = 0

    def connection_made(self, transport) -> None:
        self.transport = transport
        self.service._sessions[self.id] = self
        log.info("coordinator session %d from %s", self.id, transport.get_extra_info("peername"))

    def data_received(self, data: bytes) -> None:
        try:
            datagrams = self.decoder.feed(data)
        except wire.ProtocolError as exc:
            log.warning("session %d: protocol error: %s", self.id, exc)
            self.transport.abort()
            return
        replies = [self.service.handle_datagram(self, d) for d in datagrams]
        self.transport.write(b"".join(wire.encode_datagram(r) for r in replies if r is not None))

    # a peer that stops reading its replies stops being read, so the reply
    # buffer stays bounded
    def pause_writing(self) -> None:
        self.transport.pause_reading()

    def resume_writing(self) -> None:
        self.transport.resume_reading()

    def connection_lost(self, exc) -> None:
        self.service._sessions.pop(self.id, None)
        log.info("session %d closed", self.id)

    def next_command_seq(self) -> int:
        seq = self._command_seq
        self._command_seq = (self._command_seq + 1) & 0xFFFF
        return seq

    def send(self, d: wire.Datagram) -> None:
        self.transport.write(wire.encode_datagram(d))


async def _call(fn, *args):
    return fn(*args)


class MonitorService:
    """The running service; use serve() or start()/stop() directly."""

    def __init__(self, listen=DEFAULT_LISTEN, admin=DEFAULT_ADMIN,
                 store_path="monitor-store.log", command_timeout: float = 5.0):
        self._listen_addr = tuple(listen)
        self._admin_addr = tuple(admin)
        self._store_path = store_path
        self.command_timeout = command_timeout
        self.store: RecordStore | None = None
        self._listener: socket.socket | None = None
        self._admin_listener: socket.socket | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._servers: list[asyncio.AbstractServer] = []
        self._sessions: dict[int, _Session] = {}
        self._admin_clients: dict[asyncio.StreamWriter, asyncio.Task] = {}
        self._next_session_id = 1
        self._tickets: dict[int, CommandTicket] = {}
        self._next_ticket_id = 1

    # --- lifecycle ---------------------------------------------------------

    def start(self) -> "MonitorService":
        self.store = RecordStore(self._store_path)
        self._next_session_id = self.store.max_coordinator_id + 1
        try:
            self._listener = socket.create_server(self._listen_addr)
            self._admin_listener = socket.create_server(self._admin_addr)
        except OSError:
            if self._listener is not None:
                self._listener.close()
            self.store.close()
            raise
        loop = asyncio.new_event_loop()
        self._servers = [
            loop.run_until_complete(loop.create_server(self._new_session, sock=self._listener)),
            loop.run_until_complete(asyncio.start_server(self._admin_client,
                                                         sock=self._admin_listener)),
        ]
        self._loop = loop
        self._thread = threading.Thread(target=loop.run_forever, name="monitor-loop",
                                        daemon=True)
        self._thread.start()
        log.info("monitor listening on %s, admin on %s", self.address, self.admin_address)
        return self

    def stop(self) -> None:
        if self._loop is not None:
            asyncio.run_coroutine_threadsafe(self._shutdown(), self._loop).result()
            self._loop.call_soon_threadsafe(self._loop.stop)
            self._thread.join(timeout=5)
            self._loop.close()
        if self.store is not None:
            self.store.close()

    async def _shutdown(self) -> None:
        # before Python 3.12, Server.close() leaves accepted connections open
        for server in self._servers:
            server.close()
        for session in list(self._sessions.values()):
            session.transport.abort()
        for writer in self._admin_clients:
            writer.transport.abort()
        await asyncio.gather(*self._admin_clients.values())

    def __enter__(self):
        return self.start()

    def __exit__(self, *exc):
        self.stop()

    @property
    def address(self):
        return self._listener.getsockname() if self._listener else self._listen_addr

    @property
    def admin_address(self):
        return self._admin_listener.getsockname() if self._admin_listener else self._admin_addr

    # --- coordinator sessions ----------------------------------------------

    def _new_session(self) -> _Session:
        session = _Session(self, self._next_session_id)
        self._next_session_id += 1
        return session

    def handle_datagram(self, session: _Session, d: wire.Datagram) -> wire.Datagram | None:
        """Ingest one decoded datagram; returns the reply to send, if any."""
        if d.msg_type in _KIND_OF_TYPE:
            record, created = self.store.append(session.id, d)
            if not created:
                log.info("session %d: duplicate seq=%d ignored", session.id, d.seq)
            if record.cid_error is not None:
                return wire.Datagram(wire.MsgType.NACK, d.seq, d.src_node)
            return wire.Datagram(wire.MsgType.ACK, d.seq, d.src_node)
        if d.msg_type is wire.MsgType.ACK:
            self._resolve(session, d.seq, TicketState.ACKED)
            return None
        if d.msg_type is wire.MsgType.NACK:
            self._resolve(session, d.seq, TicketState.NACKED)
            return None
        if d.msg_type is wire.MsgType.DISCOVERY_REPORT:
            log.info("session %d: discovery report, %d bytes", session.id, len(d.payload))
            return wire.Datagram(wire.MsgType.ACK, d.seq, d.src_node)
        log.warning("session %d: unexpected %s", session.id, d.msg_type.name)
        return wire.Datagram(wire.MsgType.NACK, d.seq, d.src_node)

    # --- command tickets -----------------------------------------------------

    def _resolve(self, session: _Session, seq: int, state: TicketState) -> None:
        ticket_id = session.pending.pop(seq, None)
        if ticket_id is None:
            log.info("session %d: %s for unknown seq %d ignored", session.id, state.value, seq)
            return
        self._advance(ticket_id, state)

    def _advance(self, ticket_id: int, state: TicketState) -> bool:
        ticket = self._tickets.get(ticket_id)
        if ticket is None or ticket.state in TERMINAL_STATES:
            return False
        if _TICKET_RANK[state] < _TICKET_RANK[ticket.state]:
            return False
        ticket.state = state
        return True

    def _expire(self, session: _Session, seq: int, ticket_id: int) -> None:
        if session.pending.get(seq) == ticket_id:
            del session.pending[seq]
        self._advance(ticket_id, TicketState.TIMED_OUT)

    def dispatch_command(self, target_node: int, opcode: wire.SwitchOpcode) -> CommandTicket:
        """Frame and send a COMMAND to the newest coordinator session.

        Callable from any thread. The returned ticket advances to ACKED/NACKED
        when the coordinator answers, or to TIMED_OUT after command_timeout
        seconds.
        """
        if threading.current_thread() is not self._thread:
            return asyncio.run_coroutine_threadsafe(
                _call(self.dispatch_command, target_node, opcode), self._loop).result()
        live = [s for s in self._sessions.values() if not s.transport.is_closing()]
        if not live:
            raise NoCoordinator("no coordinator session connected")
        session = max(live, key=lambda s: s.id)
        ticket = CommandTicket(self._next_ticket_id, target_node, wire.SwitchOpcode(opcode))
        self._next_ticket_id += 1
        self._tickets[ticket.ticket_id] = ticket
        seq = session.next_command_seq()
        session.pending[seq] = ticket.ticket_id
        session.send(wire.Datagram(wire.MsgType.COMMAND, seq, target_node,
                                   wire.encode_command_payload(target_node, opcode)))
        self._advance(ticket.ticket_id, TicketState.SENT)
        self._loop.call_later(self.command_timeout, self._expire, session, seq, ticket.ticket_id)
        return ticket

    def ticket(self, ticket_id: int) -> CommandTicket:
        ticket = self._tickets.get(ticket_id)
        if ticket is None:
            raise InvalidInput(f"unknown ticket id {ticket_id}")
        return ticket

    # --- queries -------------------------------------------------------------

    def query_history(self, **kwargs):
        return self.store.query(**kwargs)

    def live_snapshot(self):
        return self.store.snapshot()

    # --- admin protocol --------------------------------------------------------

    async def _admin_client(self, reader: asyncio.StreamReader,
                            writer: asyncio.StreamWriter) -> None:
        self._admin_clients[writer] = asyncio.current_task()
        try:
            while line := await reader.readline():
                try:
                    request = json.loads(line)
                    response = self._admin_dispatch(request)
                except (ValueError, InvalidInput) as exc:
                    response = {"ok": False, "error": str(exc)}
                except NoCoordinator as exc:
                    response = {"ok": False, "error": str(exc), "no_coordinator": True}
                writer.write(json.dumps(response).encode() + b"\n")
                await writer.drain()
        except (OSError, ValueError):  # ValueError: a line over the reader's limit
            pass
        finally:
            del self._admin_clients[writer]
            writer.close()

    def _admin_dispatch(self, request: dict) -> dict:
        op = request.get("op")
        if op == "query":
            kind = request.get("kind")
            records, cursor = self.query_history(
                src_node=request.get("node"),
                kind=RecordKind(kind) if kind is not None else None,
                since=request.get("since"),
                until=request.get("until"),
                limit=request.get("limit"),
                cursor=request.get("cursor"),
            )
            return {"ok": True, "records": [record_as_json(r) for r in records],
                    "cursor": cursor}
        if op == "snapshot":
            latest = self.live_snapshot()
            return {"ok": True,
                    "records": [record_as_json(latest[key]) for key in sorted(latest)]}
        if op == "send-command":
            opcode = _OPCODE_NAMES.get(request.get("opcode"))
            if opcode is None:
                raise InvalidInput(f"opcode must be one of {sorted(_OPCODE_NAMES)}")
            target = request.get("target")
            if not isinstance(target, int) or isinstance(target, bool):
                raise InvalidInput("target must be an integer node id")
            ticket = self.dispatch_command(target, opcode)
            return {"ok": True, "ticket": ticket_as_json(ticket)}
        if op == "ticket":
            ticket = self.ticket(request.get("id"))
            return {"ok": True, "ticket": ticket_as_json(ticket)}
        raise InvalidInput(f"unknown op {op!r}")


_OPCODE_NAMES = {
    "on": wire.SwitchOpcode.SWITCH_ON,
    "off": wire.SwitchOpcode.SWITCH_OFF,
    "query": wire.SwitchOpcode.QUERY_SWITCH,
}


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
          command_timeout: float = 5.0) -> MonitorService:
    """Start the monitoring service and return the running handle."""
    return MonitorService(listen, admin, store_path, command_timeout).start()
