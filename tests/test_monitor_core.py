"""MonitorCore under a hypothesis state machine.

The machine drives the core alone, as the service's shell would, through a
fake transport and a virtual clock: no socket, thread or sleep is involved,
and only the store's record stamps read the wall clock. The model cannot
predict a stamp, so it keeps each record's first reading and checks that it
never changes. The store writes its log to a temporary directory, so a
restart replays it, from whatever its column file has become; the filtered
queries and the snapshot read the loaded columns, so they check them too.
DEDUP_WINDOW and TICKET_RETENTION are made small, so that dedup windows and
finished tickets are evicted within a run.
"""

import dataclasses
import os
import shutil
import tempfile
from collections import OrderedDict
from dataclasses import dataclass
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule, \
    run_state_machine_as_test

from homemesh import monitor, wire
from homemesh.errors import InvalidInput, NoCoordinator
from homemesh.monitor import TERMINAL_STATES, MonitorCore, RecordKind, TicketState

TIMEOUT = 5.0
PICK = st.integers(min_value=0, max_value=7)  # an index, taken modulo the choices
NODES = (7, 9)  # the sensor nodes frames come from
KINDS = {wire.MsgType.SENSOR_DATA: RecordKind.READING, wire.MsgType.HEARTBEAT: RecordKind.HEARTBEAT}
SEQS = st.sampled_from([0, 1, 2, 0xFFFF])
PAYLOADS = st.sampled_from([b"", b"a", b"b"])
FRAMES = st.tuples(st.sampled_from(sorted(KINDS)), st.sampled_from(NODES), SEQS, PAYLOADS)


class FakeTransport:
    """Collects the COMMAND frames the core writes to one session."""

    def __init__(self):
        self.decoder = wire.StreamDecoder()
        self.commands: list[wire.Datagram] = []
        self.closing = False

    def write(self, data):
        self.commands.extend(self.decoder.feed(data))

    def is_closing(self):
        return self.closing


@dataclass
class Sent:
    """One dispatched command and the state the model expects of it."""

    ticket: monitor.CommandTicket
    session: object
    seq: int
    deadline: float
    expected: TicketState = TicketState.SENT
    last_seen: TicketState = TicketState.SENT


def _rank(state):
    return 2 if state in TERMINAL_STATES else (0 if state is TicketState.QUEUED else 1)


class CoreMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.dir = tempfile.mkdtemp(prefix="homemesh-core-")
        self.path = f"{self.dir}/store.log"
        self.core = MonitorCore(self.path, command_timeout=TIMEOUT)
        self.core.open()
        self.now = 0.0
        self.live: dict[int, object] = {}  # session id -> session, as the shell holds them
        self.transports: list[FakeTransport] = []
        # the dedup rule: per coordinator, its last DEDUP_WINDOW stored (seq, payload) keys
        self.windows: dict[int, OrderedDict] = {}
        # (record_id, coordinator, src_node, seq, kind, payload) of each stored frame
        self.stored: list[tuple[int, int, int, int, RecordKind, bytes]] = []
        self.stamps: list[int] = []  # each stored record's received_at, as first read
        self.sent: list[Sent] = []
        self.column_files: list[bytes] = []  # the column file after each restart's close
        self.connect()

    def teardown(self):
        self.core.close()
        shutil.rmtree(self.dir, ignore_errors=True)

    def _is_live(self, session):
        return self.live.get(session.id) is session

    def _end(self, session):
        self.core.disconnect(session)
        del self.live[session.id]
        for sent in self.sent:
            if sent.session is session and sent.expected is TicketState.SENT:
                sent.expected = TicketState.TIMED_OUT

    # --- rules ------------------------------------------------------------

    @precondition(lambda self: len(self.live) < 4)
    @rule()
    def connect(self):
        transport = FakeTransport()
        session = self.core.connect(transport)
        # a new session never shares an id, and so a dedup window, with a stored one
        assert session.id not in self.live
        assert session.id > max((stored[1] for stored in self.stored), default=0)
        self.live[session.id] = session
        self.transports.append(transport)

    def _stored(self, session, d):
        """The dedup rule applied to one frame the core ACKed."""
        window = self.windows.setdefault(session.id, OrderedDict())
        if (d.seq, d.payload) not in window:
            self.stored.append(
                (len(self.stored) + 1, session.id, d.src_node, d.seq, KINDS[d.msg_type], d.payload))
            window[(d.seq, d.payload)] = None
            if len(window) > monitor.DEDUP_WINDOW:
                window.popitem(last=False)

    @precondition(lambda self: self.live)
    @rule(pick=PICK, kind=st.sampled_from(sorted(KINDS)), node=st.sampled_from(NODES),
          seq=SEQS, payload=PAYLOADS)
    def send_frame(self, pick, kind, node, seq, payload):
        session = list(self.live.values())[pick % len(self.live)]
        d = wire.Datagram(kind, seq, node, payload)
        reply = self.core.handle_datagram(session, d)
        self.core.store.flush()
        assert reply == wire.Datagram(wire.MsgType.ACK, seq, node)
        self._stored(session, d)

    @precondition(lambda self: self.live)
    @rule(pick=PICK, frames=st.lists(FRAMES, min_size=1, max_size=4), repeat=PICK)
    def send_chunk(self, pick, frames, repeat):
        # as the shell handles one read: the same chunk entry, then one flush
        session = list(self.live.values())[pick % len(self.live)]
        chunk = [wire.Datagram(kind, seq, node, payload) for kind, node, seq, payload in frames]
        chunk.append(chunk[repeat % len(chunk)])  # a retransmit inside the chunk
        data = b"".join(map(wire.encode_datagram, chunk))
        replies = monitor.ingest_read(wire.StreamDecoder(), data, self.core.handle_frame, session)
        self.core.store.flush()
        assert replies == b"".join(
            wire.encode_datagram(wire.Datagram(wire.MsgType.ACK, d.seq, d.src_node)) for d in chunk)
        for d in chunk:
            self._stored(session, d)

    @precondition(lambda self: self.live)
    @rule(pick=PICK, linger=st.booleans())
    def drop(self, pick, linger):
        # the transport reports closing before the shell's session ends, or lingers so
        session = list(self.live.values())[pick % len(self.live)]
        session.transport.closing = True
        if not linger:
            self._end(session)

    @rule(node=st.sampled_from([1, 10, 10, 300]), opcode=st.sampled_from([1, 2, 3, 9]))
    def dispatch(self, node, opcode):
        writes_before = [len(t.commands) for t in self.transports]
        open_sessions = [s for s in self.live.values() if not s.transport.closing]
        try:
            ticket = self.core.dispatch(node, opcode, self.now)
        except NoCoordinator:
            assert not open_sessions
            return
        except InvalidInput:
            assert node > 0xFF or opcode not in (1, 2, 3)
            assert [len(t.commands) for t in self.transports] == writes_before
            return
        newest = max(open_sessions, key=lambda s: s.id)
        assert [len(t.commands) for t in self.transports] == \
            [n + (t is newest.transport) for n, t in zip(writes_before, self.transports)]
        command = newest.transport.commands[-1]
        assert command.msg_type is wire.MsgType.COMMAND
        assert wire.decode_command_payload(command.payload) == (node, opcode)
        assert ticket.state is TicketState.SENT
        self.sent.append(Sent(ticket, newest, command.seq, self.now + TIMEOUT))

    @precondition(lambda self: any(self._is_live(s.session) for s in self.sent))
    @rule(pick=PICK, answer=st.sampled_from([wire.MsgType.ACK, wire.MsgType.NACK]))
    def answer(self, pick, answer):
        answerable = [s for s in self.sent if self._is_live(s.session)]
        sent = answerable[pick % len(answerable)]
        reply = self.core.handle_datagram(
            sent.session, wire.Datagram(answer, sent.seq, sent.ticket.target_node))
        assert reply is None
        if sent.expected is TicketState.SENT:
            sent.expected = TicketState.ACKED if answer is wire.MsgType.ACK else TicketState.NACKED

    @rule(dt=st.sampled_from([0.0, 0.5, 2.5, TIMEOUT]))
    def advance_clock(self, dt):
        self.now += dt
        self.core.expire(self.now)
        for sent in self.sent:
            if sent.deadline <= self.now and sent.expected is TicketState.SENT:
                sent.expected = TicketState.TIMED_OUT

    @rule(new_process=st.booleans(),
          fate=st.sampled_from(["keep", "delete", "earlier", "flip"]),
          pick=PICK, position=st.integers(min_value=0))
    def restart(self, new_process, fate, pick, position):
        # what MonitorService.stop() then start() do; a new process starts a new core
        for session in list(self.live.values()):
            self._end(session)
        self.core.close()
        # the column file is a cache: whatever becomes of it, the invariants hold
        cols_path = self.path + ".cols"
        with open(cols_path, "rb") as fh:
            self.column_files.append(fh.read())
        if fate == "delete":
            os.remove(cols_path)
        elif fate == "earlier":
            with open(cols_path, "wb") as fh:
                fh.write(self.column_files[pick % len(self.column_files)])
        elif fate == "flip":
            cols = bytearray(self.column_files[-1])
            cols[position % len(cols)] ^= 0x01
            with open(cols_path, "wb") as fh:
                fh.write(cols)
        if new_process:
            self.core = MonitorCore(self.path, command_timeout=TIMEOUT)
        self.core.open()

    # --- invariants ---------------------------------------------------------

    @invariant()
    def each_frame_is_stored_once_under_the_dedup_rule(self):
        records, _ = self.core.store.query()
        assert [(r.record_id, r.coordinator_id, r.src_node, r.seq, r.kind, r.payload)
                for r in records] == self.stored
        self.stamps += [r.received_at for r in records[len(self.stamps):]]
        assert [r.received_at for r in records] == self.stamps

    @invariant()
    def the_filters_and_the_snapshot_read_the_model(self):
        store = self.core.store
        for node in NODES:
            assert [r.record_id for r in store.query(src_node=node)[0]] == \
                [stored[0] for stored in self.stored if stored[2] == node]
        for kind in RecordKind:
            assert [r.record_id for r in store.query(kind=kind)[0]] == \
                [stored[0] for stored in self.stored if stored[4] is kind]
        # the store's own stamps increase, so each one picks out its record
        for record_id, stamp in enumerate(self.stamps, 1):
            assert [r.record_id for r in store.query(since=stamp, until=stamp)[0]] == [record_id]
        latest = {(stored[1], stored[2]): stored for stored in self.stored}
        assert {key: (r.record_id, r.coordinator_id, r.src_node, r.seq, r.kind, r.payload)
                for key, r in store.snapshot().items()} == latest

    @invariant()
    def the_log_file_holds_the_store_log(self):
        # every rule that stores frames ends with a flush, as each chunk does
        with open(self.path, "rb") as fh:
            assert fh.read() == self.core.store._log

    @invariant()
    def no_ticket_moves_backward(self):
        for sent in self.sent:
            state = sent.ticket.state
            assert _rank(state) >= _rank(sent.last_seen)
            assert sent.last_seen not in TERMINAL_STATES or state is sent.last_seen
            sent.last_seen = state

    @invariant()
    def every_ticket_is_terminal_by_its_deadline_or_its_session_end(self):
        for sent in self.sent:
            if sent.deadline <= self.now or not self._is_live(sent.session):
                assert sent.ticket.state in TERMINAL_STATES
            assert sent.ticket.state is sent.expected

    @invariant()
    def the_core_holds_nothing_beyond_the_live_sessions(self):
        core = self.core
        assert core._sessions.keys() == self.live.keys()
        assert all(core._sessions[i] is s for i, s in self.live.items())
        pending = [t for s in self.live.values() for t in s.pending.values()]
        open_tickets = [i for i, t in core._tickets.items() if t.state not in TERMINAL_STATES]
        assert sorted(pending) == sorted(open_tickets)
        assert len(core._finished) <= monitor.TICKET_RETENTION
        assert len(core._tickets) <= monitor.TICKET_RETENTION + len(pending)
        assert all(deadline > self.now for deadline, *_ in core._deadlines)
        assert core.store._windows.keys() <= self.live.keys()


def test_core_state_machine(monkeypatch):
    monkeypatch.setattr(monitor, "DEDUP_WINDOW", 3)
    monkeypatch.setattr(monitor, "TICKET_RETENTION", 1)
    run_state_machine_as_test(
        CoreMachine, settings=settings(max_examples=100, stateful_step_count=30, deadline=None))


def test_a_session_takes_its_dedup_window_with_it(tmp_path):
    core = MonitorCore(tmp_path / "store.log", command_timeout=TIMEOUT)
    core.open()
    try:
        for _ in range(200):
            session = core.connect(FakeTransport())
            for seq in range(5):
                core.handle_datagram(session, wire.Datagram(wire.MsgType.HEARTBEAT, seq, 7))
            assert session.id in core.store._windows
            core.disconnect(session)
        assert core.store._windows == {}
        assert len(core.store.query()[0]) == 1000
    finally:
        core.close()


@pytest.mark.parametrize("timeout", [float("nan"), float("inf"), 0.0, -1.0])
def test_a_command_timeout_that_is_not_a_positive_finite_number_is_refused(tmp_path, timeout):
    # a NaN deadline is never reached, so its ticket would stay SENT for ever
    with pytest.raises(InvalidInput, match="command timeout must be a positive finite number"):
        MonitorCore(tmp_path / "store.log", command_timeout=timeout)
    with pytest.raises(InvalidInput, match="command timeout must be a positive finite number"):
        monitor.serve(("127.0.0.1", 0), ("127.0.0.1", 0), tmp_path / "store.log", timeout)
    assert not (tmp_path / "store.log").exists()


# --- the chunk path against one handle_datagram per datagram --------------------

VALID_CID, BAD_CID = b"1234181131010158", b"1234181131010157"
COMMANDS = 3  # dispatched before each stream, so answers to seqs 0..2 find a pending ticket
RECORD_FRAMES = st.builds(wire.Datagram, st.sampled_from(sorted(KINDS)), SEQS,
                          st.sampled_from(NODES), PAYLOADS)
OTHER_FRAMES = st.one_of(
    st.builds(wire.Datagram, st.just(wire.MsgType.ALARM_CID), SEQS, st.sampled_from(NODES),
              st.sampled_from([VALID_CID, BAD_CID])),
    st.builds(wire.Datagram, st.sampled_from([wire.MsgType.ACK, wire.MsgType.NACK]),
              st.integers(0, COMMANDS), st.just(10)),
    st.builds(wire.Datagram, st.just(wire.MsgType.DISCOVERY_REPORT), SEQS, st.just(1),
              st.just(b"\x07\x09")),
    st.builds(wire.Datagram, st.just(wire.MsgType.COMMAND), SEQS, st.just(1),
              st.just(b"\x07\x01")),  # a coordinator never sends one: NACKed
)
WRAPS = st.integers(0xFFF0, 0xFFFF).map(  # a run of seqs across the 16-bit wrap
    lambda first: [wire.Datagram(wire.MsgType.SENSOR_DATA, (first + i) & 0xFFFF, 7, b"w")
                   for i in range(0x10004 - first)])
STREAMS = st.lists(st.one_of(RECORD_FRAMES.map(lambda d: [d]), OTHER_FRAMES.map(lambda d: [d]),
                             WRAPS), max_size=12)


def _masked_log(store):
    """The log's bytes with each record's received_at zeroed."""
    log = bytearray(store._log)
    for offset in store._offset:
        log[offset:offset + 8] = bytes(8)
    return bytes(log)


def _core_state(core):
    store = core.store
    return (_masked_log(store), [bytes(column) for column in
                                 (store._node, store._type, store._coordinator, store._offset)],
            {key: dataclasses.replace(r, received_at=0) for key, r in store.snapshot().items()},
            {ticket_id: t.state for ticket_id, t in core._tickets.items()})


@given(STREAMS, st.data())
@settings(max_examples=100, deadline=None)
def test_the_chunk_path_matches_one_handle_datagram_per_datagram(runs, data):
    stream = [d for run in runs for d in run]
    for _ in range(data.draw(st.integers(0, 3))):  # retransmits, each right after its frame
        if stream:
            at = data.draw(st.integers(0, len(stream) - 1))
            stream.insert(at + 1, stream[at])
    blob = b"".join(map(wire.encode_datagram, stream))
    cuts = sorted(data.draw(st.lists(st.integers(0, len(blob)), max_size=6)))
    pieces = [blob[a:b] for a, b in zip([0] + cuts, cuts + [len(blob)])]
    with tempfile.TemporaryDirectory(prefix="homemesh-core-") as tmp, \
            mock.patch.object(monitor, "DEDUP_WINDOW", 3):
        cores = [MonitorCore(f"{tmp}/{name}.log", command_timeout=TIMEOUT) for name in "ab"]
        try:
            sessions = []
            for core in cores:
                core.open()
                sessions.append(core.connect(FakeTransport()))
                for _ in range(COMMANDS):
                    core.dispatch(10, wire.SwitchOpcode.SWITCH_ON, 0.0)
            chunked, single = cores
            decoders = wire.StreamDecoder(), wire.StreamDecoder()
            replies = [b"", b""]
            for piece in pieces:
                replies[0] += monitor.ingest_read(decoders[0], piece, chunked.handle_frame,
                                                  sessions[0])
                for d in decoders[1].feed(piece):
                    reply = single.handle_datagram(sessions[1], d)
                    if reply is not None:
                        replies[1] += wire.encode_datagram(reply)
                for core in cores:
                    core.store.flush()
            assert replies[0] == replies[1]
            assert _core_state(chunked) == _core_state(single)
        finally:
            for core in cores:
                core.close()


@given(st.lists(st.one_of(RECORD_FRAMES, OTHER_FRAMES), max_size=8))
@settings(max_examples=50, deadline=None)
def test_a_plain_int_type_is_handled_as_its_member(stream):
    with tempfile.TemporaryDirectory(prefix="homemesh-core-") as tmp:
        cores = [MonitorCore(f"{tmp}/{name}.log", command_timeout=TIMEOUT) for name in "ab"]
        try:
            replies = []
            for core, given_as in zip(cores, (lambda t: t, int)):
                core.open()
                session = core.connect(FakeTransport())
                for _ in range(COMMANDS):
                    core.dispatch(10, wire.SwitchOpcode.SWITCH_ON, 0.0)
                sent = [dataclasses.replace(d, msg_type=given_as(d.msg_type)) for d in stream]
                replies.append([core.handle_datagram(session, d) for d in sent])
                core.store.flush()
            assert replies[0] == replies[1]
            assert _core_state(cores[0]) == _core_state(cores[1])
        finally:
            for core in cores:
                core.close()
