"""monitor-ingest: `homemesh serve` in its own process, driven over loopback TCP.

The service opens a store prefilled with seeded records, so start-up pays a
realistic replay and every history page scans a realistic store. One
coordinator session and one admin connection share one select loop in this
single-threaded client; that is two connections, at most nproc.

Phase A is a closed loop with IN_FLIGHT frames outstanding: it measures the
ACK rate. Phase B is an open loop at a fixed frame rate, each ACK timed from
when its frame was due. During phase B the admin connection pages one node's
history and dispatches switch commands (at most 10 per second: every command
starts a 5 s timer thread in the service); the client answers each COMMAND
with an ACK, as a coordinator would. Afterwards every ticket must read
`acked` and every frame must be stored exactly once, as read back through the
admin `query` op. The session passes more than 65,536 frames, so a 16-bit seq
wraps and seeded heartbeats (empty payloads) repeat a (seq, payload) key: a
frame that is ACKed but not stored counts as a failed operation.
"""

from __future__ import annotations

import json
import os
import select
import shutil
import signal
import socket
import struct
import subprocess
import sys
import time

import common
from common import HostSpeed, Pass, median, percentile, stream
from spans import SpanSummary, Tracer

SIZES = {
    "full": {"prefill": 200_000, "phase_a": 120_000, "rate": 5000.0, "nodes": 50, "starts": 5},
    "tiny": {"prefill": 2000, "phase_a": 1500, "rate": 1000.0, "nodes": 8, "starts": 2},
}
IN_FLIGHT = 32
ROUNDS = 8
PAGE_EVERY = 0.2  # seconds between history page requests in phase B
COMMAND_EVERY = 0.2  # seconds between switch commands in phase B
PAGE_LIMIT = 100
PREFILL_SESSIONS = 4
RECORD = struct.Struct(">QHI")  # received_at ns, coordinator id, frame length
READING = struct.Struct(">QH")
PREFILL, FRAMES, ADMIN = 6, 7, 8
STARTUP_TIMEOUT = 120.0
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))


def prefill_store(path: str, seed: int, cfg) -> None:
    """Write the store file directly in the documented on-disk record format."""
    rng = stream(seed, PREFILL)
    per_session = -(-cfg["prefill"] // PREFILL_SESSIONS)
    with open(path, "wb") as fh:
        for i in range(cfg["prefill"]):
            coordinator = 1 + i // per_session
            seq = (i % per_session) & 0xFFFF
            src = 2 + rng.below(cfg["nodes"])
            roll = rng.below(100)
            if roll < 90:
                frame = common.encode_frame(common.SENSOR_DATA, seq, src,
                                            READING.pack(i, rng.below(1 << 16)))
            elif roll < 98:
                frame = common.encode_frame(common.HEARTBEAT, seq, src)
            else:
                frame = common.encode_frame(common.ALARM_CID, seq, src,
                                            common.contact_id(rng).encode())
            fh.write(RECORD.pack(1_600_000_000_000_000_000 + i * 1000, coordinator, len(frame)))
            fh.write(frame)


class Frames:
    """The session's frames, pre-encoded, with what the service must answer."""

    def __init__(self, seed: int, count: int, cfg):
        rng = stream(seed, FRAMES)
        self.wire, self.seq, self.src, self.payload, self.bad = [], [], [], [], []
        for i in range(count):
            seq = i & 0xFFFF
            src = 2 + rng.below(cfg["nodes"])
            roll = rng.below(100)
            bad = False
            if roll < 80:
                kind, payload = common.SENSOR_DATA, READING.pack(cfg["prefill"] + i,
                                                                 rng.below(1 << 16))
            elif roll < 95:
                kind, payload = common.HEARTBEAT, b""
            else:
                bad = rng.below(10) == 0
                kind, payload = common.ALARM_CID, common.contact_id(rng, valid=not bad).encode()
            self.wire.append(common.encode_frame(kind, seq, src, payload))
            self.seq.append(seq)
            self.src.append(src)
            self.payload.append(payload)
            self.bad.append(bad)

    def check_reply(self, index: int, reply, outcome) -> None:
        want = (common.NACK if self.bad[index] else common.ACK, self.seq[index], self.src[index])
        if reply[:3] != want:  # format the message only on failure: this runs per frame
            outcome.check(False, f"frame {index}: reply {reply[:3]}, expected {want}")


class Service:
    """One `homemesh serve` process on ephemeral loopback ports."""

    def __init__(self, root: str, work: str, store: str, spans_path: str | None, speed):
        if spans_path is None:
            command = [sys.executable, "-u", "-m", "homemesh.cli"]
        else:
            command = [sys.executable, "-u", os.path.join(BENCH_DIR, "serve_traced.py"), spans_path]
        command += ["serve", "--listen", "127.0.0.1:0", "--admin", "127.0.0.1:0", "--store", store]
        env = dict(os.environ, PYTHONPATH="src")
        started = time.perf_counter()
        with open(os.path.join(work, "service.err"), "ab") as err:
            self.proc = subprocess.Popen(command, cwd=root, env=env, stdout=subprocess.PIPE,
                                         stderr=err)
        line = b""
        deadline = started + STARTUP_TIMEOUT
        while not line.endswith(b"\n"):
            # the service starts in its own process: probe the host while waiting
            ready, _, _ = select.select([self.proc.stdout], [], [], common.SAMPLE_EVERY)
            if not ready and time.perf_counter() < deadline:
                speed.sample()
                continue
            chunk = os.read(self.proc.stdout.fileno(), 4096) if ready else b""
            if not chunk:
                self.stop()
                raise RuntimeError(f"service did not start: {line!r}")
            line += chunk
        self.startup_s = time.perf_counter() - started
        # "listening on HOST:PORT, admin on HOST:PORT"
        data, admin = line.decode().split("\n")[0].removeprefix("listening on ").split(", admin on ")
        self.address = (data.rsplit(":", 1)[0], int(data.rsplit(":", 1)[1]))
        self.admin_address = (admin.rsplit(":", 1)[0], int(admin.rsplit(":", 1)[1]))

    def threads(self) -> int:
        with open(f"/proc/{self.proc.pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("Threads:"):
                    return int(line.split()[1])
        return 0

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


class Admin:
    """Line-delimited JSON requests on one admin connection."""

    def __init__(self, sock: socket.socket):
        self.sock = sock
        self.buf = bytearray()

    def send(self, request: dict) -> None:
        self.sock.setblocking(True)
        self.sock.sendall(json.dumps(request).encode() + b"\n")
        self.sock.setblocking(False)

    def lines(self) -> list[dict]:
        data = self.sock.recv(1 << 16)
        if not data:
            raise ConnectionError("admin connection closed")
        self.buf.extend(data)
        out = []
        while b"\n" in self.buf:
            line, _, rest = bytes(self.buf).partition(b"\n")
            self.buf = bytearray(rest)
            out.append(json.loads(line))
        return out

    def call(self, request: dict) -> dict:
        self.send(request)
        while True:
            select.select([self.sock], [], [], 30.0)
            replies = self.lines()
            if replies:
                return replies[0]


def phase_a(sess, frames: Frames, first: int, end: int, outcome) -> float:
    """Closed loop over frames[first:end] with IN_FLIGHT outstanding; returns
    the seconds it took. The rate is taken over whole rounds, not as a median
    of windows: the service's garbage-collection pauses are part of its cost,
    and their number, unlike where they fall, repeats from run to run."""
    reader = common.FrameReader()
    sess.setblocking(True)
    started = time.perf_counter()
    sent = min(end, first + IN_FLIGHT)
    sess.sendall(b"".join(frames.wire[first:sent]))
    replied = first
    while replied < end:
        data = sess.recv(1 << 16)
        if not data:
            raise ConnectionError("service closed the session")
        for reply in reader.feed(data):
            frames.check_reply(replied, reply, outcome)
            replied += 1
        top = min(end, replied + IN_FLIGHT)
        if top > sent:
            sess.sendall(b"".join(frames.wire[sent:top]))
            sent = top
    return time.perf_counter() - started


class PhaseB:
    """Open loop at a fixed rate, with history pages and commands alongside."""

    def __init__(self, service, sess, admin: Admin, frames: Frames, rate: float, nodes: int,
                 rng, outcome):
        self.service, self.sess, self.admin, self.frames = service, sess, admin, frames
        self.rate = rate
        self.nodes, self.node = nodes, 2 + rng.below(nodes)
        self.rng, self.outcome = rng, outcome
        self.reader = common.FrameReader()
        self.ack_ms, self.late_ms, self.page_ms, self.command_ms = [], [], [], []
        self.threads: list[int] = []
        self.tickets: list[int] = []
        self.command_sent: list[float] = []
        self.commands_seen = 0
        self.cursor = None
        self.admin_failures = 0
        self.requests = 0

    def run(self, first: int, end: int) -> None:
        """Send frames[first:end] on schedule, with the admin requests due meanwhile."""
        sess, admin, frames = self.sess, self.admin, self.frames
        sess.setblocking(False)
        admin.sock.setblocking(False)
        out = bytearray()
        start = time.perf_counter() + 0.01
        period = 1.0 / self.rate
        seconds = (end - first) * period
        ops = [(k * PAGE_EVERY, "page") for k in range(max(1, int(seconds / PAGE_EVERY)))]
        ops += [(PAGE_EVERY / 2 + k * COMMAND_EVERY, "command")
                for k in range(max(1, int(seconds / COMMAND_EVERY)))]
        ops.sort()
        self.requests += len(ops)
        next_frame, replied, next_op, pending = first, first, 0, None
        next_sample = start
        deadline = start + seconds + 60.0
        while True:
            now = time.perf_counter()
            while next_frame < end and start + (next_frame - first) * period <= now:
                out += frames.wire[next_frame]
                self.late_ms.append((now - start - (next_frame - first) * period) * 1e3)
                next_frame += 1
            if out:
                try:
                    del out[:sess.send(out)]
                except BlockingIOError:
                    pass
            if pending is None and next_op < len(ops) and start + ops[next_op][0] <= now:
                pending = self._request(ops[next_op][1])
                next_op += 1
            if now >= next_sample:
                self.threads.append(self.service.threads())
                next_sample = now + 0.1
            if (replied == end and next_op == len(ops) and pending is None
                    and self.commands_seen == len(self.command_sent) and not out):
                return
            if now > deadline:
                raise TimeoutError("phase B did not finish")
            wake = [next_sample]
            if next_frame < end:
                wake.append(start + (next_frame - first) * period)
            if pending is None and next_op < len(ops):
                wake.append(start + ops[next_op][0])
            timeout = min(0.05, max(0.0, min(wake) - now))
            readable, _, _ = select.select([sess, admin.sock], [sess] if out else [], [], timeout)
            if sess in readable:
                data = sess.recv(1 << 16)
                if not data:
                    raise ConnectionError("service closed the session")
                now = time.perf_counter()
                for reply in self.reader.feed(data):
                    if reply[0] == common.COMMAND:
                        out += self._command_arrived(reply, now)
                        continue
                    frames.check_reply(replied, reply, self.outcome)
                    due = start + (replied - first) * period
                    self.ack_ms.append((now - due) * 1e3)
                    replied += 1
            if admin.sock in readable:
                for response in admin.lines():
                    self._response(pending, response, time.perf_counter())
                    pending = None

    def _request(self, kind: str):
        if kind == "page":
            request = {"op": "query", "node": self.node, "limit": PAGE_LIMIT, "cursor": self.cursor}
        else:
            target = 2 + self.rng.below(self.nodes)
            opcode = ("on", "off")[self.rng.below(2)]
            request = {"op": "send-command", "target": target, "opcode": opcode}
            self.command_sent.append(time.perf_counter())
        self.admin.send(request)
        return kind, request, time.perf_counter()

    def _command_arrived(self, reply, now: float) -> bytes:
        _, seq, src, payload = reply
        self.outcome.check(seq == self.commands_seen and seq < len(self.command_sent)
                           and len(payload) == 2 and payload[0] == src,
                           f"unexpected COMMAND seq {seq} payload {payload!r}")
        if seq < len(self.command_sent):
            self.command_ms.append((now - self.command_sent[seq]) * 1e3)
        self.commands_seen += 1
        return common.encode_frame(common.ACK, seq, src)

    def _response(self, pending, response: dict, now: float) -> None:
        kind, request, sent = pending
        if not response.get("ok"):
            self.admin_failures += 1
            self.outcome.check(False, f"admin {kind} failed: {response.get('error')}")
            if kind == "command":
                self.command_sent.pop()  # no COMMAND will arrive for it
            return
        if kind == "command":
            self.tickets.append(response["ticket"]["ticket_id"])
            return
        self.page_ms.append((now - sent) * 1e3)
        records, cursor = response["records"], response["cursor"]
        ids = [r["record_id"] for r in records]
        self.outcome.check(
            all(r["node"] == self.node for r in records) and ids == sorted(set(ids))
            and len(ids) <= PAGE_LIMIT and (cursor is None or (len(ids) == PAGE_LIMIT
                                                              and cursor == ids[-1]))
            and all(i > (request["cursor"] or 0) for i in ids),
            f"history page after cursor {request['cursor']} is malformed")
        self.cursor = cursor


def read_back(admin: Admin, after: int) -> list[dict]:
    records, cursor = [], after
    while cursor is not None:
        response = admin.call({"op": "query", "cursor": cursor, "limit": 5000})
        if not response.get("ok"):
            raise RuntimeError(f"read-back query failed: {response.get('error')}")
        records += response["records"]
        cursor = response["cursor"]
    return records


def check_stored(frames: Frames, records: list[dict], coordinator: int, outcome) -> int:
    """Match stored records, in order, against the frames sent; returns how
    many frames were ACKed (or NACKed) but never stored."""
    sent = len(frames.wire)
    lost, i = 0, 0
    for record in records:
        key = (record["coordinator"], record["seq"], record["node"], bytes.fromhex(record["payload"]))
        while i < sent and key != (coordinator, frames.seq[i], frames.src[i], frames.payload[i]):
            lost += 1
            i += 1
        if not outcome.check(i < sent, f"stored record {record['record_id']} matches no frame"
                             " sent, or one already stored"):
            return lost
        i += 1
    return lost + sent - i


def measure(hm, root: str, seed: int, seconds: float, size: str, outcome, expected,
            traced: bool = False) -> Pass:
    cfg = SIZES[size]
    if common.nproc() < 2:
        raise RuntimeError("monitor-ingest needs 2 client connections, so nproc >= 2")
    work = os.path.join(root, ".bench_work", f"ingest-{os.getpid()}-{int(traced)}")
    os.makedirs(work, exist_ok=True)
    spans_path = os.path.join(work, "spans.bin") if traced else None
    service = None
    pass_started = time.perf_counter()
    try:
        store = os.path.join(work, "store.log")
        prefill_store(store, seed, cfg)
        phase_b = int(cfg["rate"] * seconds / 2)
        frames = Frames(seed, cfg["phase_a"] + phase_b, cfg)
        speed = HostSpeed()
        startups, raw_startups = [], []
        for start in range(cfg["starts"]):
            service = Service(root, work, store, spans_path, speed)
            startups.append(service.startup_s * speed.factor())
            raw_startups.append(service.startup_s)
            if start < cfg["starts"] - 1:
                service.stop()

        sess = socket.create_connection(service.address)
        admin_sock = socket.create_connection(service.admin_address)
        connections = [sess, admin_sock]
        outcome.check(len(connections) <= common.nproc(), "more client connections than nproc")
        try:
            for conn in connections:
                conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            admin = Admin(admin_sock)
            b = PhaseB(service, sess, admin, frames, cfg["rate"], cfg["nodes"],
                       stream(seed, ADMIN), outcome)
            # the phases alternate over ROUNDS rounds, so each one samples
            # the whole run rather than one stretch of it
            phase_a_s = raw_phase_a_s = 0.0
            page_ms, sent = [], 0
            for r in range(ROUNDS):
                a_end = sent + cfg["phase_a"] * (r + 1) // ROUNDS - cfg["phase_a"] * r // ROUNDS
                elapsed = phase_a(sess, frames, sent, a_end, outcome)
                phase_a_s += elapsed * speed.factor()
                raw_phase_a_s += elapsed
                sent = a_end + phase_b * (r + 1) // ROUNDS - phase_b * r // ROUNDS
                pages = len(b.page_ms)
                b.run(a_end, sent)
                scale = speed.factor()
                page_ms += [t * scale for t in b.page_ms[pages:]]

            unsettled = 0
            for ticket_id in b.tickets:
                for _ in range(100):
                    ticket = admin.call({"op": "ticket", "id": ticket_id})["ticket"]
                    if ticket["state"] not in ("queued", "sent"):
                        break
                    time.sleep(0.02)
                unsettled += ticket["state"] != "acked"
                outcome.check(ticket["state"] == "acked",
                              f"ticket {ticket_id} ended {ticket['state']}, not acked")
            records = read_back(admin, cfg["prefill"])
        finally:
            for conn in connections:
                conn.close()
        lost = check_stored(frames, records, PREFILL_SESSIONS + 1, outcome)
        service.stop()  # a traced service writes its spans as it exits
        summary = SpanSummary(Tracer.load(spans_path)) if traced else None
    finally:
        if service is not None:
            service.stop()
        shutil.rmtree(work, ignore_errors=True)

    outcome.attempted += len(frames.wire) + b.requests + len(b.tickets)
    outcome.failed += lost + b.admin_failures + unsettled
    metrics = {
        "setup_s": median(startups),
        "throughput_per_s": cfg["phase_a"] / phase_a_s,
        "latency_p50_ms": median(b.ack_ms),  # not scaled: see HostSpeed
        "request_p50_ms": median(page_ms),
    }
    named = [
        ("setup_s", metrics["setup_s"], "s"),
        ("ingest_fps", metrics["throughput_per_s"], "1/s"),
        ("ack_p50_ms", metrics["latency_p50_ms"], "ms"),
        ("history_page_p50_ms", metrics["request_p50_ms"], "ms"),
        ("command_p50_ms", median(b.command_ms), "ms"),
        ("frames_acked_not_stored", lost, "count"),
        ("raw_setup_s", median(raw_startups), "s"),
        ("raw_ingest_fps", cfg["phase_a"] / raw_phase_a_s, "1/s"),
        ("raw_history_page_p50_ms", median(b.page_ms), "ms"),
    ]
    counts = {
        "service_threads": max(b.threads),
        "ack_p99_ms": percentile(b.ack_ms, 99),
        "command_p50_ms": median(b.command_ms),
        "generator_late_ms": percentile(b.late_ms, 99),
    }
    wall_s = time.perf_counter() - pass_started - speed.probe_s
    result = Pass(metrics, named, wall_s, counts, speed.median_ms)
    result.summary = summary
    return result
