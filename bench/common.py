"""Shared pieces of the benchmark: the seeded generator, the benchmark's own
frame codec, sample statistics, provenance and result assembly.

Every input the program receives is generated here from the run's seed, with
the bench's own copy of the documented SplitMix64, so the program under test
supplies none of its own inputs.
"""

from __future__ import annotations

import math
import os
import platform
import signal
import struct
import subprocess
import sys
import time
import zlib

MASK64 = (1 << 64) - 1


class SplitMix64:
    """The generator documented in README.md, reimplemented independently."""

    def __init__(self, seed: int):
        self.state = seed & MASK64

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        return z ^ (z >> 31)

    def uniform(self) -> float:
        """A float in [0, 1) from the top 53 bits."""
        return (self.next_u64() >> 11) * 2.0 ** -53

    def below(self, bound: int) -> int:
        return self.next_u64() % bound


def stream(seed: int, *keys: int) -> SplitMix64:
    """An independent generator for one purpose (keys) of one run (seed).

    Rep i of a time-bounded phase draws from stream(seed, PHASE, i), so its
    inputs do not depend on how many reps the machine managed to run.
    """
    state = seed & MASK64
    for key in keys:
        state = SplitMix64(state ^ (key * 0xD1B54A32D192ED03 & MASK64)).next_u64()
    return SplitMix64(state)


# --- frames, written from the wire spec in README.md -------------------------

FRAME_HEADER = struct.Struct(">2sBBHHH")
SENSOR_DATA, COMMAND, ACK, ALARM_CID, HEARTBEAT, NACK = 0x01, 0x02, 0x03, 0x04, 0x05, 0x07


def encode_frame(msg_type: int, seq: int, src: int, payload: bytes = b"") -> bytes:
    body = FRAME_HEADER.pack(b"\xa5\x5a", 1, msg_type, seq, src, len(payload)) + payload
    return body + struct.pack(">I", zlib.crc32(body))


class FrameReader:
    """Splits a byte stream into (msg_type, seq, src, payload) tuples."""

    def __init__(self):
        self.buf = bytearray()

    def feed(self, data: bytes) -> list[tuple[int, int, int, bytes]]:
        self.buf.extend(data)
        out = []
        while len(self.buf) >= 14:
            magic, version, msg_type, seq, src, length = FRAME_HEADER.unpack_from(self.buf)
            if magic != b"\xa5\x5a" or version != 1:
                raise ValueError("service sent a malformed frame header")
            total = 14 + length
            if len(self.buf) < total:
                break
            (crc,) = struct.unpack_from(">I", self.buf, total - 4)
            if crc != zlib.crc32(self.buf[:total - 4]):
                raise ValueError("service sent a frame with a bad CRC")
            out.append((msg_type, seq, src, bytes(self.buf[10:total - 4])))
            del self.buf[:total]
        return out


def cid_value(ch: str) -> int:
    return 10 if ch == "0" else int(ch)


def contact_id(rng: SplitMix64, valid: bool = True) -> str:
    """A 16-digit Contact-ID message; with valid=False its checksum is wrong."""
    while True:
        digits = "".join(str(rng.below(10)) for _ in range(4)) + "18"
        digits += "136"[rng.below(3)]
        digits += "".join(str(rng.below(10)) for _ in range(8))
        required = -sum(cid_value(ch) for ch in digits) % 15
        if 1 <= required <= 10:
            break
    if valid:
        return digits + ("0" if required == 10 else str(required))
    wrong = 1 + (required + rng.below(9)) % 10  # any digit value but `required`
    return digits + ("0" if wrong == 10 else str(wrong))


# --- statistics ----------------------------------------------------------------

def median(values) -> float:
    ordered = sorted(values)
    if not ordered:
        raise ValueError("median of no samples")
    mid = len(ordered) // 2
    return ordered[mid] if len(ordered) % 2 else (ordered[mid - 1] + ordered[mid]) / 2


def percentile(values, q: float) -> float:
    """Nearest-rank percentile, q in (0, 100]."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


# --- the result of one run -------------------------------------------------------

class Outcome:
    """Operations attempted and failed, plus the output checks that failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def check(self, ok: bool, message: str) -> bool:
        if not ok:
            if len(self.problems) < 20:
                self.problems.append(message)
            elif self.problems[-1] != "...":
                self.problems.append("...")
        return ok

    @property
    def correct(self) -> bool:
        return not self.problems


def git_commit(root: str) -> str:
    if not os.path.isdir(os.path.join(root, ".git")):
        return "unknown (not a git checkout)"
    try:
        done = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"], capture_output=True,
                              text=True, timeout=10, check=True)
    except (OSError, subprocess.SubprocessError):
        return "unknown (git unavailable)"
    return done.stdout.strip()


def nproc() -> int:
    return len(os.sched_getaffinity(0))


PROBE_REF_MS = 10.0  # the probe's time on the nominal host all gated timings are scaled to
PROBE_LOOPS = 50_000
SAMPLE_EVERY = 0.2  # seconds between probes inside one long call, see HostSpeed.call


class _Cell:
    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int):
        self.a, self.b = a, b


def probe_ms(loops: int = PROBE_LOOPS) -> float:
    """Time of fixed pure-Python work, scaled to PROBE_LOOPS (about 10 ms):
    how fast the host runs Python code right now. Half is arithmetic, half
    is object, dict and list work, as in the program: a host slowed by a
    noisy neighbour slows the two by different shares."""
    started = time.perf_counter()
    total = 0
    for i in range(loops):
        total += i * i % 7
    cells, rows = {}, []
    for i in range(loops // 8):
        cell = _Cell(i, i * 3 % 11)
        cells[i % 257] = cell
        rows.append((cell.a + cell.b, str(i % 97)))
        if len(rows) > 500:
            rows.sort()
            rows.clear()
    return (time.perf_counter() - started) * 1e3 * PROBE_LOOPS / loops


class HostSpeed:
    """Scales timings to a nominal host, to take out the host's own drift.

    A shared host ran the same Python code up to 1.5x slower for stretches
    of several seconds. So each workload probes the host before its first
    stretch of timed work and after each one, and the stretch's timings are
    multiplied by PROBE_REF_MS over the mean of the probes at its two ends
    and of any short ones taken inside it (call, sample).
    A change to the program moves the scaled figures as much as the raw
    ones; the probe is the bench's own code and does not change with it.
    The open-loop ACK latency of monitor-ingest is left unscaled: at a fixed
    offered rate it is set by loopback and wake-up costs, which do not follow
    the probe, and scaling made it several times noisier in trials.
    """

    def __init__(self):
        self.last = probe_ms()
        self.probes = [self.last]
        self.inside: list[float] = []  # probes taken inside the current stretch
        self.probe_s = 0.0  # time spent probing, kept out of a pass's wall time

    def factor(self) -> float:
        """The scale for the stretch since the previous call (or since start)."""
        started = time.perf_counter()
        now = probe_ms()
        self.probe_s += time.perf_counter() - started
        samples = [self.last, now] + self.inside
        scale = PROBE_REF_MS / (sum(samples) / len(samples))
        self.last = now
        self.probes.append(now)
        self.inside = []
        return scale

    def sample(self) -> None:
        """A short probe inside the current stretch, for a caller that is
        waiting on another process and can watch the host meanwhile."""
        self.inside.append(probe_ms(PROBE_LOOPS // 5))

    def call(self, fn, *args):
        """fn(*args), probing the host every SAMPLE_EVERY s from a timer
        signal while it runs: one call can last seconds, longer than the
        host keeps one speed. Returns the result and fn's own seconds, the
        probing taken out; the probes count towards the next factor()."""
        spent = 0.0

        def sample(signum, frame):
            nonlocal spent
            started = time.perf_counter()
            self.sample()
            spent += time.perf_counter() - started

        previous = signal.signal(signal.SIGALRM, sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY, SAMPLE_EVERY)
        started = time.perf_counter()
        try:
            result = fn(*args)
        finally:
            elapsed = time.perf_counter() - started
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        self.probe_s += spent
        return result, elapsed - spent

    @property
    def median_ms(self) -> float:
        return median(self.probes)


def provenance(root: str, workload: str, seed: int, network: str, probe: float) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "nproc": nproc(),
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "commit": git_commit(root),
        "network": network,
        "cpu_probe_ms": round(probe, 3),
    }


class Pass:
    """What one measured pass over a workload produced."""

    def __init__(self, metrics: dict, named: list, wall_s: float, counts: dict, probe: float):
        self.metrics = metrics  # the gated end-to-end metrics, by their contract names
        self.named = named  # (name, value, unit): the same figures under the names users quote
        self.wall_s = wall_s  # wall time of the pass less probing, the base of each layer's share
        self.counts = counts  # per-layer figures the workload measures itself
        self.probe_ms = probe  # median HostSpeed probe of the pass
        self.summary = None  # SpanSummary of a traced pass
