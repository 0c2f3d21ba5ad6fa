"""Span recording for the traced run, done entirely from the benchmark's side.

Wrappers are installed on every module or class attribute through which the
package's callers resolve a layer function, so a call made by name from
another module (simnet and cli import find_optimal_path by name, for
example) is recorded too. A span is (name, start, end, parent, request id);
the request id is the id of the outermost span on the same thread. Spans are
kept per thread in flat arrays and reduced to per-name totals at the end.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from array import array

MODULES = ("netmodel", "routing", "simnet", "wire", "monitor", "cli")

# (module, attribute path, span name); a missing attribute is skipped, so a
# later version of the package may drop or add functions without a bench edit
TARGETS = [
    ("netmodel", "table_from_positions", "netmodel.table_from_positions"),
    ("netmodel", "topology_from_positions", "netmodel.topology_from_positions"),
    ("netmodel", "load_topology", "netmodel.load_topology"),
    ("routing", "find_optimal_path", "routing.find_optimal_path"),
    ("routing", "shortest_path_tree", "routing.shortest_path_tree"),
    ("routing", "all_pairs_profile", "routing.all_pairs_profile"),
    ("simnet", "draw_pairs", "simnet.draw_pairs"),
    ("simnet", "run_traffic", "simnet.run_traffic"),
    ("simnet", "run_discovery", "simnet.run_discovery"),
    ("simnet", "node_tick", "simnet.node_tick"),
    ("simnet", "SimNetwork.step", "simnet.step"),
    ("simnet", "SimNetwork._launch", "simnet.launch"),
    ("wire", "encode_datagram", "wire.encode_datagram"),
    ("wire", "StreamDecoder.feed", "wire.feed"),
    ("monitor", "RecordStore.__init__", "monitor.replay"),
    ("monitor", "RecordStore.append", "monitor.append"),
    ("monitor", "RecordStore.query", "monitor.query"),
    ("monitor", "MonitorService.handle_datagram", "monitor.handle_datagram"),
    ("monitor", "MonitorService.dispatch_command", "monitor.dispatch_command"),
    ("cli", "main", "cli.main"),
    ("cli", "cmd_serve", "cli.serve"),
]

SEARCHES = ("routing.find_optimal_path", "routing.shortest_path_tree")


def _bytes_out(args, result):
    return "wire.bytes", len(result)


def _bytes_in(args, result):
    return "wire.bytes", len(args[1])


def _duplicate(args, result):
    return "monitor.duplicates", 0 if result[1] else 1


OBSERVERS = {
    "wire.encode_datagram": _bytes_out,
    "wire.feed": _bytes_in,
    "monitor.append": _duplicate,
}


class _Buffer:
    """The spans of one thread, as parallel arrays."""

    def __init__(self):
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.request = array("i")
        self.stack: list[int] = []
        self.counters: dict[str, int] = {}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.buffers: list[_Buffer] = []
        self._local = threading.local()
        self._lock = threading.Lock()

    def _buffer(self) -> _Buffer:
        buf = getattr(self._local, "buf", None)
        if buf is None:
            buf = self._local.buf = _Buffer()
            with self._lock:
                self.buffers.append(buf)
        return buf

    def wrap(self, fn, name: str):
        name_id = len(self.names)
        self.names.append(name)
        observe = OBSERVERS.get(name)
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            buf = tracer._buffer()
            index = len(buf.name)
            parent = buf.stack[-1] if buf.stack else -1
            buf.name.append(name_id)
            buf.parent.append(parent)
            buf.request.append(buf.request[parent] if parent >= 0 else index)
            buf.end.append(0.0)
            buf.stack.append(index)
            buf.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                buf.end[index] = clock()
                buf.stack.pop()
            if observe is not None:
                key, amount = observe(args, result)
                buf.counters[key] = buf.counters.get(key, 0) + amount
            return result

        return traced

    def install(self, package_modules: dict) -> None:
        """Wrap every target and rebind each alias of it in the package."""
        for module_name, path, span_name in TARGETS:
            owner = package_modules[module_name]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
            if original is None:
                continue
            wrapped = self.wrap(original, span_name)
            setattr(owner, attr, wrapped)
            if not outer:
                for module in package_modules.values():
                    for alias, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, alias, wrapped)

    # --- persistence, for the traced service process --------------------------

    def dump(self, path: str) -> None:
        with self._lock:
            buffers = list(self.buffers)
        header = {"names": self.names,
                  "sizes": [len(b.name) for b in buffers],
                  "counters": [b.counters for b in buffers]}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for buf in buffers:
                for column in (buf.name, buf.start, buf.end, buf.parent, buf.request):
                    column.tofile(fh)

    @classmethod
    def load(cls, path: str) -> "Tracer":
        tracer = cls()
        with open(path, "rb") as fh:
            header = json.loads(fh.readline())
            tracer.names = header["names"]
            for size, counters in zip(header["sizes"], header["counters"]):
                buf = _Buffer()
                for column in (buf.name, buf.start, buf.end, buf.parent, buf.request):
                    column.fromfile(fh, size)
                buf.counters = counters
                tracer.buffers.append(buf)
        return tracer


class SpanSummary:
    """Per-name call counts, inclusive and self time, and durations."""

    def __init__(self, tracer: Tracer):
        self.calls: dict[str, int] = {}
        self.total: dict[str, float] = {}
        self.self_time: dict[str, float] = {}
        self.durations: dict[str, list[float]] = {}
        self.counters: dict[str, int] = {}
        self.outer_searches = 0
        names = tracer.names
        search_ids = {i for i, name in enumerate(names) if name in SEARCHES}
        for buf in tracer.buffers:
            for key, value in buf.counters.items():
                self.counters[key] = self.counters.get(key, 0) + value
            count = len(buf.name)
            child = [0.0] * count
            for i in range(count):
                parent = buf.parent[i]
                if parent >= 0:
                    child[parent] += buf.end[i] - buf.start[i]
            for i in range(count):
                name = names[buf.name[i]]
                duration = buf.end[i] - buf.start[i]
                self.calls[name] = self.calls.get(name, 0) + 1
                self.total[name] = self.total.get(name, 0.0) + duration
                self.self_time[name] = self.self_time.get(name, 0.0) + duration - child[i]
                self.durations.setdefault(name, []).append(duration)
                parent = buf.parent[i]
                if buf.name[i] in search_ids and (parent < 0 or buf.name[parent] not in search_ids):
                    self.outer_searches += 1

    def layer_self(self, layer: str) -> float:
        return sum(t for name, t in self.self_time.items() if name.startswith(layer + "."))
