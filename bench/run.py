"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload traffic-n100 --seed 1 --seconds 30 --trace 0

Run from the repository root. The package is imported from ./src, as the
Tier-1 suite does with PYTHONPATH=src; it need not be installed. With
--trace 0 the last line of output is a JSON object holding the gated
end-to-end metrics; with --trace 1 the workload runs once untraced and once
with span wrappers installed, and the JSON holds the per-layer metrics and
the tracing overhead (traced minus untraced end-to-end figures). The exit
code is 1 when an output check fails and 2 when the package is missing.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)

import ingest  # noqa: E402
import mesh  # noqa: E402
import spans  # noqa: E402
import traffic  # noqa: E402
from common import Outcome, percentile, provenance  # noqa: E402

WORKLOADS = ("traffic-n100", "mesh-ref", "monitor-ingest")

END_TO_END = [
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("request_p50_ms", "ms"),
]

PER_LAYER = [
    ("routing.find_calls", "count"),
    ("routing.find_self_s", "s"),
    ("routing.find_p50_us", "us"),
    ("routing.share", "ratio"),
    ("routing.routes_per_search", "ratio"),
    ("routing.profile_s", "s"),
    ("simnet.step_self_s", "s"),
    ("simnet.step_p50_us", "us"),
    ("simnet.events", "count"),
    ("simnet.launch_calls", "count"),
    ("simnet.frames_dropped", "count"),
    ("simnet.draw_s", "s"),
    ("wire.encode_calls", "count"),
    ("wire.encode_self_s", "s"),
    ("wire.feed_calls", "count"),
    ("wire.feed_self_s", "s"),
    ("wire.bytes", "B"),
    ("monitor.append_calls", "count"),
    ("monitor.append_p50_us", "us"),
    ("monitor.duplicates", "count"),
    ("monitor.handle_self_s", "s"),
    ("monitor.query_p50_ms", "ms"),
    ("monitor.replay_s", "s"),
    ("monitor.service_threads", "count"),
    ("monitor.ack_p99_ms", "ms"),
    ("monitor.command_p50_ms", "ms"),
    ("monitor.generator_late_ms", "ms"),
    ("netmodel.table_build_s", "s"),
    ("trace.setup_s_delta", "s"),
    ("trace.throughput_per_s_delta", "1/s"),
    ("trace.latency_p50_ms_delta", "ms"),
    ("trace.request_p50_ms_delta", "ms"),
]


def import_package() -> dict | None:
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "homemesh", "__init__.py")):
        return None
    sys.path.insert(0, src)
    modules = {name: importlib.import_module(f"homemesh.{name}") for name in spans.MODULES}
    if not modules["cli"].__file__.startswith(src + os.sep):
        return None
    return modules


def p50(values, scale=1.0) -> float:
    return percentile(values, 50) * scale if values else 0.0


def layer_metrics(traced, untraced) -> dict:
    s, c = traced.summary, traced.counts
    searches = s.outer_searches
    values = {
        "routing.find_calls": s.calls.get("routing.find_optimal_path", 0),
        "routing.find_self_s": s.self_time.get("routing.find_optimal_path", 0.0),
        "routing.find_p50_us": p50(s.durations.get("routing.find_optimal_path"), 1e6),
        "routing.share": s.layer_self("routing") / traced.wall_s,
        "routing.routes_per_search": c.get("routes", 0) / searches if searches else 0.0,
        "routing.profile_s": s.total.get("routing.all_pairs_profile", 0.0),
        "simnet.step_self_s": s.self_time.get("simnet.step", 0.0),
        "simnet.step_p50_us": p50(s.durations.get("simnet.step"), 1e6),
        "simnet.events": c.get("events", 0),
        "simnet.launch_calls": s.calls.get("simnet.launch", 0),
        "simnet.frames_dropped": c.get("frames_dropped", 0),
        "simnet.draw_s": s.total.get("simnet.draw_pairs", 0.0),
        "wire.encode_calls": s.calls.get("wire.encode_datagram", 0),
        "wire.encode_self_s": s.self_time.get("wire.encode_datagram", 0.0),
        "wire.feed_calls": s.calls.get("wire.feed", 0),
        "wire.feed_self_s": s.self_time.get("wire.feed", 0.0),
        "wire.bytes": s.counters.get("wire.bytes", 0),
        "monitor.append_calls": s.calls.get("monitor.append", 0),
        "monitor.append_p50_us": p50(s.durations.get("monitor.append"), 1e6),
        "monitor.duplicates": s.counters.get("monitor.duplicates", 0),
        "monitor.handle_self_s": s.self_time.get("monitor.handle_datagram", 0.0),
        "monitor.query_p50_ms": p50(s.durations.get("monitor.query"), 1e3),
        "monitor.replay_s": s.total.get("monitor.replay", 0.0),
        "monitor.service_threads": c.get("service_threads", 0),
        "monitor.ack_p99_ms": c.get("ack_p99_ms", 0.0),
        "monitor.command_p50_ms": c.get("command_p50_ms", 0.0),
        "monitor.generator_late_ms": c.get("generator_late_ms", 0.0),
        "netmodel.table_build_s": s.layer_self("netmodel"),
    }
    for name, _unit in END_TO_END:
        values[f"trace.{name}_delta"] = traced.metrics[name] - untraced.metrics[name]
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny runs every path at toy sizes, for the smoke test")
    args = parser.parse_args(argv)

    hm = import_package()
    if hm is None:
        print("bench: src/homemesh not found; run from the repository root", file=sys.stderr)
        return 2
    workload = {"traffic-n100": traffic, "mesh-ref": mesh, "monitor-ingest": ingest}[args.workload]
    expected = None
    if args.size == "full":
        with open(os.path.join(BENCH_DIR, "expected.json"), encoding="utf-8") as fh:
            expected = json.load(fh).get(args.workload, {}).get(str(args.seed))

    outcome = Outcome()
    untraced = workload.measure(hm, ROOT, args.seed, args.seconds, args.size, outcome, expected)
    shown = untraced
    if args.trace:
        if workload is ingest:  # the service process installs its own wrappers
            shown = ingest.measure(hm, ROOT, args.seed, args.seconds, args.size, outcome,
                                   expected, traced=True)
        else:
            tracer = spans.Tracer()
            tracer.install(hm)
            shown = workload.measure(hm, ROOT, args.seed, args.seconds, args.size, outcome,
                                     expected)
            shown.summary = spans.SpanSummary(tracer)
        values = layer_metrics(shown, untraced)
        metrics = {name: (values[name], unit) for name, unit in PER_LAYER}
    else:
        metrics = {name: (untraced.metrics[name], unit) for name, unit in END_TO_END}

    network = "loopback 127.0.0.1, not a real link" if workload is ingest else "in-process, no sockets"
    record = provenance(ROOT, args.workload, args.seed, network, untraced.probe_ms)
    print(f"provenance: {json.dumps(record)}")
    for name, value, unit in untraced.named:
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value:.6g} {unit}")
    if shown.counts.get("digest"):
        print(f"output digest: {shown.counts['digest']}")
    print(f"operations: {outcome.failed} failed of {outcome.attempted} attempted")
    for problem in outcome.problems:
        print(f"CHECK FAILED: {problem}")
    print(json.dumps({
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if outcome.correct else 1


if __name__ == "__main__":
    sys.exit(main())
