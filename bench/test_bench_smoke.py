"""Smoke test of the benchmark itself, at toy sizes, in well under a minute:

    PYTHONPATH=src python3 -m pytest -q bench/test_bench_smoke.py

Every workload must print every metric with its unit, traced and untraced,
and corrupted program output must fail the output checks.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import ingest  # noqa: E402
import mesh  # noqa: E402
import run  # noqa: E402
import traffic  # noqa: E402
from common import Outcome  # noqa: E402

NAMED = {
    "traffic-n100": ["setup_s", "traffic_tx_per_s", "profile_pairs_per_s"],
    "mesh-ref": ["setup_s", "mesh_ticks_per_s"],
    "monitor-ingest": ["setup_s", "ingest_fps", "ack_p50_ms", "history_page_p50_ms",
                       "command_p50_ms"],
}


def bench(workload: str, trace: int, cwd: str = ROOT) -> subprocess.CompletedProcess:
    command = [sys.executable, os.path.join(cwd, "bench", "run.py"), "--workload", workload,
               "--seed", "3", "--seconds", "0.4", "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_every_metric_prints_with_its_unit(workload, trace):
    done = bench(workload, trace)
    assert done.returncode == 0, done.stdout + done.stderr
    lines = done.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    wanted = run.PER_LAYER if trace else run.END_TO_END
    assert {name: m["unit"] for name, m in result["metrics"].items()} == dict(wanted)
    for name, unit in wanted:
        assert any(line.startswith(f"metric {name} = ") and line.endswith(f" {unit}")
                   for line in lines), name
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    for name in NAMED[workload]:
        assert any(line.startswith(f"{workload} {name} = ") for line in lines), name
    assert any(line.startswith("provenance: ") for line in lines)


def test_benchmark_json_matches_the_runner():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.PER_LAYER


def test_flipped_visit_count_fails_the_check(monkeypatch):
    hm = run.import_package()
    outcome = Outcome()
    traffic.measure(hm, ROOT, 3, 0, "tiny", outcome, None)
    assert outcome.correct, outcome.problems

    real = hm["simnet"].run_traffic

    def flipped(topology, config):
        stats = real(topology, config)
        stats.counts[2] += 1
        return stats

    monkeypatch.setattr(hm["simnet"], "run_traffic", flipped)
    outcome = Outcome()
    traffic.measure(hm, ROOT, 3, 0, "tiny", outcome, None)
    assert not outcome.correct


def test_recorded_digests_are_enforced():
    hm = run.import_package()
    for module in (traffic, mesh):
        outcome = Outcome()
        module.measure(hm, ROOT, 3, 0, "tiny", outcome, "0" * 64)
        assert not outcome.correct


def test_stored_frames_are_matched_exactly_once():
    frames = ingest.Frames(5, 200, ingest.SIZES["tiny"])
    records = [{"record_id": i + 1, "coordinator": 9, "seq": frames.seq[i],
                "node": frames.src[i], "payload": frames.payload[i].hex()}
               for i in range(200)]
    outcome = Outcome()
    assert ingest.check_stored(frames, records, 9, outcome) == 0 and outcome.correct
    assert ingest.check_stored(frames, records[:50] + records[51:], 9, outcome) == 1
    assert outcome.correct
    assert ingest.check_stored(frames, records + records[-1:], 9, outcome) == 0
    assert not outcome.correct


def test_without_the_package_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = bench("traffic-n100", 0, cwd=str(tmp_path))
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
