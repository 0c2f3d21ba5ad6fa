import os
import random
import re
import select
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from homemesh import routing
from homemesh.netmodel import DistanceTable, load_topology

# When a hypothesis test fails, the plugin imports this module to write its
# patch file. It pulls in libcst, which raises a DeprecationWarning on import;
# under `-W error` that warning would end the session at the first failure.
# Importing it here, with that one category ignored, keeps every other warning
# an error.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass

REPO_ROOT = Path(__file__).resolve().parent.parent
TABLE1_PATH = REPO_ROOT / "fixtures" / "table1.json"


@pytest.fixture(scope="session")
def table1_topology():
    return load_topology(TABLE1_PATH)


@pytest.fixture(scope="session")
def table1(table1_topology):
    return table1_topology.table


@pytest.fixture
def tree_calls(monkeypatch):
    """Record the source of every new search state, the one search behind
    every route tree."""
    calls = []
    original = routing._start

    def counted(n, src):
        calls.append(src)
        return original(n, src)

    monkeypatch.setattr(routing, "_start", counted)
    return calls


@pytest.fixture
def serve_process():
    """Start `homemesh serve` on ephemeral ports over a store path:
    `start(store)` returns (process, listen address, admin address). With
    `sigint_ignored`, serve starts with SIGINT ignored, as a background job
    of a non-interactive shell does. Any process still running at teardown
    is killed."""
    procs = []

    def start(store, sigint_ignored=False):
        env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
        env.pop("PYTHONUNBUFFERED", None)  # stdout on a pipe is block-buffered
        argv = [sys.executable, "-m", "homemesh.cli", "serve", "--listen", "127.0.0.1:0",
                "--admin", "127.0.0.1:0", "--store", str(store)]
        if sigint_ignored:  # an ignored signal stays ignored across exec
            argv[1:1] = ["-c", "import os, signal, sys; signal.signal(signal.SIGINT, "
                         "signal.SIG_IGN); os.execv(sys.executable, sys.argv[1:])", sys.executable]
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, env=env)
        procs.append(proc)
        assert select.select([proc.stdout], [], [], 30)[0], "serve printed no address"
        line = proc.stdout.readline().decode()
        match = re.fullmatch(r"listening on ([\d.]+):(\d+), admin on ([\d.]+):(\d+)\n", line)
        assert match, line
        host, port, admin_host, admin_port = match.groups()
        return proc, (host, int(port)), (admin_host, int(admin_port))

    yield start
    for proc in procs:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()


def random_symmetric_table(rng: random.Random, n: int) -> DistanceTable:
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            rows[i][j] = rows[j][i] = rng.randint(1, 9)
    return DistanceTable.from_rows(rows)
