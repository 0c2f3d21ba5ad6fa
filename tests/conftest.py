import random
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
    """Record the source of every label search, the one search behind every
    route tree."""
    calls = []
    original = routing._label_search

    def counted(table, src, *args, **kwargs):
        calls.append(src)
        return original(table, src, *args, **kwargs)

    monkeypatch.setattr(routing, "_label_search", counted)
    return calls


def random_symmetric_table(rng: random.Random, n: int) -> DistanceTable:
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            rows[i][j] = rows[j][i] = rng.randint(1, 9)
    return DistanceTable.from_rows(rows)
