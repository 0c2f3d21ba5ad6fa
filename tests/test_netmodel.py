import gc
import json
import math
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homemesh import netmodel
from homemesh.errors import AsymmetricTable, InvalidInput, UnknownNode
from homemesh.netmodel import (
    REFERENCE_MATRIX,
    SymmetryPolicy,
    Topology,
    load_topology,
    neighbors,
    parse_topology,
    reference_topology,
    table_from_positions,
    topology_from_positions,
    validate_table,
)

from conftest import TABLE1_PATH

coords = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)
positions_lists = st.lists(st.tuples(coords, coords), min_size=1, max_size=8)


def test_single_position():
    table = table_from_positions([(0, 0)])
    assert table.n == 1
    assert table.cost == ((0.0,),)


def test_right_triangle_hypotenuse():
    table = table_from_positions([(0, 0), (3, 4)])
    assert table.distance(1, 2) == 5.0
    assert table.distance(2, 1) == 5.0


def test_unit_right_triangle():
    table = table_from_positions([(0, 0), (1, 0), (0, 1)])
    assert table.distance(2, 3) == pytest.approx(math.sqrt(2), abs=1e-12)


@pytest.mark.parametrize("bad", [float("inf"), float("nan")])
def test_nonfinite_position_rejected(bad):
    with pytest.raises(InvalidInput):
        table_from_positions([(0, 0), (bad, 1)])


def test_empty_positions_rejected():
    with pytest.raises(InvalidInput):
        table_from_positions([])


def test_malformed_position_entries_rejected():
    with pytest.raises(InvalidInput):
        table_from_positions([[1.0]])
    with pytest.raises(InvalidInput):
        table_from_positions([[1.0, 2.0, 3.0]])
    with pytest.raises(InvalidInput):
        table_from_positions([["x", "y"]])


@given(positions_lists)
def test_positions_table_symmetric_zero_diagonal(positions):
    table = table_from_positions(positions)
    for i in range(table.n):
        assert table.cost[i][i] == 0.0
        for j in range(table.n):
            assert table.cost[i][j] == table.cost[j][i]
            assert table.cost[i][j] >= 0.0


@given(positions_lists)
@settings(max_examples=50)
def test_positions_table_triangle_inequality(positions):
    table = table_from_positions(positions)
    n = table.n
    for a in range(n):
        for b in range(n):
            for c in range(n):
                assert table.cost[a][c] <= table.cost[a][b] + table.cost[b][c] + 1e-9


def test_strict_accepts_symmetric():
    table = validate_table([[0, 4], [4, 0]], SymmetryPolicy.STRICT)
    assert table.cost == ((0.0, 4.0), (4.0, 0.0))


def test_reference_matrix_strict_rejects():
    with pytest.raises(AsymmetricTable) as excinfo:
        validate_table(REFERENCE_MATRIX, SymmetryPolicy.STRICT)
    err = excinfo.value
    assert (err.i, err.j, err.cost_ij, err.cost_ji) == (5, 7, 5.0, 4.0)


def test_reference_matrix_symmetrize_upper():
    table = validate_table(REFERENCE_MATRIX, SymmetryPolicy.SYMMETRIZE_UPPER)
    assert table.distance(5, 7) == 5.0
    assert table.distance(7, 5) == 5.0
    for i in table.nodes:
        for j in table.nodes:
            assert table.distance(i, j) == table.distance(j, i)


@pytest.mark.parametrize(
    "raw",
    [
        [[0, 1], [1, 0], [0, 0]],  # not square
        [[0, -1], [-1, 0]],  # negative
        [[1, 2], [2, 0]],  # nonzero diagonal
        [[0, float("inf")], [float("inf"), 0]],  # non-finite
        [],  # empty
    ],
)
def test_validate_rejects_bad_matrices(raw):
    with pytest.raises(InvalidInput):
        validate_table(raw, SymmetryPolicy.SYMMETRIZE_UPPER)


nonneg = st.floats(min_value=0, max_value=100, allow_nan=False)


@given(st.integers(min_value=1, max_value=6), st.data())
def test_symmetrize_upper_always_symmetric(n, data):
    rows = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if i != j:
                rows[i][j] = data.draw(nonneg)
    table = validate_table(rows, SymmetryPolicy.SYMMETRIZE_UPPER)
    for i in range(n):
        for j in range(n):
            assert table.cost[i][j] == table.cost[j][i]
            if i < j:
                assert table.cost[i][j] == rows[i][j]  # upper triangle wins


def test_explicit_matrices_need_not_be_metric():
    # loaded tables are data: no triangle-inequality requirement
    rows = [[0, 1, 9], [1, 0, 1], [9, 1, 0]]
    table = validate_table(rows, SymmetryPolicy.STRICT)
    assert table.distance(1, 3) == 9.0  # far worse than 1 -> 2 -> 3


def test_neighbors_examples(table1):
    assert neighbors(table1, 1, 5) == {2, 3, 4, 5}
    assert neighbors(table1, 1, 1) == set()
    assert neighbors(table1, 10, 4) == {7, 8, 9}


def test_neighbors_errors(table1):
    with pytest.raises(UnknownNode):
        neighbors(table1, 0, 5)
    with pytest.raises(UnknownNode):
        neighbors(table1, 11, 5)
    with pytest.raises(InvalidInput):
        neighbors(table1, 1, -1)


@given(st.floats(min_value=0, max_value=10), st.floats(min_value=0, max_value=10))
def test_neighbors_monotone_in_radius(k1, k2):
    table = reference_topology().table
    lo, hi = sorted((k1, k2))
    for v in table.nodes:
        assert neighbors(table, v, lo) <= neighbors(table, v, hi)


def test_fixture_matches_builtin(table1):
    assert table1.cost == reference_topology().table.cost


def test_topology_file_with_positions(tmp_path):
    path = tmp_path / "topo.json"
    path.write_text(json.dumps({"positions": [[0, 0], [3, 4]], "coordinator": 2}))
    topo = load_topology(path)
    assert topo.coordinator == 2
    assert topo.table.distance(1, 2) == 5.0
    assert topo.positions == ((0.0, 0.0), (3.0, 4.0))


def test_topology_file_parse_error_has_line(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"matrix": [[0, 1],\n  oops\n]}')
    with pytest.raises(InvalidInput, match=r":2:"):
        load_topology(path)


@pytest.mark.parametrize(
    "doc",
    [
        {},
        {"positions": [[0, 0]], "matrix": [[0]]},
        {"matrix": [[0]], "coordinator": "one"},
        [],
        {"positions": [[1, 2, 3]]},
        {"positions": [["a", 0], [1, 1]]},
        {"positions": 5},
        {"matrix": [[0, "x"], [1, 0]]},
        {"matrix": [[0, None], [1, 0]]},
        {"positions": [[1e308, 0], [-1e308, 0]]},
    ],
)
def test_parse_topology_rejects_bad_documents(doc):
    with pytest.raises(InvalidInput):
        parse_topology(doc)


def test_parse_topology_strict_by_default():
    with pytest.raises(AsymmetricTable):
        parse_topology({"matrix": [[0, 2], [1, 0]]})


def test_topology_rejects_inconsistent_positions():
    table = table_from_positions([(0, 0), (3, 4)])
    with pytest.raises(InvalidInput):
        Topology(table=table, positions=((0.0, 0.0), (30.0, 40.0)))
    with pytest.raises(UnknownNode):
        Topology(table=table, coordinator=3)


def test_topology_table_must_be_exactly_the_positions_table():
    positions = ((0.0, 0.0), (3.0, 4.0), (1.0, 1.0))
    exact = table_from_positions(positions)
    assert Topology(table=exact, positions=positions).table is exact
    rows = exact.as_lists()
    rows[0][2] = rows[2][0] = math.nextafter(rows[0][2], math.inf)  # one ulp off
    with pytest.raises(InvalidInput):
        Topology(table=validate_table(rows), positions=positions)
    with pytest.raises(InvalidInput):
        Topology(table=exact, positions=positions[:2])


def test_topology_from_positions_builds_its_table_once(monkeypatch):
    builds = []
    build = netmodel._euclidean_table
    monkeypatch.setattr(netmodel, "_euclidean_table", lambda pts: builds.append(pts) or build(pts))
    positions = [(float(i), float(i * i % 7)) for i in range(12)]
    topology = topology_from_positions(positions)
    assert len(builds) == 1
    assert topology.table == build(builds[0])


def test_positions_table_goes_with_its_last_topology():
    topology = topology_from_positions([(0.5, 0.25), (3.5, 4.25), (1.5, 9.0)])
    table = weakref.ref(topology.table)
    del topology
    gc.collect()
    assert table() is None


@pytest.mark.parametrize("coordinator", [1.5, True])
def test_topology_coordinator_must_be_an_int_node_id(coordinator):
    table = table_from_positions([(0, 0), (3, 4)])
    with pytest.raises(UnknownNode):
        Topology(table=table, coordinator=coordinator)
    with pytest.raises(InvalidInput):
        parse_topology({"positions": [[0, 0], [3, 4]], "coordinator": coordinator})


def test_table1_fixture_path_is_the_strict_reject_case():
    doc = json.loads(TABLE1_PATH.read_text())
    assert doc["symmetrize"] is True
    with pytest.raises(AsymmetricTable):
        validate_table(doc["matrix"], SymmetryPolicy.STRICT)
