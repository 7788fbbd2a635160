"""Deadlock-freedom property: the CDG of any placement is acyclic."""

import subprocess
import sys

import networkx as nx
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.routing.deadlock import (
    channel_dependency_graph,
    check_no_u_turns,
    find_cycle,
    find_dependency_cycle,
    is_deadlock_free,
)
from repro.routing.tables import RoutingTables
from repro.topology.flattened_butterfly import hybrid_flattened_butterfly
from repro.topology.mesh import MeshTopology
from repro.topology.row import RowPlacement

from tests.conftest import row_placements


def tables_for(p: RowPlacement) -> RoutingTables:
    return RoutingTables.build(MeshTopology.uniform(p))


class TestKnownTopologies:
    def test_mesh_deadlock_free(self):
        assert is_deadlock_free(tables_for(RowPlacement.mesh(4)))

    def test_hfb_deadlock_free(self):
        tables = RoutingTables.build(hybrid_flattened_butterfly(8))
        assert is_deadlock_free(tables)

    def test_fully_connected_deadlock_free(self):
        assert is_deadlock_free(tables_for(RowPlacement.fully_connected(5)))

    def test_no_cycle_found(self):
        assert find_dependency_cycle(tables_for(RowPlacement.mesh(4))) is None

    def test_cdg_nonempty(self):
        g = channel_dependency_graph(tables_for(RowPlacement.mesh(3)))
        assert len(g) > 0

    def test_no_u_turns_mesh(self):
        assert check_no_u_turns(tables_for(RowPlacement.mesh(4)))


@settings(max_examples=15, deadline=None)
@given(row_placements(min_n=4, max_n=6, max_links=5))
def test_random_placements_deadlock_free(p):
    tables = tables_for(p)
    assert is_deadlock_free(tables)


@settings(max_examples=10, deadline=None)
@given(row_placements(min_n=4, max_n=5, max_links=4))
def test_random_placements_no_u_turns(p):
    assert check_no_u_turns(tables_for(p))


@st.composite
def digraphs(draw):
    """Random adjacency dicts, cyclic ones included; some successors
    are not keys, as in a graph listing only nodes with out-edges."""
    size = draw(st.integers(1, 9))
    edges = draw(st.lists(
        st.tuples(st.integers(0, size - 1), st.integers(0, size)),
        max_size=3 * size,
    ))
    graph = {node: set() for node in range(draw(st.integers(1, size)))}
    for a, b in edges:
        graph.setdefault(a, set()).add(b)
    return graph


@settings(max_examples=300, deadline=None)
@given(digraphs())
def test_find_cycle_agrees_with_networkx(graph):
    reference = nx.DiGraph()
    reference.add_nodes_from(graph)
    reference.add_edges_from((a, b) for a, succs in graph.items() for b in succs)
    cycle = find_cycle(graph)
    assert (cycle is None) == nx.is_directed_acyclic_graph(reference)
    if cycle is not None:
        assert cycle[0][0] == cycle[-1][1]
        for (a, b), (c, _) in zip(cycle, cycle[1:]):
            assert b == c
        for a, b in cycle:
            assert b in graph[a]


def test_find_cycle_closes_a_known_cycle():
    assert find_cycle({0: {0}}) == [(0, 0)]
    cycle = find_cycle({"a": {"b"}, "b": {"c"}, "c": {"a"}, "d": {"a"}})
    assert sorted(cycle) == [("a", "b"), ("b", "c"), ("c", "a")]
    assert find_cycle({0: {1, 2}, 1: {2}, 2: set()}) is None


def test_import_repro_does_not_import_networkx():
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys\n"
         "import repro, repro.cli, repro.routing.deadlock\n"
         "bad = [m for m in sys.modules if m.split('.')[0] == 'networkx']\n"
         "assert not bad, bad\n"
         "print('clean')\n"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "clean" in proc.stdout
