"""Channel-dependency-graph deadlock analysis (Section 4.5.1).

The paper's routing avoids deadlock by (a) forbidding U-turns, so every
hop inside a dimension moves monotonically toward the destination, and
(b) ordering the dimensions X before Y, so turn dependencies only flow
from row channels to column channels.  The classical Dally-Seitz
condition then applies: routing is deadlock-free iff the channel
dependency graph (CDG) is acyclic.

This module constructs the CDG *from the actual routes* the tables
produce (not just the rule) and checks acyclicity with an iterative
depth-first search, which both verifies the implementation and serves
as a property test target for arbitrary placements.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional, Set, Tuple

from repro.routing.dor import compute_route
from repro.routing.tables import RoutingTables

#: A directed channel: (upstream router, downstream router).
DirectedChannel = Tuple[int, int]


def channel_dependency_graph(
    tables: RoutingTables,
) -> Dict[DirectedChannel, Set[DirectedChannel]]:
    """Build the CDG induced by all source-destination routes.

    Returned as an adjacency dict: every channel some route uses is a
    key, mapped to the set of its successors.  An edge ``c1 -> c2``
    means some packet holds ``c1`` while requesting ``c2`` (consecutive
    hops of a route).
    """
    graph: Dict[DirectedChannel, Set[DirectedChannel]] = {}
    num = tables.topology.num_nodes
    for src in range(num):
        for dst in range(num):
            if src == dst:
                continue
            path = compute_route(tables, src, dst)
            channels = list(zip(path, path[1:]))
            for channel in channels:
                graph.setdefault(channel, set())
            for c1, c2 in zip(channels, channels[1:]):
                graph[c1].add(c2)
    return graph


def find_cycle(
    graph: Dict[Hashable, Set[Hashable]],
) -> Optional[List[Tuple[Hashable, Hashable]]]:
    """One directed cycle of ``graph`` as an edge list, or ``None``.

    ``graph`` maps each node to its successors (a successor need not be
    a key).  Iterative three-colour depth-first search: nodes on the
    current DFS path are grey, finished nodes black, and an edge into a
    grey node closes a cycle, read back off the path.  The edges come
    in cycle order, ``[(a, b), (b, c), ..., (z, a)]``, like
    ``networkx.find_cycle``.
    """
    black: Set[Hashable] = set()
    for root in graph:
        if root in black:
            continue
        path = [root]
        grey = {root: 0}  # node -> its position on the path
        successors = [iter(graph[root])]
        while successors:
            for succ in successors[-1]:
                if succ in grey:
                    cycle = path[grey[succ]:] + [succ]
                    return list(zip(cycle, cycle[1:]))
                if succ not in black:
                    grey[succ] = len(path)
                    path.append(succ)
                    successors.append(iter(graph.get(succ, ())))
                    break
            else:
                node = path.pop()
                del grey[node]
                black.add(node)
                successors.pop()
    return None


def is_deadlock_free(tables: RoutingTables) -> bool:
    """True iff the channel dependency graph is acyclic."""
    return find_cycle(channel_dependency_graph(tables)) is None


def find_dependency_cycle(tables: RoutingTables):
    """Return one CDG cycle as an edge list if any exists, else ``None``
    (for debugging)."""
    return find_cycle(channel_dependency_graph(tables))


def check_no_u_turns(tables: RoutingTables) -> bool:
    """Verify the monotone-progress rule on every route.

    Inside a dimension, consecutive hops must keep moving in the same
    direction (coordinates strictly monotone); the only direction change
    allowed is the single X-to-Y turn.
    """
    topo = tables.topology
    for src in range(topo.num_nodes):
        for dst in range(topo.num_nodes):
            if src == dst:
                continue
            path = compute_route(tables, src, dst)
            coords = [topo.coords(v) for v in path]
            xs = [c[0] for c in coords]
            ys = [c[1] for c in coords]
            if tables.order == "yx":
                # YX routes are XY routes with the roles swapped.
                xs, ys = ys, xs
            # X phase: xs strictly monotone until it reaches dest column,
            # then constant; ys constant during X phase then monotone.
            turn = next((k for k, x in enumerate(xs) if x == xs[-1]), 0)
            x_phase, y_phase = xs[: turn + 1], ys[turn:]
            if not (_strictly_monotone(x_phase) and _strictly_monotone(y_phase)):
                return False
            if any(y != ys[0] for y in ys[: turn + 1]):
                return False
            if any(x != xs[-1] for x in xs[turn:]):
                return False
    return True


def _strictly_monotone(seq) -> bool:
    if len(seq) <= 1:
        return True
    diffs = [b - a for a, b in zip(seq, seq[1:])]
    return all(d > 0 for d in diffs) or all(d < 0 for d in diffs)
