"""Application-aware express-link placement (Section 5.6.4).

When the traffic pattern of the target application is known, the head
latency objective becomes the *traffic-weighted* average

.. math::

    L_{D,avg} = \\frac{\\sum_{ij} \\gamma_{ij} L_D(i, j)}{\\sum_{ij} \\gamma_{ij}}

with :math:`\\gamma_{ij}` the communication rate from router ``i`` to
router ``j``.  The 2D -> 1D reduction still applies under XY routing --
the weighted objective splits into per-row and per-column weighted
sums -- but each row and column now carries different weights, so
``P~(n, C)`` is solved ``2n`` times (once per row, once per column)
instead of once.

The weight algebra, for a packet from source ``s = (x_s, y_s)`` to
destination ``d = (x_d, y_d)`` routed X-first:

* it traverses *row* ``y_s`` from position ``x_s`` to ``x_d``, so row
  ``r`` accumulates ``gamma[s, d]`` onto pair ``(x_s, x_d)`` for every
  ``s`` with ``y_s = r``;
* it traverses *column* ``x_d`` from ``y_s`` to ``y_d``, so column
  ``c`` accumulates ``gamma[s, d]`` onto pair ``(y_s, y_d)`` for every
  ``d`` with ``x_d = c``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.core.annealing import AnnealingParams
from repro.core.latency import (
    BandwidthConfig,
    PacketMix,
    RowObjective,
    mean_row_head_latency,
)
from repro.core.optimizer import RowSolution, _solve_row
from repro.routing.shortest_path import HopCostModel
from repro.topology.mesh import MeshTopology
from repro.topology.row import RowPlacement
from repro.util.errors import ConfigurationError
from repro.util.rngtools import ensure_rng


def _check_gamma(gamma: np.ndarray, n: int) -> np.ndarray:
    """Validate a traffic matrix and return it with self-traffic removed.

    A nonzero diagonal (``gamma[s, s]``) describes packets that never
    enter the network: their "routes" are zero hops, yet their weight
    would land in every ``w.sum()`` and in ``total_traffic``, silently
    deflating the weighted average.  Stripping the diagonal keeps the
    objective an average over packets that actually traverse links.
    """
    g = np.asarray(gamma, dtype=float)
    if g.shape != (n * n, n * n):
        raise ConfigurationError(f"gamma shape {g.shape} != ({n * n}, {n * n})")
    if (g < 0).any():
        raise ConfigurationError("gamma must be nonnegative")
    if np.diagonal(g).any():
        g = g.copy()
        np.fill_diagonal(g, 0.0)
    if g.sum() <= 0:
        raise ConfigurationError(
            "gamma must contain some traffic between distinct routers"
        )
    return g


def _row_weights(g: np.ndarray, n: int) -> List[np.ndarray]:
    """Row weights of an already-checked gamma (no re-validation)."""
    # g4[y_s, x_s, y_d, x_d]
    g4 = g.reshape(n, n, n, n)
    # Sum over destination rows: for each source row r, traffic from
    # (x_s, r) heading to column x_d.
    return [g4[r].sum(axis=1) for r in range(n)]


def _col_weights(g: np.ndarray, n: int) -> List[np.ndarray]:
    """Column weights of an already-checked gamma (no re-validation)."""
    g4 = g.reshape(n, n, n, n)
    # Sum over source columns: for each destination column c, traffic
    # entering column c at row y_s and leaving at row y_d.
    return [g4[:, :, :, c].sum(axis=1) for c in range(n)]


def row_weights(gamma: np.ndarray, n: int) -> List[np.ndarray]:
    """Per-row pair-weight matrices ``W_r[x_s, x_d]``."""
    return _row_weights(_check_gamma(gamma, n), n)


def col_weights(gamma: np.ndarray, n: int) -> List[np.ndarray]:
    """Per-column pair-weight matrices ``W_c[y_s, y_d]``."""
    return _col_weights(_check_gamma(gamma, n), n)


def weighted_average_head_latency(
    topology: MeshTopology,
    gamma: np.ndarray,
    cost: HopCostModel | None = None,
) -> float:
    """Traffic-weighted 2D average head latency of a topology."""
    g = _check_gamma(gamma, topology.n)
    return _weighted_average_checked(topology, g, cost or HopCostModel())


def _weighted_average_checked(
    topology: MeshTopology, g: np.ndarray, cost: HopCostModel
) -> float:
    """Weighted average of an already-checked gamma (no re-validation)."""
    n = topology.n
    rw = _row_weights(g, n)
    cw = _col_weights(g, n)
    total_traffic = g.sum()
    acc = 0.0
    for r, placement in enumerate(topology.row_placements):
        w = rw[r]
        if w.sum() > 0:
            acc += mean_row_head_latency(placement, cost, w) * w.sum()
    for c, placement in enumerate(topology.col_placements):
        w = cw[c]
        if w.sum() > 0:
            acc += mean_row_head_latency(placement, cost, w) * w.sum()
    return acc / total_traffic


@dataclass(frozen=True)
class ApplicationAwareResult:
    """Per-dimension placements plus the achieved weighted latency."""

    topology: MeshTopology
    link_limit: int
    flit_bits: int
    weighted_head_latency: float
    serialization: float
    row_solutions: Tuple[RowSolution, ...]
    col_solutions: Tuple[RowSolution, ...]

    @property
    def total_latency(self) -> float:
        return self.weighted_head_latency + self.serialization


def optimize_application_aware(
    gamma: np.ndarray,
    n: int,
    link_limit: int,
    method: str = "dc_sa",
    bandwidth: BandwidthConfig | None = None,
    mix: PacketMix | None = None,
    cost: HopCostModel | None = None,
    params: AnnealingParams | None = None,
    rng=None,
) -> ApplicationAwareResult:
    """Solve the weighted placement problem row by row and column by column.

    The divide-and-conquer seeding and the connection-matrix search
    space carry over unchanged (the paper notes both remain applicable);
    only the objective differs per dimension slice.
    """
    # Validate once; the private helpers below take the checked array,
    # so the full optimization runs a single _check_gamma pass instead
    # of three (direct + row_weights + col_weights).
    g = _check_gamma(gamma, n)
    bandwidth = bandwidth or BandwidthConfig()
    mix = mix or PacketMix.paper_default()
    cost = cost or HopCostModel()
    gen = ensure_rng(rng)

    rw = _row_weights(g, n)
    cw = _col_weights(g, n)

    def solve(weights: np.ndarray) -> RowSolution:
        if weights.sum() <= 0:
            # No traffic on this slice; any placement works -- use mesh.
            placement = RowPlacement.mesh(n)
            return RowSolution(
                n=n,
                link_limit=link_limit,
                placement=placement,
                energy=0.0,
                method=method,
                evaluations=0,
                wall_time_s=0.0,
            )
        objective = RowObjective(
            cost=cost, weights=tuple(map(tuple, weights.tolist()))
        )
        return _solve_row(
            n, link_limit, rngs=[gen], method=method, objective=objective,
            params=params,
        )[0]

    row_solutions = tuple(solve(w) for w in rw)
    col_solutions = tuple(solve(w) for w in cw)
    topology = MeshTopology.per_dimension(
        [s.placement for s in row_solutions],
        [s.placement for s in col_solutions],
    )
    head = _weighted_average_checked(topology, g, cost)
    ser = mix.serialization_cycles(bandwidth.flit_bits(link_limit))
    return ApplicationAwareResult(
        topology=topology,
        link_limit=link_limit,
        flit_bits=bandwidth.flit_bits(link_limit),
        weighted_head_latency=head,
        serialization=ser,
        row_solutions=row_solutions,
        col_solutions=col_solutions,
    )
