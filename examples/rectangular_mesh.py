#!/usr/bin/env python3
"""Rectangular meshes: a library extension beyond the paper.

The 2D -> 1D reduction (Section 4.2) only needs dimension-order
routing, not squareness, so express-link placement works on any
``width x height`` mesh: solve P~(width, C) for the rows and
P~(height, C) for the columns.  This example optimizes a wide 16x4
many-core floorplan and validates the winner in the simulator.

Usage::

    python examples/rectangular_mesh.py [--width 16] [--height 4]
"""

import argparse

from repro import MeshTopology, SearchConfig, SimConfig, Simulator
from repro.core.annealing import AnnealingParams
from repro.core.optimizer import best_rectangular, optimize_rectangular
from repro.harness.tables import pct_change, render_table
from repro.traffic.injection import MatrixTraffic
import numpy as np


def uniform_gamma(num_nodes: int) -> np.ndarray:
    g = np.ones((num_nodes, num_nodes))
    np.fill_diagonal(g, 0.0)
    return g


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--width", type=int, default=16)
    parser.add_argument("--height", type=int, default=4)
    parser.add_argument("--seed", type=int, default=2019)
    parser.add_argument("--full", action="store_true")
    args = parser.parse_args()

    params = (
        AnnealingParams()
        if args.full
        else AnnealingParams(total_moves=1_500, moves_per_cooldown=300)
    )
    print(f"Optimizing a {args.width}x{args.height} rectangular mesh...")
    points = optimize_rectangular(
        args.width, args.height, params=params,
        config=SearchConfig(seed=args.seed),
    )
    rows = [
        [c, p.flit_bits, p.head_latency, p.serialization, p.total_latency]
        for c, p in sorted(points.items())
    ]
    print(
        render_table(
            f"{args.width}x{args.height} design sweep",
            ["C", "flit bits", "L_D", "L_S", "total"],
            rows,
        )
    )
    best = best_rectangular(points)
    print(f"\nbest C={best.link_limit}: row {sorted(best.row_placement.express_links)}")
    print(f"          col {sorted(best.col_placement.express_links)}")

    def simulate(topology, flit_bits):
        num = topology.num_nodes
        cfg = SimConfig(
            flit_bits=flit_bits,
            warmup_cycles=300,
            measure_cycles=1_500,
            max_cycles=40_000,
            seed=args.seed,
        )
        traffic = MatrixTraffic(
            uniform_gamma(num), aggregate_rate=0.02 * num, rng=args.seed
        )
        return Simulator(topology, cfg, traffic).run().summary

    mesh = simulate(MeshTopology.rect_mesh(args.width, args.height), 256)
    express = simulate(
        MeshTopology.rectangular(best.row_placement, best.col_placement),
        best.flit_bits,
    )
    print(
        render_table(
            "Simulated average packet latency (uniform random)",
            ["scheme", "network latency (cycles)"],
            [
                ["rect mesh", mesh.avg_network_latency],
                [f"optimized (C={best.link_limit})", express.avg_network_latency],
            ],
        )
    )
    print(
        f"\nreduction: {pct_change(express.avg_network_latency, mesh.avg_network_latency):.1f}%"
    )


if __name__ == "__main__":
    main()
