"""Rectangular-mesh extension tests (beyond the paper's square networks)."""

import pytest

from repro.api import SearchConfig
from repro.core.annealing import AnnealingParams
from repro.core.optimizer import best_rectangular, optimize, optimize_rectangular
from repro.routing.deadlock import is_deadlock_free
from repro.routing.dor import compute_route
from repro.routing.tables import RoutingTables
from repro.sim.config import SimConfig
from repro.sim.engine import Simulator
from repro.topology.mesh import MeshTopology
from repro.topology.row import RowPlacement
from repro.traffic.injection import TraceTraffic
from repro.util.errors import ConfigurationError

QUICK = AnnealingParams(total_moves=300, moves_per_cooldown=100)
SEEDED = SearchConfig(seed=1)


class TestRectTopology:
    def test_rect_mesh_shape(self):
        topo = MeshTopology.rect_mesh(6, 3)
        assert topo.width == 6 and topo.height == 3
        assert topo.num_nodes == 18
        assert not topo.is_square

    def test_square_is_square(self):
        assert MeshTopology.mesh(4).is_square

    def test_coords_round_trip(self):
        topo = MeshTopology.rect_mesh(5, 3)
        for node in range(15):
            x, y = topo.coords(node)
            assert 0 <= x < 5 and 0 <= y < 3
            assert topo.node_id(x, y) == node

    def test_channel_count(self):
        # width x height mesh: height*(width-1) row + width*(height-1) col.
        topo = MeshTopology.rect_mesh(6, 3)
        assert len(topo.channels()) == 3 * 5 + 6 * 2

    def test_mismatched_placements_rejected(self):
        with pytest.raises(ConfigurationError):
            MeshTopology.rectangular(RowPlacement.mesh(6), RowPlacement.mesh(6)).__class__(
                n=6,
                row_placements=(RowPlacement.mesh(6),) * 2,  # wrong count
                col_placements=(RowPlacement.mesh(3),) * 6,
                height=3,
            )

    def test_radix_rect_corner(self):
        topo = MeshTopology.rect_mesh(6, 3)
        assert topo.radix(0) == 2

    def test_express_rows_only(self):
        row = RowPlacement(6, frozenset({(0, 5)}))
        topo = MeshTopology.rectangular(row, RowPlacement.mesh(3))
        assert topo.channel_length(0, 5) == 5
        assert len(topo.channels()) == 3 * 5 + 6 * 2 + 3


class TestRectRouting:
    def test_routes_work(self):
        topo = MeshTopology.rect_mesh(6, 3)
        tables = RoutingTables.build(topo)
        for src in range(18):
            for dst in range(18):
                path = compute_route(tables, src, dst)
                assert path[0] == src and path[-1] == dst

    def test_deadlock_free(self):
        row = RowPlacement(6, frozenset({(0, 3), (2, 5)}))
        col = RowPlacement(4, frozenset({(0, 2)}))
        topo = MeshTopology.rectangular(row, col)
        assert is_deadlock_free(RoutingTables.build(topo))


class TestRectSimulation:
    def test_zero_load_packet(self):
        topo = MeshTopology.rect_mesh(6, 3)
        cfg = SimConfig(flit_bits=128, warmup_cycles=0, measure_cycles=10, max_cycles=2_000)
        sim = Simulator(topo, cfg, TraceTraffic([(0, 0, 17, 256)]))
        result = sim.run()
        assert result.drained
        # (0,0) -> (5,2): 5 + 2 = 7 hops * 4 + 3 NI overhead.
        assert result.summary.avg_head_latency == pytest.approx(7 * 4 + 3)


class TestRectOptimizer:
    def test_sweep_structure(self):
        points = optimize_rectangular(8, 4, params=QUICK, config=SEEDED)
        assert 1 in points
        best = best_rectangular(points)
        assert best.total_latency <= points[1].total_latency

    def test_dimensions_solved_independently(self):
        points = optimize_rectangular(8, 4, params=QUICK, config=SEEDED, link_limits=(2,))
        p = points[2]
        assert p.row_placement.n == 8
        assert p.col_placement.n == 4
        p.row_placement.validate(2)
        p.col_placement.validate(2)

    def test_square_matches_optimize_shape(self):
        # For a square, head latency is row avg + col avg = 2x row avg.
        from repro.core.latency import mean_row_head_latency

        points = optimize_rectangular(4, 4, params=QUICK, config=SEEDED, link_limits=(1,))
        assert points[1].head_latency == pytest.approx(
            2 * mean_row_head_latency(RowPlacement.mesh(4))
        )

    def test_best_beats_rect_mesh(self):
        points = optimize_rectangular(8, 4, params=QUICK, config=SEEDED, link_limits=(1, 2, 4))
        assert best_rectangular(points).total_latency < points[1].total_latency

    def test_legacy_rng_keyword_rejected(self):
        with pytest.raises(TypeError, match="SearchConfig"):
            optimize_rectangular(8, 4, params=QUICK, rng=1)

    @pytest.mark.parametrize("config", [
        SEEDED, SearchConfig(seed=5, restarts=2), SearchConfig(seed=5, jobs=2),
    ])
    def test_square_matches_optimize_at_every_limit(self, config):
        # One search grid: a square mesh solves exactly optimize's
        # (n, C, restart) tasks, so every C gets the same row design.
        points = optimize_rectangular(6, 6, params=QUICK, config=config)
        sweep = optimize(6, params=QUICK, config=config).sweep
        assert sorted(points) == sorted(sweep.solutions)
        for c, point in points.items():
            assert point.row_placement == sweep.solutions[c].placement
            assert point.col_placement == point.row_placement
            assert point.total_latency == pytest.approx(
                sweep.points[c].total_latency
            )
