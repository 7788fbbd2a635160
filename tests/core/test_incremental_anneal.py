"""Incremental-mode annealing: byte-identical trajectories to full FW.

The incremental engine replaces how each SA candidate is priced, not
what the search does -- so every observable of the run (placements,
energies, evaluation counts, traces, accept statistics) must be
bit-identical to the full Floyd-Warshall path for the same seed.
"""

import numpy as np
import pytest

from repro.api import SearchConfig
from repro.core.annealing import AnnealingParams, anneal
from repro.core.connection_matrix import ConnectionMatrix
from repro.core.latency import RowObjective
from repro.core.optimizer import optimize, solve_row_problem
from repro.obs import Instrumentation, MemorySink
from repro.util.errors import ConfigurationError

SMOKE = AnnealingParams(total_moves=600, moves_per_cooldown=150)


def run_pair(n, limit, seed, objective=None, max_evaluations=None,
             resync_every=100):
    """One anneal under each mode from identical starting points."""
    obj = objective or RowObjective()
    rng = np.random.default_rng(seed)
    start = ConnectionMatrix.random(n, limit, rng=rng)
    full = anneal(
        start.copy(), obj, SMOKE, rng=np.random.default_rng(seed + 1),
        max_evaluations=max_evaluations,
    )
    incr = anneal(
        start.copy(), obj, SMOKE, rng=np.random.default_rng(seed + 1),
        max_evaluations=max_evaluations, incremental=True,
        resync_every=resync_every,
    )
    return full, incr


def assert_trajectory_identical(full, incr):
    assert incr.best_placement == full.best_placement
    assert incr.best_energy == full.best_energy
    assert incr.initial_energy == full.initial_energy
    assert incr.evaluations == full.evaluations
    assert incr.accepted_moves == full.accepted_moves
    assert incr.uphill_accepted == full.uphill_accepted
    assert incr.trace == full.trace


class TestAnnealParity:
    @pytest.mark.parametrize("n,limit", [(6, 2), (8, 3), (8, 4), (16, 3)])
    def test_byte_identical_trajectory(self, n, limit):
        assert_trajectory_identical(*run_pair(n, limit, seed=17 * n + limit))

    def test_parity_under_evaluation_cap(self):
        full, incr = run_pair(8, 3, seed=23, max_evaluations=150)
        assert_trajectory_identical(full, incr)
        assert full.evaluations <= 150

    def test_parity_with_weighted_objective(self):
        rng = np.random.default_rng(1)
        w = tuple(map(tuple, rng.random((8, 8)).tolist()))
        full, incr = run_pair(8, 3, seed=29, objective=RowObjective(weights=w))
        assert_trajectory_identical(full, incr)

    def test_parity_with_frequent_selfchecks(self):
        # resync_every=1 forces a full-FW comparison after every accepted
        # move: the strongest drift probe the annealer can run.
        full, incr = run_pair(6, 3, seed=31, resync_every=1)
        assert_trajectory_identical(full, incr)

    def test_incremental_requires_capable_objective(self):
        start = ConnectionMatrix.random(6, 2, rng=np.random.default_rng(0))
        with pytest.raises(ConfigurationError, match="incremental"):
            anneal(start, lambda p: 0.0, SMOKE, rng=1, incremental=True)


class TestObservability:
    def test_incremental_metrics_reported(self):
        obs = Instrumentation(sinks=[MemorySink()])
        start = ConnectionMatrix.random(8, 3, rng=np.random.default_rng(2))
        anneal(
            start, RowObjective(), SMOKE, rng=3, incremental=True,
            resync_every=50, obs=obs,
        )
        counters = obs.metrics.snapshot()["counters"]
        assert counters["sa.eval.incremental"] > 0
        assert counters["sa.eval.full"] >= 1  # the initial pricing
        assert counters["sa.selfcheck"] >= 1
        assert counters.get("sa.resync", 0) == 0  # integral costs: no drift
        total = counters["sa.eval.incremental"] + counters["sa.eval.full"]
        assert total > counters["sa.eval.full"]

    def test_full_mode_reports_no_incremental_counters(self):
        obs = Instrumentation(sinks=[MemorySink()])
        start = ConnectionMatrix.random(6, 2, rng=np.random.default_rng(4))
        anneal(start, RowObjective(), SMOKE, rng=5, obs=obs)
        counters = obs.metrics.snapshot()["counters"]
        assert "sa.eval.incremental" not in counters


class TestEndToEnd:
    def test_optimize_sweep_parity(self):
        base = optimize(8, params=SMOKE, config=SearchConfig(seed=41)).sweep
        incr = optimize(
            8, params=SMOKE,
            config=SearchConfig(seed=41, incremental=True, resync_every=50),
        ).sweep
        assert base.best.link_limit == incr.best.link_limit
        for c, sol in base.solutions.items():
            assert incr.solutions[c].placement == sol.placement
            assert incr.solutions[c].energy == sol.energy
            assert incr.solutions[c].evaluations == sol.evaluations

    def test_solve_row_problem_parity(self):
        base = solve_row_problem(8, 4, params=SMOKE, config=SearchConfig(seed=43))
        incr = solve_row_problem(
            8, 4, params=SMOKE, config=SearchConfig(seed=43, incremental=True)
        )
        assert incr.placement == base.placement
        assert incr.energy == base.energy

    def test_parallel_restarts_parity(self):
        cfg = SearchConfig(seed=47, restarts=2, jobs=2)
        base = optimize(6, params=SMOKE, config=cfg).sweep
        incr = optimize(
            6, params=SMOKE,
            config=cfg.with_updates(incremental=True, resync_every=50),
        ).sweep
        for c, sol in base.solutions.items():
            assert incr.solutions[c].placement == sol.placement
        assert base.restart_energies == incr.restart_energies
