"""Cache-semantics contracts the serving layer is allowed to promise.

Three properties, each deterministic rather than statistical:

1. **Exact hit == cold CLI.**  A served cold ``/place`` and a direct
   :func:`repro.core.optimizer.optimize` call with the same identity
   key produce byte-identical result JSON, and the exact hit replays
   those bytes.
2. **Warm never worse.**  Injecting a cached neighbor as a post-solve
   candidate keeps the SA trajectory untouched, so
   ``energy_warm == min(energy_cold, energy_candidate)`` and the only
   observable cost is one extra evaluation per swept ``C``.
3. **Single-flight.**  N identical concurrent requests run one search.
"""

import asyncio

import pytest

from repro.api import SearchConfig
from repro.core.optimizer import inject_warm_candidate, optimize
from repro.core.latency import RowObjective
from repro.harness.designs import EFFORTS
from repro.obs.ledger import optimize_params, sweep_digest
from repro.serve.server import ServeApp
from repro.serve.store import DesignStore
from repro.topology.row import RowPlacement

SMOKE = EFFORTS["smoke"]


@pytest.fixture
def app(tmp_path):
    application = ServeApp(
        DesignStore(str(tmp_path / "designs")),
        default_effort="smoke",
    )
    yield application
    application.executor.shutdown(wait=True)


async def _place(app, **body):
    import json

    status, _, data, _ = await app.handle(
        "POST", "/place", json.dumps(body).encode()
    )
    assert status == 200, data
    return json.loads(data)


class TestExactHitIdentity:
    def test_served_cold_result_is_byte_identical_to_direct_optimize(
        self, app
    ):
        served = asyncio.run(_place(app, n=6, effort="smoke"))
        cfg = SearchConfig(seed=2019)
        direct = optimize(6, params=SMOKE, config=cfg)
        # Identity key agreement (store key == ledger run_id) ...
        params = optimize_params(6, "dc_sa", "smoke", cfg.space)
        assert served["key"] == app.store.key_for(
            "optimize", params, cfg, cfg.seed
        )
        # ... and full result agreement, wall time excepted (it is not
        # part of result equality, but it IS part of the JSON).
        assert served["result_digest"] == sweep_digest(direct.sweep)
        direct_json = direct.to_json()
        served_json = dict(served["result"])
        served_json.pop("wall_time_s")
        direct_json.pop("wall_time_s")
        assert served_json == direct_json

    def test_exact_hit_replays_stored_bytes(self, app):
        first = asyncio.run(_place(app, n=6, effort="smoke"))
        stored = open(app.store.entry_path(first["key"]), "rb").read()
        hit = asyncio.run(_place(app, n=6, effort="smoke"))
        assert hit["cache"] == "hit"
        assert hit["result"] == first["result"]
        # The hit did not rewrite (or even touch) the stored entry.
        assert open(app.store.entry_path(first["key"]), "rb").read() == stored

    def test_different_identity_different_entry(self, app):
        a = asyncio.run(_place(app, n=6, effort="smoke", warm=False))
        b = asyncio.run(
            _place(app, n=6, effort="smoke", warm=False,
                   config={"seed": 7})
        )
        assert a["key"] != b["key"]
        assert len(app.store) == 2


class TestCorruptEntries:
    def test_truncated_entry_is_a_miss_then_a_hit(self, app):
        first = asyncio.run(_place(app, n=6, effort="smoke", warm=False))
        path = app.store.entry_path(first["key"])
        raw = open(path, "rb").read()
        with open(path, "wb") as fh:
            fh.write(raw[: len(raw) // 2])  # a torn write
        again = asyncio.run(_place(app, n=6, effort="smoke", warm=False))
        assert again["cache"] == "miss"
        assert again["result_digest"] == first["result_digest"]
        counters = app.metrics.snapshot()["counters"]
        assert counters["serve.store.corrupt"] == 1
        # The recompute overwrote the torn entry.
        hit = asyncio.run(_place(app, n=6, effort="smoke", warm=False))
        assert hit["cache"] == "hit"
        assert hit["result"] == again["result"]


class TestWarmNeverWorse:
    def test_injection_energy_is_min_of_cold_and_candidate(self):
        cfg = SearchConfig(seed=5)
        objective = RowObjective()
        from repro.core.optimizer import solve_row_problem

        cold = solve_row_problem(8, 3, params=SMOKE, config=cfg)
        candidate = RowPlacement(8, frozenset({(0, 7)}))
        warm = inject_warm_candidate(
            cold.solution, candidate, objective
        )
        clipped = candidate.clipped_to_limit(3)
        assert warm.energy == min(cold.energy, objective(clipped))
        assert warm.evaluations == cold.evaluations + 1

    def test_optimize_with_warm_start_never_worse_at_same_seed(self):
        cfg = SearchConfig(seed=11)
        cold = optimize(6, params=SMOKE, config=cfg)
        # A deliberately mediocre neighbor: the plain mesh.
        warm = optimize(6, params=SMOKE, config=cfg,
                        warm_start=RowPlacement.mesh(6))
        assert warm.energy <= cold.energy
        # The mesh never strictly beats the solver's own best, so the
        # trajectory -- and the design -- are unchanged; only the
        # candidate evaluations are added (one per swept C except
        # C = 1, where the clip degenerates to the mesh itself).
        assert warm.placement == cold.placement
        assert warm.energy == cold.energy
        swept = [c for c in cold.sweep.solutions if c != 1]
        assert warm.evaluations == cold.evaluations + len(swept)
        assert sweep_digest(warm.sweep) == sweep_digest(cold.sweep)

    def test_strong_warm_start_improves_or_matches(self):
        cfg = SearchConfig(seed=11)
        cold = optimize(6, params=SMOKE, config=cfg)
        # Warm-start from a *better-budgeted* run of the same problem.
        rich = optimize(6, params=EFFORTS["quick"], config=SearchConfig(seed=3))
        warm = optimize(6, params=SMOKE, config=cfg,
                        warm_start=rich.placement)
        assert warm.energy <= cold.energy

    def test_served_warm_request_never_worse_than_cold(self, app):
        cold = asyncio.run(_place(app, n=6, effort="smoke", warm=False,
                                  config={"seed": 7}))
        warm = asyncio.run(_place(app, n=6, effort="smoke"))
        assert warm["cache"] == "warm"
        assert warm["warm_from"] == cold["key"]
        # Same identity computed cold, for the comparison baseline.
        baseline = optimize(6, params=SMOKE, config=SearchConfig(seed=2019))
        assert (float.fromhex(warm["result"]["energy"])
                <= baseline.energy)

    def test_cold_entries_stay_cli_identical_when_warmed(self, app):
        # A warm-started entry records its provenance; the cold entry
        # it came from is untouched and still byte-replays the CLI.
        asyncio.run(_place(app, n=6, effort="smoke", warm=False,
                           config={"seed": 7}))
        warm = asyncio.run(_place(app, n=6, effort="smoke"))
        cold_entry = app.store.get(warm["warm_from"])
        assert cold_entry.warm_from is None
        warm_entry = app.store.get(warm["key"])
        assert warm_entry.warm_from == warm["warm_from"]


class TestSingleFlight:
    def test_identical_concurrent_requests_share_one_search(self, app):
        async def scenario():
            return await asyncio.gather(
                *(_place(app, n=6, effort="smoke") for _ in range(6))
            )

        bodies = asyncio.run(scenario())
        assert len({b["key"] for b in bodies}) == 1
        assert all(b["result"] == bodies[0]["result"] for b in bodies)
        counters = app.metrics.snapshot()["counters"]
        assert counters["serve.cache.miss"] == 1
        assert counters["serve.cache.coalesced"] == 5
        assert "serve.cache.hit" not in counters
        # One search ran: one wall-time sample was recorded.
        quantiles = app.metrics.snapshot()["quantiles"]
        assert quantiles["serve.place.wall_s"]["count"] == 1

    def test_distinct_identities_do_not_coalesce(self, app):
        async def scenario():
            return await asyncio.gather(
                _place(app, n=6, effort="smoke", warm=False),
                _place(app, n=6, effort="smoke", warm=False,
                       config={"seed": 1}),
            )

        a, b = asyncio.run(scenario())
        assert a["key"] != b["key"]
        counters = app.metrics.snapshot()["counters"]
        assert counters["serve.cache.miss"] == 2
        assert "serve.cache.coalesced" not in counters
