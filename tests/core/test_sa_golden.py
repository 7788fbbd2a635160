"""SA trajectory golden: every observable of short annealing runs, pinned.

The parity suites compare two live code paths against each other
(full vs incremental pricing, ``anneal`` vs ``anneal_population``,
one impl vs another), so a change that moves both sides the same way
passes them.  This file pins the runs themselves: for each case and
chain it records the best placement's canonical bytes, the best and
initial energies (``float.hex``), the evaluation and acceptance
counters, a digest of the ``(evaluations, best_energy)`` trace and the
memo hit/miss totals, in ``data/sa_golden.json``.

Regenerate (only when a change is *meant* to move SA trajectories)::

    PYTHONPATH=src python tests/core/test_sa_golden.py --record
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core.annealing import (
    AnnealingParams,
    MemoizedObjective,
    anneal,
    anneal_population,
)
from repro.core.connection_matrix import ConnectionMatrix
from repro.core.latency import RowObjective, mean_row_head_latency
from repro.obs import Instrumentation, MemorySink
from repro.routing.impls import available_impls
from repro.routing.shortest_path import HopCostModel

GOLDEN = Path(__file__).parent / "data" / "sa_golden.json"

PARAMS = AnnealingParams(total_moves=240, moves_per_cooldown=60)


def wire_penalized(placement):
    """A plain callable objective (no ``evaluate_many``, no stacks)."""
    return mean_row_head_latency(placement) + 0.01 * placement.total_wire_length()


def traffic(n: int, seed: int):
    w = np.random.default_rng(seed).random((n, n))
    return tuple(map(tuple, w.tolist()))


def objective_for(spec: dict):
    kind = spec.get("objective", "row")
    if kind == "callable":
        return wire_penalized
    cost = HopCostModel(*spec["cost"]) if "cost" in spec else HopCostModel()
    weights = traffic(spec["n"], spec["weights_seed"]) if "weights_seed" in spec else None
    return RowObjective(cost=cost, weights=weights, impl=spec.get("impl", "vectorized"))


def _case(name, n, c, seed, **extra):
    return dict(name=name, n=n, c=c, seed=seed, **extra)


CASES = (
    [
        _case(f"row-n{n}-c{c}", n, c, seed=100 * n + c)
        for n in (6, 8, 16)
        for c in (2, 3, 4, 8)
    ]
    + [
        _case("weighted-n8-c3", 8, 3, seed=7, weights_seed=1),
        _case("weighted-n16-c4", 16, 4, seed=8, weights_seed=2),
        _case("cost-n6-c2", 6, 2, seed=9, cost=[2.5, 0.7, 0.3]),
        _case("cost-n8-c4", 8, 4, seed=10, cost=[2.5, 0.7, 0.3]),
        _case("callable-n8-c3", 8, 3, seed=11, objective="callable"),
        _case("population-n8-c4", 8, 4, seed=12, chains=3),
        _case("population-n16-c3", 16, 3, seed=13, chains=3),
        _case("population-weighted-n8-c3", 8, 3, seed=14, chains=3,
              weights_seed=3),
        _case("population-callable-n6-c3", 6, 3, seed=15, chains=3,
              objective="callable"),
        _case("population-capped-n8-c4", 8, 4, seed=16, chains=3,
              max_evaluations=60),
        _case("capped-n8-c4", 8, 4, seed=17, max_evaluations=50),
        _case("overflow-n8-c4", 8, 4, seed=18, memo_size=16),
        _case("incremental-n8-c3", 8, 3, seed=19, incremental=True),
        _case("incremental-n16-c4", 16, 4, seed=20, incremental=True),
        _case("incremental-weighted-n8-c4", 8, 4, seed=21, incremental=True,
              weights_seed=4),
        _case("reference-n6-c3", 6, 3, seed=22, impl="reference"),
        _case("reference-n8-c2", 8, 2, seed=23, impl="reference"),
    ]
)


def trace_digest(trace) -> str:
    text = ";".join(f"{e},{float(b).hex()}" for e, b in trace)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def run_case(spec: dict) -> dict:
    """Run one case and return its JSON-ready record."""
    n, c, k = spec["n"], spec["c"], spec.get("chains", 1)
    gen = np.random.default_rng(spec["seed"])
    initials = [ConnectionMatrix.random(n, c, rng=gen) for _ in range(k)]
    rngs = [spec["seed"] * 10 + i for i in range(k)]
    sink = MemorySink()
    obs = Instrumentation(sinks=[sink])
    kwargs = dict(
        params=PARAMS,
        max_evaluations=spec.get("max_evaluations"),
        obs=obs,
        incremental=spec.get("incremental", False),
        resync_every=50,
    )
    objective = objective_for(spec)
    if k == 1:
        results = [anneal(initials[0], objective, rng=rngs[0], **kwargs)]
    else:
        results = anneal_population(initials, objective, rngs=rngs, **kwargs)
    counters = obs.metrics.snapshot()["counters"]
    ends = {e.payload["chain"]: e.payload for e in sink.of_kind("sa.end")}
    chains = []
    for index, res in enumerate(results):
        chains.append({
            "best_placement": res.best_placement.canonical_bytes().hex(),
            "best_energy": float(res.best_energy).hex(),
            "initial_energy": float(res.initial_energy).hex(),
            "evaluations": res.evaluations,
            "accepted_moves": res.accepted_moves,
            "uphill_accepted": res.uphill_accepted,
            "trace": trace_digest(res.trace),
            "memo_hit_ratio": float(ends[index]["memo_hit_ratio"]).hex(),
        })
    return {
        "chains": chains,
        "memo_hits": counters.get("sa.memo_hits", 0),
        "memo_misses": counters.get("sa.memo_misses", 0),
    }


def run_spec(spec: dict) -> dict:
    size = spec.get("memo_size")
    if size is None:
        return run_case(spec)
    # Shrink the memo bound so the wholesale clear happens inside a
    # short run (its counters and re-evaluations are then pinned too).
    defaults = MemoizedObjective.__init__.__defaults__
    MemoizedObjective.__init__.__defaults__ = (size,)
    try:
        return run_case(spec)
    finally:
        MemoizedObjective.__init__.__defaults__ = defaults


def _load():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("spec", CASES, ids=[c["name"] for c in CASES])
def test_sa_trajectory_matches_golden(spec):
    expected = _load()[spec["name"]]
    assert run_spec(spec) == expected


def test_overflow_case_clears_the_memo():
    # The shrunken bound must actually be exceeded, or the case pins
    # nothing about the wholesale clear.
    spec = next(c for c in CASES if "memo_size" in c)
    record = _load()[spec["name"]]
    assert record["memo_misses"] > spec["memo_size"]


@pytest.mark.skipif("native" not in available_impls(),
                    reason="no compiled backend on this machine")
@pytest.mark.parametrize("name", ["row-n8-c4", "row-n16-c3",
                                  "population-n8-c4", "weighted-n8-c3"])
def test_native_tier_matches_golden(name):
    spec = dict(next(c for c in CASES if c["name"] == name), impl="native")
    assert run_spec(spec) == _load()[name]


def test_golden_covers_every_case():
    assert set(_load()) == {c["name"] for c in CASES}


if __name__ == "__main__":
    if "--record" not in sys.argv[1:]:
        sys.exit("usage: test_sa_golden.py --record")
    GOLDEN.parent.mkdir(exist_ok=True)
    data = {spec["name"]: run_spec(spec) for spec in CASES}
    GOLDEN.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(data)} cases to {GOLDEN}")
