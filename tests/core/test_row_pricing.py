"""Row-space SA pricing works from the flipped bit, not from a decode.

A row move updates the chain's link mask (the memo key) and its live
weight stack in place; nothing in the per-move loop decodes the
matrix, serializes a placement or rebuilds a weight stack.  These tests
count the calls that must have left the hot loop and check that the
maintained state always equals what a fresh decode would give.
"""

import numpy as np
import pytest

from repro.core import annealing
from repro.core.annealing import (
    AnnealingParams,
    MemoizedObjective,
    anneal,
    anneal_population,
)
from repro.core.connection_matrix import ConnectionMatrix
from repro.core.latency import RowObjective
from repro.obs import Instrumentation
from repro.routing import shortest_path
from repro.topology.row import RowPlacement

PARAMS = AnnealingParams(total_moves=300, moves_per_cooldown=75)


def counting(monkeypatch, owner, name):
    """Replace ``owner.name`` with a call-counting wrapper."""
    original = getattr(owner, name)
    calls = [0]

    def wrapper(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrapper)
    return calls


@pytest.fixture
def counters(monkeypatch):
    return {
        "decode": counting(monkeypatch, ConnectionMatrix, "decode"),
        "canonical_bytes": counting(monkeypatch, RowPlacement, "canonical_bytes"),
        "weight_stack": counting(monkeypatch, shortest_path, "weight_stack"),
        "fw": counting(monkeypatch, shortest_path, "floyd_warshall_distances_batch"),
    }


def test_single_chain_hot_loop_calls(counters):
    obs = Instrumentation()
    start = ConnectionMatrix.random(16, 4, rng=np.random.default_rng(3))
    anneal(start, RowObjective(), PARAMS, rng=4, obs=obs)
    misses = obs.metrics.snapshot()["counters"]["sa.memo_misses"]
    assert counters["decode"][0] <= 1
    assert counters["canonical_bytes"][0] == 0
    assert counters["weight_stack"][0] == 0
    assert counters["fw"][0] == misses
    assert misses < PARAMS.total_moves  # the memo does serve hits


def test_lockstep_chains_share_one_kernel_call_per_move(counters):
    obs = Instrumentation()
    gen = np.random.default_rng(5)
    initials = [ConnectionMatrix.random(16, 4, rng=gen) for _ in range(3)]
    anneal_population(initials, RowObjective(), PARAMS, rngs=[6, 7, 8], obs=obs)
    misses = obs.metrics.snapshot()["counters"]["sa.memo_misses"]
    assert counters["decode"][0] <= 3
    assert counters["canonical_bytes"][0] == 0
    assert counters["weight_stack"][0] == 0
    # At most one kernel call per move (plus the start), never one per miss.
    assert counters["fw"][0] <= PARAMS.total_moves + 1 < misses


def test_reference_tier_prices_misses_through_the_oracle(counters):
    start = ConnectionMatrix.random(6, 3, rng=np.random.default_rng(9))
    anneal(start, RowObjective(impl="reference"), PARAMS, rng=10)
    assert counters["fw"][0] == 0
    assert counters["decode"][0] <= 1


@pytest.mark.parametrize("incremental", [False, True])
@pytest.mark.parametrize("n,limit,seed", [(8, 3, 1), (9, 5, 2), (16, 4, 3)])
def test_maintained_state_matches_a_fresh_decode(n, limit, seed, incremental):
    state = ConnectionMatrix.random(n, limit, rng=np.random.default_rng(seed))
    objective = RowObjective()
    pricing = annealing._RowPricing(objective, incremental, resync_every=0)
    energy = pricing.start(state)
    if energy is None:
        energy = pricing.store(objective(state.decode()))
    gen = np.random.default_rng(seed + 100)
    for _ in range(200):
        site = state.random_move(gen)
        value = pricing.propose(state, site, energy)
        placement = state.decode()
        if value is None:
            value = pricing.store(objective.price_stacks(pricing.stack)[0])
        assert value == objective(placement)
        if gen.random() < 0.5:
            pricing.accept(annealing._Chain(0, state, gen, pricing), 0,
                           Instrumentation())
            energy = value
        else:
            pricing.reject(state, site)
            placement = state.decode()
        assert pricing.placement(state) == placement
        assert pricing.key == annealing._link_mask(n, placement.express_links)
        if not incremental:
            expected = shortest_path.weight_stack_population([placement], objective.cost)
            assert np.array_equal(pricing.stack, expected)


def test_memo_keys_by_mask_with_placement_counters():
    memo = MemoizedObjective(lambda p: 1.0, max_size=2)
    for key in (1, 2, 1, 3, 1):
        if memo.lookup(key) is MemoizedObjective.MISS:
            memo.store(key, 1.0)
    # 1, 2 miss; 1 hits; 3 misses into a full cache (cleared); 1 misses.
    assert (memo.calls, memo.hits, memo.misses) == (5, 1, 4)
    assert (memo.evaluations, memo.overflows) == (4, 1)


def test_incremental_refuses_mesh_spaces():
    from repro.core.search_space import HeteroMatrix
    from repro.util.errors import ConfigurationError

    start = HeteroMatrix.random(5, 2, np.random.default_rng(0))
    with pytest.raises(ConfigurationError, match="row connection-matrix"):
        anneal(start, RowObjective(), PARAMS, rng=1, incremental=True)
