"""Content-addressed design store: identity, round-trip, neighbors."""

import json
import os
import threading

import pytest

from repro.api import SearchConfig
from repro.core.optimizer import optimize
from repro.harness.designs import EFFORTS
from repro.obs.ledger import compute_run_id, optimize_params, sweep_digest
from repro.serve.store import DesignStore

SMOKE = EFFORTS["smoke"]


@pytest.fixture
def store(tmp_path):
    return DesignStore(str(tmp_path / "designs"))


def _solve(n=6, seed=2019):
    cfg = SearchConfig(seed=seed)
    params = optimize_params(n, "dc_sa", "smoke", cfg.space)
    result = optimize(n, params=SMOKE, config=cfg)
    return params, cfg, result


class TestIdentity:
    def test_key_is_the_ledger_run_id(self, store):
        params, cfg, _ = _solve()
        key = store.key_for("optimize", params, cfg, cfg.seed)
        assert key == compute_run_id("optimize", params, cfg, cfg.seed)
        assert len(key) == 16

    def test_key_ignores_observability_knobs(self, store):
        params, cfg, _ = _solve()
        noisy = cfg.with_updates(trace_out="t.jsonl", metrics_every=5,
                                 profile=True, ledger="runs")
        assert (store.key_for("optimize", params, cfg, cfg.seed)
                == store.key_for("optimize", params, noisy, noisy.seed))

    def test_key_changes_with_seed_and_params(self, store):
        params, cfg, _ = _solve()
        other_cfg = cfg.with_updates(seed=7)
        assert (store.key_for("optimize", params, cfg, cfg.seed)
                != store.key_for("optimize", params, other_cfg, 7))
        other_params = dict(params, effort="paper")
        assert (store.key_for("optimize", params, cfg, cfg.seed)
                != store.key_for("optimize", other_params, cfg, cfg.seed))


class TestRoundTrip:
    def test_put_get_bit_exact(self, store):
        params, cfg, result = _solve()
        digest = sweep_digest(result.sweep)
        entry = store.put("optimize", params, cfg, cfg.seed, result, digest)
        loaded = store.get(entry.key)
        assert loaded is not None
        assert loaded.result == result
        assert loaded.result.to_json() == result.to_json()
        assert loaded.result_digest == digest
        assert loaded.warm_from is None

    def test_miss_returns_none(self, store):
        assert store.get("0" * 16) is None
        assert "0" * 16 not in store
        assert len(store) == 0

    def test_overwrite_idempotent(self, store):
        params, cfg, result = _solve()
        digest = sweep_digest(result.sweep)
        store.put("optimize", params, cfg, cfg.seed, result, digest)
        before = open(store.entry_path(
            store.key_for("optimize", params, cfg, cfg.seed))).read()
        store.put("optimize", params, cfg, cfg.seed, result, digest)
        after = open(store.entry_path(
            store.key_for("optimize", params, cfg, cfg.seed))).read()
        assert before == after
        assert len(store) == 1

    def test_no_tmp_files_left_behind(self, store):
        params, cfg, result = _solve()
        store.put("optimize", params, cfg, cfg.seed, result,
                  sweep_digest(result.sweep))
        for dirpath, _, names in os.walk(store.root):
            assert not [f for f in names if f.endswith(".tmp")], dirpath

    def test_entry_payload_is_canonical_json(self, store):
        params, cfg, result = _solve()
        entry = store.put("optimize", params, cfg, cfg.seed, result,
                          sweep_digest(result.sweep))
        raw = open(store.entry_path(entry.key)).read()
        from repro.obs.ledger import canonical_json

        assert raw == canonical_json(json.loads(raw)) + "\n"


class TestNearest:
    def test_nearest_same_n_row_space(self, store):
        params, cfg, result = _solve(n=6)
        store.put("optimize", params, cfg, cfg.seed, result,
                  sweep_digest(result.sweep))
        hit = store.nearest(6, "row")
        assert hit is not None
        assert hit.result.n == 6

    def test_nearest_filters_by_n(self, store):
        params, cfg, result = _solve(n=6)
        store.put("optimize", params, cfg, cfg.seed, result,
                  sweep_digest(result.sweep))
        assert store.nearest(8, "row") is None

    def test_nearest_excludes_requested_key(self, store):
        params, cfg, result = _solve(n=6)
        entry = store.put("optimize", params, cfg, cfg.seed, result,
                          sweep_digest(result.sweep))
        assert store.nearest(6, "row", exclude=entry.key) is None

    def test_nearest_mesh_space_disabled(self, store):
        params, cfg, result = _solve(n=6)
        store.put("optimize", params, cfg, cfg.seed, result,
                  sweep_digest(result.sweep))
        assert store.nearest(6, "hetero") is None

    def test_nearest_deterministic_scan_order(self, store):
        for seed in (1, 2, 3):
            params, cfg, result = _solve(n=6, seed=seed)
            store.put("optimize", params, cfg, cfg.seed, result,
                      sweep_digest(result.sweep))
        first = store.nearest(6, "row")
        assert first is not None
        assert first.key == store.keys()[0]
        assert store.nearest(6, "row").key == first.key

    def test_nearest_skips_corrupt_entries(self, store):
        params, cfg, result = _solve(n=6)
        entry = store.put("optimize", params, cfg, cfg.seed, result,
                          sweep_digest(result.sweep))
        bad = os.path.join(store.root, "00corrupt0000000")
        os.makedirs(bad)
        with open(os.path.join(bad, "result.json"), "w") as fh:
            fh.write('{"not": "a store entry"}')
        hit = store.nearest(6, "row")
        assert hit is not None and hit.key == entry.key


class TestRobustness:
    @pytest.mark.parametrize("damage", [
        lambda raw: raw[: len(raw) // 2],        # truncated
        lambda raw: b"",                          # empty
        lambda raw: b"\xff\xfe not json",         # undecodable
        lambda raw: b"[1, 2, 3]",                 # JSON, wrong shape
        lambda raw: raw.replace(b'"key"', b'"kee"', 1),  # schema
    ])
    def test_unreadable_entry_is_a_counted_miss(self, store, damage):
        params, cfg, result = _solve()
        entry = store.put("optimize", params, cfg, cfg.seed, result,
                          sweep_digest(result.sweep))
        path = store.entry_path(entry.key)
        raw = open(path, "rb").read()
        with open(path, "wb") as fh:
            fh.write(damage(raw))
        assert store.get(entry.key) is None
        assert store.metrics.snapshot()["counters"]["serve.store.corrupt"] == 1
        store.put("optimize", params, cfg, cfg.seed, result,
                  sweep_digest(result.sweep))
        assert store.get(entry.key).result == result

    def test_entry_under_a_foreign_key_is_a_miss(self, store):
        params, cfg, result = _solve()
        entry = store.put("optimize", params, cfg, cfg.seed, result,
                          sweep_digest(result.sweep))
        other = "f" * 16
        os.makedirs(os.path.dirname(store.entry_path(other)))
        os.replace(store.entry_path(entry.key), store.entry_path(other))
        assert store.get(other) is None

    def test_interleaved_writers_of_one_key_leave_a_readable_entry(
        self, store, monkeypatch
    ):
        # Writer A is paused between its write and its replace while
        # writer B writes and publishes the same key; then A finishes.
        params, cfg, result = _solve()
        digest = sweep_digest(result.sweep)
        real_replace = os.replace
        a_written, b_done = threading.Event(), threading.Event()
        paused = []

        def replace(src, dst):
            if not paused:
                paused.append(src)
                a_written.set()
                assert b_done.wait(10)
            real_replace(src, dst)

        monkeypatch.setattr(os, "replace", replace)
        errors = []

        def writer_a():
            try:
                store.put("optimize", params, cfg, cfg.seed, result, digest)
            except Exception as exc:  # surfaced by the assertion below
                errors.append(exc)

        thread = threading.Thread(target=writer_a)
        thread.start()
        assert a_written.wait(10)
        try:
            store.put("optimize", params, cfg, cfg.seed, result, digest)
        finally:
            b_done.set()
            thread.join(10)
        assert errors == []
        key = store.key_for("optimize", params, cfg, cfg.seed)
        loaded = store.get(key)
        assert loaded is not None and loaded.result == result
        assert store.metrics.snapshot()["counters"].get(
            "serve.store.corrupt", 0) == 0
        leftovers = os.listdir(os.path.dirname(store.entry_path(key)))
        assert leftovers == ["result.json"]
