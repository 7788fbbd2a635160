"""Tests for the benchmark's own arithmetic and tracing.

Run from the repository root: ``python -m pytest e2ebench -q``.
"""

from __future__ import annotations

import asyncio
import json
import os
import sys
import types

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import layers  # noqa: E402
import run  # noqa: E402
import stats  # noqa: E402
from tracer import Tracer, check_self_sum, layer_table, self_times  # noqa: E402


def _span(sid, parent, t0, t1, label="x", run_id=1):
    return (sid, parent, run_id, label, t0, t1)


# ----------------------------------------------------------------------
# Self time
# ----------------------------------------------------------------------

def test_self_time_subtracts_union_of_overlapping_children():
    spans = [
        _span(1, 0, 0.0, 10.0),
        _span(2, 1, 1.0, 4.0),
        _span(3, 1, 3.0, 6.0),   # overlaps child 2 on [3, 4]
        _span(4, 1, 8.0, 9.0),
    ]
    selfs = self_times(spans)
    # children cover [1, 6] and [8, 9]: 6 of the parent's 10 seconds
    assert selfs[1] == pytest.approx(4.0)
    assert selfs[2] == pytest.approx(3.0)
    assert selfs[3] == pytest.approx(3.0)


def test_self_time_clips_children_to_the_parent_interval():
    spans = [
        _span(1, 0, 0.0, 5.0),
        _span(2, 1, 4.0, 9.0),   # outlives its parent (a task past a deadline)
        _span(3, 1, 4.5, 4.8),   # nested inside the sibling's overlap
    ]
    assert self_times(spans)[1] == pytest.approx(4.0)


def test_self_time_of_nested_chain_counts_each_level_once():
    spans = [
        _span(1, 0, 0.0, 10.0),
        _span(2, 1, 1.0, 9.0),
        _span(3, 2, 2.0, 3.0),
    ]
    selfs = self_times(spans)
    assert [selfs[1], selfs[2], selfs[3]] == pytest.approx([2.0, 7.0, 1.0])


def test_self_sum_matches_root_wall_without_overlap():
    spans = [
        _span(1, 0, 0.0, 10.0),
        _span(2, 1, 1.0, 4.0),
        _span(3, 2, 2.0, 3.0),
        _span(4, 1, 5.0, 9.0),
    ]
    ok, total, wall = check_self_sum(spans, 1)
    assert ok and total == pytest.approx(10.0) and wall == 10.0


def test_self_sum_flags_overlapping_siblings():
    spans = [
        _span(1, 0, 0.0, 10.0),
        _span(2, 1, 1.0, 4.0),
        _span(3, 1, 3.0, 6.0),
    ]
    ok, total, wall = check_self_sum(spans, 1)
    assert not ok and total == pytest.approx(11.0)


def test_layer_table_groups_by_label_and_filter():
    spans = [
        _span(1, 0, 0.0, 10.0, "root"),
        _span(2, 1, 1.0, 2.0, "leaf"),
        _span(3, 1, 3.0, 5.0, "leaf"),
        _span(4, 0, 20.0, 21.0, "leaf", run_id=4),
    ]
    table = layer_table(spans, keep=lambda s: s[2] == 1)
    assert table["leaf"]["calls"] == 2
    assert table["leaf"]["self_s"] == pytest.approx(3.0)
    assert table["root"]["self_s"] == pytest.approx(7.0)
    assert table["root"]["wall_s"] == pytest.approx(10.0)


def test_interval_union_merges_touching_and_contained():
    assert stats.interval_union([]) == 0.0
    assert stats.interval_union([(0, 1), (1, 2), (0.5, 0.7), (5, 6)]) == 3.0


# ----------------------------------------------------------------------
# Percentile rule
# ----------------------------------------------------------------------

def test_percentile_is_linear_interpolation():
    values = list(range(1, 11))   # 1..10
    assert stats.percentile(values, 50) == 5.5
    assert stats.percentile(values, 90) == pytest.approx(9.1)
    assert stats.median([3.0]) == 3.0


def test_samples_beyond_p90():
    # 101 samples: p90 is rank 90 exactly; ranks 91..100 lie beyond it
    assert stats.samples_beyond(101, 90) == 10
    # 92 samples: p90 sits between ranks 81 and 82; ranks 82..91 beyond
    assert stats.samples_beyond(92, 90) == 10
    assert stats.samples_beyond(91, 90) == 9


def test_highest_percentile_with_ten_beyond():
    assert stats.highest_percentile(92) == 90.0
    assert stats.highest_percentile(91) == 75.0
    assert stats.highest_percentile(1_000) == 99.0
    assert stats.highest_percentile(10_001) == 99.9
    assert stats.highest_percentile(21) == 50.0
    assert stats.highest_percentile(20) == 50.0
    assert stats.highest_percentile(19) is None
    assert not stats.supports_percentile(91, 90)
    assert stats.supports_percentile(92, 90)


# ----------------------------------------------------------------------
# Wrapping
# ----------------------------------------------------------------------

def test_wrap_records_nested_spans_and_uninstall_restores():
    mod = types.SimpleNamespace()

    class Thing:
        def method(self, x):
            return mod.helper(x) + 1

        @classmethod
        def build(cls, x):
            return cls().method(x)

        def gen(self, k):
            yield from range(k)

    mod.helper = lambda x: x * 2
    originals = (Thing.__dict__["method"], Thing.__dict__["build"], mod.helper)
    tracer = Tracer()
    tracer.wrap(mod, "helper", "mod.helper")
    tracer.wrap(Thing, "method", "Thing.method")
    tracer.wrap(Thing, "build", "Thing.build")
    tracer.wrap(Thing, "gen", "Thing.gen", materialize=True,
                hook=lambda t, a, k, r, t0, t1: t.counts.update(items=len(r)))
    with tracer.span("root") as root:
        assert Thing.build(3) == 7
        assert list(Thing().gen(4)) == [0, 1, 2, 3]
    tracer.uninstall()
    assert (Thing.__dict__["method"], Thing.__dict__["build"], mod.helper) == originals

    by_label = {s[3]: s for s in tracer.spans}
    assert by_label["Thing.build"][1] == root
    assert by_label["Thing.method"][1] == by_label["Thing.build"][0]
    assert by_label["mod.helper"][1] == by_label["Thing.method"][0]
    assert {s[2] for s in tracer.spans} == {root}
    assert tracer.counts["items"] == 4
    assert check_self_sum(tracer.spans, root)[0]


def test_wrap_async_keeps_context_per_task():
    class App:
        async def handle(self, delay):
            await asyncio.sleep(delay)
            return delay

    tracer = Tracer()
    tracer.wrap(App, "handle", lambda args, kwargs, result: f"handle.{result}")

    async def main():
        app = App()
        return await asyncio.gather(app.handle(0.02), app.handle(0.01))

    try:
        assert asyncio.run(main()) == [0.02, 0.01]
    finally:
        tracer.uninstall()
    labels = sorted(s[3] for s in tracer.spans)
    assert labels == ["handle.0.01", "handle.0.02"]
    # concurrent requests are separate roots, each its own run id
    assert all(s[1] == 0 and s[2] == s[0] for s in tracer.spans)


def test_dump_and_load_round_trip(tmp_path):
    from tracer import load

    tracer = Tracer()
    tracer.counts["n"] += 3
    with tracer.span("a"):
        with tracer.span("b"):
            pass
    path = tmp_path / "spans.tsv"
    tracer.dump(str(path))
    spans, counts = load(str(path))
    assert spans == tracer.spans and counts == tracer.counts


# ----------------------------------------------------------------------
# Sliced search and serve inputs
# ----------------------------------------------------------------------

def test_running_time_counts_only_slices_within_the_sweep():
    import search_leg

    search = search_leg.SlicedSearch.__new__(search_leg.SlicedSearch)
    search.slices = [(0.0, 1.0), (2.0, 3.0), (4.0, 5.0)]
    # The sweep starts inside the first slice and ends inside the last;
    # the stopped gaps between slices do not count.
    assert search.running_time(0.5, 4.25) == pytest.approx(0.5 + 1.0 + 0.25)
    assert search.running_time(1.2, 1.8) == 0.0


def test_serve_inputs_interleave_reads_and_support_miss_p90():
    sys.path.insert(0, os.path.join(HERE, "..", "src"))
    import serve_leg

    inputs = serve_leg.make_inputs(7)
    kinds = [r.kind for r in inputs.writes]
    assert stats.supports_percentile(kinds.count("miss"), 90.0)
    for writes, reads in inputs.rounds:
        assert [r.kind for r in reads] == ["hit", "evaluate"] * len(writes) * 2
        assert sorted(r.wire for r in reads if r.kind == "hit") == sorted(
            w.wire for w in writes for _ in range(serve_leg.HITS_PER_WRITE))
    again = serve_leg.make_inputs(7)
    assert [r.wire for r in again.writes + again.reads] == [
        r.wire for r in inputs.writes + inputs.reads]


# ----------------------------------------------------------------------
# Metric names
# ----------------------------------------------------------------------

def test_metric_names_match_benchmark_json():
    with open(os.path.join(HERE, "..", "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(
        run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == (
        layers.per_layer_names())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
