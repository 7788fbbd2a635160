"""Order-preserving process-pool layer shared by the parallel engines.

The search grid (:mod:`repro.core.optimizer`), the simulation
campaigns (:mod:`repro.sim.campaign`) and the Pareto drivers
(:mod:`repro.core.pareto`) all fan pure, picklable work items out with
:func:`parallel_map` and fold the workers' observability back with
:func:`_merge_observability`.

Design rules that make ``--jobs K`` a pure wall-clock knob:

* **Pure work items.**  Every item carries its own seed material (for
  the search grid, :func:`repro.util.rngtools.derived_rng` keys), so it
  computes the same result whether it runs inline, first, last, or on
  any worker.
* **Deterministic ordering.**  Results come back in item order
  regardless of which worker finished first.
* **Ordered obs merging.**  Each worker records events into its own
  :class:`~repro.obs.sinks.MemorySink` and metrics into its own
  registry; the parent replays events and merges metric snapshots in
  item order, so ``--trace-out`` traces and ``--profile`` totals are
  reproducible run to run.
"""

from __future__ import annotations

import multiprocessing as mp
from typing import List, Sequence

from repro.obs.instrument import Instrumentation


def parallel_map(fn, items: Sequence, jobs: int) -> List:
    """Order-preserving map, inline (``jobs <= 1``) or on a process pool.

    ``fn`` must be a module-level callable and every item picklable;
    ``pool.map`` returns results in item order regardless of which
    worker finished first, so downstream reduction sees the same
    sequence either way.
    """
    items = list(items)
    if jobs <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    methods = mp.get_all_start_methods()
    ctx = mp.get_context("fork" if "fork" in methods else "spawn")
    with ctx.Pool(processes=min(jobs, len(items))) as pool:
        return pool.map(fn, items, chunksize=1)


def _merge_observability(obs: Instrumentation, results: Sequence) -> None:
    """Fold worker events/metrics into the parent, in item order.

    Each result carries ``events`` (``Event.to_dict`` form) and
    ``metrics`` (a registry snapshot), and optionally an ``obs_key``.
    Gauge conflicts resolve by that key (the item's grid coordinate),
    not arrival order, so the merged registry is a pure function of the
    result *set* -- permuting worker completion (or even the merge order
    itself) cannot change the summary.
    """
    if obs.is_null:
        return
    for worker, res in enumerate(results):
        if obs.enabled and res.events:
            obs.replay(res.events, worker=worker)
        obs.metrics.merge(res.metrics, key=getattr(res, "obs_key", None) or (worker,))
