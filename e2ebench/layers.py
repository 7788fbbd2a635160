"""Which functions the traced run wraps, and the per-layer metrics.

Each layer is named by the ``repro`` module that defines the wrapped
function; the wrapper sits at the attribute the caller looks the
function up through (``repro.core.optimizer.anneal`` for the annealer
as the optimizer calls it, ``ConnectionMatrix.decode`` on the class).
Methods are labelled ``<module>.<method>``; ``__call__`` keeps its
class so the two objectives stay apart.

Span labels of the search and simulator legs are reported as is
(simulator ones prefixed by their load, ``sim-low.`` / ``sim-high.``);
spans recorded inside the ``repro serve`` process are prefixed
``srv.``.  In the server, searches run on executor threads, which start
without the request's context: ``core.optimizer.optimize`` is a root
span there, and a miss's ``handle`` self time is mostly its wait for
that search.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from tracer import Tracer

# ----------------------------------------------------------------------
# Search leg
# ----------------------------------------------------------------------

#: Span labels of the search leg (each reports `.calls` and `.self_s`).
SEARCH_SPANS = (
    "core.divide_conquer.initial_solution",
    "core.annealing.anneal",
    "core.annealing.MemoizedObjective.__call__",
    "core.optimizer.design_point",
    "core.connection_matrix.decode",
    "core.connection_matrix.random_move",
    "core.connection_matrix.flip",
    "core.connection_matrix.flip_diff",
    "topology.row.canonical_bytes",
    "topology.row.all_links",
    "core.latency.RowObjective.__call__",
    "core.latency.evaluate_many",
    "core.latency.energy",
    "routing.shortest_path.weight_stack",
    "routing.shortest_path.weight_stack_population",
    "routing.shortest_path.floyd_warshall_distances_batch",
    "routing.incremental.apply_link_changes",
    "routing.incremental.checkpoint",
    "routing.incremental.rollback",
    "routing.incremental.commit",
    "routing.incremental.self_check",
    "routing.native.warmup",
    "routing.native.inc_update_boundary",
)

#: Exact counts the search-leg hooks accumulate.
SEARCH_COUNTS = (
    "core.divide_conquer.evaluations",
    "core.annealing.evaluations",
    "core.latency.evaluate_many.placements",
)


def _count(key: str, field: str):
    def hook(tracer, args, kwargs, result, t0, t1):
        tracer.counts[tracer.scope + key] += getattr(result, field)
    return hook


def _placements_hook(key: str):
    def hook(tracer, args, kwargs, result, t0, t1):
        placements = args[1] if len(args) > 1 else kwargs["placements"]
        n = len(placements)
        tracer.counts[tracer.scope + key] += n
        if tracer.item_seconds is not None:
            for p in placements:
                tracer.item_seconds[id(p)] = t1 - t0
    return hook


def _minplus_hook(tracer, args, kwargs, result, t0, t1):
    # 2 * slices * n^3: one add and one min per (k, i, j) per slice.
    b, n, _ = args[0].shape
    tracer.counts[tracer.scope + "routing.shortest_path.minplus_ops"] += (
        2 * b * n ** 3
    )


def _memo_hook(tracer, args, kwargs, result, t0, t1):
    memo = args[0]
    tracer.memos[id(memo)] = memo


def install_search(tracer: Tracer) -> None:
    """Wrap the search stack (``repro.place_express_links`` and below)."""
    from repro.core import annealing, connection_matrix, latency, optimizer
    from repro.routing import incremental, native, shortest_path
    from repro.topology import row

    tracer.wrap(optimizer, "initial_solution",
                "core.divide_conquer.initial_solution",
                _count("core.divide_conquer.evaluations", "evaluations"))
    tracer.wrap(optimizer, "anneal", "core.annealing.anneal",
                _count("core.annealing.evaluations", "evaluations"))
    tracer.wrap(optimizer, "design_point", "core.optimizer.design_point")
    tracer.wrap(annealing.MemoizedObjective, "__call__",
                "core.annealing.MemoizedObjective.__call__", _memo_hook)
    cm = connection_matrix.ConnectionMatrix
    for name in ("decode", "random_move", "flip", "flip_diff"):
        tracer.wrap(cm, name, f"core.connection_matrix.{name}")
    for name in ("canonical_bytes", "all_links"):
        tracer.wrap(row.RowPlacement, name, f"topology.row.{name}")
    tracer.wrap(latency.RowObjective, "__call__",
                "core.latency.RowObjective.__call__")
    tracer.wrap(latency.RowObjective, "evaluate_many",
                "core.latency.evaluate_many",
                _placements_hook("core.latency.evaluate_many.placements"))
    tracer.wrap(latency.IncrementalRowEvaluator, "energy",
                "core.latency.energy")
    _wrap_shortest_path(tracer, shortest_path, incremental)
    engine = incremental.IncrementalApspEngine
    for name in ("apply_link_changes", "checkpoint", "rollback", "commit",
                 "self_check"):
        tracer.wrap(engine, name, f"routing.incremental.{name}")
    tracer.wrap(native, "warmup", "routing.native.warmup")
    tracer.wrap(native, "inc_update_boundary",
                "routing.native.inc_update_boundary")


def _wrap_shortest_path(tracer: Tracer, shortest_path, *importers) -> None:
    """Wrap the kernels in their module and in modules that import them."""
    labels = {
        "weight_stack": None,
        "weight_stack_population": None,
        "floyd_warshall_distances_batch": _minplus_hook,
    }
    for owner in (shortest_path,) + importers:
        for name, hook in labels.items():
            if name in vars(owner):
                tracer.wrap(owner, name, f"routing.shortest_path.{name}", hook)


def search_metrics(tracer: Tracer, table: Dict[str, Dict[str, float]]
                   ) -> Dict[str, Tuple[float, str]]:
    out: Dict[str, Tuple[float, str]] = {}
    for label in SEARCH_SPANS:
        row = table.get(label, {"calls": 0, "self_s": 0.0})
        out[f"{label}.calls"] = (row["calls"], "count")
        out[f"{label}.self_s"] = (row["self_s"], "s")
    for key in SEARCH_COUNTS:
        out[key] = (tracer.counts.get(key, 0), "count")
    calls = sum(m.calls for m in tracer.memos.values())
    hits = sum(m.hits for m in tracer.memos.values())
    out["core.annealing.memo_hit_ratio"] = (
        hits / calls if calls else 0.0, "ratio"
    )
    out["routing.shortest_path.minplus_ops"] = (
        tracer.counts.get("routing.shortest_path.minplus_ops", 0),
        "ops_computed",
    )
    return out


# ----------------------------------------------------------------------
# Simulator leg
# ----------------------------------------------------------------------

SIM_SPANS = (
    "sim.engine.step",
    "sim.network.deliver_active",
    "sim.network.tick_nis_active",
    "sim.network.allocate_active",
    "traffic.injection.packets_for_cycle",
)

#: ``RunResult.activity`` counters reported per load (``buffer_writes``
#: always equals the flits ``deliver_active`` returns, so it is left out).
SIM_ACTIVITY = ("link_flit_hops",)


def _flits_hook(key: str):
    def hook(tracer, args, kwargs, result, t0, t1):
        tracer.counts[tracer.scope + key] += result
    return hook


def _packets_hook(tracer, args, kwargs, result, t0, t1):
    tracer.counts[tracer.scope + "traffic.injection.packets_for_cycle.packets"] += (
        len(result)
    )


def install_sim(tracer: Tracer) -> None:
    from repro.routing.tables import RoutingTables
    from repro.sim.engine import Simulator
    from repro.sim.network import Network
    from repro.traffic.injection import SyntheticTraffic

    tracer.wrap(Simulator, "step", "sim.engine.step")
    for name in ("deliver_active", "tick_nis_active", "allocate_active"):
        tracer.wrap(Network, name, f"sim.network.{name}",
                    _flits_hook(f"sim.network.{name}.flits"))
    tracer.wrap(SyntheticTraffic, "packets_for_cycle",
                "traffic.injection.packets_for_cycle", _packets_hook,
                materialize=True)
    tracer.wrap(RoutingTables, "build", "routing.tables.build")


def sim_metrics(tracer: Tracer, load: str, table: Dict[str, Dict[str, float]],
                activity: Dict[str, int]) -> Dict[str, Tuple[float, str]]:
    prefix = f"sim-{load}."
    out: Dict[str, Tuple[float, str]] = {}
    for label in SIM_SPANS:
        row = table.get(label, {"calls": 0, "self_s": 0.0})
        out[f"{prefix}{label}.calls"] = (row["calls"], "count")
        out[f"{prefix}{label}.self_s"] = (row["self_s"], "s")
    for name in ("deliver_active", "tick_nis_active", "allocate_active"):
        key = f"sim.network.{name}.flits"
        out[prefix + key] = (tracer.counts.get(prefix + key, 0), "flits")
    key = "traffic.injection.packets_for_cycle.packets"
    out[prefix + key] = (tracer.counts.get(prefix + key, 0), "packets")
    for name in SIM_ACTIVITY:
        out[f"{prefix}sim.network.activity.{name}"] = (activity[name], "count")
    if load == "low":
        row = table.get("routing.tables.build", {"calls": 0, "self_s": 0.0})
        out["routing.tables.build.calls"] = (row["calls"], "count")
        out["routing.tables.build.self_s"] = (row["self_s"], "s")
    return out


# ----------------------------------------------------------------------
# Serve leg (inside the ``repro serve`` process)
# ----------------------------------------------------------------------

#: Cache classes the serve leg measures (response ``cache`` field, or
#: the route for ``/evaluate``).
SERVE_CLASSES = ("miss", "warm", "hit", "evaluate")

SERVE_SPANS = (
    "core.optimizer.optimize",
    "serve.store.get",
    "serve.store.put",
    "serve.store.nearest",
    "api.to_json",
    "obs.ledger.sweep_digest",
    "core.latency.evaluate_many",
    "routing.shortest_path.floyd_warshall_distances_batch",
    "topology.row.canonical_bytes",
)


def handle_class(args, kwargs, result) -> str:
    """Span label of one ``ServeApp.handle`` call, by cache class."""
    path = args[2] if len(args) > 2 else kwargs.get("path", "")
    if path == "/evaluate":
        return "serve.server.handle.evaluate"
    if result is not None and result[0] == 200 and path == "/place":
        payload = result[2]
        for cls in ("miss", "warm", "hit", "coalesced"):
            if f'"cache": "{cls}"'.encode() in payload:
                return f"serve.server.handle.{cls}"
    return "serve.server.handle.error"


def _evaluate_wait_hook(tracer, args, kwargs, result, t0, t1):
    placement = args[1] if len(args) > 1 else kwargs["placement"]
    kernel = tracer.item_seconds.pop(id(placement), 0.0)
    tracer.counts["serve.batcher.wait_s"] += (t1 - t0) - kernel


def _batch_hook(tracer, args, kwargs, result, t0, t1):
    tracer.counts["serve.batcher.batches"] += 1
    tracer.counts["serve.batcher.batched_requests"] += len(args[0])


def install_server(tracer: Tracer) -> None:
    from repro.api import PlacementResult
    from repro.core import latency
    from repro.routing import shortest_path
    from repro.serve import batcher, server, store
    from repro.topology import row

    tracer.item_seconds = {}
    tracer.wrap(server.ServeApp, "handle", handle_class)
    for name in ("get", "put", "nearest"):
        tracer.wrap(store.DesignStore, name, f"serve.store.{name}")
    tracer.wrap(batcher.EvaluateBatcher, "evaluate", "serve.batcher.evaluate",
                _evaluate_wait_hook)
    tracer.wrap(batcher, "_price_batch", "serve.batcher._price_batch",
                _batch_hook)
    tracer.wrap(PlacementResult, "to_json", "api.to_json")
    tracer.wrap(server, "sweep_digest", "obs.ledger.sweep_digest")
    tracer.wrap(server, "optimize", "core.optimizer.optimize")
    tracer.wrap(latency.RowObjective, "evaluate_many",
                "core.latency.evaluate_many",
                _placements_hook("core.latency.evaluate_many.placements"))
    tracer.wrap(shortest_path, "floyd_warshall_distances_batch",
                "routing.shortest_path.floyd_warshall_distances_batch",
                _minplus_hook)
    tracer.wrap(row.RowPlacement, "canonical_bytes",
                "topology.row.canonical_bytes")


def serve_metrics(table: Dict[str, Dict[str, float]], counts: Dict[str, float],
                  client: Dict[str, Dict[str, float]]
                  ) -> Dict[str, Tuple[float, str]]:
    """Server-side layer rows plus the HTTP self time per class.

    ``client`` maps each class to its summed client latency
    (``latency_s``) and its non-200 count (``non200``).
    """
    out: Dict[str, Tuple[float, str]] = {}
    for cls in SERVE_CLASSES:
        row = table.get(f"serve.server.handle.{cls}",
                        {"calls": 0, "self_s": 0.0, "wall_s": 0.0})
        out[f"srv.serve.server.handle.{cls}.calls"] = (row["calls"], "count")
        out[f"srv.serve.server.handle.{cls}.self_s"] = (row["self_s"], "s")
        out[f"srv.http.{cls}.self_s"] = (
            client[cls]["latency_s"] - row["wall_s"], "s"
        )
        out[f"srv.{cls}.non200"] = (client[cls]["non200"], "count")
    for label in SERVE_SPANS:
        row = table.get(label, {"calls": 0, "self_s": 0.0})
        out[f"srv.{label}.calls"] = (row["calls"], "count")
        out[f"srv.{label}.self_s"] = (row["self_s"], "s")
    evaluate = table.get("serve.batcher.evaluate", {"calls": 0})
    batches = counts.get("serve.batcher.batches", 0)
    out["srv.serve.batcher.evaluate.calls"] = (evaluate["calls"], "count")
    out["srv.serve.batcher.wait_s"] = (counts.get("serve.batcher.wait_s", 0.0), "s")
    out["srv.serve.batcher.batches"] = (batches, "count")
    out["srv.serve.batcher.mean_batch_size"] = (
        counts.get("serve.batcher.batched_requests", 0) / batches
        if batches else 0.0, "requests",
    )
    out["srv.core.latency.evaluate_many.placements"] = (
        counts.get("core.latency.evaluate_many.placements", 0), "count"
    )
    out["srv.routing.shortest_path.minplus_ops"] = (
        counts.get("routing.shortest_path.minplus_ops", 0), "ops_computed"
    )
    return out


def per_layer_names() -> List[Tuple[str, str]]:
    """Every per-layer metric ``(name, unit)``, in report order."""
    t = Tracer()
    rows = dict(search_metrics(t, {}))
    for load in ("low", "high"):
        rows.update(sim_metrics(t, load, {}, dict.fromkeys(SIM_ACTIVITY, 0)))
    client = {c: {"latency_s": 0.0, "non200": 0} for c in SERVE_CLASSES}
    rows.update(serve_metrics({}, {}, client))
    return [(name, unit) for name, (_value, unit) in rows.items()] + list(
        EXTRA_METRICS
    )


#: Run-level per-layer metrics: tracing overhead per leg (both sim loads
#: together), whether the batcher defect probe was left stranded (1) or
#: answered (0), and the error rate.
EXTRA_METRICS = (
    ("trace.search.overhead_s", "s"),
    ("trace.serve.overhead_s", "s"),
    ("trace.sim.overhead_s", "s"),
    ("serve.batcher.stranded_504", "count"),
    ("error_rate", "ratio"),
)
