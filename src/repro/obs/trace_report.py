"""Aggregate a JSONL trace into a human-readable summary.

Consumes the files written by :class:`repro.obs.sinks.JsonlSink` (one
event object per line) and renders the run-level digests the paper's
evaluation cares about:

* SA convergence: acceptance / uphill rates per cooling stage, the
  best energy at each stage boundary, the memo-cache hit ratio,
* hot spots: top spans by cumulative wall time,
* simulator health: heartbeat envelope (flits in flight, NI backlog)
  and the top-k most utilized links.

Merged multi-worker traces (``--jobs K``) additionally support the
correlation views -- replayed worker events carry a ``worker`` stamp
and their task grid coordinates (``task``), and span events carry
``span_id`` / ``parent_span_id`` links:

* ``--by-worker``: per-worker breakdown (events, spans, busy seconds,
  task coordinates) plus the critical path -- the chain of
  largest-elapsed spans through the slowest worker, i.e. the
  one-command answer to "where did the wall-clock go under
  ``--jobs 8``",
* ``--by-task``: the same partitioned by task coordinate, with each
  task's headline result (best energy / cycles run).

Every section degrades gracefully: traces from an optimizer-only run
simply omit the simulator sections and vice versa; single-worker
traces render the correlation views as a single row.
"""

from __future__ import annotations

import json
from collections import Counter
from typing import Dict, List

from repro.util.errors import ConfigurationError


def load_events(path: str) -> List[Dict]:
    """Parse a JSONL trace; raises on any malformed line."""
    events: List[Dict] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ConfigurationError(
                    f"{path}:{lineno}: not valid JSON ({exc})"
                ) from exc
            if not isinstance(record, dict) or "kind" not in record:
                raise ConfigurationError(
                    f"{path}:{lineno}: not an event object"
                )
            events.append(record)
    return events


def _payload(event: Dict) -> Dict:
    return event.get("payload") or {}


def summarize_sa_stages(events: List[Dict]) -> List[str]:
    stages = [e for e in events if e["kind"] == "sa.stage"]
    if not stages:
        return []
    lines = [
        "SA stages:",
        f"  {'stage':>5} {'temp':>10} {'moves':>7} {'accept%':>8} "
        f"{'uphill%':>8} {'best':>12} {'memo hit%':>10}",
    ]
    for e in stages:
        p = _payload(e)
        moves = p.get("moves", 0) or 0
        acc = 100.0 * p.get("accepted", 0) / moves if moves else 0.0
        up = 100.0 * p.get("uphill", 0) / moves if moves else 0.0
        hit = 100.0 * p.get("memo_hit_ratio", 0.0)
        lines.append(
            f"  {p.get('stage', '?'):>5} {p.get('temperature', 0.0):>10.4f} "
            f"{moves:>7} {acc:>8.1f} {up:>8.1f} "
            f"{p.get('best_energy', float('nan')):>12.4f} {hit:>10.1f}"
        )
    return lines


def summarize_spans(events: List[Dict], k: int = 5) -> List[str]:
    agg: Dict[str, List[float]] = {}
    for e in events:
        if e["kind"] != "span":
            continue
        p = _payload(e)
        name = p.get("name", "?")
        entry = agg.setdefault(name, [0, 0.0])
        entry[0] += 1
        entry[1] += p.get("elapsed_s", 0.0)
    if not agg:
        return []
    ranked = sorted(agg.items(), key=lambda kv: -kv[1][1])[:k]
    lines = [f"Top {min(k, len(agg))} spans by cumulative time:",
             f"  {'span':<32} {'calls':>8} {'total s':>10}"]
    for name, (calls, total) in ranked:
        lines.append(f"  {name:<32} {calls:>8} {total:>10.4f}")
    return lines


def summarize_link_utilization(events: List[Dict], k: int = 5) -> List[str]:
    links = [e for e in events if e["kind"] == "sim.link_util"]
    if not links:
        return []
    ranked = sorted(links, key=lambda e: -_payload(e).get("utilization", 0.0))[:k]
    lines = [f"Link utilization (top {min(k, len(links))} of {len(links)}):",
             f"  {'link':<12} {'flits':>8} {'flits/cycle':>12}"]
    for e in ranked:
        p = _payload(e)
        lines.append(
            f"  {p.get('link', '?'):<12} {p.get('flits', 0):>8} "
            f"{p.get('utilization', 0.0):>12.4f}"
        )
    return lines


def summarize_heartbeats(events: List[Dict]) -> List[str]:
    beats = [e for e in events if e["kind"] == "sim.heartbeat"]
    if not beats:
        return []
    cycles = [e.get("cycle", 0) for e in beats]
    in_flight = [_payload(e).get("flits_in_flight", 0) for e in beats]
    backlog = [_payload(e).get("ni_backlog", 0) for e in beats]
    return [
        "Simulator heartbeats:",
        f"  {len(beats)} beats over cycles {min(cycles)}..{max(cycles)}",
        f"  flits in flight: max {max(in_flight)}, "
        f"mean {sum(in_flight) / len(in_flight):.1f}",
        f"  NI backlog:      max {max(backlog)}, "
        f"mean {sum(backlog) / len(backlog):.1f}",
    ]


def _worker_of(event: Dict):
    """The worker a (possibly replayed) event belongs to.

    Replay stamps worker indices onto payloads; events the parent
    emitted itself carry no stamp and group under ``"main"``.
    """
    return _payload(event).get("worker", "main")


def _task_of(event: Dict):
    """The task grid coordinate stamped by the worker, as a tuple."""
    task = _payload(event).get("task")
    if task is None:
        return None
    return tuple(task) if isinstance(task, (list, tuple)) else (task,)


def _task_label(task) -> str:
    if task is None:
        return "-"
    return "(" + ", ".join(str(t) for t in task) + ")"


def _span_groups(events: List[Dict]) -> Dict:
    """Correlatable span payloads (those with ids), keyed by worker."""
    groups: Dict = {}
    for e in events:
        if e["kind"] == "span" and "span_id" in _payload(e):
            groups.setdefault(_worker_of(e), []).append(_payload(e))
    return groups


def _worker_sort_key(worker):
    # Ints (worker indices) first in numeric order, then names.
    return (isinstance(worker, str), worker)


def summarize_by_worker(events: List[Dict]) -> List[str]:
    """Per-worker timeline: who did what, and for how long.

    Busy seconds are the cumulative elapsed time of each worker's
    *root* spans (spans with no parent), so nested spans are not
    double-counted.  Wall-clock stamps on replayed events reflect the
    parent-side merge instant, not worker execution, so span durations
    are the only honest per-worker time source.
    """
    groups: Dict = {}
    for e in events:
        groups.setdefault(_worker_of(e), []).append(e)
    if not groups:
        return []
    lines = [
        "Per-worker timeline:",
        f"  {'worker':<8} {'events':>7} {'spans':>6} {'busy s':>9}  tasks",
    ]
    for worker in sorted(groups, key=_worker_sort_key):
        evs = groups[worker]
        spans = [_payload(e) for e in evs if e["kind"] == "span"]
        busy = sum(
            s.get("elapsed_s", 0.0)
            for s in spans
            if "parent_span_id" not in s
        )
        tasks = sorted(
            {t for t in (_task_of(e) for e in evs) if t is not None}
        )
        label = ", ".join(_task_label(t) for t in tasks) or "-"
        if len(label) > 48:
            label = label[:45] + "..."
        lines.append(
            f"  {str(worker):<8} {len(evs):>7} {len(spans):>6} "
            f"{busy:>9.4f}  {label}"
        )
    return lines


def summarize_by_task(events: List[Dict]) -> List[str]:
    """Per-task breakdown keyed by the stamped grid coordinates."""
    groups: Dict = {}
    for e in events:
        task = _task_of(e)
        if task is not None:
            groups.setdefault(task, []).append(e)
    if not groups:
        return []
    lines = [
        "Per-task breakdown:",
        f"  {'task':<28} {'events':>7} {'busy s':>9}  result",
    ]
    for task in sorted(groups, key=lambda t: tuple(map(str, t))):
        evs = groups[task]
        spans = [_payload(e) for e in evs if e["kind"] == "span"]
        # A task's top spans are roots on a worker, but nest under the
        # parent's span when the task ran inline.
        ids = {s["span_id"] for s in spans if "span_id" in s}
        busy = sum(
            s.get("elapsed_s", 0.0)
            for s in spans
            if s.get("parent_span_id") not in ids
        )
        result = "-"
        for e in evs:
            p = _payload(e)
            if e["kind"] in ("sa.end", "solve.end") and "best_energy" in p:
                result = f"best_energy={p['best_energy']:.4f}"
            elif e["kind"] == "sim.end":
                result = (
                    f"cycles={p.get('cycles_run', '?')} "
                    f"drained={p.get('drained', '?')}"
                )
        lines.append(
            f"  {_task_label(task):<28} {len(evs):>7} {busy:>9.4f}  {result}"
        )
    return lines


def summarize_critical_path(events: List[Dict]) -> List[str]:
    """The largest-elapsed span chain through the slowest worker.

    Span events fire at *exit* with recorder-local ``span_id`` /
    ``parent_span_id`` links, so each worker's spans rebuild into a
    tree; the critical path starts at the globally largest root span
    and repeatedly descends into the largest-elapsed child.  ``self``
    is the elapsed time not covered by any child.
    """
    groups = _span_groups(events)
    best = None
    for worker, spans in groups.items():
        roots = [s for s in spans if "parent_span_id" not in s]
        if not roots:
            continue
        root = max(roots, key=lambda s: s.get("elapsed_s", 0.0))
        if best is None or root.get("elapsed_s", 0.0) > best[1].get(
            "elapsed_s", 0.0
        ):
            best = (worker, root, spans)
    if best is None:
        return []
    worker, root, spans = best
    children: Dict = {}
    for s in spans:
        if "parent_span_id" in s:
            children.setdefault(s["parent_span_id"], []).append(s)
    lines = [f"Critical path (worker {worker}):"]
    node, depth = root, 0
    while node is not None:
        kids = children.get(node["span_id"], [])
        elapsed = node.get("elapsed_s", 0.0)
        self_s = max(0.0, elapsed - sum(k.get("elapsed_s", 0.0) for k in kids))
        lines.append(
            f"  {'  ' * depth}{node.get('name', '?'):<30} "
            f"{elapsed:>9.4f}s (self {self_s:.4f}s)"
        )
        node = (
            max(kids, key=lambda s: s.get("elapsed_s", 0.0)) if kids else None
        )
        depth += 1
    return lines


def render_report(
    events: List[Dict],
    source: str = "trace",
    k: int = 5,
    by_worker: bool = False,
    by_task: bool = False,
) -> str:
    """The full multi-section report for one trace."""
    kinds = Counter(e["kind"] for e in events)
    wall = max((e.get("wall_time", 0.0) for e in events), default=0.0)
    lines = [
        f"Trace report: {source}",
        f"  {len(events)} events, {len(kinds)} kinds, "
        f"{wall:.3f}s of wall time",
        "  " + ", ".join(f"{kind}={n}" for kind, n in kinds.most_common()),
    ]
    run_ids = sorted(
        {p["run_id"] for p in map(_payload, events) if "run_id" in p}
    )
    if run_ids:
        lines.append("  run_id: " + ", ".join(run_ids))
    sections = [
        summarize_sa_stages(events),
        summarize_spans(events, k),
        summarize_link_utilization(events, k),
        summarize_heartbeats(events),
    ]
    if by_worker:
        sections.append(summarize_by_worker(events))
        sections.append(summarize_critical_path(events))
    if by_task:
        sections.append(summarize_by_task(events))
    for section in sections:
        if section:
            lines.append("")
            lines.extend(section)
    return "\n".join(lines)


def report_file(
    path: str,
    k: int = 5,
    by_worker: bool = False,
    by_task: bool = False,
) -> str:
    """Load ``path`` and render its report."""
    return render_report(
        load_events(path), source=path, k=k,
        by_worker=by_worker, by_task=by_task,
    )
