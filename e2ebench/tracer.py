"""In-memory span recorder that wraps the program's public functions.

The benchmark traces from the outside: :meth:`Tracer.wrap` replaces a
function at the attribute its caller looks it up through (a module
global such as ``repro.core.optimizer.anneal`` or a class attribute
such as ``ConnectionMatrix.decode``) with a timing wrapper, and
:meth:`Tracer.uninstall` puts every original back.  Nothing in the
program changes.

A span is ``(span_id, parent_id, run_id, label, start, end)``.  The
parent is whatever span was open in the caller's context (a
``contextvars`` variable, so asyncio tasks inherit it and executor
threads start fresh), and ``run_id`` is the id of the root span the
call descends from -- one per traced leg or served request.  Spans
stay in memory and are written out once, when the traced run ends.
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import itertools
import json
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from stats import interval_union

Span = Tuple[int, int, int, str, float, float]

#: Optional per-call hook: ``hook(tracer, args, kwargs, result, t0, t1)``.
Hook = Callable[["Tracer", tuple, dict, Any, float, float], None]


class Tracer:
    """Records spans and counts for every wrapped call."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counts: Counter = Counter()
        self._ids = itertools.count(1)
        self._current: contextvars.ContextVar = contextvars.ContextVar(
            "e2ebench_span", default=(0, 0)
        )
        self._patches: List[Tuple[Any, str, Any]] = []
        #: Prefix hooks put on count keys (the leg being traced).
        self.scope = ""
        #: Memo objects seen by the search hooks, for the hit ratio.
        self.memos: Dict[int, Any] = {}
        #: Kernel seconds per priced placement (``id``), serve leg only.
        self.item_seconds: Optional[Dict[int, float]] = None

    # -- recording -------------------------------------------------------
    @contextmanager
    def span(self, label: str):
        """Open a span around a block (used for the benchmark's roots)."""
        parent, run = self._current.get()
        sid = next(self._ids)
        token = self._current.set((sid, run or sid))
        t0 = perf_counter()
        try:
            yield sid
        finally:
            t1 = perf_counter()
            self._current.reset(token)
            self.spans.append((sid, parent, run or sid, label, t0, t1))

    def _timed(self, fn: Callable, label: Any, hook: Optional[Hook]) -> Callable:
        """``label`` is a string or ``label(args, kwargs, result)``."""
        current, ids, spans = self._current, self._ids, self.spans
        dynamic = callable(label)

        if inspect.iscoroutinefunction(fn):
            @functools.wraps(fn)
            async def async_wrapper(*args, **kwargs):
                parent, run = current.get()
                sid = next(ids)
                token = current.set((sid, run or sid))
                t0 = perf_counter()
                result = None
                try:
                    result = await fn(*args, **kwargs)
                finally:
                    t1 = perf_counter()
                    current.reset(token)
                    name = label(args, kwargs, result) if dynamic else label
                    spans.append((sid, parent, run or sid, name, t0, t1))
                if hook is not None:
                    hook(self, args, kwargs, result, t0, t1)
                return result

            return async_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent, run = current.get()
            sid = next(ids)
            token = current.set((sid, run or sid))
            t0 = perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                current.reset(token)
                name = label(args, kwargs, result) if dynamic else label
                spans.append((sid, parent, run or sid, name, t0, t1))
            if hook is not None:
                hook(self, args, kwargs, result, t0, t1)
            return result

        return wrapper

    # -- patching --------------------------------------------------------
    def wrap(self, owner: Any, attr: str, label: Any,
             hook: Optional[Hook] = None,
             materialize: bool = False) -> None:
        """Replace ``owner.attr`` with a timed wrapper.

        ``owner`` is a module or a class; class-, static- and plain
        methods keep their binding.  ``materialize=True`` is for
        generator functions: the wrapper drains the generator inside
        the span and hands the caller the list of items, so the span
        times the generation while it is consumed.
        """
        raw = inspect.getattr_static(owner, attr)
        if isinstance(raw, (classmethod, staticmethod)):
            fn = raw.__func__
        else:
            fn = raw
        if materialize:
            gen_fn = fn

            @functools.wraps(gen_fn)
            def drained(*args, **kwargs):
                return list(gen_fn(*args, **kwargs))

            fn = drained
        timed = self._timed(fn, label, hook)
        if isinstance(raw, classmethod):
            timed = classmethod(timed)
        elif isinstance(raw, staticmethod):
            timed = staticmethod(timed)
        self._patches.append((owner, attr, raw))
        setattr(owner, attr, timed)

    def uninstall(self) -> None:
        """Restore every wrapped attribute, newest first."""
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    # -- persistence -----------------------------------------------------
    def dump(self, path: str) -> None:
        """Write counts (first line, JSON) and one span per line (TSV)."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(dict(self.counts), sort_keys=True) + "\n")
            for sid, parent, run, label, t0, t1 in self.spans:
                fh.write(f"{sid}\t{parent}\t{run}\t{label}\t{t0!r}\t{t1!r}\n")


def load(path: str) -> Tuple[List[Span], Counter]:
    """Read a :meth:`Tracer.dump` file back."""
    spans: List[Span] = []
    with open(path, "r", encoding="utf-8") as fh:
        counts = Counter(json.loads(fh.readline()))
        for line in fh:
            sid, parent, run, label, t0, t1 = line.rstrip("\n").split("\t")
            spans.append((int(sid), int(parent), int(run), label,
                          float(t0), float(t1)))
    return spans, counts


# ----------------------------------------------------------------------
# Self time
# ----------------------------------------------------------------------

def self_times(spans: Iterable[Span]) -> Dict[int, float]:
    """Each span's duration minus the union of its children's intervals.

    Children are clipped to their parent's interval, so a child that
    outlives its parent (an asyncio task past a deadline) or overlaps a
    sibling (concurrent tasks) is never subtracted twice.
    """
    spans = list(spans)
    bounds = {s[0]: (s[4], s[5]) for s in spans}
    children: Dict[int, List[tuple]] = defaultdict(list)
    for sid, parent, _run, _label, t0, t1 in spans:
        if parent and parent in bounds:
            lo, hi = bounds[parent]
            start, end = max(t0, lo), min(t1, hi)
            if end > start:
                children[parent].append((start, end))
    return {
        sid: (t1 - t0) - interval_union(children.get(sid, []))
        for sid, _parent, _run, _label, t0, t1 in spans
    }


def layer_table(spans: Iterable[Span],
                keep: Optional[Callable[[Span], bool]] = None
                ) -> Dict[str, Dict[str, float]]:
    """``{label: {"calls", "self_s", "wall_s"}}`` over the kept spans."""
    spans = list(spans)
    selfs = self_times(spans)
    table: Dict[str, Dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "self_s": 0.0, "wall_s": 0.0}
    )
    for span in spans:
        if keep is not None and not keep(span):
            continue
        row = table[span[3]]
        row["calls"] += 1
        row["self_s"] += selfs[span[0]]
        row["wall_s"] += span[5] - span[4]
    return dict(table)


def subtree_ids(spans: Iterable[Span], root_id: int) -> set:
    """Ids of ``root_id`` and every span descending from it."""
    kids: Dict[int, List[int]] = defaultdict(list)
    for sid, parent, *_ in spans:
        kids[parent].append(sid)
    out, stack = set(), [root_id]
    while stack:
        sid = stack.pop()
        out.add(sid)
        stack.extend(kids.get(sid, ()))
    return out


def check_self_sum(spans: Iterable[Span], root_id: int,
                   rel_tol: float = 1e-6) -> Tuple[bool, float, float]:
    """Self times of a root's whole tree must add up to its duration.

    Holds exactly when no two siblings overlap; a mis-parented or
    overlapping span makes the sum exceed the root's wall time.
    Returns ``(ok, summed_self, root_duration)``.
    """
    spans = list(spans)
    selfs = self_times(spans)
    ids = subtree_ids(spans, root_id)
    total = sum(selfs[sid] for sid in ids)
    root = next(s for s in spans if s[0] == root_id)
    wall = root[5] - root[4]
    return abs(total - wall) <= rel_tol * max(wall, 1e-9), total, wall
