"""Search leg: one full ``place_express_links`` sweep at paper effort.

The two search workloads differ only here:

* ``search-n16`` -- n=16, default :class:`~repro.api.SearchConfig`
  (resolves to ``impl="vectorized"``; a full Floyd-Warshall per move,
  behind the memo, ``decode`` and the weight-stack build);
* ``search-n32-incremental`` -- n=32 (a 1024-core mesh) with
  ``incremental=True, impl="native"``: the O(n^2) dynamic APSP engine
  and the compiled tier, which bypass all of the above.
"""

from __future__ import annotations

import json
import os
import select
import signal
import subprocess
import sys
from dataclasses import dataclass
from time import perf_counter
from typing import Dict, List, Optional, Tuple

#: Length of one slice the worker runs for between units of other legs.
SLICE_S = 0.25
#: How long the worker may take to import and warm up.
READY_TIMEOUT_S = 120.0


@dataclass(frozen=True)
class SearchSpec:
    n: int
    incremental: bool
    impl: Optional[str]

    def config(self, seed: int):
        from repro.api import SearchConfig

        return SearchConfig(seed=seed, incremental=self.incremental,
                            impl=self.impl)


SEARCH_SPECS = {
    "search-n16": SearchSpec(n=16, incremental=False, impl=None),
    "search-n32-incremental": SearchSpec(n=32, incremental=True, impl="native"),
}


def run_once(spec: SearchSpec, seed: int) -> Tuple[object, float]:
    """One sweep; returns ``(PlacementResult, wall seconds)``."""
    from repro.api import place_express_links
    from repro.harness.designs import EFFORTS

    config = spec.config(seed)
    start = perf_counter()
    result = place_express_links(spec.n, config=config,
                                 params=EFFORTS["paper"])
    return result, perf_counter() - start


def check(result) -> Tuple[str, List[str]]:
    """Return ``(sweep digest, errors)`` for one sweep.

    Every per-``C`` placement must respect its cross-section limit and
    its energy must equal an independent ``evaluate_placement`` reprice.
    """
    from repro.api import evaluate_placement
    from repro.obs.ledger import sweep_digest

    errors: List[str] = []
    for limit, solution in sorted(result.sweep.solutions.items()):
        placement = solution.placement
        if placement.max_cross_section() > limit:
            errors.append(f"C={limit}: cross-section "
                          f"{placement.max_cross_section()} > {limit}")
        reprice = evaluate_placement(placement).row_head_latency
        if reprice != solution.energy:
            errors.append(f"C={limit}: energy {solution.energy!r} != "
                          f"reprice {reprice!r}")
    return sweep_digest(result.sweep), errors


class SlicedSearch:
    """The untraced search leg: a :mod:`search_worker` run in slices.

    The worker starts as soon as this object is made, so it imports
    while the caller prepares; :meth:`wait_ready` waits for it.

    The worker is stopped except inside :meth:`run_slice`, while this
    process waits for it, so nothing else of the benchmark runs beside
    the search.  A sweep's wall time is the running time of the slices
    clipped to the sweep's own ``[start, end]``.
    """

    def __init__(self, workload: str, seed: int, cwd: str, log_path: str
                 ) -> None:
        here = os.path.dirname(os.path.abspath(__file__))
        with open(log_path, "w", encoding="utf-8") as log:
            self.proc = subprocess.Popen(
                [sys.executable, os.path.join(here, "search_worker.py"),
                 workload, str(seed)],
                stdout=subprocess.PIPE, stderr=log, cwd=cwd)
        self.slices: List[Tuple[float, float]] = []
        self._buffer = b""

    def wait_ready(self) -> None:
        """Wait until the worker has started and stopped itself."""
        fd = self.proc.stdout.fileno()
        deadline = perf_counter() + READY_TIMEOUT_S
        while b"\n" not in self._buffer:
            left = deadline - perf_counter()
            if left <= 0 or not select.select([fd], [], [], left)[0]:
                raise RuntimeError("search worker did not start")
            chunk = os.read(fd, 65536)
            if not chunk:
                raise RuntimeError("search worker exited during start")
            self._buffer += chunk
        line, self._buffer = self._buffer.split(b"\n", 1)
        if line.strip() != b"ready":
            raise RuntimeError(f"unexpected search worker output: {line!r}")
        self._wait_stopped()

    def _wait_stopped(self) -> None:
        _pid, status = os.waitpid(self.proc.pid, os.WUNTRACED)
        if not os.WIFSTOPPED(status):
            raise RuntimeError(f"search worker ended (status {status})")

    def run_slice(self, seconds: float = SLICE_S) -> List[Dict]:
        """Let the worker run for ``seconds``; return sweeps it finished."""
        fd = self.proc.stdout.fileno()
        on = perf_counter()
        os.kill(self.proc.pid, signal.SIGCONT)
        select.select([fd], [], [], seconds)
        os.kill(self.proc.pid, signal.SIGSTOP)
        self._wait_stopped()
        self.slices.append((on, perf_counter()))
        while select.select([fd], [], [], 0)[0]:
            chunk = os.read(fd, 65536)
            if not chunk:
                break
            self._buffer += chunk
        done = []
        while b"\n" in self._buffer:
            line, self._buffer = self._buffer.split(b"\n", 1)
            sweep = json.loads(line)
            sweep["wall_s"] = self.running_time(sweep["start"], sweep["end"])
            done.append(sweep)
        return done

    def running_time(self, start: float, end: float) -> float:
        """Time the worker ran within ``[start, end]``."""
        return sum(max(0.0, min(off, end) - max(on, start))
                   for on, off in self.slices)

    def close(self) -> None:
        """Kill the worker (a partial sweep is dropped) and reap it."""
        if self.proc.stdout.closed:
            return
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.proc.stdout.close()
