"""Serve leg: a fresh ``repro serve`` driven by a closed-loop client.

Each run starts ``repro serve --port 0 --effort smoke`` on an empty
store and sends :data:`ROUNDS` rounds of two phases from one client,
each request only after the previous one has returned:

1. a **write phase** of ``/place`` n=8 requests with fresh seeds: two
   ``"warm": false`` misses, then one warm near miss, and so on;
2. a **read phase** that re-sends every body of that round's write
   phase twice (exact hits), interleaved with ``/evaluate`` n=16
   requests whose placements come from
   ``ConnectionMatrix.random(16, 4, rng).decode()``; every fourth
   carries one fixed ``weights`` matrix.

The phases are kept apart because a miss holds the server's GIL for
its whole search, and hit latency would then measure the scheduler.
For the same reason there is one client: with a second one, hit and
``/evaluate`` tails measured GIL hand-offs between the server's event
loop and its executor threads, and two ``/evaluate`` requests in flight
at once meet the batcher defect described in the README at random, so
a run's failure count would differ from run to run.  The defect is
instead reproduced on purpose, once per session and after the timed
rounds, by :func:`defect_probe`.
Rounds spread both phases over the whole leg, so a slow stretch of the
host does not land on one phase only.
Every request carries the same ``deadline_s``; nothing is retried, and
every non-200 counts against its class.  The server closes each
connection after its response, so each request opens a new one.
"""

from __future__ import annotations

import asyncio
import json
import os
import random
import selectors
import shutil
import signal
import subprocess
import sys
from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, List, Optional, Tuple

N_PLACE = 8
N_EVALUATE = 16
EVAL_LINK_LIMIT = 4
#: Write/read rounds the requests are split into.  Many short rounds,
#: interleaved with the other legs, keep a slow stretch of the host from
#: landing on a large share of one class's samples.
ROUNDS = 23
#: Write-phase misses and warm near misses per round.  The 92 misses of
#: a run leave ten samples beyond their p90.
MISSES_PER_ROUND = 4
WARMS_PER_ROUND = 2
#: Times each write-phase body is re-sent as a hit in its read phase.
HITS_PER_WRITE = 2
#: ``/evaluate`` requests per round (as many as hits).
EVALUATES_PER_ROUND = (MISSES_PER_ROUND + WARMS_PER_ROUND) * HITS_PER_WRITE
#: Every request's ``deadline_s``.
DEADLINE_S = 2.0
#: Share of ``/evaluate`` requests that carry the weights matrix.
WEIGHTED_EVERY = 4
#: Defect probe: a large ``/evaluate`` that keeps its batch in the
#: executor, a small one sent this long after it, and the small one's
#: deadline.
PROBE_N = 256
PROBE_DELAY_S = 0.05
PROBE_DEADLINE_S = 0.5
#: How long the server may take to print its listening line.
START_TIMEOUT_S = 60.0
#: Waits after the first and the second SIGINT before the server is killed.
STOP_TIMEOUTS_S = (5.0, 25.0)


# ----------------------------------------------------------------------
# Server process
# ----------------------------------------------------------------------

@dataclass
class Server:
    proc: subprocess.Popen
    port: int
    ready_s: float
    log_path: str
    #: Whether :meth:`stop` needed more than one SIGINT.
    forced: bool = False

    def peak_rss_mb(self) -> float:
        return peak_rss_mb(self.proc.pid)

    def stop(self) -> None:
        """SIGINT drain; a second SIGINT if the drain hangs; kill last.

        The drain hangs when an ``/evaluate`` that timed out is still
        queued in the batcher (see README, known defect).  A second
        SIGINT is the server's forced exit, as a second Ctrl-C would be.
        """
        for timeout in STOP_TIMEOUTS_S:
            if self.proc.poll() is not None:
                break
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                self.forced = True
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()
        if self.proc.stdout is not None:
            self.proc.stdout.close()


def peak_rss_mb(pid: int) -> float:
    """A live process's high-water resident set (``VmHWM``), in MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc status")


def start_server(argv_prefix: List[str], store: str, log_path: str,
                 cwd: str) -> Server:
    """Start a server and time it from spawn to its listening line."""
    cmd = argv_prefix + ["serve", "--port", "0", "--effort", "smoke",
                         "--store", store]
    log = open(log_path, "w", encoding="utf-8")
    start = perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=log,
                            cwd=cwd, text=True,
                            preexec_fn=_default_sigint)
    log.close()
    server = Server(proc, 0, 0.0, log_path)
    try:
        line = _read_line(proc, START_TIMEOUT_S)
        server.ready_s = perf_counter() - start
        marker = "listening on http://"
        if marker not in line:
            raise RuntimeError(f"unexpected server output: {line!r}")
        server.port = int(line.split(marker, 1)[1].split()[0].rsplit(":", 1)[1])
    except BaseException:
        server.stop()
        raise
    return server


def _default_sigint() -> None:
    """Give the server the default SIGINT disposition.

    A shell that starts the benchmark in the background makes it ignore
    SIGINT, and children inherit that; Python then installs no
    KeyboardInterrupt handler and the server could not be drained.
    """
    signal.signal(signal.SIGINT, signal.SIG_DFL)


def _read_line(proc: subprocess.Popen, timeout: float) -> str:
    with selectors.DefaultSelector() as sel:
        sel.register(proc.stdout, selectors.EVENT_READ)
        if not sel.select(timeout):
            raise RuntimeError(f"server printed nothing within {timeout}s")
    line = proc.stdout.readline()
    if not line:
        raise RuntimeError(f"server exited with code {proc.wait()}")
    return line


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------

@dataclass
class Request:
    kind: str          # intended class: miss / warm / hit / evaluate
    path: str
    body: Dict
    wire: bytes = b""
    # filled by the client
    status: int = 0
    latency_s: float = 0.0
    response: Optional[Dict] = None
    served_class: str = ""

    def __post_init__(self) -> None:
        self.wire = json.dumps(self.body, sort_keys=True).encode("utf-8")


@dataclass
class Inputs:
    #: ``(write phase, read phase)`` per round, in sending order.
    rounds: List[Tuple[List[Request], List[Request]]]
    #: The placement behind each ``/evaluate`` request (by ``id``).
    placements: Dict[int, object] = field(default_factory=dict)
    #: The defect probe's requests (large, stranded, follow-up), once
    #: sent; not part of the timed rounds.
    probe: List[Request] = field(default_factory=list)

    @property
    def writes(self) -> List[Request]:
        return [r for writes, _ in self.rounds for r in writes]

    @property
    def reads(self) -> List[Request]:
        return [r for _, reads in self.rounds for r in reads]


def _evaluate_request(placement, deadline_s: float, weights=None) -> Request:
    body = {
        "n": placement.n,
        "express_links": [list(link) for link in
                          sorted(placement.express_links)],
        "link_limit": EVAL_LINK_LIMIT,
        "deadline_s": deadline_s,
    }
    if weights is not None:
        body["weights"] = weights
    return Request("evaluate", "/evaluate", body)


def make_inputs(seed: int) -> Inputs:
    """Every request body of one run, derived from ``seed`` alone."""
    import numpy as np

    from repro.core.connection_matrix import ConnectionMatrix

    rng = random.Random(seed)
    per_round = MISSES_PER_ROUND + WARMS_PER_ROUND
    seeds = rng.sample(range(1, 10**9), ROUNDS * per_round)
    np_rng = np.random.default_rng(rng.randrange(2**32))
    weights = np.round(np_rng.uniform(0.0, 4.0, (N_EVALUATE, N_EVALUATE)), 3)
    weights = weights.tolist()
    inputs = Inputs([])
    for r in range(ROUNDS):
        writes: List[Request] = []
        for i, s in enumerate(seeds[r * per_round:(r + 1) * per_round]):
            warm = i % 3 == 2
            body = {"n": N_PLACE, "config": {"seed": s},
                    "deadline_s": DEADLINE_S}
            if not warm:
                body["warm"] = False
            writes.append(Request("warm" if warm else "miss", "/place", body))
        hits: List[Request] = []
        for _ in range(HITS_PER_WRITE):
            again = [Request("hit", "/place", dict(w.body)) for w in writes]
            rng.shuffle(again)
            hits += again
        evaluates: List[Request] = []
        for i in range(EVALUATES_PER_ROUND):
            placement = ConnectionMatrix.random(N_EVALUATE, EVAL_LINK_LIMIT,
                                                np_rng).decode()
            request = _evaluate_request(
                placement, DEADLINE_S,
                weights if i % WEIGHTED_EVERY == 0 else None)
            inputs.placements[id(request)] = placement
            evaluates.append(request)
        reads = [r for pair in zip(hits, evaluates) for r in pair]
        inputs.rounds.append((writes, reads))
    return inputs


# ----------------------------------------------------------------------
# Client
# ----------------------------------------------------------------------

async def _send(port: int, request: Request) -> None:
    head = (f"POST {request.path} HTTP/1.1\r\nHost: 127.0.0.1\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(request.wire)}\r\n\r\n").encode("ascii")
    start = perf_counter()
    try:
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        try:
            writer.write(head + request.wire)
            await writer.drain()
            data = await asyncio.wait_for(reader.read(), DEADLINE_S + 30.0)
        finally:
            writer.close()
            await writer.wait_closed()
    except (OSError, asyncio.TimeoutError):
        request.latency_s = perf_counter() - start
        request.status = 0
        return
    request.latency_s = perf_counter() - start
    head_bytes, _, body = data.partition(b"\r\n\r\n")
    status_line = head_bytes.split(b"\r\n", 1)[0].split()
    request.status = int(status_line[1]) if len(status_line) > 1 else 0
    if request.status == 200:
        request.response = json.loads(body)
        if request.path == "/place":
            request.served_class = request.response.get("cache", "")
        else:
            request.served_class = "evaluate"


async def _closed_loop(port: int, requests: List[Request]) -> float:
    """Send ``requests`` in order, each after the previous one returned."""
    start = perf_counter()
    for request in requests:
        await _send(port, request)
    return perf_counter() - start


async def _probe(port: int, probe: List[Request]) -> None:
    large, stranded, follow = probe
    first = asyncio.ensure_future(_send(port, large))
    await asyncio.sleep(PROBE_DELAY_S)  # the large batch is in the executor
    await _send(port, stranded)
    await first
    # A new request arms a flush, which drops the stranded entry; without
    # it the server's graceful drain would spin on it.
    await _send(port, follow)


def defect_probe(port: int, inputs: Inputs) -> None:
    """Reproduce the batcher defect once (see the README).

    A large ``/evaluate`` keeps its batch inside ``run_in_executor``;
    a small one sent meanwhile is left pending with no flush armed and
    fails at its deadline with 504.  Both are followed by one more
    ``/evaluate``.  The stranded request's status is reported apart from
    the timed rounds; the other two are checked as usual.
    """
    import numpy as np

    from repro.core.connection_matrix import ConnectionMatrix

    np_rng = np.random.default_rng(PROBE_N)
    large = ConnectionMatrix.random(PROBE_N, EVAL_LINK_LIMIT, np_rng).decode()
    small = ConnectionMatrix.random(N_EVALUATE, EVAL_LINK_LIMIT,
                                    np_rng).decode()
    inputs.probe = [_evaluate_request(large, DEADLINE_S + 10.0),
                    _evaluate_request(small, PROBE_DEADLINE_S),
                    _evaluate_request(small, DEADLINE_S)]
    for request, placement in zip(inputs.probe, (large, small, small)):
        inputs.placements[id(request)] = placement
    asyncio.run(_probe(port, inputs.probe))


class Session:
    """One fresh server on an empty store, driven round by round."""

    def __init__(self, argv_prefix: List[str], store: str, log_path: str,
                 cwd: str, seed: int) -> None:
        self.store = store
        shutil.rmtree(store, ignore_errors=True)
        self.inputs = make_inputs(seed)
        self.server = start_server(argv_prefix, store, log_path, cwd)
        self.write_s = 0.0
        self.read_s = 0.0
        self.done = 0
        self.rss_mb = 0.0

    @property
    def rounds_left(self) -> int:
        return len(self.inputs.rounds) - self.done

    def run_round(self) -> None:
        """One write phase, then its read phase."""
        writes, reads = self.inputs.rounds[self.done]
        self.write_s += asyncio.run(_closed_loop(self.server.port, writes))
        self.read_s += asyncio.run(_closed_loop(self.server.port, reads))
        self.done += 1

    def close(self, probe: bool = True) -> None:
        """Probe the defect (if ``probe``), record the server's peak RSS,
        drain the server and drop its store."""
        try:
            if self.server.proc.poll() is None:
                if probe:
                    defect_probe(self.server.port, self.inputs)
                self.rss_mb = self.server.peak_rss_mb()
        finally:
            self.server.stop()
            shutil.rmtree(self.store, ignore_errors=True)


# ----------------------------------------------------------------------
# Classification and checks
# ----------------------------------------------------------------------

def classify(inputs: Inputs) -> Dict[str, List[Request]]:
    """Requests by class; a 200 counts under the class the server
    reports, a failure under the class it was sent as."""
    out: Dict[str, List[Request]] = {c: [] for c in
                                     ("miss", "warm", "hit", "evaluate")}
    for request in inputs.writes + inputs.reads:
        cls = request.served_class if request.status == 200 else request.kind
        out.setdefault(cls, []).append(request)
    return out


def check(inputs: Inputs) -> Tuple[int, int, List[str]]:
    """Return ``(attempted, failed requests, wrong outputs)``.

    Attempted: every request of the rounds, plus the defect probe's
    large and follow-up requests (its stranded one is reported by
    :func:`stranded_status` instead).  Failed: any non-200, or a
    read-phase ``/place`` the cache did not answer.  Wrong: a hit whose
    ``result`` differs from the response that stored it, or an
    ``/evaluate`` result that differs from ``evaluate_placement`` on the
    same input (repriced here, after the timed region).
    """
    from repro.api import evaluate_placement

    counted = inputs.writes + inputs.reads + [
        r for i, r in enumerate(inputs.probe) if i != 1]
    failed = sum(1 for r in counted if r.status != 200)
    wrong: List[str] = []
    stored = {w.wire: w.response["result"] for w in inputs.writes
              if w.status == 200}
    for request in inputs.reads + inputs.probe:
        if request.status != 200:
            continue
        if request.kind == "hit":
            if request.served_class != "hit":
                failed += 1
                continue
            reference = stored.get(request.wire)
            if reference is not None and request.response["result"] != reference:
                wrong.append(f"hit for {request.body['config']} differs "
                             "from the response that stored it")
        else:
            placement = inputs.placements[id(request)]
            expected = evaluate_placement(
                placement, link_limit=EVAL_LINK_LIMIT,
                weights=request.body.get("weights"),
            ).to_json()
            if (request.response["result"] != expected
                    or request.response["placement_row"]
                    != placement.canonical_bytes().hex()):
                wrong.append(f"/evaluate n={placement.n} "
                             f"{request.body['express_links'][:8]}... "
                             "differs from evaluate_placement")
    return len(counted), failed, wrong


def stranded_status(inputs: Inputs) -> Optional[int]:
    """HTTP status of the probe's stranded request (504 while the batcher
    defect stands), or ``None`` when no probe was sent."""
    return inputs.probe[1].status if inputs.probe else None


def python_argv() -> List[str]:
    return [sys.executable, "-m", "repro"]


def traced_argv(spans_path: str) -> List[str]:
    here = os.path.dirname(os.path.abspath(__file__))
    return [sys.executable, os.path.join(here, "traced_server.py"), spans_path]
