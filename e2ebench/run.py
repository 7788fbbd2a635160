"""End-to-end benchmark: search, serving and simulation in one run.

Usage (from the repository root)::

    python3 e2ebench/run.py --workload search-n16 --seed 1 --seconds 40 --trace 0

Every run is a fresh process that derives all of its inputs from
``--seed``.  It measures cold starts for ``setup_s`` and three legs,
interleaved over the run:

* **search** -- ``place_express_links`` at paper effort; the workload
  picks n=16 full Floyd-Warshall or n=32 incremental + native.  It runs
  in a worker process that is resumed for short slices between units of
  the other legs (see :mod:`search_leg`, :mod:`search_worker`);
* **serve** -- a fresh ``repro serve`` driven over HTTP by one
  closed-loop client (see :mod:`serve_leg`);
* **sim** -- the 8x8 D&C_SA design simulated at a low and a high load
  (see :mod:`sim_leg`).

With ``--trace 0`` the run prints every end-to-end metric.  With
``--trace 1`` it repeats the untraced legs, then traces one more
repetition of each with the program's public functions wrapped
(:mod:`layers`) and prints the per-layer table instead; no untraced
number is printed from a traced run.  Every output is checked, and the
last stdout line is the JSON result.  The exit code is 1 when an output
was wrong, 2 when the run could not start.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import shutil
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".e2ebench_work"

sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import search_leg  # noqa: E402
import serve_leg  # noqa: E402
import sim_leg  # noqa: E402
import stats  # noqa: E402
from tracer import (  # noqa: E402
    Tracer,
    check_self_sum,
    layer_table,
    load as load_spans,
    subtree_ids,
)

#: End-to-end metrics, in report order (names match BENCHMARK.json).
END_TO_END = (
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("search.wall_s", "s"),
    ("serve.throughput_rps", "1/s"),
    ("serve.miss.p50_ms", "ms"),
    ("serve.miss.p90_ms", "ms"),
    ("serve.warm.p50_ms", "ms"),
    ("serve.hit.p50_ms", "ms"),
    ("serve.evaluate.p50_ms", "ms"),
    ("sim.low.cycles_per_s", "1/s"),
    ("sim.high.cycles_per_s", "1/s"),
)

WORKLOADS = tuple(search_leg.SEARCH_SPECS)

#: Set-up trials per run; ``setup_s`` is their median.
SETUP_TRIALS = 3
#: Shares of ``--seconds`` that order the interleaved legs.  Search and
#: sim repeat while their share lasts; set-up and serve run a fixed
#: amount of work, and their share only sets where it falls in the run.
SHARES = {"setup": 0.1, "search": 0.45, "sim": 0.35, "serve": 0.25}
#: Minimum search repetitions of an untraced run: two, so each run also
#: checks that one seed reproduces its sweep exactly.  A traced run
#: needs one; its traced sweep is checked against it.
MIN_REPS = 2
#: Minimum sim repetitions per load; every one re-checks determinism.
MIN_SIM_REPS = 3


class Run:
    """One benchmark process: inputs, measurements, checks."""

    def __init__(self, workload: str, seed: int, seconds: float) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.spec = search_leg.SEARCH_SPECS[workload]
        rng = random.Random(seed)
        self.search_seed = rng.randrange(1, 2**31)
        self.design_seed = rng.randrange(1, 2**31)
        self.sim_seed = rng.randrange(1, 2**31)
        self.serve_seed = rng.randrange(1, 2**31)
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []
        self.notes: Dict[str, object] = {}
        self.search_walls: List[float] = []
        self.search_digests: set = set()
        self.sim_walls: Dict[str, List[float]] = {
            load: [] for load in sim_leg.LOADS}
        self.sim_fingerprints: Dict[str, tuple] = {}
        self.setup_trials: List[float] = []
        self.search: Optional[search_leg.SlicedSearch] = None

    # -- bookkeeping -----------------------------------------------------
    def record(self, errors: List[str]) -> None:
        self.attempted += 1
        if errors:
            self.failed += 1
            self.errors.extend(errors)

    # -- preparation (untimed) ------------------------------------------
    def prepare(self) -> None:
        from repro.routing import native
        from repro.topology.mesh import MeshTopology

        native.warmup()  # builds the cached extension on first use
        # The search worker imports while the design below is solved.
        self.search = search_leg.SlicedSearch(
            self.workload, self.search_seed, str(ROOT),
            str(WORK / "search-worker.log"))
        self.design = sim_leg.make_design(self.design_seed)
        self.topology = MeshTopology.uniform(self.design.point.placement)
        self.flit_bits = self.design.point.flit_bits

    # -- one unit of each leg --------------------------------------------
    def setup_trial(self) -> None:
        """One cold start: library probe, then a server to listening."""
        probe = [sys.executable, str(HERE / "setup_probe.py"),
                 self.design.point.placement.canonical_bytes().hex(),
                 str(self.flit_bits)]
        if self.spec.impl == "native":
            probe.append("--native")
        start = perf_counter()
        out = subprocess.run(probe, capture_output=True, text=True,
                             cwd=str(ROOT), timeout=120)
        probe_s = perf_counter() - start
        if out.returncode != 0 or out.stdout.strip() != "ready":
            raise RuntimeError(f"setup probe failed: {out.stderr[-2000:]}")
        store = WORK / "store-setup"
        server = serve_leg.start_server(serve_leg.python_argv(), str(store),
                                        str(WORK / "server-setup.log"),
                                        str(ROOT))
        server.stop()
        shutil.rmtree(store, ignore_errors=True)
        self.setup_trials.append(probe_s + server.ready_s)

    def search_slice(self, search: search_leg.SlicedSearch) -> int:
        """Let the search worker run one slice; check what it finished.

        Returns how many sweeps ended in the slice.
        """
        finished = search.run_slice()
        for sweep in finished:
            self.search_digests.add(sweep["digest"])
            self.record(sweep["errors"])
            self.search_walls.append(sweep["wall_s"])
            self.notes["search_evaluations"] = sweep["evaluations"]
        return len(finished)

    def sim_rep(self) -> None:
        """One repetition of a load: the one with the fewest repetitions
        until each has :data:`MIN_SIM_REPS`, then the one with the least
        time so far, so both loads get about the same host time."""
        name = min(sim_leg.LOADS, key=lambda load: (
            min(len(self.sim_walls[load]), MIN_SIM_REPS),
            sum(self.sim_walls[load])))
        result, wall, fp = sim_leg.run_once(
            self.topology, self.flit_bits, sim_leg.LOADS[name], self.sim_seed)
        self.record(sim_leg.check(fp))
        self.same_fingerprint(name, fp)
        self.sim_walls[name].append(wall)

    def same_fingerprint(self, name: str, fp: tuple) -> None:
        first = self.sim_fingerprints.setdefault(name, fp)
        if fp != first:
            self.errors.append(f"sim-{name}: latency summary or activity "
                               "differs across runs of one seed")

    def serve_session(self, argv: List[str], tag: str) -> serve_leg.Session:
        return serve_leg.Session(argv, str(WORK / f"store-{tag}"),
                                 str(WORK / f"server-{tag}.log"), str(ROOT),
                                 self.serve_seed)

    def finish_serve(self, session: serve_leg.Session,
                     probe: bool = True) -> dict:
        """Stop the server, check every response, count the requests.

        The defect probe runs in untraced sessions only, so the traced
        server's spans cover the timed rounds alone.
        """
        session.close(probe)
        inputs = session.inputs
        requests, failed, wrong = serve_leg.check(inputs)
        self.attempted += requests
        self.failed += failed + len(wrong)
        self.errors.extend(wrong)
        self.notes["serve_forced_stop"] = session.server.forced
        if probe:
            self.notes["batcher_stranded_status"] = (
                serve_leg.stranded_status(inputs))
        return {"wall_s": session.write_s + session.read_s,
                "rss_mb": session.rss_mb,
                "requests": len(inputs.writes) + len(inputs.reads),
                "failed": failed, "classes": serve_leg.classify(inputs)}

    # -- the interleaved schedule ------------------------------------------
    def measure(self, seconds: float, with_setup: bool,
                min_reps: int = MIN_REPS) -> dict:
        """Run every leg untraced, interleaved over the whole run.

        The leg that has used the smallest share of its budget goes
        next, so every metric samples the whole run rather than one
        stretch of it (the host's speed changes from second to second).
        Returns the serve summary.
        """
        session = self.serve_session(serve_leg.python_argv(), "untraced")
        search = self.search
        budget = {leg: share * seconds for leg, share in SHARES.items()}
        spent = dict.fromkeys(budget, 0.0)
        last = dict.fromkeys(budget, 0.0)
        try:
            search.wait_ready()
            sweep_mark = 0.0  # search time spent when the last sweep ended
            while True:
                fits = {leg: spent[leg] + last[leg] <= budget[leg]
                        for leg in budget}
                if self.search_walls:
                    # Stop the search once a whole sweep no longer fits.
                    fits["search"] = (sweep_mark + stats.median(
                        self.search_walls) <= budget["search"])
                due = [leg for leg in budget
                       if self._due(leg, session, with_setup, min_reps,
                                    fits[leg])]
                if not due:
                    break
                leg = min(due, key=lambda name: spent[name] / budget[name])
                start = perf_counter()
                if leg == "setup":
                    self.setup_trial()
                elif leg == "search":
                    finished = self.search_slice(search)
                elif leg == "sim":
                    self.sim_rep()
                else:
                    session.run_round()
                last[leg] = perf_counter() - start
                spent[leg] += last[leg]
                if leg == "search" and finished:
                    sweep_mark = spent[leg]
            self.notes["search_worker_rss_mb"] = serve_leg.peak_rss_mb(
                search.proc.pid)
        finally:
            search.close()
            serve = self.finish_serve(session)
        if len(self.search_digests) != 1:
            self.errors.append(f"search digests differ across repetitions: "
                               f"{sorted(self.search_digests)}")
        self.notes["leg_seconds"] = spent
        self.notes["search_walls_s"] = self.search_walls
        self.notes["sim_walls_s"] = self.sim_walls
        self.notes["setup_trials_s"] = self.setup_trials
        return serve

    def _due(self, leg: str, session: serve_leg.Session, with_setup: bool,
             min_reps: int, fits: bool) -> bool:
        """Whether ``leg`` runs again.

        Set-up and serve always finish their fixed work.  Search and sim
        repeat while one more repetition fits their share of
        ``--seconds``, and always reach their minimum count.
        """
        if leg == "setup":
            return with_setup and len(self.setup_trials) < SETUP_TRIALS
        if leg == "serve":
            return session.rounds_left > 0
        if leg == "search":
            done, minimum = len(self.search_walls), min_reps
        else:
            done = min(len(walls) for walls in self.sim_walls.values())
            minimum = MIN_SIM_REPS
        return done < minimum or fits

    # -- untraced metrics ------------------------------------------------
    def untraced(self) -> Dict[str, Tuple[float, str]]:
        serve = self.measure(self.seconds, with_setup=True)
        runner_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics: Dict[str, Tuple[float, str]] = {
            "setup_s": (stats.median(self.setup_trials), "s"),
            # The runner also holds the benchmark's own client state and
            # checks, so only the processes that run nothing else count.
            "peak_rss_mb": (max(serve["rss_mb"],
                                self.notes["search_worker_rss_mb"]), "MiB"),
            "search.wall_s": (stats.median(self.search_walls), "s"),
            "serve.throughput_rps": (serve["requests"] / serve["wall_s"], "1/s"),
        }
        tails = {}
        for cls, requests in serve["classes"].items():
            latencies = [r.latency_s * 1e3 for r in requests]
            tail = stats.highest_percentile(len(latencies))
            statuses: Dict[int, int] = {}
            for r in requests:
                if r.status != 200:
                    statuses[r.status] = statuses.get(r.status, 0) + 1
            tails[cls] = {"samples": len(latencies), "percentile": tail,
                          "ms": stats.percentile(latencies, tail)
                          if tail is not None else None,
                          "p90_ms": stats.percentile(latencies, 90.0)
                          if stats.supports_percentile(len(latencies), 90.0)
                          else None,
                          "non200_by_status": statuses}
            if f"serve.{cls}.p50_ms" not in dict(END_TO_END):
                continue
            if not latencies:
                self.errors.append(f"serve: no {cls} requests at all")
                continue
            metrics[f"serve.{cls}.p50_ms"] = (stats.median(latencies), "ms")
            if f"serve.{cls}.p90_ms" in dict(END_TO_END):
                if not stats.supports_percentile(len(latencies), 90.0):
                    self.errors.append(
                        f"serve.{cls}: {len(latencies)} samples leave fewer "
                        f"than {stats.MIN_BEYOND} beyond p90")
                metrics[f"serve.{cls}.p90_ms"] = (
                    stats.percentile(latencies, 90.0), "ms")
        self.notes["serve_tails"] = tails
        self.notes["serve_failed"] = serve["failed"]
        self.notes["runner_rss_mb"] = runner_rss
        self.notes["server_rss_mb"] = serve["rss_mb"]
        for load, walls in self.sim_walls.items():
            # Every repetition simulates the same cycles (checked), so the
            # rate over all of them is cycles times repetitions over time.
            # The host switches between a fast and a slow speed every few
            # seconds; this mean follows the share of each smoothly, where
            # a median or minimum jumps between the two.
            cycles = self.sim_fingerprints[load][1]
            metrics[f"sim.{load}.cycles_per_s"] = (
                cycles * len(walls) / sum(walls), "1/s")
        return {name: metrics[name] for name, _unit in END_TO_END
                if name in metrics}

    # -- traced run ------------------------------------------------------
    def traced(self) -> Dict[str, Tuple[float, str]]:
        # The untraced baseline for the overhead needs only a few
        # repetitions; half the budget keeps the traced run short.
        untraced_serve = self.measure(self.seconds / 2, with_setup=False,
                                      min_reps=1)
        search_digest = next(iter(self.search_digests), None)
        sim_walls: Dict[str, float] = {}
        activity: Dict[str, dict] = {}

        tracer = Tracer()
        layers.install_search(tracer)
        layers.install_sim(tracer)
        roots: Dict[str, int] = {}
        try:
            with tracer.span("leg.search") as roots["search"]:
                result, search_wall = search_leg.run_once(
                    self.spec, self.search_seed)
            for name, load in sim_leg.LOADS.items():
                tracer.scope = f"sim-{name}."
                with tracer.span(f"leg.sim-{name}") as roots[f"sim-{name}"]:
                    sim_result, sim_walls[name], fp = sim_leg.run_once(
                        self.topology, self.flit_bits, load, self.sim_seed)
                self.record(sim_leg.check(fp))
                self.same_fingerprint(name, fp)
                activity[name] = sim_result.activity
        finally:
            tracer.uninstall()
        digest, errors = search_leg.check(result)
        self.record(errors)
        if digest != search_digest:
            self.errors.append("traced search digest differs from the "
                               "untraced one")
        tracer.dump(str(WORK / "spans-runner.tsv"))

        spans_path = WORK / "spans-server.tsv"
        session = self.serve_session(serve_leg.traced_argv(str(spans_path)),
                                     "traced")
        try:
            while session.rounds_left:
                session.run_round()
        finally:
            traced_serve = self.finish_serve(session, probe=False)
        server_spans, server_counts = load_spans(str(spans_path))

        metrics: Dict[str, Tuple[float, str]] = {}
        spans = tracer.spans
        for leg, root in roots.items():
            ok, total, wall = check_self_sum(spans, root)
            self.notes[f"trace.{leg}.self_sum"] = {"self_s": total,
                                                   "wall_s": wall}
            if not ok:
                self.errors.append(f"trace {leg}: self times sum to {total!r}"
                                   f" but the leg took {wall!r}")
        tables = {leg: layer_table(spans, _in_tree(spans, root))
                  for leg, root in roots.items()}
        metrics.update(layers.search_metrics(tracer, tables["search"]))
        for name in sim_leg.LOADS:
            metrics.update(layers.sim_metrics(
                tracer, name, tables[f"sim-{name}"], activity[name]))
        client = {cls: {"latency_s": 0.0, "non200": 0}
                  for cls in layers.SERVE_CLASSES}
        for cls, requests in traced_serve["classes"].items():
            client[cls] = {
                "latency_s": sum(r.latency_s for r in requests),
                "non200": sum(1 for r in requests if r.status != 200),
            }
        metrics.update(layers.serve_metrics(
            layer_table(server_spans), server_counts, client))

        metrics["trace.search.overhead_s"] = (
            search_wall - stats.median(self.search_walls), "s")
        metrics["trace.serve.overhead_s"] = (
            traced_serve["wall_s"] - untraced_serve["wall_s"], "s")
        metrics["trace.sim.overhead_s"] = (
            sum(sim_walls[name] - stats.median(self.sim_walls[name])
                for name in sim_leg.LOADS), "s")
        metrics["serve.batcher.stranded_504"] = (
            int(self.notes.get("batcher_stranded_status") == 504), "count")
        metrics["error_rate"] = (self.failed / max(self.attempted, 1), "ratio")
        return {name: metrics[name] for name, _unit in layers.per_layer_names()}


def _in_tree(spans, root: int):
    ids = subtree_ids(spans, root)
    return lambda span: span[0] in ids


# ----------------------------------------------------------------------
# Provenance
# ----------------------------------------------------------------------

def provenance(run: Run) -> Dict[str, object]:
    import numpy

    from repro.routing import native

    sha = None
    if (ROOT / ".git").exists():
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=str(ROOT),
                             capture_output=True, text=True)
        sha = out.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return {
        "workload": run.workload,
        "seed": run.seed,
        "git_sha": sha,
        "source_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "impl": run.spec.config(run.search_seed).impl,
        "incremental": run.spec.incremental,
        "native_backend": native.backend_name(),
        "env": {k: os.environ.get(k) for k in
                ("REPRO_IMPL", "REPRO_NATIVE_BACKEND", "REPRO_NATIVE_CACHE")},
    }


def pin_environment() -> None:
    """Fix which tier every workload measures, for this process and children."""
    os.environ.pop("REPRO_IMPL", None)
    os.environ["REPRO_NATIVE_BACKEND"] = "cext"
    os.environ["REPRO_NATIVE_CACHE"] = str(WORK / "native")
    os.environ["PYTHONPATH"] = str(SRC)
    sys.path.insert(0, str(SRC))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {SRC}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    pin_environment()

    run = Run(args.workload, args.seed, args.seconds)
    try:
        run.prepare()
        info = provenance(run)
        metrics = run.traced() if args.trace else run.untraced()
    finally:
        if run.search is not None:
            run.search.close()
    correct = not run.errors

    report = {"provenance": info, "trace": args.trace, "correct": correct,
              "attempted": run.attempted, "failed": run.failed,
              "errors": run.errors, "notes": run.notes,
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in metrics.items()}}
    report_path = WORK / (f"report-{args.workload}-seed{args.seed}"
                          f"-trace{args.trace}.json")
    report_path.write_text(json.dumps(report, indent=1, default=str) + "\n")

    print(json.dumps({"provenance": info}, sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"{name:<64} {value:>16.6g} {unit}")
    for cls, tail in run.notes.get("serve_tails", {}).items():
        print(f"# serve.{cls}: {tail['samples']} samples, p90 {tail['p90_ms']} ms,"
              f" p{tail['percentile']} {tail['ms']} ms,"
              f" non-200 {tail['non200_by_status']}")
    if "batcher_stranded_status" in run.notes:
        print(f"# batcher defect probe: stranded /evaluate answered "
              f"{run.notes['batcher_stranded_status']} (504 = defect reproduced)")
    for error in run.errors:
        print(f"error: {error}", file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
