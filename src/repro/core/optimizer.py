"""Top-level express-link placement optimizer (Section 4 entry point).

The overall flow of the paper: for every feasible cross-section limit
``C`` (Section 4.1), solve the one-dimensional placement problem
``P~(n, C)`` that minimizes average head latency, add the serialization
latency implied by the flit width ``b = b_base / C``, and keep the
``C`` whose total is lowest.

Three solving methods are exposed:

* ``"dc_sa"``   -- the paper's proposal: divide-and-conquer initial
  solution + simulated annealing (D&C_SA),
* ``"only_sa"`` -- simulated annealing from a random matrix (OnlySA),
* ``"exact"``   -- exhaustive optimal (small instances only).

Every row-space search -- :func:`optimize`, :func:`solve_row_problem`
and :func:`optimize_rectangular` -- runs through one engine: the
``(n, C, restart)`` task grid of :func:`_search_grid`.  Since each
``P~(n, C)`` is solved on its own and SA restarts are independent,
the grid is embarrassingly parallel, and three rules make
``SearchConfig.jobs`` / ``chains`` pure wall-clock knobs:

* **Derived seeds.**  Restart ``r`` of ``P~(n, C)`` draws its stream
  from :func:`repro.util.rngtools.derived_rng` ``(seed, C_eff, r)``
  (``C_eff`` is ``C`` clamped to ``C_full``) -- a pure function of the
  task key, so a chain is the same inline, in any lockstep group and
  on any worker.  The default config is the 1-restart, 1-job grid.
* **Deterministic reduction.**  Per problem the winner is the minimum
  by ``(energy, restart index)``.
* **Ordered obs merging.**  Inline (``jobs=1``) tasks record straight
  onto the caller's instrumentation; pool tasks capture their events
  and metrics and the parent merges them in task order
  (:mod:`repro.core.parallel`).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.api import PlacementResult, SearchConfig, reject_legacy_kwargs
from repro.core.annealing import (
    AnnealingParams,
    AnnealingResult,
    Objective,
    anneal,
    anneal_population,
)
from repro.core.branch_bound import (
    ExactResult,
    effective_link_limit,
    exhaustive_matrix_search,
    validated_link_limit,
)
from repro.core.connection_matrix import ConnectionMatrix
from repro.core.divide_conquer import InitialSolution, initial_solution
from repro.core.latency import (
    BandwidthConfig,
    LatencyBreakdown,
    PacketMix,
    RowObjective,
    mean_row_head_latency,
    network_average_latency,
)
from repro.core.parallel import _merge_observability, parallel_map
from repro.obs.instrument import Instrumentation, ensure_obs
from repro.obs.sinks import MemorySink
from repro.routing.shortest_path import HopCostModel
from repro.topology.row import RowPlacement
from repro.util.errors import ConfigurationError
from repro.util.rngtools import derived_rng, ensure_rng, fresh_entropy

#: Recognized solver names.
METHODS = ("dc_sa", "only_sa", "exact")


@dataclass(frozen=True)
class RowSolution:
    """Solution of one ``P~(n, C)`` instance."""

    n: int
    link_limit: int
    placement: RowPlacement
    energy: float
    method: str
    evaluations: int
    wall_time_s: float
    annealing: Optional[AnnealingResult] = None
    seed_solution: Optional[InitialSolution] = None
    exact: Optional[ExactResult] = None


@dataclass(frozen=True)
class DesignPoint:
    """A fully-costed design: placement + latency breakdown (Eq. 2)."""

    n: int
    link_limit: int
    flit_bits: int
    placement: RowPlacement
    latency: LatencyBreakdown

    @property
    def total_latency(self) -> float:
        return self.latency.total


@dataclass
class SweepResult:
    """Outcome of the full ``C`` sweep for one network size.

    ``restarts`` / ``jobs`` / ``chains`` record the shape of the task
    grid that ran the sweep; ``restart_energies`` maps each ``C`` to
    the per-restart final energies, in restart order.
    """

    n: int
    method: str
    points: Dict[int, DesignPoint] = field(default_factory=dict)
    solutions: Dict[int, RowSolution] = field(default_factory=dict)
    restarts: int = 1
    jobs: int = 1
    chains: int = 1
    restart_energies: Dict[int, Tuple[float, ...]] = field(default_factory=dict)

    @property
    def best(self) -> DesignPoint:
        """The design point with the lowest total average latency."""
        return min(self.points.values(), key=lambda p: p.total_latency)

    def latency_curve(self) -> Tuple[Tuple[int, float], ...]:
        """``(C, total latency)`` pairs sorted by ``C`` (Figure 5 series)."""
        return tuple(sorted((c, p.total_latency) for c, p in self.points.items()))


# ----------------------------------------------------------------------
# The search grid
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class SearchTask:
    """One unit of the search grid: a group of SA restarts for one
    ``P~(n, C)``.

    Tasks are frozen, picklable value objects -- everything a worker
    needs and nothing it could share, which is what makes the fork/spawn
    boundary safe and the result a pure function of the task.
    ``link_limit`` is the requested ``C`` (the solve itself runs at
    :func:`effective_link_limit`); ``restarts`` holds the restart
    indices of the group, run as lockstep chains
    (:func:`repro.core.annealing.anneal_population`) byte-identical to
    running each restart alone.
    """

    n: int
    link_limit: int
    restarts: Tuple[int, ...]
    method: str
    params: AnnealingParams
    cost: HopCostModel
    weights: Optional[Tuple[Tuple[float, ...], ...]]
    impl: str
    base_seed: int
    config: SearchConfig
    capture_events: bool = False

    @property
    def coordinate(self) -> list:
        """The ``task`` event stamp: ``[C, restart]``, or ``[C, [restarts]]``
        for a lockstep group."""
        restarts = self.restarts
        return [self.link_limit, restarts[0] if len(restarts) == 1 else list(restarts)]


@dataclass
class _TaskOutcome:
    """A pool task's solutions plus the observability it captured."""

    solutions: List[RowSolution]
    events: List[dict]
    metrics: dict
    obs_key: Tuple[int, int]


def _chain_groups(restarts: int, chains: int) -> List[Tuple[int, ...]]:
    """Split restart indices into consecutive lockstep groups.

    ``chains=1`` (the default) keeps every restart its own task;
    ``chains=K`` packs restarts ``0..K-1`` into one group, ``K..2K-1``
    into the next, and so on (the last group may be smaller).  Grouping
    never changes which restarts run or their derived seeds -- only how
    many share a process and a batched kernel call.
    """
    step = max(1, chains)
    return [
        tuple(range(lo, min(lo + step, restarts)))
        for lo in range(0, restarts, step)
    ]


def _solve_task(task: SearchTask, obs: Instrumentation) -> List[RowSolution]:
    """Run one task's chains, recording onto ``obs``.

    Restart ``r`` draws ``derived_rng(base_seed, C_eff, r)``, so a
    restart computes the same chain in any group, and an oversized
    ``C`` solves exactly like ``C_full``.
    """
    # Under impl="native", constructing the objective warms the
    # compiled backend up (shared-object load, once per process)
    # before any solve span opens; the cost is reported as a
    # kernel.compile event instead of polluting latency.floyd_warshall.
    objective = RowObjective(
        cost=task.cost,
        weights=task.weights,
        impl=task.impl,
        obs=None if obs.is_null else obs,
    )
    limit = effective_link_limit(task.n, task.link_limit)
    config = task.config
    return _solve_row(
        task.n,
        task.link_limit,
        rngs=[derived_rng(task.base_seed, limit, r) for r in task.restarts],
        method=task.method,
        objective=objective,
        params=task.params,
        max_evaluations=config.max_evaluations,
        obs=obs,
        progress_every=config.metrics_every,
        incremental=config.incremental,
        resync_every=config.resync_every,
    )


def _run_task(task: SearchTask) -> _TaskOutcome:
    """Pool entry point (module-level so it pickles for workers).

    Records onto a private instrumentation whose events and metrics
    ship back for the parent's ordered merge.
    """
    # NB: an empty MemorySink is falsy (it has __len__), so the guards
    # here must compare against None explicitly.
    sink = MemorySink() if task.capture_events else None
    obs = Instrumentation(sinks=[] if sink is None else [sink])
    obs.set_context(task=task.coordinate)
    solutions = _solve_task(task, obs)
    return _TaskOutcome(
        solutions=solutions,
        events=[] if sink is None else [e.to_dict() for e in sink.events],
        metrics=obs.metrics.snapshot(),
        obs_key=(task.link_limit, task.restarts[0]),
    )


def _solve_inline(task: SearchTask, obs: Instrumentation) -> List[RowSolution]:
    """Run a task in this process, straight onto the caller's ``obs``.

    Its events carry the ``task`` stamp but no ``worker`` stamp:
    nothing ran on a worker.
    """
    if not obs.enabled:
        return _solve_task(task, obs)
    previous = obs.bus.context.get("task")
    obs.set_context(task=task.coordinate)
    try:
        return _solve_task(task, obs)
    finally:
        obs.set_context(task=previous)


def run_tasks(
    tasks: Sequence[SearchTask], jobs: int, obs: Instrumentation
) -> List[List[RowSolution]]:
    """Run the task grid; per task, its solutions in restart order.

    With ``jobs <= 1`` (or a single task) every task runs inline on
    ``obs``; otherwise on a process pool of up to ``jobs`` workers,
    whose captured observability is merged into ``obs`` in task order.
    """
    if jobs <= 1 or len(tasks) <= 1:
        return [_solve_inline(task, obs) for task in tasks]
    outcomes = parallel_map(_run_task, tasks, jobs)
    _merge_observability(obs, outcomes)
    return [outcome.solutions for outcome in outcomes]


def _best_index(solutions: Sequence[RowSolution]) -> int:
    """Deterministic reduction: lowest energy, then lowest restart index."""
    return min(range(len(solutions)), key=lambda k: solutions[k].energy)


def _base_seed(seed) -> int:
    """The grid's integer base seed; ``None`` draws fresh entropy.

    A shared :class:`numpy.random.Generator` is rejected: its state
    would depend on task execution order, so it cannot be split
    deterministically across tasks.  Fresh entropy is still an int, so
    the run can be replayed from its logged ``base_seed``.
    """
    if seed is None:
        return fresh_entropy()
    if isinstance(seed, (int, np.integer)):
        return int(seed)
    raise ConfigurationError(
        "row-space searches need an integer seed (or None); got "
        f"{type(seed).__name__} -- a shared generator cannot be split "
        "deterministically across tasks"
    )


def _search_grid(
    problems: Sequence[Tuple[int, int]],
    *,
    method: str,
    params: AnnealingParams | None,
    cost: HopCostModel | None,
    weights,
    impl: str,
    config: SearchConfig,
    obs: Instrumentation,
) -> Dict[Tuple[int, int], List[RowSolution]]:
    """Solve every ``(n, C)`` problem with ``config.effective_restarts``
    SA chains; the one row-space search dispatch.

    Returns, per problem, the chains' solutions in restart order.  Each
    ``C`` is validated once here (:func:`validated_link_limit`: an
    oversized limit emits ``config.clamp``); solutions keep the
    requested ``C`` while the solve runs at ``C_full``.
    """
    if method not in METHODS:
        raise ConfigurationError(f"unknown method {method!r}; expected one of {METHODS}")
    for n, limit in problems:
        validated_link_limit(n, limit, obs)
    seed = _base_seed(config.seed)
    restarts = config.effective_restarts
    params = params or AnnealingParams()
    cost = cost or HopCostModel()
    tasks = [
        SearchTask(
            n=n, link_limit=limit, restarts=group, method=method,
            params=params, cost=cost, weights=weights, impl=impl,
            base_seed=seed, config=config, capture_events=obs.enabled,
        )
        for n, limit in problems
        for group in _chain_groups(restarts, config.chains)
    ]
    if obs.enabled:
        obs.emit("parallel.start", method=method, restarts=restarts,
                 jobs=config.jobs, chains=config.chains, tasks=len(tasks),
                 base_seed=seed, problems=[list(p) for p in problems])
    with obs.span("parallel.sweep"):
        outcomes = run_tasks(tasks, config.jobs, obs)
    grid: Dict[Tuple[int, int], List[RowSolution]] = {}
    for task, solutions in zip(tasks, outcomes):
        grid.setdefault((task.n, task.link_limit), []).extend(solutions)
    if not obs.is_null:
        obs.metrics.counter("parallel.tasks").inc(len(tasks))
        obs.metrics.gauge("parallel.jobs").set(config.jobs)
    if obs.enabled:
        winners = []
        for (n, limit), solutions in grid.items():
            best = _best_index(solutions)
            winners.append([n, limit, best, solutions[best].energy])
        obs.emit("parallel.end", winners=winners)
    return grid


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------

def solve_row_problem(
    n: int,
    link_limit: int,
    method: str = "dc_sa",
    objective: Objective | None = None,
    params: AnnealingParams | None = None,
    obs: Optional[Instrumentation] = None,
    config: Optional[SearchConfig] = None,
    warm_start: Optional[RowPlacement] = None,
    **legacy,
) -> PlacementResult:
    """Solve ``P~(n, C)`` and return a :class:`~repro.api.PlacementResult`.

    Execution knobs arrive in ``config`` (a
    :class:`~repro.api.SearchConfig`): the solve is one ``C`` of the
    search grid, ``config.effective_restarts`` chains on up to
    ``config.jobs`` processes, and the winning chain is returned with
    every chain's final energy in ``result.restart_energies``.  With
    ``config.space`` set to a mesh space it routes to
    :func:`~repro.core.search_space.solve_space`.  The raw engine
    object stays reachable as ``result.solution``.  ``objective`` must
    be a :class:`~repro.core.latency.RowObjective` (or ``None``): the
    grid rebuilds it from its parts in each task.  An oversized ``C``
    is reported as requested and solved at ``C_full``.

    ``warm_start`` (row space only) is the design cache's neighbor
    seam: the placement is clipped to the requested limit
    (:meth:`~repro.topology.row.RowPlacement.clipped_to_limit`),
    priced once *after* the cold solve, and kept only if strictly
    better.  The cold trajectory is untouched, so a warm-started solve
    is never worse than the cold one at the same seed and budget.

    ``obs`` flows into the D&C seeder, the annealer and the
    Floyd-Warshall evaluator, so a single
    :class:`~repro.obs.Instrumentation` observes the whole solve.
    """
    reject_legacy_kwargs("solve_row_problem", legacy)
    config = config or SearchConfig()
    if config.space != "row":
        from repro.core.search_space import solve_space

        if warm_start is not None:
            raise ConfigurationError(
                "warm_start is row-space only; mesh-space solves take "
                "no neighbor candidate"
            )
        # objective, if given, must be a MeshObjective in these spaces;
        # None builds one from the config like the row path does.
        return PlacementResult.from_solution(solve_space(
            n, link_limit, config.space, method=method,
            objective=objective, params=params, obs=obs, config=config,
        ), config)
    # Tasks rebuild the objective from its picklable parts.
    cost, weights, impl = None, None, config.impl
    if isinstance(objective, RowObjective):
        cost, weights, impl = objective.cost, objective.weights, objective.impl
    elif objective is not None:
        raise ConfigurationError(
            "row-space solves take a RowObjective (or None); got "
            f"{type(objective).__name__}"
        )
    solutions = _search_grid(
        [(n, link_limit)], method=method, params=params, cost=cost,
        weights=weights, impl=impl, config=config, obs=ensure_obs(obs),
    )[n, link_limit]
    solution = solutions[_best_index(solutions)]
    if warm_start is not None:
        pricing = objective if objective is not None else RowObjective(impl=impl)
        solution = inject_warm_candidate(solution, warm_start, pricing)
    return PlacementResult.from_solution(
        solution, config,
        restart_energies=((link_limit, tuple(s.energy for s in solutions)),),
    )


def inject_warm_candidate(
    solution: RowSolution,
    warm_start: RowPlacement,
    objective: Objective,
) -> RowSolution:
    """Post-solve candidate injection: the warm-start guarantee.

    Clips ``warm_start`` to the solution's effective limit, prices it
    once, and returns a solution with the candidate swapped in iff it
    is strictly better.  Composing with an unchanged cold solve gives
    ``energy_warm == min(energy_cold, energy_candidate) <=
    energy_cold`` -- the "never worse than cold at the same seed and
    budget" property the cache-semantics suite pins, deterministic
    rather than statistical because the SA trajectory and its RNG
    stream are untouched.
    """
    if warm_start.n != solution.n:
        raise ConfigurationError(
            f"warm_start is for n={warm_start.n}, solve is n={solution.n}"
        )
    limit = effective_link_limit(solution.n, solution.link_limit)
    candidate = warm_start.clipped_to_limit(limit)
    energy = objective(candidate)
    evaluations = solution.evaluations + 1
    if energy < solution.energy:
        return replace(
            solution, placement=candidate, energy=energy,
            evaluations=evaluations,
        )
    return replace(solution, evaluations=evaluations)


def _solve_row(
    n: int,
    link_limit: int,
    *,
    rngs: Sequence,
    method: str = "dc_sa",
    objective: Objective | None = None,
    params: AnnealingParams | None = None,
    max_evaluations: Optional[int] = None,
    obs: Optional[Instrumentation] = None,
    progress_every: int = 0,
    impl: str = "vectorized",
    incremental: bool = False,
    resync_every: int = 1_000,
) -> List[RowSolution]:
    """Solve ``P~(n, C)`` with one SA chain per entry of ``rngs``.

    Internal: no legacy-keyword shim, and a stream may be a generator
    the caller shares across solves.  Returns one :class:`RowSolution`
    per stream, in order.  ``dc_sa`` computes the deterministic D&C
    seed once and starts every chain from it; ``only_sa`` draws each
    chain's random start from that chain's own stream, which then
    drives its SA moves.  ``exact`` ignores the streams: one exhaustive
    search, reported once per stream.
    """
    if method not in METHODS:
        raise ConfigurationError(f"unknown method {method!r}; expected one of {METHODS}")
    obs = ensure_obs(obs)
    if objective is None:
        objective = RowObjective(impl=impl, obs=None if obs.is_null else obs)
    params = params or AnnealingParams()
    gens = [ensure_rng(rng) for rng in rngs]
    limit = effective_link_limit(n, link_limit)
    start = time.perf_counter()
    if obs.enabled:
        obs.emit("solve.start", n=n, link_limit=link_limit, method=method)

    if method == "exact":
        with obs.span("solve.exact"):
            exact = exhaustive_matrix_search(n, limit, objective)
        return [RowSolution(
            n=n,
            link_limit=link_limit,
            placement=exact.placement,
            energy=exact.energy,
            method=method,
            evaluations=exact.evaluations,
            wall_time_s=time.perf_counter() - start,
            exact=exact,
        )] * len(gens)

    seed: Optional[InitialSolution] = None
    if method == "dc_sa":
        seed = initial_solution(n, limit, objective, obs=obs)
        initials = [ConnectionMatrix.from_placement(seed.placement, limit)] * len(gens)
    else:  # only_sa
        initials = [ConnectionMatrix.random(n, limit, gen) for gen in gens]

    options = dict(
        params=params, max_evaluations=max_evaluations, obs=obs,
        progress_every=progress_every, incremental=incremental,
        resync_every=resync_every,
    )
    with obs.span("solve.anneal"):
        if len(gens) == 1:
            # One chain enters through anneal, the annealer's own
            # profiling layer; it runs the same lockstep loop.
            sas = [anneal(initials[0], objective, rng=gens[0], **options)]
        else:
            sas = anneal_population(initials, objective, rngs=gens, **options)
    wall = time.perf_counter() - start
    solutions = []
    for sa in sas:
        placement, energy = sa.best_placement, sa.best_energy
        if seed is not None and seed.energy < energy:
            placement, energy = seed.placement, seed.energy
        solutions.append(RowSolution(
            n=n,
            link_limit=link_limit,
            placement=placement,
            energy=energy,
            method=method,
            evaluations=sa.evaluations + (seed.evaluations if seed else 0),
            wall_time_s=wall,
            annealing=sa,
            seed_solution=seed,
        ))
    return solutions


def design_point(
    placement: RowPlacement,
    link_limit: int,
    bandwidth: BandwidthConfig | None = None,
    mix: PacketMix | None = None,
    cost: HopCostModel | None = None,
) -> DesignPoint:
    """Cost a placement at a given link limit into a :class:`DesignPoint`."""
    bandwidth = bandwidth or BandwidthConfig()
    mix = mix or PacketMix.paper_default()
    breakdown = network_average_latency(placement, link_limit, bandwidth, mix, cost)
    return DesignPoint(
        n=placement.n,
        link_limit=link_limit,
        flit_bits=bandwidth.flit_bits(link_limit),
        placement=placement,
        latency=breakdown,
    )


@dataclass(frozen=True)
class RectDesignPoint:
    """A costed rectangular design (library extension beyond the paper).

    The 2D -> 1D reduction holds for any ``width x height`` mesh under
    XY routing; with identical rows and identical columns the average
    head latency is the row average plus the column average (the square
    case's ``2x`` is the special case ``width == height``).
    """

    width: int
    height: int
    link_limit: int
    flit_bits: int
    row_placement: RowPlacement
    col_placement: RowPlacement
    head_latency: float
    serialization: float

    @property
    def total_latency(self) -> float:
        return self.head_latency + self.serialization


def optimize_rectangular(
    width: int,
    height: int,
    method: str = "dc_sa",
    bandwidth: BandwidthConfig | None = None,
    mix: PacketMix | None = None,
    cost: HopCostModel | None = None,
    params: AnnealingParams | None = None,
    link_limits: Optional[Tuple[int, ...]] = None,
    obs: Optional[Instrumentation] = None,
    config: Optional[SearchConfig] = None,
    **legacy,
) -> Dict[int, RectDesignPoint]:
    """Sweep ``C`` on a rectangular mesh; one 1D solve per dimension.

    Returns a map ``C -> RectDesignPoint``; the caller picks the best
    by ``total_latency`` (see :func:`best_rectangular`).  Every
    ``(dimension, C)`` problem is one entry of the search grid, so
    ``config`` and ``obs`` mean what they mean for :func:`optimize`,
    and a square mesh gets the same row placement at every ``C`` as
    ``optimize(n, config=config)``.
    """
    reject_legacy_kwargs("optimize_rectangular", legacy)
    config = config or SearchConfig()
    if config.space != "row":
        raise ConfigurationError(
            "optimize_rectangular is row-space only; got "
            f"space={config.space!r}"
        )
    bandwidth = bandwidth or BandwidthConfig()
    mix = mix or PacketMix.paper_default()
    cost = cost or HopCostModel()
    obs = ensure_obs(obs)
    # Limits beyond the smaller dimension's full connectivity are
    # clamped inside each solve, so sweeping up to the larger
    # dimension's C_full covers every distinct design.
    limits = tuple(dict.fromkeys(
        link_limits or bandwidth.valid_link_limits(max(width, height))
    ))
    dims = tuple(dict.fromkeys((width, height)))
    grid = _search_grid(
        [(dim, c) for c in limits if c != 1 for dim in dims if dim >= 3],
        method=method, params=params, cost=cost, weights=None,
        impl=config.impl, config=config, obs=obs,
    )

    def placement(dim: int, limit: int) -> RowPlacement:
        solutions = grid.get((dim, limit))
        if solutions is None:
            return RowPlacement.mesh(dim)
        return solutions[_best_index(solutions)].placement

    points: Dict[int, RectDesignPoint] = {}
    for limit in limits:
        row, col = placement(width, limit), placement(height, limit)
        head = mean_row_head_latency(row, cost) + mean_row_head_latency(col, cost)
        points[limit] = RectDesignPoint(
            width=width,
            height=height,
            link_limit=limit,
            flit_bits=bandwidth.flit_bits(limit),
            row_placement=row,
            col_placement=col,
            head_latency=head,
            serialization=mix.serialization_cycles(bandwidth.flit_bits(limit)),
        )
    return points


def best_rectangular(points: Dict[int, "RectDesignPoint"]) -> "RectDesignPoint":
    """The rectangular design point with the lowest total latency."""
    return min(points.values(), key=lambda p: p.total_latency)


def optimize(
    n: int,
    method: str = "dc_sa",
    bandwidth: BandwidthConfig | None = None,
    mix: PacketMix | None = None,
    cost: HopCostModel | None = None,
    params: AnnealingParams | None = None,
    link_limits: Optional[Tuple[int, ...]] = None,
    obs: Optional[Instrumentation] = None,
    config: Optional[SearchConfig] = None,
    warm_start: Optional[RowPlacement] = None,
    **legacy,
) -> PlacementResult:
    """Full optimization: sweep ``C``, solve each ``P~(n, C)``, cost them.

    Returns the winning design as a frozen
    :class:`~repro.api.PlacementResult` -- the paper's final answer for
    this network; the raw sweep with every design point (the Figure 5
    curves) stays reachable as ``result.sweep``.  ``obs`` observes
    every per-``C`` solve through one instrumentation context.

    Execution knobs arrive in ``config`` (a
    :class:`~repro.api.SearchConfig`).  The sweep is the search grid:
    ``config.effective_restarts`` independent SA chains per ``C`` with
    per-``(C, restart)`` derived seeds, best chain kept, on up to
    ``config.jobs`` processes; results are bit-identical for every
    ``jobs`` and ``chains`` value at a fixed seed.  Every point is keyed
    and costed at the requested ``C`` (an oversized one is solved at
    ``C_full``).  With ``config.space`` set to a mesh space the sweep
    routes to :func:`~repro.core.search_space.optimize_space`.

    ``warm_start`` (row space only) injects a cached neighbor design as
    a post-solve candidate at every ``C``
    (:func:`inject_warm_candidate`): trajectories are untouched, so the
    result is never worse than the cold sweep at the same seed.

    The pre-redesign keywords (``rng``, ``restarts``, ``jobs``, ...)
    now raise :class:`TypeError` with migration hints; see
    ``docs/api.md``.
    """
    reject_legacy_kwargs("optimize", legacy)
    config = config or SearchConfig()
    start = time.perf_counter()
    if config.space != "row":
        from repro.core.search_space import optimize_space

        if warm_start is not None:
            raise ConfigurationError(
                "warm_start is row-space only; mesh-space sweeps take "
                "no neighbor candidate"
            )
        sweep = optimize_space(
            n, config.space, method=method, bandwidth=bandwidth, mix=mix,
            cost=cost, params=params, link_limits=link_limits, obs=obs,
            config=config,
        )
        return PlacementResult.from_sweep(
            sweep, config, time.perf_counter() - start
        )
    bandwidth = bandwidth or BandwidthConfig()
    mix = mix or PacketMix.paper_default()
    cost = cost or HopCostModel()
    obs = ensure_obs(obs)
    limits = tuple(dict.fromkeys(link_limits or bandwidth.valid_link_limits(n)))
    grid = _search_grid(
        [(n, c) for c in limits if c != 1], method=method, params=params,
        cost=cost, weights=None, impl=config.impl, config=config, obs=obs,
    )

    sweep = SweepResult(n=n, method=method, restarts=config.effective_restarts,
                        jobs=config.jobs, chains=config.chains)
    for limit in limits:
        if limit == 1:
            mesh = RowPlacement.mesh(n)
            solutions = [RowSolution(
                n=n,
                link_limit=1,
                placement=mesh,
                energy=RowObjective(cost=cost, impl=config.impl)(mesh),
                method=method,
                evaluations=1,
                wall_time_s=0.0,
            )]
        else:
            solutions = grid[n, limit]
        solution = solutions[_best_index(solutions)]
        sweep.restart_energies[limit] = tuple(s.energy for s in solutions)
        sweep.solutions[limit] = solution
        sweep.points[limit] = design_point(
            solution.placement, limit, bandwidth, mix, cost
        )
    if warm_start is not None:
        _inject_warm_into_sweep(sweep, warm_start, config.impl,
                                bandwidth, mix, cost)
    return PlacementResult.from_sweep(
        sweep, config, time.perf_counter() - start
    )


def _inject_warm_into_sweep(
    sweep: SweepResult,
    warm_start: RowPlacement,
    impl: str,
    bandwidth: BandwidthConfig | None,
    mix: PacketMix | None,
    cost: HopCostModel | None,
) -> None:
    """Inject the warm candidate at every swept ``C`` (in place).

    ``C = 1`` is skipped: the clip degenerates to the plain mesh the
    sweep already priced.  Improved solutions get their design point
    re-costed so ``best`` reflects the injected placement.
    """
    pricing = RowObjective(cost=cost or HopCostModel(), impl=impl)
    for limit, solution in sweep.solutions.items():
        if limit == 1:
            continue
        injected = inject_warm_candidate(solution, warm_start, pricing)
        sweep.solutions[limit] = injected
        if injected.placement != solution.placement:
            sweep.points[limit] = design_point(
                injected.placement, limit, bandwidth, mix, cost
            )
