"""Simulated annealing over the connection-matrix space (Section 4.4).

The engine follows the paper's setup exactly (Table 1):

* exponential acceptance ``exp(-dL / T)`` for uphill moves,
* linear-in-stages cooling -- the temperature is *divided* by the
  cooldown scale ``S_c`` after every ``m_c`` moves,
* moves flip a single connection point of the matrix, which keeps every
  visited state valid and every valid placement reachable,
* default parameters ``T0 = 10`` cycles, ``m = 10^4`` total moves,
  ``S_c = 2``, ``m_c = 10^3``.

The objective is pluggable (any callable ``RowPlacement -> float``); the
paper's is the mean row head latency evaluated by directional
Floyd-Warshall, and Section 5.6.4 swaps in a traffic-weighted variant.

There is one move loop, :func:`anneal_population`, which runs ``K``
chains in lockstep, each with its own pricing strategy (memoized full
solves or the incremental engine); :func:`anneal` is its ``K = 1`` call.
"""

from __future__ import annotations

import math
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.connection_matrix import ConnectionMatrix
from repro.obs.instrument import Instrumentation, ensure_obs
from repro.topology.row import RowPlacement
from repro.util.errors import ConfigurationError
from repro.util.rngtools import ensure_rng

Objective = Callable[[RowPlacement], float]


@dataclass(frozen=True)
class AnnealingParams:
    """Simulated-annealing hyperparameters (paper Table 1)."""

    initial_temperature: float = 10.0
    total_moves: int = 10_000
    cooldown_scale: float = 2.0
    moves_per_cooldown: int = 1_000

    def __post_init__(self) -> None:
        if self.initial_temperature <= 0:
            raise ValueError("initial temperature must be positive")
        if self.total_moves < 0:
            raise ValueError("total moves must be nonnegative")
        if self.cooldown_scale <= 1.0:
            raise ValueError("cooldown scale must be > 1")
        if self.moves_per_cooldown <= 0:
            raise ValueError("moves per cooldown must be positive")

    def temperature(self, move_index: int) -> float:
        """Temperature in effect at ``move_index`` (0-based)."""
        stages = move_index // self.moves_per_cooldown
        return self.initial_temperature / (self.cooldown_scale ** stages)


@dataclass
class AnnealingResult:
    """Outcome of one annealing run.

    ``trace`` records ``(evaluation_count, best_energy_so_far)`` pairs
    -- the raw data behind the paper's Figure 7 quality-vs-runtime
    curves, where runtime is measured in objective evaluations.
    """

    best_placement: RowPlacement
    best_energy: float
    initial_energy: float
    evaluations: int
    accepted_moves: int
    uphill_accepted: int
    wall_time_s: float
    trace: List[Tuple[int, float]] = field(default_factory=list)

    @property
    def improvement(self) -> float:
        """Fractional energy reduction relative to the initial state."""
        if self.initial_energy == 0:
            return 0.0
        return (self.initial_energy - self.best_energy) / self.initial_energy


class MemoizedObjective:
    """Objective wrapper caching energies by placement.

    SA frequently revisits states (a flip and its undo decode to the
    same placement), and distinct matrices can decode identically; the
    cache turns those repeats into dictionary hits.  Also counts true
    evaluations for runtime normalization (Figure 7).

    Entries are keyed by :meth:`RowPlacement.canonical_bytes` -- the
    exact connection structure, not object identity and not the
    mirror-invariant ``canonical_key`` (which would alias a placement
    with its reversal and silently corrupt traffic-weighted
    objectives once a cache is shared across restarts).  The byte key
    maps 1:1 to placement values, so hit/miss patterns -- and therefore
    search trajectories -- are identical to placement-keyed caching.

    The cache is bounded: once it holds ``max_size`` entries it is
    cleared wholesale, so long multi-restart sweeps cannot grow memory
    without limit.  Clearing only costs recomputation -- the objective
    is deterministic, so cached and recomputed energies agree and the
    search trajectory is unaffected.
    """

    #: Default cache bound; ~10x the states a paper-sized run visits.
    DEFAULT_MAX_SIZE = 100_000

    def __init__(self, objective: Objective,
                 max_size: int = DEFAULT_MAX_SIZE) -> None:
        if max_size <= 0:
            raise ValueError("memo cache size must be positive")
        self._objective = objective
        self._cache: dict = {}
        self.max_size = max_size
        self.evaluations = 0
        self.calls = 0
        self.hits = 0
        self.misses = 0
        self.overflows = 0

    #: Sentinel returned by :meth:`lookup` on a cache miss (``None`` is
    #: reserved for in-batch placeholders inside :meth:`evaluate_many`).
    MISS = object()

    def lookup(self, placement: RowPlacement):
        """Probe the cache, accounting one call plus a hit or a miss.

        Returns the cached energy, or :data:`MISS` -- the caller must
        then compute the energy and hand it to :meth:`store`.  The
        split exists so batch engines (``evaluate_many``,
        ``anneal_population``) can collect misses across a population,
        price them with one kernel call, and still produce exactly the
        counter sequence of scalar ``__call__`` usage.
        """
        self.calls += 1
        hit = self._cache.get(placement.canonical_bytes())
        if hit is not None:
            self.hits += 1
            return hit
        self.misses += 1
        return self.MISS

    def store(self, placement: RowPlacement, value: float) -> float:
        """Insert a freshly computed energy (the second half of a miss),
        with the same bounded clear-wholesale semantics as ``__call__``."""
        if len(self._cache) >= self.max_size:
            self._cache.clear()
            self.overflows += 1
        self._cache[placement.canonical_bytes()] = value
        self.evaluations += 1
        return value

    def __call__(self, placement: RowPlacement) -> float:
        value = self.lookup(placement)
        if value is not self.MISS:
            return value
        return self.store(placement, self._objective(placement))

    def evaluate_many(
        self,
        placements: Sequence[RowPlacement],
        folded: bool = False,
    ) -> np.ndarray:
        """Batch counterpart of calling the memo on each placement in order.

        Every counter (``calls``/``hits``/``misses``/``evaluations``/
        ``overflows``) and the final cache contents match the scalar
        loop exactly: placements are walked in order, with misses
        marked by in-cache placeholders so a duplicate later in the
        batch registers as the hit it would have been.  All misses are
        then priced together -- one ``objective.evaluate_many`` call
        when the wrapped objective supports it, a scalar loop otherwise
        (a key missed twice around a wholesale clear still counts two
        evaluations but shares one kernel slice; the objective is
        deterministic, so the values agree).

        ``folded=True`` asserts the caller already reduced the batch to
        pairwise-distinct mirror-fold representatives that are also
        disjoint from everything previously priced through this memo
        (the exact enumerators' flush pattern: fresh memo, globally
        unique stream).  The memo then bulk-counts the batch as misses
        and skips both the per-placement cache probe and the store --
        the keying bytes are never computed and the values are *not*
        cached -- while the objective skips its own dedup pass.  Values
        and every counter are identical to the scalar loop under that
        contract.
        """
        placements = list(placements)
        if folded:
            count = len(placements)
            self.calls += count
            self.misses += count
            self.evaluations += count
            batched = getattr(self._objective, "evaluate_many", None)
            if batched is None:
                return np.asarray(
                    [float(self._objective(p)) for p in placements], dtype=float
                )
            return np.asarray(batched(placements, folded=True), dtype=float)
        out: List[Optional[float]] = [None] * len(placements)
        pending: dict = {}
        unresolved: List[Tuple[int, bytes]] = []
        for idx, placement in enumerate(placements):
            key = placement.canonical_bytes()
            self.calls += 1
            if key in self._cache:
                self.hits += 1
                value = self._cache[key]
                if value is None:  # placeholder from this same batch
                    unresolved.append((idx, key))
                else:
                    out[idx] = value
                continue
            self.misses += 1
            if len(self._cache) >= self.max_size:
                self._cache.clear()
                self.overflows += 1
            self._cache[key] = None
            self.evaluations += 1
            pending[key] = placement
            unresolved.append((idx, key))
        if pending:
            batched = getattr(self._objective, "evaluate_many", None)
            reps = list(pending.values())
            if batched is None:
                values = [float(self._objective(p)) for p in reps]
            else:
                values = [float(v) for v in batched(reps)]
            by_key = dict(zip(pending.keys(), values))
            for key, value in by_key.items():
                if key in self._cache and self._cache[key] is None:
                    self._cache[key] = value
            for idx, key in unresolved:
                out[idx] = by_key[key]
        return np.asarray(out, dtype=float)

    @property
    def hit_ratio(self) -> float:
        """Fraction of calls answered from the cache."""
        return self.hits / self.calls if self.calls else 0.0

    def __len__(self) -> int:
        return len(self._cache)


class _IncrementalMemo:
    """Accounting twin of :class:`MemoizedObjective` for the engine path.

    In incremental mode every candidate is priced by the APSP engine --
    never served from a cache -- but the annealer's evaluation budget,
    trace points, stage events and memo metrics are all defined by
    MemoizedObjective's counters.  This class replays that bookkeeping
    exactly (same bounded clear-wholesale cache semantics), keyed by
    the engine's link set, which maps 1:1 to ``canonical_bytes`` at
    fixed ``n`` -- so both modes agree on every counter at every move
    and the search trajectories stay comparable move for move.
    """

    def __init__(self, max_size: int = MemoizedObjective.DEFAULT_MAX_SIZE):
        self._seen: set = set()
        self.max_size = max_size
        self.evaluations = 0
        self.calls = 0
        self.hits = 0
        self.misses = 0
        self.overflows = 0

    def account(self, key: frozenset) -> None:
        self.calls += 1
        if key in self._seen:
            self.hits += 1
            return
        self.misses += 1
        if len(self._seen) >= self.max_size:
            self._seen.clear()
            self.overflows += 1
        self._seen.add(key)
        self.evaluations += 1

    @property
    def hit_ratio(self) -> float:
        return self.hits / self.calls if self.calls else 0.0

    def __len__(self) -> int:
        return len(self._seen)


def _layer_link_counts(state: ConnectionMatrix) -> Counter:
    """Multiset of links over all layers (layers may duplicate a link;
    the decoded placement changes only when a count crosses 0 <-> 1)."""
    counts: Counter = Counter()
    for layer in range(state.bits.shape[1]):
        for link in state.layer_links(layer):
            counts[link] += 1
    return counts


class _FullPricing:
    """Default per-chain pricing: a full objective solve behind a memo.

    :meth:`propose` applies the move and decodes the candidate but
    leaves it unpriced (returns ``None``): the loop prices the pending
    candidates of all such chains together (:func:`_price_pending`).
    """

    def __init__(self, objective: Objective) -> None:
        self.memo = MemoizedObjective(objective)
        self.candidate: Optional[RowPlacement] = None

    def start(self, state) -> Optional[float]:
        self.candidate = state.decode()
        return None

    def propose(self, state, site, current_energy: float) -> Optional[float]:
        state.flip(*site)
        return self.start(state)

    def placement(self, state) -> RowPlacement:
        return self.candidate

    def accept(self, chain: "_Chain", move: int, obs: Instrumentation) -> None:
        pass

    def reject(self, state, site) -> None:
        state.flip(*site)

    def report(self, metrics) -> None:
        pass


class _IncrementalPricing:
    """Per-chain pricing through the O(n^2) dynamic APSP engine.

    Each candidate's link delta is applied to the chain's own
    :mod:`repro.routing.incremental` engine under a checkpoint, then
    committed on accept or rolled back on reject.  Every
    ``resync_every`` accepted moves the engine is compared against a
    full solve and repaired on mismatch (``sa.resync``).  The memo is
    an :class:`_IncrementalMemo`, so both strategies agree on every
    counter at every move.  Row-space only: it needs ``flip_diff``.
    """

    def __init__(self, objective, resync_every: int) -> None:
        self.objective = objective
        self.resync_every = resync_every
        self.memo = _IncrementalMemo()
        self.incremental_evals = 0
        self.full_evals = 1  # the engine's initial build
        self.selfchecks = self.resyncs = 0
        self.accepted_since_check = 0
        self.changes: List[Tuple[int, int, bool]] = []
        self.added: Tuple = ()
        self.removed: Tuple = ()

    def start(self, state) -> float:
        self.evaluator = self.objective.incremental_evaluator(state.decode())
        self.engine = self.evaluator.engine
        self.link_counts = _layer_link_counts(state)
        energy = self.evaluator.energy()
        self.memo.account(frozenset(self.engine.links))
        return energy

    def propose(self, state, site, current_energy: float) -> float:
        added, removed = state.flip_diff(*site)
        state.flip(*site)
        counts = self.link_counts
        changes = []
        for link in removed:
            counts[link] -= 1
            if counts[link] == 0:
                changes.append((link[0], link[1], False))
        for link in added:
            counts[link] += 1
            if counts[link] == 1:
                changes.append((link[0], link[1], True))
        self.added, self.removed, self.changes = added, removed, changes
        if changes:
            self.engine.checkpoint()
            self.engine.apply_link_changes(changes)
            energy = self.evaluator.energy()
            self.incremental_evals += 1
        else:
            # Layers changed but the decoded placement did not
            # (duplicate links across layers): same state, same
            # energy -- exactly what the full strategy's memo returns.
            energy = current_energy
        self.memo.account(frozenset(self.engine.links))
        return energy

    def placement(self, state) -> RowPlacement:
        return RowPlacement(state.n, frozenset(self.engine.links))

    def accept(self, chain: "_Chain", move: int, obs: Instrumentation) -> None:
        if self.changes:
            self.engine.commit()
        self.accepted_since_check += 1
        if not self.resync_every or self.accepted_since_check < self.resync_every:
            return
        self.accepted_since_check = 0
        self.selfchecks += 1
        self.full_evals += 1
        if self.engine.self_check():
            return
        self.resyncs += 1
        self.full_evals += 1
        self.engine.resync()
        repaired = self.evaluator.energy()
        if obs.enabled:
            obs.emit("sa.resync", move=move, chain=chain.index,
                     energy_before=chain.current_energy,
                     energy_after=repaired,
                     evaluations=self.memo.evaluations)
        chain.current_energy = repaired

    def reject(self, state, site) -> None:
        if self.changes:
            self.engine.rollback()
        for link in self.added:
            self.link_counts[link] -= 1
        for link in self.removed:
            self.link_counts[link] += 1
        state.flip(*site)

    def report(self, metrics) -> None:
        metrics.counter("sa.eval.incremental").inc(self.incremental_evals)
        metrics.counter("sa.eval.full").inc(self.full_evals)
        metrics.counter("sa.selfcheck").inc(self.selfchecks)
        metrics.counter("sa.resync").inc(self.resyncs)


class _Chain:
    """Mutable state of one chain of the lockstep :func:`anneal_population`
    loop: matrix state, RNG, pricing strategy, energies, stage
    accounting and trace."""

    def __init__(self, index: int, state: ConnectionMatrix, gen,
                 pricing) -> None:
        self.index = index
        self.state = state
        self.gen = gen
        self.pricing = pricing
        self.memo = pricing.memo
        self.current_energy = 0.0
        self.initial_energy = 0.0
        self.best_energy = 0.0
        self.best_placement: Optional[RowPlacement] = None
        self.trace: List[Tuple[int, float]] = []
        self.accepted = 0
        self.uphill = 0
        self.moves_done = 0
        self.stage = 0
        self.stage_moves = 0
        self.stage_accepted = 0
        self.stage_uphill = 0
        self.last_move = 0
        self.done = False
        # Per-move scratch between the propose and the accept half-steps.
        self.site: Tuple[int, ...] = (0, 0)
        self.pending_energy: Optional[float] = None


def _price_pending(pending: Sequence[_Chain], objective: Objective) -> None:
    """Price the candidates the full-pricing chains left unpriced.

    A lone pending chain is priced through its memo's scalar
    ``__call__``, so a single chain pays nothing for batching.
    Otherwise each chain's memo does its own hit/miss accounting
    (exactly as its serial run would) and the misses of all chains are
    priced with one ``objective.evaluate_many`` call -- one batched
    Floyd-Warshall stack per move instead of one per chain.
    """
    if len(pending) == 1:
        chain = pending[0]
        chain.pending_energy = chain.memo(chain.pricing.candidate)
        return
    missed: List[_Chain] = []
    for chain in pending:
        value = chain.memo.lookup(chain.pricing.candidate)
        if value is MemoizedObjective.MISS:
            missed.append(chain)
        else:
            chain.pending_energy = value
    if not missed:
        return
    placements = [c.pricing.candidate for c in missed]
    batched = getattr(objective, "evaluate_many", None)
    if batched is None:
        values = [float(objective(p)) for p in placements]
    else:
        values = [float(v) for v in batched(placements)]
    for chain, placement, value in zip(missed, placements, values):
        chain.memo.store(placement, value)
        chain.pending_energy = value


def anneal(
    initial: ConnectionMatrix,
    objective: Objective,
    params: AnnealingParams | None = None,
    rng=None,
    max_evaluations: Optional[int] = None,
    trace_every: int = 1,
    obs: Optional[Instrumentation] = None,
    progress_every: int = 0,
    incremental: bool = False,
    resync_every: int = 1_000,
) -> AnnealingResult:
    """Run simulated annealing from ``initial`` and return the best state.

    The single-chain entry point: :func:`anneal_population` with one
    chain.

    Parameters
    ----------
    initial:
        Starting connection matrix (a copy is annealed; the caller's
        object is untouched).  Any state implementing the same move
        protocol works -- ``copy`` / ``decode`` / ``random_move``
        (returning an opaque site tuple) / ``flip(*site)`` (its own
        inverse) / ``num_connection_points`` plus ``n`` and
        ``link_limit`` attributes -- which is how the hetero and grid2d
        kernels in :mod:`repro.core.search_space` ride this engine
        unchanged.  The incremental path additionally needs
        ``flip_diff`` and stays row-space-only.
    objective:
        Energy function on decoded placements; lower is better.
    params:
        Schedule parameters; defaults to the paper's Table 1.
    max_evaluations:
        Optional hard cap on *unique* objective evaluations -- the
        budget knob used to compare OnlySA and D&C_SA at equal runtime
        (Section 5.3).
    trace_every:
        Record the best-so-far energy every this many moves.
    obs:
        Optional :class:`~repro.obs.Instrumentation`.  With a sink
        attached the run emits ``sa.start``, one ``sa.stage`` per
        cooling stage (acceptance / uphill rates, best energy, memo hit
        ratio), ``sa.best`` on every improvement and a final ``sa.end``.
        Instrumentation never touches the RNG stream, so results are
        identical with or without it.
    progress_every:
        With ``obs`` attached, additionally emit a ``sa.progress``
        event every this many moves (0 disables).
    incremental:
        Price candidates with the O(n^2) dynamic APSP engine
        (:mod:`repro.routing.incremental`) instead of a full
        Floyd-Warshall pass per move.  Requires an objective exposing
        ``incremental_evaluator`` (:class:`~repro.core.latency
        .RowObjective` does).  Under exactly-representable hop costs
        (the integral defaults) the trajectory -- accept/reject
        decisions, RNG stream, counters, trace -- is identical to the
        full path, so results are byte-for-byte the same.
    resync_every:
        In incremental mode, every this many accepted moves re-solve
        with full Floyd-Warshall and verify the engine state is
        bit-identical (distances and next-hops); on mismatch emit an
        ``sa.resync`` event and repair from the full solve instead of
        corrupting the run.  0 disables the self-check.
    """
    return anneal_population(
        [initial], objective, params=params, rngs=[rng],
        max_evaluations=max_evaluations, trace_every=trace_every, obs=obs,
        progress_every=progress_every, incremental=incremental,
        resync_every=resync_every,
    )[0]


def anneal_population(
    initials: Sequence[ConnectionMatrix],
    objective: Objective,
    params: AnnealingParams | None = None,
    rngs: Optional[Sequence] = None,
    max_evaluations: Optional[int] = None,
    trace_every: int = 1,
    obs: Optional[Instrumentation] = None,
    progress_every: int = 0,
    incremental: bool = False,
    resync_every: int = 1_000,
) -> List[AnnealingResult]:
    """Run ``K = len(initials)`` SA chains in lockstep -- the SA move loop.

    Chain ``k`` starts from ``initials[k]`` with ``rngs[k]`` and keeps
    its own RNG stream, pricing strategy and accept/reject bookkeeping,
    so it produces the byte-identical :class:`AnnealingResult`
    (placement, energies, counters, trace) whatever else runs beside
    it.  Each chain prices its candidates with one of two strategies:

    * full (default): a :class:`MemoizedObjective` per chain; every
      move, the candidates of all live chains that miss their memo are
      priced by one ``objective.evaluate_many`` batch (one
      ``(2B, n, n)`` Floyd-Warshall stack) instead of one stack per
      chain -- or by the memo's scalar call when a single chain is live;
    * ``incremental=True``: the O(n^2) dynamic APSP engine, one per
      chain (see :func:`anneal`).

    ``rngs`` supplies one seed/generator per chain (``None`` entries --
    or ``rngs=None`` altogether -- draw fresh entropy, as
    ``anneal(rng=None)`` does).  The multi-restart engine passes
    ``derived_rng(base_seed, C, restart)`` streams so ``chains=K``
    reproduces ``K`` separate restarts exactly.  The other parameters
    mean what they mean on :func:`anneal`; ``max_evaluations`` is a
    per-chain cap, and chains that exhaust it drop out of the lockstep
    individually.

    With ``obs`` attached, every ``sa.*`` event carries a ``chain``
    field (the chain's index); metrics are folded per chain in index
    order, so totals equal the separate runs' merged totals.
    """
    params = params or AnnealingParams()
    obs = ensure_obs(obs)
    initials = list(initials)
    if not initials:
        return []
    rngs = [None] * len(initials) if rngs is None else list(rngs)
    if len(rngs) != len(initials):
        raise ConfigurationError(
            f"anneal_population got {len(initials)} initial states but "
            f"{len(rngs)} RNG streams"
        )
    if incremental and not hasattr(objective, "incremental_evaluator"):
        raise ConfigurationError(
            "incremental annealing needs an objective with an "
            "incremental_evaluator() (e.g. RowObjective); got "
            f"{type(objective).__name__}"
        )
    start = time.perf_counter()
    chains = [
        _Chain(
            k, initial.copy(), ensure_rng(rng),
            _IncrementalPricing(objective, resync_every) if incremental
            else _FullPricing(objective),
        )
        for k, (initial, rng) in enumerate(zip(initials, rngs))
    ]

    for c in chains:
        c.pending_energy = c.pricing.start(c.state)
    _price_pending([c for c in chains if c.pending_energy is None], objective)
    for c in chains:
        c.current_energy = c.initial_energy = c.best_energy = c.pending_energy
        c.best_placement = c.pricing.placement(c.state)
        c.trace.append((c.memo.evaluations, c.best_energy))
        if obs.enabled:
            obs.emit(
                "sa.start",
                move=0,
                chain=c.index,
                n=c.state.n,
                link_limit=c.state.link_limit,
                initial_energy=c.initial_energy,
                total_moves=params.total_moves,
                initial_temperature=params.initial_temperature,
                moves_per_cooldown=params.moves_per_cooldown,
            )
        if c.state.num_connection_points == 0:
            # C = 1 or n = 2: the mesh row is the only state.
            c.done = True
            if obs.enabled:
                obs.emit("sa.end", move=0, chain=c.index,
                         best_energy=c.best_energy,
                         evaluations=c.memo.evaluations, accepted=0, uphill=0)

    def _emit_stage(c: _Chain, last_move: int) -> None:
        obs.emit(
            "sa.stage",
            move=last_move,
            chain=c.index,
            stage=c.stage,
            temperature=params.temperature(c.stage * params.moves_per_cooldown),
            moves=c.stage_moves,
            accepted=c.stage_accepted,
            uphill=c.stage_uphill,
            best_energy=c.best_energy,
            current_energy=c.current_energy,
            memo_hit_ratio=c.memo.hit_ratio,
            evaluations=c.memo.evaluations,
        )

    live = [c for c in chains if not c.done]
    for move in range(params.total_moves):
        if max_evaluations is not None:
            for c in live:
                if c.memo.evaluations >= max_evaluations:
                    # The chain stops at the top of this move; its final
                    # events carry this move index.
                    c.last_move = move
                    c.done = True
            live = [c for c in live if not c.done]
        if not live:
            break
        stage = move // params.moves_per_cooldown
        pending = []
        for c in live:
            c.last_move = move
            if stage != c.stage:
                if obs.enabled:
                    _emit_stage(c, move - 1)
                c.stage = stage
                c.stage_moves = c.stage_accepted = c.stage_uphill = 0
            c.site = c.state.random_move(c.gen)
            c.pending_energy = c.pricing.propose(c.state, c.site, c.current_energy)
            if c.pending_energy is None:
                pending.append(c)
        if pending:
            _price_pending(pending, objective)
        for c in live:
            energy = c.pending_energy
            delta = energy - c.current_energy
            c.stage_moves += 1
            c.moves_done += 1
            if (delta <= 0 or c.gen.random()
                    < math.exp(-delta / params.temperature(move))):
                c.current_energy = energy
                c.accepted += 1
                c.stage_accepted += 1
                if delta > 0:
                    c.uphill += 1
                    c.stage_uphill += 1
                if energy < c.best_energy:
                    c.best_energy = energy
                    c.best_placement = c.pricing.placement(c.state)
                    if obs.enabled:
                        obs.emit("sa.best", move=move, chain=c.index,
                                 energy=c.best_energy,
                                 evaluations=c.memo.evaluations)
                c.pricing.accept(c, move, obs)
            else:
                c.pricing.reject(c.state, c.site)
            if move % trace_every == 0:
                c.trace.append((c.memo.evaluations, c.best_energy))
            if progress_every and obs.enabled and move % progress_every == 0:
                obs.emit("sa.progress", move=move, chain=c.index,
                         current_energy=c.current_energy,
                         best_energy=c.best_energy,
                         evaluations=c.memo.evaluations,
                         memo_hit_ratio=c.memo.hit_ratio)

    wall = time.perf_counter() - start
    results: List[AnnealingResult] = []
    for c in chains:
        if c.state.num_connection_points > 0:
            c.trace.append((c.memo.evaluations, c.best_energy))
            if obs.enabled:
                if c.stage_moves:
                    _emit_stage(c, c.last_move)
                obs.emit("sa.end", move=c.last_move, chain=c.index,
                         best_energy=c.best_energy,
                         evaluations=c.memo.evaluations, accepted=c.accepted,
                         uphill=c.uphill, memo_hit_ratio=c.memo.hit_ratio,
                         wall_time_s=wall)
            if not obs.is_null:
                m = obs.metrics
                m.counter("sa.moves").inc(c.moves_done)
                m.counter("sa.accepted").inc(c.accepted)
                m.counter("sa.uphill").inc(c.uphill)
                m.counter("sa.evaluations").inc(c.memo.evaluations)
                m.counter("sa.memo_hits").inc(c.memo.hits)
                m.counter("sa.memo_misses").inc(c.memo.misses)
                m.gauge("sa.memo_hit_ratio").set(c.memo.hit_ratio)
                m.gauge("sa.best_energy").set(c.best_energy)
                # Wall-derived rate: excluded from the deterministic summary.
                m.meter("sa.move_rate").add(c.moves_done, wall)
                c.pricing.report(m)
        results.append(AnnealingResult(
            best_placement=c.best_placement,
            best_energy=c.best_energy,
            initial_energy=c.initial_energy,
            evaluations=c.memo.evaluations,
            accepted_moves=c.accepted,
            uphill_accepted=c.uphill,
            wall_time_s=wall,
            trace=c.trace,
        ))
    return results
