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
chains in lockstep, each with its own pricing strategy; :func:`anneal`
is its ``K = 1`` call.  Row-space chains price a move from the flipped
bit -- a live weight stack or the incremental engine, behind a memo
keyed by an ``int`` link mask -- and never decode per move.
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
from repro.routing.shortest_path import (
    INF,
    set_link_weight,
    weight_stack_population,
)
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
    The row annealer keys by its ``int`` link mask instead, which is
    just as 1:1.

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

    def lookup(self, key):
        """Probe the cache by key, accounting one call plus a hit or a miss.

        Returns the cached energy, or :data:`MISS` -- the caller must
        then compute the energy and hand it to :meth:`store`.  The
        split exists so batch engines (``evaluate_many``,
        ``anneal_population``) can collect misses across a population,
        price them with one kernel call, and still produce exactly the
        counter sequence of scalar ``__call__`` usage.  Any key that
        maps 1:1 to placement values keeps the counters identical:
        ``canonical_bytes`` here and in the mesh annealer, the ``int``
        link mask in the row annealer.
        """
        self.calls += 1
        hit = self._cache.get(key)
        if hit is not None:
            self.hits += 1
            return hit
        self.misses += 1
        return self.MISS

    def store(self, key, value: float) -> float:
        """Insert a freshly computed energy (the second half of a miss),
        with the same bounded clear-wholesale semantics as ``__call__``."""
        if len(self._cache) >= self.max_size:
            self._cache.clear()
            self.overflows += 1
        self._cache[key] = value
        self.evaluations += 1
        return value

    def __call__(self, placement: RowPlacement) -> float:
        key = placement.canonical_bytes()
        value = self.lookup(key)
        if value is not self.MISS:
            return value
        return self.store(key, self._objective(placement))

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


def _layer_link_counts(state: ConnectionMatrix) -> Counter:
    """Multiset of links over all layers (layers may duplicate a link;
    the decoded placement changes only when a count crosses 0 <-> 1)."""
    counts: Counter = Counter()
    for layer in range(state.bits.shape[1]):
        for link in state.layer_links(layer):
            counts[link] += 1
    return counts


def _link_mask(n: int, links) -> int:
    """A link set as an ``int`` with bit ``i * n + j`` per link ``(i, j)``."""
    mask = 0
    for i, j in links:
        mask |= 1 << (i * n + j)
    return mask


def _mask_links(n: int, mask: int) -> frozenset:
    """Inverse of :func:`_link_mask`."""
    links = []
    while mask:
        low = mask & -mask
        links.append(divmod(low.bit_length() - 1, n))
        mask ^= low
    return frozenset(links)


class _FullPricing:
    """Pricing for the mesh spaces: decode every candidate, memo by
    placement.

    :meth:`propose` applies the move, decodes the candidate and probes
    the memo; a miss is left unpriced (``None``) for the loop to price
    together with the other chains' misses (:func:`_price_pending`).
    """

    def __init__(self, objective: Objective) -> None:
        self.memo = MemoizedObjective(objective)
        self.stack = None
        self.candidate: Optional[RowPlacement] = None

    def start(self, state) -> Optional[float]:
        self.candidate = state.decode()
        value = self.memo.lookup(self.candidate.canonical_bytes())
        return None if value is MemoizedObjective.MISS else value

    def propose(self, state, site, current_energy: float) -> Optional[float]:
        state.flip(*site)
        return self.start(state)

    def placement(self, state) -> RowPlacement:
        return self.candidate

    def store(self, value: float) -> float:
        return self.memo.store(self.candidate.canonical_bytes(), value)

    def accept(self, chain: "_Chain", move: int, obs: Instrumentation) -> None:
        pass

    def reject(self, state, site) -> None:
        state.flip(*site)

    def report(self, metrics) -> None:
        pass


class _RowPricing:
    """Row-space pricing from the flipped bit (Section 4.4's single-bit
    moves on a :class:`ConnectionMatrix`).

    A flip changes at most three layer links
    (:meth:`ConnectionMatrix.flip_diff`); per-link layer counts turn
    them into the decoded placement's changes (a link appears or
    disappears only when its count crosses 0 <-> 1).  The changes are
    applied in place -- to the chain's link set, kept as an ``int``
    with bit ``i * n + j`` per link (the memo key), and to one of two
    engines -- and undone on reject:

    * stack (default): a live ``(2, n, n)`` weight stack.  A memo miss
      is priced by a full Floyd-Warshall over it
      (``objective.price_stacks``), batched across the lockstep chains
      by :func:`_price_pending`.  An objective without stack pricing
      (the pure-Python ``"reference"`` tier, plain callables) prices a
      miss on the placement rebuilt from the mask instead;
    * ``incremental``: the O(n^2) dynamic APSP engine of
      :mod:`repro.routing.incremental` prices every candidate under a
      checkpoint, committed on accept and rolled back on reject; the
      memo only accounts.  Every ``resync_every`` accepted moves the
      engine is compared against a full solve and repaired on mismatch
      (``sa.resync``).

    Either way the memo is a :class:`MemoizedObjective` keyed by the
    mask, which maps 1:1 to ``canonical_bytes`` at fixed ``n``: every
    counter, and so the trajectory, equals decode-and-memo pricing at
    every move.  No placement is built per move -- only for the start
    state, a new best, and a miss without stack pricing.
    """

    def __init__(self, objective, incremental: bool, resync_every: int) -> None:
        self.objective = objective
        self.memo = MemoizedObjective(objective)
        self.incremental = incremental
        self.resync_every = resync_every
        self.stack = None
        self.incremental_evals = 0
        self.full_evals = 1  # the engine's initial build
        self.selfchecks = self.resyncs = 0
        self.accepted_since_check = 0
        self.changes: List[Tuple[int, int, bool]] = []
        self.added: Tuple = ()
        self.removed: Tuple = ()

    def start(self, state) -> Optional[float]:
        placement = state.decode()
        self.n = state.n
        self.counts = _layer_link_counts(state)
        self.key = _link_mask(self.n, placement.express_links)
        if self.incremental:
            self.evaluator = self.objective.incremental_evaluator(placement)
            self.engine = self.evaluator.engine
            return self._account(self.evaluator.energy())
        if getattr(self.objective, "prices_stacks", False):
            cost = self.objective.cost
            self.stack = weight_stack_population([placement], cost)
            self.hop = [cost.hop_cost(length) for length in range(self.n)]
        return self._probe()

    def _probe(self) -> Optional[float]:
        value = self.memo.lookup(self.key)
        return None if value is MemoizedObjective.MISS else value

    def _account(self, energy: float) -> float:
        if self._probe() is None:
            self.memo.store(self.key, energy)
        return energy

    def _toggle(self, changes, forward: bool) -> None:
        """Apply (``forward``) or undo link changes on the mask and stack."""
        n, stack = self.n, self.stack
        for i, j, is_add in changes:
            self.key ^= 1 << (i * n + j)
            if stack is not None:
                set_link_weight(
                    stack, i, j, self.hop[j - i] if is_add == forward else INF
                )

    def propose(self, state, site, current_energy: float) -> Optional[float]:
        added, removed = state.flip_diff(*site)
        state.flip(*site)
        counts = self.counts
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
        self._toggle(changes, True)
        if not self.incremental:
            return self._probe()
        if changes:
            self.engine.checkpoint()
            self.engine.apply_link_changes(changes)
            self.incremental_evals += 1
            return self._account(self.evaluator.energy())
        # Layers changed but the decoded placement did not (duplicate
        # links across layers): same state, same energy.
        return self._account(current_energy)

    def placement(self, state) -> RowPlacement:
        return RowPlacement.from_normalized(self.n, _mask_links(self.n, self.key))

    def store(self, value: float) -> float:
        return self.memo.store(self.key, value)

    def accept(self, chain: "_Chain", move: int, obs: Instrumentation) -> None:
        if not self.incremental:
            return
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
            self._toggle(self.changes, False)
            if self.incremental:
                self.engine.rollback()
        for link in self.added:
            self.counts[link] -= 1
        for link in self.removed:
            self.counts[link] += 1
        state.flip(*site)

    def report(self, metrics) -> None:
        if not self.incremental:
            return
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


def _price_pending(missed: Sequence[_Chain], objective: Objective) -> None:
    """Price the candidates that missed their chain's memo, and store them.

    Chains with a live weight stack are priced by one
    ``objective.price_stacks`` call over their concatenated stacks (one
    batched Floyd-Warshall per move instead of one per chain).  Other
    chains' candidate placements go through the objective: a lone miss
    through its scalar call, several through one
    ``objective.evaluate_many`` batch when the objective has one.
    """
    if missed[0].pricing.stack is not None:
        stacks = [c.pricing.stack for c in missed]
        values = objective.price_stacks(
            stacks[0] if len(stacks) == 1 else np.concatenate(stacks)
        ).tolist()
    else:
        placements = [c.pricing.placement(c.state) for c in missed]
        batched = getattr(objective, "evaluate_many", None)
        if len(placements) == 1:
            values = [objective(placements[0])]
        elif batched is None:
            values = [float(objective(p)) for p in placements]
        else:
            values = [float(v) for v in batched(placements)]
    for chain, value in zip(missed, values):
        chain.pending_energy = chain.pricing.store(value)


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

    * row space (:class:`ConnectionMatrix` states): each chain keeps
      its link mask (the memo key) and a live ``(2, n, n)`` weight
      stack up to date from the flipped bit; every move, the stacks of
      all live chains that miss their memo are priced by one
      ``objective.price_stacks`` call (one ``(2B, n, n)``
      Floyd-Warshall).  Objectives without stack pricing price the
      misses' placements, rebuilt from the masks, through one
      ``objective.evaluate_many`` batch or the scalar call.  With
      ``incremental=True`` the O(n^2) dynamic APSP engine, one per
      chain, replaces the stack (see :func:`anneal`);
    * mesh spaces: each chain decodes its candidate and memos it by
      placement, misses batched the same way.

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
    row_space = all(hasattr(initial, "flip_diff") for initial in initials)
    if incremental and not row_space:
        raise ConfigurationError(
            "incremental annealing runs on the row connection-matrix "
            "space only (it needs flip_diff)"
        )
    start = time.perf_counter()
    chains = [
        _Chain(
            k, initial.copy(), ensure_rng(rng),
            _RowPricing(objective, incremental, resync_every) if row_space
            else _FullPricing(objective),
        )
        for k, (initial, rng) in enumerate(zip(initials, rngs))
    ]

    for c in chains:
        c.pending_energy = c.pricing.start(c.state)
    missed = [c for c in chains if c.pending_energy is None]
    if missed:
        _price_pending(missed, objective)
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
        missed = []
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
                missed.append(c)
        if missed:
            _price_pending(missed, objective)
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
