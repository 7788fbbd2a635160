"""Simulator leg: the 8x8 D&C_SA design under uniform random traffic.

Two offered loads, in packets per node per cycle: ``low`` (0.01), where
host time goes to fixed per-cycle costs, and ``high`` (0.20), where it
goes to per-flit allocation.  The design is solved from the seed before
any timed region.  Only ``Simulator.run`` is timed; the cycle counts,
latency summary and activity counters it returns are simulated
quantities and serve as correctness checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter
from typing import Dict, List, Tuple

MESH_N = 8


@dataclass(frozen=True)
class Load:
    rate: float
    warmup: int
    measure: int


LOADS: Dict[str, Load] = {
    "low": Load(rate=0.01, warmup=300, measure=1_500),
    "high": Load(rate=0.20, warmup=100, measure=400),
}


def make_design(seed: int):
    """The D&C_SA design for the 8x8 mesh (untimed)."""
    from repro.harness.designs import dc_sa_design

    return dc_sa_design(MESH_N, seed=seed, effort="paper")


def build(topology, flit_bits: int, load: Load, seed: int):
    """A ready :class:`~repro.sim.engine.Simulator` (routing tables built)."""
    from repro.sim.config import SimConfig
    from repro.sim.engine import Simulator
    from repro.traffic.injection import SyntheticTraffic
    from repro.traffic.patterns import make_pattern

    config = SimConfig(
        flit_bits=flit_bits,
        warmup_cycles=load.warmup,
        measure_cycles=load.measure,
        max_cycles=50_000,
        seed=seed,
    )
    traffic = SyntheticTraffic(make_pattern("uniform_random", MESH_N),
                               rate=load.rate, rng=seed)
    return Simulator(topology, config, traffic)


def run_once(topology, flit_bits: int, load: Load, seed: int
             ) -> Tuple[object, float, tuple]:
    """Build, then time ``run``; returns ``(RunResult, wall, fingerprint)``."""
    sim = build(topology, flit_bits, load, seed)
    start = perf_counter()
    result = sim.run()
    wall = perf_counter() - start
    fingerprint = (result.summary, result.cycles_run, result.drained,
                   tuple(sorted(result.activity.items())),
                   sim.network.credit_invariant_ok())
    return result, wall, fingerprint


def check(fingerprint: tuple) -> List[str]:
    _summary, _cycles, drained, _activity, credits_ok = fingerprint
    errors = []
    if not drained:
        errors.append("simulation did not drain")
    if not credits_ok:
        errors.append("credit invariant violated at end of run")
    return errors
