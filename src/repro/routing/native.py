"""The ``impl="native"`` kernel tier: loading and dispatch.

The tier is provided by :mod:`repro.routing._native_cext`: the hot
kernels as plain C, compiled once with the system C compiler into
``.repro/native/`` and loaded via ctypes.  Importing this module stays
cheap -- nothing is compiled or loaded until :func:`load` runs, so
``import repro`` never pays for the tier (a test pins that).

The kernel contract (all in place, C-contiguous float64/int64):

* ``fw_dist_batch(d)`` -- batched min-plus Floyd-Warshall over a
  ``(B, n, n)`` stack, distances only,
* ``fw_batch(d, nh)`` -- same, emitting next-hop tables,
* ``inc_update(S, rows, b, us, vs, cs)`` -- the crossing-block rewrite
  of :class:`repro.routing.incremental.IncrementalApspEngine`.

All three are bit-identical to their NumPy counterparts on the domain
the weight-stack builders produce (nonnegative weights, zero diagonal,
``inf`` sentinels, no NaN); see :mod:`repro.routing._native_cext` for
the invariance argument and the cross-impl parity suites for the pin.

:func:`warmup` front-loads the load and first-use compilation (once per
process; the parallel engine's workers call it before their solve
spans open) and reports the cost through the ``kernel.compile`` obs
event and the ``kernel.compile_seconds`` gauge, so profiled runs never
attribute compile time to ``latency.floyd_warshall``.
"""

from __future__ import annotations

import time
from typing import Optional

import numpy as np

from repro.util.errors import ConfigurationError

_state = {
    "kernels": None,
    "error": None,
    "warm": False,
    "warmup_seconds": None,
}


def load():
    """The loaded kernel namespace, loading (and compiling) on first use.

    Raises :class:`ConfigurationError` when the tier cannot load; the
    outcome (either way) is cached for the life of the process.
    """
    if _state["kernels"] is not None:
        return _state["kernels"]
    if _state["error"] is not None:
        raise ConfigurationError(f"native tier unavailable: {_state['error']}")
    try:
        from repro.routing import _native_cext

        kernels = _native_cext.load()
    except Exception as exc:  # noqa: BLE001
        _state["error"] = str(exc)
        raise ConfigurationError(f"native tier unavailable: {exc}") from exc
    _state["kernels"] = kernels
    return kernels


def available() -> bool:
    """True when the tier loads on this machine (result cached)."""
    try:
        load()
    except ConfigurationError:
        return False
    return True


def backend_name() -> Optional[str]:
    """``"cext"`` once loaded, else None."""
    return None if _state["kernels"] is None else "cext"


def unavailable_reason() -> Optional[str]:
    """Why the last load attempt failed, or None."""
    return _state["error"]


def warmup(obs=None) -> str:
    """Load (compiling on first use) and exercise the kernels, outside any span.

    Idempotent per process: the first call pays the load plus a
    tiny-input run of all three kernels; later calls return
    immediately.  With an
    :class:`~repro.obs.Instrumentation` attached, the first call emits
    a ``kernel.compile`` event and sets the ``kernel.compile_seconds``
    gauge so profiles and traces account for the cost explicitly
    instead of folding it into the first solve span.  Returns the
    backend name.
    """
    if _state["warm"]:
        return backend_name()
    start = time.perf_counter()
    kernels = load()
    d = np.array([[[0.0, 1.0], [np.inf, 0.0]]])
    kernels.fw_dist_batch(d)
    d2 = np.array([[[0.0, 1.0], [np.inf, 0.0]]])
    nh = np.array([[[0, 1], [-1, 1]]], dtype=np.int64)
    kernels.fw_batch(d2, nh)
    S = np.zeros((2, 2, 2))
    kernels.inc_update(
        S, 1, 1,
        np.array([0], dtype=np.int64),
        np.array([1], dtype=np.int64),
        np.array([1.0]),
    )
    seconds = time.perf_counter() - start
    _state["warm"] = True
    _state["warmup_seconds"] = seconds
    if obs is not None and not getattr(obs, "is_null", True):
        if obs.enabled:
            obs.emit(
                "kernel.compile",
                backend=backend_name(),
                seconds=round(seconds, 6),
            )
        obs.metrics.gauge("kernel.compile_seconds").set(seconds)
    return backend_name()


def warmup_seconds() -> Optional[float]:
    """Wall time the in-process warm-up took, or None if not yet warm."""
    return _state["warmup_seconds"]


# -- dispatch surface used by the kernel call sites ---------------------

def fw_distances_batch_inplace(dist: np.ndarray) -> None:
    """In-place batched FW distances (``(B, n, n)`` float64 C-order)."""
    load().fw_dist_batch(dist)


def fw_batch_inplace(dist: np.ndarray, next_hop: np.ndarray) -> None:
    """In-place batched FW with next-hop emission."""
    load().fw_batch(dist, next_hop)


def inc_update_boundary(S, rows, b, us, vs, cs) -> None:
    """Crossing-block rewrite on the incremental engine's layer stack."""
    load().inc_update(S, rows, b, us, vs, cs)
