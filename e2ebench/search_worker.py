"""Search leg worker: repeats one workload's sweep until it is killed.

Usage: ``python search_worker.py WORKLOAD SEARCH_SEED``.

Imports ``repro`` and warms the native tier when the workload uses it,
prints ``ready`` and stops itself (SIGSTOP).  From then on the runner
resumes it for short slices (SIGCONT ... SIGSTOP) between units of the
other legs, so the search samples the whole run rather than one stretch
of it.  After each sweep it prints one JSON line: the sweep's start and
end on the system-wide monotonic clock (``perf_counter``), its digest,
its check errors and its evaluation count.  The runner counts as the
sweep's wall time only the slices, clipped to ``[start, end]``, in
which this process was running; the checks after ``end`` are untimed.
"""

from __future__ import annotations

import json
import os
import signal
import sys
from time import perf_counter

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import search_leg  # noqa: E402


def _die_with_parent() -> None:
    """Ask Linux to kill this process when the runner dies, so a runner
    that is killed cannot leave it behind (stopped, it would wait forever)."""
    try:
        import ctypes

        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl(1, signal.SIGKILL)  # PR_SET_PDEATHSIG
    except (OSError, AttributeError):  # not Linux: the runner still kills it
        pass
    if os.getppid() == 1:  # the runner died before prctl took effect
        sys.exit(1)


def main() -> int:
    _die_with_parent()
    spec = search_leg.SEARCH_SPECS[sys.argv[1]]
    seed = int(sys.argv[2])
    import repro  # noqa: F401

    if spec.impl == "native":
        from repro.routing import native

        native.warmup()
    print("ready", flush=True)
    os.kill(os.getpid(), signal.SIGSTOP)
    while True:
        start = perf_counter()
        result, _wall = search_leg.run_once(spec, seed)
        end = perf_counter()
        digest, errors = search_leg.check(result)
        print(json.dumps({"start": start, "end": end, "digest": digest,
                          "errors": errors,
                          "evaluations": result.evaluations}), flush=True)


if __name__ == "__main__":
    sys.exit(main())
