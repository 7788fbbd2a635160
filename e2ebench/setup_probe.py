"""One cold start of the library side of a run, for ``setup_s``.

Usage: ``python setup_probe.py PLACEMENT_HEX FLIT_BITS [--native]``.
Imports ``repro``, warms the native tier when asked (loading the build
cached under ``REPRO_NATIVE_CACHE``), builds the 8x8 simulator with its
routing tables, then prints ``ready`` -- the moment the parent stops
its clock.
"""

from __future__ import annotations

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))


def main() -> int:
    placement_hex, flit_bits = sys.argv[1], int(sys.argv[2])
    import repro  # noqa: F401  (the cold import is part of set-up)
    from repro.topology.mesh import MeshTopology
    from repro.topology.row import RowPlacement

    if "--native" in sys.argv[3:]:
        from repro.routing import native

        native.warmup()
    import sim_leg

    placement = RowPlacement.from_canonical_bytes(bytes.fromhex(placement_hex))
    sim_leg.build(MeshTopology.uniform(placement), flit_bits,
                  sim_leg.LOADS["low"], seed=1)
    print("ready", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
