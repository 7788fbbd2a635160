"""``import repro`` must never load or compile the native tier eagerly.

The compiled tier (``impl="native"``) is built on first use with the
system C compiler; importing the package, building configs, and running
the default vectorized tier must not touch it.  The test runs a fresh
interpreter so this module's own imports cannot mask an eager import
sneaking into the package.
"""

from __future__ import annotations

import subprocess
import sys


def _run(code: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        timeout=120,
    )


def test_import_repro_does_not_import_numba():
    proc = _run(
        "import sys\n"
        "import repro\n"
        "import repro.api\n"
        "import repro.cli\n"
        "import repro.routing.shortest_path\n"
        "import repro.routing.impls\n"
        "from repro.routing import native\n"
        "bad = [m for m in sys.modules if m.split('.')[0] == 'numba'\n"
        "       or m == 'repro.routing._native_cext']\n"
        "assert not bad, f'native stack imported eagerly: {bad}'\n"
        "assert native.backend_name() is None, 'native tier loaded eagerly'\n"
        "print('clean')\n"
    )
    assert proc.returncode == 0, proc.stderr
    assert "clean" in proc.stdout
