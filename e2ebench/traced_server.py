"""Run ``repro serve`` with the serve-leg layers wrapped.

Usage: ``python traced_server.py SPANS_PATH serve --port 0 ...``.
Everything after the spans path is handed to ``repro``'s CLI.  When
the server stops (SIGINT drains it), the recorded spans and counts are
written to ``SPANS_PATH``.
"""

from __future__ import annotations

import os
import signal
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import layers  # noqa: E402
from tracer import Tracer  # noqa: E402


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    from repro import cli

    tracer = Tracer()
    layers.install_server(tracer)
    try:
        return cli.main(argv)
    finally:
        # A second SIGINT (sent when the drain hangs) must not cut the
        # dump short.
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        tracer.uninstall()
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main())
