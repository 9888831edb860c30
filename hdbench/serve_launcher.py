"""Run the stock serve entry point with the benchmark's span wrappers.

    python3 hdbench/serve_launcher.py SPANS_FILE -- <repro.serve.server args>

Installs :func:`hdbench.trace.install_serve`, then calls
``repro.serve.server.main`` unchanged.  The server drains on SIGTERM and
returns; the spans recorded in memory are then written to SPANS_FILE.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT), str(ROOT / "src")]


def main(argv: list[str]) -> int:
    spans_path, separator, *server_args = argv
    if separator != "--":
        raise SystemExit(__doc__)
    from hdbench import trace
    from repro.serve import server

    tracer = trace.Tracer()
    trace.install_serve(tracer)
    try:
        return server.main(server_args)
    finally:
        tracer.uninstall()
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
