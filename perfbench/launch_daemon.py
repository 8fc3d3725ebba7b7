"""Start the policy daemon with the benchmark's span wrappers installed.

Usage: ``python3 perfbench/launch_daemon.py SPANS_JSON [repro.serve args...]``.
Installs :func:`perfbench.spans.install`, runs ``repro.serve.__main__.main``
with the remaining arguments, and writes the recorded spans to
``SPANS_JSON`` when the daemon exits.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv: list[str]) -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from repro.serve.__main__ import main as serve

    from perfbench import spans

    span_path, serve_args = argv[0], argv[1:]
    tracer = spans.Tracer()
    spans.install(tracer)
    try:
        return serve(serve_args)
    finally:
        tracer.dump(span_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
