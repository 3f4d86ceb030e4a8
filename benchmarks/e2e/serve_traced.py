"""``repro serve`` with layer spans recorded — the traced run's server.

Usage::

    python benchmarks/e2e/serve_traced.py --trace-dir DIR serve [serve args]

Installs the span wrappers of :mod:`e2e.spans`, then runs
``repro.cli.main(["serve", ...])``.  On SIGTERM (or Ctrl-C) the server
shuts down through its normal path and the spans are written to
``DIR/spans-<pid>.json``.  Behind ``--workers`` every worker is started
through this script too, so the workers' layers are traced as well as the
router's.
"""

from __future__ import annotations

import os
import signal
import sys
from pathlib import Path

HERE = Path(__file__).resolve()
sys.path.insert(0, str(HERE.parents[1]))
sys.path.insert(0, str(HERE.parents[2] / "src"))

from e2e.spans import Tracer, install_server_spans  # noqa: E402
from repro import cli  # noqa: E402
from repro.cluster.supervisor import WorkerSupervisor  # noqa: E402


def _trace_workers(trace_dir: str) -> None:
    """Start supervised workers through this script, into *trace_dir*."""
    plain_argv = WorkerSupervisor._argv

    def traced_argv(self) -> list[str]:
        argv = plain_argv(self)
        serve = argv.index("serve")
        return [argv[0], "-u", str(HERE), "--trace-dir", trace_dir] + argv[serve:]

    WorkerSupervisor._argv = traced_argv


def _interrupt(signum, frame) -> None:
    raise KeyboardInterrupt


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[0] != "--trace-dir" or argv[2] != "serve":
        print(__doc__, file=sys.stderr)
        return 2
    trace_dir = argv[1]
    tracer = Tracer()
    install_server_spans(tracer)
    _trace_workers(trace_dir)
    signal.signal(signal.SIGTERM, _interrupt)
    try:
        cli.main(argv[2:])
    except KeyboardInterrupt:
        pass
    finally:
        tracer.dump(Path(trace_dir) / f"spans-{os.getpid()}.json")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
