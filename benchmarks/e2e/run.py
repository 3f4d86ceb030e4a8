"""End-to-end benchmark over a real ``repro serve``.

Run from the repository root::

    python benchmarks/e2e/run.py --seed 0                  # all four workloads
    python benchmarks/e2e/run.py --workload dashboard --seed 1 --seconds 10
    python benchmarks/e2e/run.py --workload drilldown --trace 1
    python benchmarks/e2e/run.py --seed 0 --output out.json

Prints every metric by name with its unit, then one JSON line with
``correct``, ``attempted``, ``failed`` and the metrics ``BENCHMARK.json``
names.  Exits non-zero when a check fails.  See ``README.md`` here.
"""

from __future__ import annotations

import signal
import sys
from pathlib import Path

HERE = Path(__file__).resolve()
SRC = HERE.parents[2] / "src"


def _terminate(signum, frame) -> None:
    raise SystemExit(128 + signum)  # unwinds through the server teardown


if __name__ == "__main__":
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: {SRC / 'repro'} not found; run from a full checkout "
              f"of the repository", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(HERE.parents[1]))
    sys.path.insert(0, str(SRC))
    signal.signal(signal.SIGTERM, _terminate)
    from e2e.harness import main

    sys.exit(main())
