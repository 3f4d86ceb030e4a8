"""Benchmark-ledger plumbing shared by every ``BENCH_*.json`` writer.

Three ledgers accumulate performance history in this repo —
``BENCH_interactive.json`` (engine latency), ``BENCH_scale.json``
(many-session sweep) and ``BENCH_api.json`` (wire-protocol round trips) —
and every record in them must be *attributable*: which commit, which
python, which machine.  This module is the single home of that
attribution block and of the append-only record format, so the writers
beside it (``scale_sweep.py``, ``run_benchmarks.py`` and
``run_api_bench.py``) can never drift apart on either.  The linter's
``LED001`` exempts this file and rejects a ``BENCH_*`` write anywhere
else.
"""

from __future__ import annotations

import contextlib
import json
import os
import platform
import subprocess
import time
from pathlib import Path
from typing import Any, Mapping

from repro.errors import InvalidParameterError

__all__ = ["run_metadata", "utc_timestamp", "append_ledger_record"]


def run_metadata() -> dict:
    """Attribution block for benchmark records (sha, python, machine).

    On detached/shallow CI checkouts where ``git rev-parse`` fails,
    ``GITHUB_SHA`` keeps the record attributable.
    """
    sha = "unknown"
    with contextlib.suppress(OSError, subprocess.CalledProcessError):
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            check=True,
            cwd=Path(__file__).resolve().parent,
        )
        sha = out.stdout.strip() or "unknown"
    if sha == "unknown":
        sha = os.environ.get("GITHUB_SHA", "unknown")
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "machine": platform.machine(),
    }


def utc_timestamp() -> str:
    """ISO-8601 UTC second precision, the ledgers' timestamp format."""
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())


def append_ledger_record(
    path: Path | str,
    suite: str,
    fields: Mapping[str, Any],
) -> dict:
    """Append one attributable record to the *suite* ledger at *path*.

    The file holds ``{"suite": <suite>, "records": [...]}``; every call
    appends one record (``run_metadata`` + ``timestamp`` + *fields*) so
    history accumulates across machines and commits instead of being
    overwritten.  A file that exists but belongs to a different suite is
    rejected.  Returns the record written.
    """
    path = Path(path)
    if path.exists():
        payload = json.loads(path.read_text())
        if payload.get("suite") != suite or not isinstance(
            payload.get("records"), list
        ):
            raise InvalidParameterError(f"{path} is not a {suite} ledger")
    else:
        payload = {"suite": suite, "records": []}
    record = dict(run_metadata())
    record["timestamp"] = utc_timestamp()
    record.update(fields)
    payload["records"].append(record)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return record
