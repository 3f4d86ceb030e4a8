"""Shared fixtures for the test suite."""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

from repro.exploration.dataset import Dataset
from repro.workloads.census import make_census

# The scale sweep and the ledger writer are benchmark code, imported as
# top-level modules (``scale_sweep``, ``ledger``) the way the scripts
# beside them import them.
_BENCHMARKS = str(Path(__file__).resolve().parents[1] / "benchmarks")
if _BENCHMARKS not in sys.path:
    sys.path.append(_BENCHMARKS)


@pytest.fixture(scope="session")
def census() -> Dataset:
    """A small synthetic census shared across tests (8k rows, fixed seed)."""
    return make_census(8_000, seed=0)


@pytest.fixture()
def rng() -> np.random.Generator:
    """Fresh deterministic generator per test."""
    return np.random.default_rng(12345)


@pytest.fixture()
def tiny_dataset() -> Dataset:
    """A hand-written 12-row dataset with known counts."""
    return Dataset(
        {
            "color": ["red", "red", "blue", "blue", "blue", "green",
                      "red", "blue", "green", "red", "blue", "red"],
            "size": [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0, 11.0, 12.0],
            "flag": [True, False, True, False, True, False,
                     True, False, True, False, True, False],
        },
        categorical=["color", "flag"],
        name="tiny",
    )
