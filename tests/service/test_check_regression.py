"""The CI perf-regression gate: comparison logic and exit codes."""

import importlib.util
import json
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]

_spec = importlib.util.spec_from_file_location(
    "check_regression", REPO_ROOT / "benchmarks" / "check_regression.py"
)
check_regression = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check_regression)


def _record(means: dict[str, float]) -> dict:
    return {
        "suite": "interactive-latency",
        "benchmarks": {
            name: {"mean_s": mean, "stddev_s": mean / 10, "rounds": 100}
            for name, mean in means.items()
        },
    }


def _write(tmp_path: Path, name: str, means: dict[str, float]) -> Path:
    path = tmp_path / name
    path.write_text(json.dumps(_record(means)))
    return path


class TestCompare:
    def test_within_threshold_passes(self):
        rows, failures = check_regression.compare(
            {"a": 1e-3}, {"a": 2e-3}, threshold=2.5
        )
        assert failures == []
        assert rows[0]["status"] == "ok"
        assert rows[0]["ratio"] == pytest.approx(2.0)

    def test_regression_beyond_threshold_fails(self):
        rows, failures = check_regression.compare(
            {"a": 1e-3, "b": 1e-3}, {"a": 3e-3, "b": 1e-3}, threshold=2.5
        )
        assert len(failures) == 1 and "a" in failures[0]
        assert {r["name"]: r["status"] for r in rows} == {"a": "fail", "b": "ok"}

    def test_speedup_passes(self):
        _, failures = check_regression.compare({"a": 1e-3}, {"a": 1e-5}, 2.5)
        assert failures == []

    def test_missing_benchmark_fails(self):
        rows, failures = check_regression.compare({"a": 1e-3, "b": 1e-3}, {"a": 1e-3}, 2.5)
        assert any("missing" in f for f in failures)
        assert {r["name"]: r["status"] for r in rows} == {"a": "ok", "b": "missing"}

    def test_new_benchmark_reported_not_failed(self):
        rows, failures = check_regression.compare({"a": 1e-3}, {"a": 1e-3, "c": 5.0}, 2.5)
        assert failures == []
        assert {r["name"]: r["status"] for r in rows} == {"a": "ok", "c": "new"}


class TestMainAndSummary:
    def test_exit_zero_and_summary_table(self, tmp_path, monkeypatch, capsys):
        baseline = _write(tmp_path, "base.json", {"a": 1e-3})
        candidate = _write(tmp_path, "cand.json", {"a": 1.5e-3})
        summary = tmp_path / "summary.md"
        monkeypatch.setenv("GITHUB_STEP_SUMMARY", str(summary))
        rc = check_regression.main(
            ["--baseline", str(baseline), "--candidate", str(candidate)]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "| `a` |" in out and "perf gate passed" in out
        assert "| baseline mean | candidate mean |" in summary.read_text()

    def test_exit_one_on_regression(self, tmp_path, monkeypatch, capsys):
        monkeypatch.delenv("GITHUB_STEP_SUMMARY", raising=False)
        baseline = _write(tmp_path, "base.json", {"a": 1e-3})
        candidate = _write(tmp_path, "cand.json", {"a": 1e-2})
        rc = check_regression.main(
            ["--baseline", str(baseline), "--candidate", str(candidate)]
        )
        assert rc == 1
        assert "REGRESSION" in capsys.readouterr().out

    def test_threshold_flag_respected(self, tmp_path, monkeypatch):
        monkeypatch.delenv("GITHUB_STEP_SUMMARY", raising=False)
        baseline = _write(tmp_path, "base.json", {"a": 1e-3})
        candidate = _write(tmp_path, "cand.json", {"a": 4e-3})
        assert check_regression.main(
            ["--baseline", str(baseline), "--candidate", str(candidate),
             "--threshold", "5.0"]
        ) == 0

    def test_gate_against_committed_baseline_format(self):
        """The committed BENCH_interactive.json must be readable by the gate."""
        means = check_regression.load_means(REPO_ROOT / "BENCH_interactive.json")
        assert means  # non-empty: the gate has something to guard
        assert all(m > 0 for m in means.values())

    def test_api_baseline_carries_the_pipeline_cells(self):
        """The committed BENCH_api.json must expose the v2 gesture cells the
        CI gate requires (they may never silently vanish again)."""
        means = check_regression.load_means(REPO_ROOT / "BENCH_api.json")
        for cell in ("http_gesture_sequential", "http_gesture_pipeline",
                     "http_gesture_pipeline_batch16"):
            assert cell in means


class TestRequireAndSpeedupGates:
    def test_require_missing_cell_fails(self, tmp_path, monkeypatch, capsys):
        monkeypatch.delenv("GITHUB_STEP_SUMMARY", raising=False)
        baseline = _write(tmp_path, "base.json", {"a": 1e-3})
        candidate = _write(tmp_path, "cand.json", {"a": 1e-3})
        rc = check_regression.main(
            ["--baseline", str(baseline), "--candidate", str(candidate),
             "--require", "a", "--require", "ghost"]
        )
        assert rc == 1
        assert "ghost: required benchmark missing" in capsys.readouterr().out

    def test_require_present_cell_passes(self, tmp_path, monkeypatch):
        monkeypatch.delenv("GITHUB_STEP_SUMMARY", raising=False)
        baseline = _write(tmp_path, "base.json", {"a": 1e-3})
        candidate = _write(tmp_path, "cand.json", {"a": 1e-3, "new": 2e-3})
        assert check_regression.main(
            ["--baseline", str(baseline), "--candidate", str(candidate),
             "--require", "new"]
        ) == 0

    def test_min_speedup_enforced(self, tmp_path, monkeypatch, capsys):
        monkeypatch.delenv("GITHUB_STEP_SUMMARY", raising=False)
        baseline = _write(tmp_path, "base.json", {"slow": 3e-3})
        candidate = _write(tmp_path, "cand.json",
                           {"slow": 3e-3, "fast": 1e-3})
        args = ["--baseline", str(baseline), "--candidate", str(candidate)]
        assert check_regression.main(
            args + ["--min-speedup", "slow:fast:2.5"]
        ) == 0
        assert check_regression.main(
            args + ["--min-speedup", "slow:fast:4.0"]
        ) == 1
        assert "below the required 4.0x" in capsys.readouterr().out

    def test_min_speedup_with_missing_cell_fails(self, tmp_path, monkeypatch):
        monkeypatch.delenv("GITHUB_STEP_SUMMARY", raising=False)
        baseline = _write(tmp_path, "base.json", {"a": 1e-3})
        candidate = _write(tmp_path, "cand.json", {"a": 1e-3})
        assert check_regression.main(
            ["--baseline", str(baseline), "--candidate", str(candidate),
             "--min-speedup", "a:ghost:2.0"]
        ) == 1

    def test_bad_speedup_spec_is_a_usage_error(self, tmp_path):
        baseline = _write(tmp_path, "base.json", {"a": 1e-3})
        with pytest.raises(SystemExit) as exc_info:
            check_regression.main(
                ["--baseline", str(baseline), "--candidate", str(baseline),
                 "--min-speedup", "nonsense"]
            )
        assert exc_info.value.code == 2  # argparse usage error


def _scale_record(cells: list[dict]) -> dict:
    return {"suite": "scale-sweep", "records": [{"cells": cells}]}


def _scale_cell(rows, sessions, workload, transport, gesture_ms,
                workers=None) -> dict:
    cell = {"rows": rows, "sessions": sessions, "workload": workload,
            "transport": transport, "mean_gesture_latency_ms": gesture_ms,
            "mean_show_latency_ms": gesture_ms / 3}
    if workers is not None:
        cell["workers"] = workers
    return cell


class TestScaleCells:
    def test_cells_become_named_pseudo_benchmarks(self, tmp_path):
        path = tmp_path / "scale.json"
        path.write_text(json.dumps(_scale_record([
            _scale_cell(100_000, 16, "synthetic", "service", 2.0),
            _scale_cell(100_000, 16, "synthetic", "pipeline", 1.0),
        ])))
        means = check_regression.load_means(path)
        assert means == {
            "scale_100000x16_synthetic_service": pytest.approx(2.0e-3),
            "scale_100000x16_synthetic_pipeline": pytest.approx(1.0e-3),
        }

    def test_router_fleet_sizes_are_distinct_benchmarks(self, tmp_path):
        """workers=1 and workers=4 cells must never collide under one
        name — their ratio IS the scaling curve the CI gate enforces."""
        path = tmp_path / "scale.json"
        path.write_text(json.dumps(_scale_record([
            _scale_cell(100_000, 16, "synthetic", "router", 4.0, workers=1),
            _scale_cell(100_000, 16, "synthetic", "router", 1.0, workers=4),
        ])))
        means = check_regression.load_means(path)
        assert means == {
            "scale_100000x16_synthetic_router_w1": pytest.approx(4.0e-3),
            "scale_100000x16_synthetic_router_w4": pytest.approx(1.0e-3),
        }

    def test_scaling_curve_gate_on_worker_cells(self, tmp_path, monkeypatch,
                                                capsys):
        monkeypatch.delenv("GITHUB_STEP_SUMMARY", raising=False)
        path = tmp_path / "scale.json"
        path.write_text(json.dumps(_scale_record([
            _scale_cell(100_000, 16, "synthetic", "router", 3.0, workers=1),
            _scale_cell(100_000, 16, "synthetic", "router", 1.0, workers=4),
        ])))
        gate = ["--candidate", str(path), "--min-speedup",
                "scale_100000x16_synthetic_router_w1:"
                "scale_100000x16_synthetic_router_w4:{}"]
        assert check_regression.main(
            [a.format("2.5") for a in gate]) == 0
        assert check_regression.main(
            [a.format("3.5") for a in gate]) == 1
        assert "below the required 3.5x" in capsys.readouterr().out

    def test_legacy_cells_without_gesture_metric_are_skipped(self, tmp_path):
        """Pre-transport-axis cells carry only show latency; gating that
        under the same name as gesture latency would make every
        baseline-vs-candidate scale comparison a false ~3-4x regression
        (a gesture is several shows), so they yield no pseudo-benchmark."""
        path = tmp_path / "scale.json"
        cell = {"rows": 10_000, "sessions": 16, "workload": "synthetic",
                "mean_show_latency_ms": 0.5}
        path.write_text(json.dumps(_scale_record([cell])))
        assert check_regression.load_means(path) == {}

    def test_structural_gate_without_baseline(self, tmp_path, monkeypatch,
                                              capsys):
        monkeypatch.delenv("GITHUB_STEP_SUMMARY", raising=False)
        path = tmp_path / "scale.json"
        path.write_text(json.dumps(_scale_record([
            _scale_cell(100_000, 16, "synthetic", "service", 2.0),
            _scale_cell(100_000, 16, "synthetic", "pipeline", 1.0),
        ])))
        rc = check_regression.main([
            "--candidate", str(path),
            "--require", "scale_100000x16_synthetic_pipeline",
            "--min-speedup",
            "scale_100000x16_synthetic_service:"
            "scale_100000x16_synthetic_pipeline:1.0",
        ])
        assert rc == 0
        assert "structural gate passed" in capsys.readouterr().out
        rc = check_regression.main([
            "--candidate", str(path),
            "--require", "scale_100000x16_user-study_pipeline",
        ])
        assert rc == 1

    def test_no_baseline_and_no_gates_is_a_usage_error(self, tmp_path):
        path = _write(tmp_path, "cand.json", {"a": 1e-3})
        with pytest.raises(SystemExit) as exc_info:
            check_regression.main(["--candidate", str(path)])
        assert exc_info.value.code == 2

    def test_committed_scale_ledger_carries_transport_cells(self):
        """The committed BENCH_scale.json's latest record must expose the
        transport cells the CI gates require."""
        means = check_regression.load_means(REPO_ROOT / "BENCH_scale.json")
        for transport in ("service", "pipeline", "router_w1", "router_w4"):
            assert f"scale_100000x16_synthetic_{transport}" in means
