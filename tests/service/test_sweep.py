"""ScaleSweep: transports, grid execution, ledger semantics, the script."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.api.protocol import (
    MAX_PIPELINE_COMMANDS,
    command_from_dict,
    predicate_to_dict,
)
from repro.errors import InvalidParameterError
from repro.service.manager import SessionManager
from repro.workloads.census import make_census
from ledger import run_metadata
from scale_sweep import (
    DEFAULT_TRANSPORTS,
    TRANSPORTS,
    ScaleSweep,
    append_record,
    compile_gestures,
    format_cells,
    run_gestures_pipeline,
    run_gestures_service,
    _chunk_gestures,
    _synthetic_streams,
)

REPO_ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture(scope="module")
def small_cells():
    sweep = ScaleSweep(
        rows_grid=(1_000,), sessions_grid=(1, 3), steps=6, seed=0
    )
    return sweep.run()


class TestGestureCompilation:
    def test_gestures_group_shows_and_star_the_opening_hypothesis(self):
        base = make_census(1_000, seed=0)
        stream = _synthetic_streams(base, 1, 7, seed=0)[0]
        gestures = compile_gestures(stream)
        assert len(gestures) == 3  # 3 + 3 + 1 shows
        verbs = [[c["cmd"] for c in g] for g in gestures]
        assert verbs == [["show", "star", "show", "show"],
                        ["show", "star", "show", "show"],
                        ["show", "star"]]
        # every show keeps its stream position
        shown = [(c["attribute"], c["where"]) for g in gestures
                 for c in g if c["cmd"] == "show"]
        assert shown == [(a, predicate_to_dict(p)) for a, p in stream]
        # commands are addressed by the runner, not the compiler
        assert all("session_id" not in c for g in gestures for c in g)

    def test_chunking_packs_whole_gestures_only(self):
        gestures = compile_gestures([("a", None)] * 30)  # 10 gestures of 4
        chunks = _chunk_gestures(gestures, max_commands=10)
        assert all(
            sum(len(g) for g in chunk) <= 10 for chunk in chunks
        )
        assert sum(len(chunk) for chunk in chunks) == len(gestures)
        # no gesture was split: chunk sizes are multiples of whole gestures
        assert [sum(len(g) for g in c) for c in chunks][0] == 8  # 2 gestures

    def test_oversized_gesture_rejected(self):
        gesture = tuple({"cmd": "show", "attribute": "a"} for _ in range(65))
        with pytest.raises(InvalidParameterError):
            _chunk_gestures([gesture], max_commands=64)

    def test_envelope_bound_matches_protocol(self):
        """By default the pipeline runner fills envelopes up to, and
        never past, the protocol's command bound."""
        sizes = []

        class Recorder:
            def handle_dict(self, request):
                command_from_dict(request)  # the protocol accepts it
                sizes.append(len(request["commands"]))
                return {"ok": False, "error": {"code": "PROTOCOL"}}

        gestures = compile_gestures([("a", None)] * (3 * MAX_PIPELINE_COMMANDS))
        run_gestures_pipeline(Recorder(), "s1", gestures)
        assert max(sizes) == MAX_PIPELINE_COMMANDS
        assert sum(sizes) == sum(len(g) for g in gestures)


class TestSweep:
    def test_grid_shape(self, small_cells):
        # 1 row scale x 2 session counts x 2 workloads x 2 default
        # (in-process) transports; router cells are opt-in via
        # workers_grid and boot OS processes.
        assert len(small_cells) == 8
        assert {(c.sessions, c.workload, c.transport) for c in small_cells} == {
            (s, w, t)
            for s in (1, 3)
            for w in ("synthetic", "user-study")
            for t in DEFAULT_TRANSPORTS
        }

    def test_cells_measure_latency_and_throughput(self, small_cells):
        for cell in small_cells:
            assert cell.total_shows == cell.sessions * cell.steps_per_session
            assert cell.errors == 0
            assert cell.ok_shows == cell.total_shows
            # 6 shows per session -> 2 gestures, each with one star
            assert cell.gestures == 2 * cell.sessions
            assert cell.total_commands == cell.total_shows + cell.gestures
            assert cell.mean_show_latency_ms > 0
            assert cell.p95_show_latency_ms >= 0
            assert cell.mean_gesture_latency_ms > 0
            assert cell.throughput_shows_per_s > 0
            assert cell.throughput_gestures_per_s > 0
            assert 0.0 <= cell.cache_hit_rate <= 1.0

    def test_pipeline_cells_record_speedup(self, small_cells):
        for cell in small_cells:
            if cell.transport == "pipeline":
                assert cell.pipeline_speedup is not None
                assert cell.pipeline_speedup > 0
            else:
                assert cell.pipeline_speedup is None

    def test_transports_agree_on_decisions(self, small_cells):
        """Same workload through different transports: same discoveries."""
        by_key = {}
        for c in small_cells:
            by_key.setdefault((c.sessions, c.workload), set()).add(
                (c.discoveries, c.total_shows, c.errors)
            )
        for key, outcomes in by_key.items():
            assert len(outcomes) == 1, (key, outcomes)

    def test_transport_order_is_canonicalized(self):
        """run() annotates pipeline cells from the matching service cell,
        so service must be measured first whatever order the caller
        listed — and the speedup must be recorded either way."""
        sweep = ScaleSweep(
            rows_grid=(1_000,), sessions_grid=(1,), steps=6, seed=0,
            workloads=("synthetic",),
            transports=("pipeline", "service", "pipeline"),
        )
        assert sweep.transports == ("service", "pipeline")
        cells = sweep.run()
        assert [c.transport for c in cells] == ["service", "pipeline"]
        assert cells[1].pipeline_speedup is not None

    def test_repeats_pool_samples_but_keep_counts(self):
        base = make_census(1_000, seed=0)
        kwargs = dict(rows_grid=(1_000,), sessions_grid=(2,), steps=6, seed=0)
        once = ScaleSweep(repeats=1, **kwargs).run_cell(
            base, 2, "synthetic", "service")
        thrice = ScaleSweep(repeats=3, **kwargs).run_cell(
            base, 2, "synthetic", "service")
        assert thrice.total_shows == once.total_shows
        assert thrice.gestures == once.gestures
        assert thrice.discoveries == once.discoveries

    def test_invalid_parameters(self):
        with pytest.raises(InvalidParameterError):
            ScaleSweep(rows_grid=())
        with pytest.raises(InvalidParameterError):
            ScaleSweep(sessions_grid=(0,))
        with pytest.raises(InvalidParameterError):
            ScaleSweep(steps=0)
        with pytest.raises(InvalidParameterError):
            ScaleSweep(workloads=("nope",))
        with pytest.raises(InvalidParameterError):
            ScaleSweep(transports=("carrier-pigeon",))
        with pytest.raises(InvalidParameterError):
            ScaleSweep(transports=())
        with pytest.raises(InvalidParameterError):
            ScaleSweep(repeats=0)
        base = make_census(1_000, seed=0)
        with pytest.raises(InvalidParameterError):
            ScaleSweep(rows_grid=(1_000,)).run_cell(base, 1, "synthetic",
                                                    transport="nope")


class TestTransportEquivalence:
    """The sweep's own runners produce byte-identical decision logs."""

    def _run(self, transport, base, gestures_per_session, **session_kwargs):
        import numpy as np

        from repro.api.service import ExplorationService
        from repro.cluster import LocalWorker, RouterService

        ds = base.select_index(np.arange(base.n_rows, dtype=np.intp), name="v")
        manager = SessionManager()
        manager.register_dataset(ds, name="cell")
        sids = [
            manager.create_session("cell", **session_kwargs)
            for _ in gestures_per_session
        ]
        target = ExplorationService(manager=manager, max_sessions=None)
        if transport == "router":
            # the in-process model of a one-worker fleet
            router = RouterService()
            router.add_worker("w0", LocalWorker("w0", target))
            target = router
        runner = (run_gestures_service if transport == "service"
                  else run_gestures_pipeline)
        measurements = [
            runner(target, sid, gestures)
            for sid, gestures in zip(sids, gestures_per_session)
        ]
        logs = [manager.decision_log_bytes(sid) for sid in sids]
        return logs, measurements

    def test_three_transports_byte_identical_logs(self):
        base = make_census(1_500, seed=0)
        streams = _synthetic_streams(base, 3, 8, seed=1)
        gestures = [compile_gestures(s) for s in streams]
        results = {t: self._run(t, base, gestures) for t in TRANSPORTS}
        logs = {t: r[0] for t, r in results.items()}
        assert logs["service"] == logs["pipeline"] == logs["router"]

    def test_equivalence_survives_wealth_exhaustion(self):
        """The error-heavy regime: an exhausting procedure must fail the
        same shows on every transport and log the same decisions."""
        base = make_census(1_500, seed=0)
        streams = _synthetic_streams(base, 2, 10, seed=2)
        gestures = [compile_gestures(s) for s in streams]
        results = {
            t: self._run(t, base, gestures, procedure="gamma-fixed", gamma=3.0)
            for t in TRANSPORTS
        }
        logs = {t: r[0] for t, r in results.items()}
        assert logs["service"] == logs["pipeline"] == logs["router"]
        errors = {
            t: sum(m.errors for per in r[1] for m in per)
            for t, r in results.items()
        }
        assert errors["service"] > 0
        assert errors["service"] == errors["pipeline"] == errors["router"]


class TestErrorAccounting:
    @pytest.fixture(scope="class")
    def exhausted_cell(self):
        """A cell whose sessions run dry mid-workload (all-accept panels
        on a fast-spending gamma-fixed ledger)."""
        base = make_census(1_000, seed=0)
        sweep = ScaleSweep(
            rows_grid=(1_000,), sessions_grid=(2,), steps=12, seed=0,
            procedure="gamma-fixed", procedure_kwargs={"gamma": 3.0},
        )
        return sweep.run_cell(base, 2, "user-study", "service")

    def test_errors_surface_in_cell(self, exhausted_cell):
        assert exhausted_cell.errors > 0
        assert exhausted_cell.ok_shows < exhausted_cell.total_shows

    def test_throughput_counts_only_ok_shows(self, exhausted_cell):
        cell = exhausted_cell
        assert cell.throughput_shows_per_s == pytest.approx(
            cell.ok_shows / cell.wall_s
        )

    def test_format_cells_surfaces_errors(self, exhausted_cell):
        table = format_cells([exhausted_cell])
        assert "err" in table.splitlines()[0]
        assert f" {exhausted_cell.errors:>4d} " in table.splitlines()[2]

    def test_error_dominated_cells_record_no_speedup(self):
        """A cell that is mostly WEALTH_EXHAUSTED envelopes measures the
        error path, not batched gestures — no pipeline_speedup ratio."""
        sweep = ScaleSweep(
            rows_grid=(1_000,), sessions_grid=(2,), steps=12, seed=0,
            workloads=("user-study",),
            procedure="gamma-fixed", procedure_kwargs={"gamma": 3.0},
        )
        cells = sweep.run()
        pipeline = [c for c in cells if c.transport == "pipeline"]
        assert pipeline and all(c.errors > c.ok_shows for c in pipeline)
        assert all(c.pipeline_speedup is None for c in pipeline)


class TestLedger:
    def test_append_record_creates_and_accumulates(self, small_cells, tmp_path):
        path = tmp_path / "BENCH_scale.json"
        first = append_record(path, small_cells, extra={"label": "t1"})
        assert first["cells"][0]["mean_show_latency_ms"] > 0
        append_record(path, small_cells[:1], extra={"label": "t2"})
        payload = json.loads(path.read_text())
        assert payload["suite"] == "scale-sweep"
        assert [r["label"] for r in payload["records"]] == ["t1", "t2"]
        assert len(payload["records"][0]["cells"]) == len(small_cells)
        assert len(payload["records"][1]["cells"]) == 1

    def test_cells_carry_transport_fields(self, small_cells, tmp_path):
        path = tmp_path / "BENCH_scale.json"
        record = append_record(path, small_cells)
        for cell in record["cells"]:
            assert cell["transport"] in TRANSPORTS
            assert cell["ok_shows"] + 0 >= 0
            assert "mean_gesture_latency_ms" in cell
            if cell["transport"] == "pipeline":
                assert "pipeline_speedup" in cell
            else:
                assert "pipeline_speedup" not in cell

    def test_append_record_rejects_foreign_file(self, small_cells, tmp_path):
        path = tmp_path / "other.json"
        path.write_text('{"something": "else"}')
        with pytest.raises(InvalidParameterError):
            append_record(path, small_cells)

    def test_metadata_attributable(self):
        meta = run_metadata()
        assert set(meta) == {"git_sha", "python", "machine"}
        # inside this git repo the sha must resolve to a real commit
        assert meta["git_sha"] != "unknown"


class TestCliEntryPoints:
    def test_run_scale_sweep_script(self, tmp_path):
        """The acceptance-criteria path, at reduced scale: both default
        transports emit cells and pipeline cells record a speedup."""
        out = tmp_path / "BENCH_scale.json"
        result = subprocess.run(
            [
                sys.executable,
                str(REPO_ROOT / "benchmarks" / "run_scale_sweep.py"),
                "--rows", "1000", "--sessions", "2", "--steps", "6",
                "--output", str(out),
            ],
            capture_output=True,
            text=True,
            cwd=REPO_ROOT,
        )
        assert result.returncode == 0, result.stderr
        payload = json.loads(out.read_text())
        cells = payload["records"][0]["cells"]
        assert {c["workload"] for c in cells} == {"synthetic", "user-study"}
        assert {c["transport"] for c in cells} == set(DEFAULT_TRANSPORTS)
        for cell in cells:
            assert cell["mean_show_latency_ms"] > 0
            assert cell["throughput_shows_per_s"] > 0
            if cell["transport"] == "pipeline":
                assert cell["pipeline_speedup"] > 0
        assert "pipeline speedup" in result.stdout

    def test_run_scale_sweep_single_transport(self, tmp_path):
        out = tmp_path / "BENCH_scale.json"
        result = subprocess.run(
            [
                sys.executable,
                str(REPO_ROOT / "benchmarks" / "run_scale_sweep.py"),
                "--rows", "1000", "--sessions", "1", "--steps", "4",
                "--transport", "pipeline", "--label", "one-transport",
                "--output", str(out),
            ],
            capture_output=True,
            text=True,
            cwd=REPO_ROOT,
        )
        assert result.returncode == 0, result.stderr
        record = json.loads(out.read_text())["records"][0]
        assert {c["transport"] for c in record["cells"]} == {"pipeline"}
        assert record["transports"] == ["pipeline"]
        assert record["label"] == "one-transport"
        assert {"git_sha", "python", "machine", "timestamp", "steps", "seed",
                "cells"} <= set(record)

    def test_workload_generation_does_not_warm_measured_cell(self):
        """User-study workload generation probes masks for prevalence;
        those probes must land on the base dataset, not the measured
        view, or cells would start warm and report polluted hit rates."""
        base = make_census(1_000, seed=0)
        assert len(base._mask_cache) == 0
        cell = ScaleSweep(
            rows_grid=(1_000,), sessions_grid=(1,), steps=5, seed=0
        ).run_cell(base, 1, "user-study", "service")
        # generation traffic went to base...
        assert len(base._mask_cache) > 0
        # ...so the measured single-session cell still saw cold-cache
        # misses for its distinct panels
        assert cell.cache_hit_rate < 1.0
