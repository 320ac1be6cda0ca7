"""Campaign subsystem tests: spec expansion, store resume, parallel dispatch."""

import json
import math

import pytest

from repro.campaigns import (
    Cell,
    DeviceSpec,
    ResultStore,
    SweepSpec,
    cell_key,
    evaluate_cell,
    library_fingerprint,
    run_campaign,
    sweep_table,
)
from repro.campaigns.report import report_from_store, store_summary
from repro.campaigns.spec import CONFIGS, FIG23_DEVICE, PAPER_DEVICE
from repro.circuits.library import PAPER_SIZES
from repro.experiments import fig20_overall
from repro.experiments.common import BenchmarkCase, run_config

FP = "test-fingerprint"

SMALL_SPEC = SweepSpec(
    name="small",
    benchmarks=("QAOA", "Ising"),
    sizes=(4,),
    configs=("gau+par", "pert+zzx"),
)


def _fake_result(i: int) -> dict:
    return {"fidelity": 0.5 + i / 100.0, "execution_time_ns": 100.0 * i}


class TestSpec:
    def test_grid_expansion_order_is_deterministic(self):
        spec = SweepSpec(
            benchmarks=("QAOA",),
            sizes=(4, 6),
            configs=("gau+par", "pert+zzx"),
            device_seeds=(7, 8),
        )
        cells = spec.cells()
        assert len(cells) == 2 * 2 * 2
        assert cells == spec.cells()
        # config is the innermost axis; size outermost after benchmark.
        assert [c.config for c in cells[:2]] == ["gau+par", "pert+zzx"]
        assert cells[0].num_qubits == 4 and cells[-1].num_qubits == 6
        assert {c.device.seed for c in cells} == {7, 8}

    def test_paper_sizes_respect_full_flag(self):
        reduced = SweepSpec(benchmarks=("QAOA",)).sizes_for("QAOA")
        full = SweepSpec(benchmarks=("QAOA",), full=True).sizes_for("QAOA")
        assert len(reduced) == 2
        assert len(full) > len(reduced)
        assert max(full) <= 12  # bounded by the 3x4 device

    def test_cell_validation(self):
        with pytest.raises(ValueError):
            Cell("nope", 4, "gau+par")
        with pytest.raises(ValueError):
            Cell("QAOA", 4, "nope")
        with pytest.raises(ValueError):
            Cell("QAOA", 4, "gau+par", kind="density")  # missing t1/t2

    def test_cell_and_device_bounds(self):
        with pytest.raises(ValueError, match="grid rows and cols"):
            DeviceSpec(rows=0, cols=-1)
        with pytest.raises(ValueError, match="num_qubits"):
            Cell("QAOA", -3, "gau+par")
        with pytest.raises(ValueError, match="num_qubits"):
            Cell("QAOA", 13, "gau+par")  # the paper device has 12
        with pytest.raises(ValueError, match="density cells"):
            Cell(
                "QAOA", 40, "gau+par", kind="density",
                device=DeviceSpec(rows=7, cols=7), t1_us=100.0, t2_us=100.0,
            )
        # The density register is the whole device, not the circuit.
        with pytest.raises(ValueError, match="density cells are capped"):
            Cell("QAOA", 4, "gau+par", kind="density", t1_us=100.0, t2_us=100.0)
        Cell(
            "QAOA", 6, "gau+par", kind="density", device=FIG23_DEVICE,
            t1_us=100.0, t2_us=100.0,
        )
        # Trajectories are statevector-sized: no density cap.
        Cell(
            "QAOA", 12, "gau+par", backend="trajectories",
            t1_us=100.0, t2_us=100.0,
        )
        # Statevector and trajectories cells simulate the whole device.
        big = DeviceSpec(rows=7, cols=7)
        for size in (40, 4):
            with pytest.raises(ValueError, match="statevector cells are capped"):
                Cell("QAOA", size, "gau+par", device=big)
            with pytest.raises(ValueError, match="trajectories cells are capped"):
                Cell(
                    "QAOA", size, "gau+par", backend="trajectories",
                    device=big, t1_us=100.0, t2_us=100.0,
                )
        # Analysis kinds simulate nothing, so they keep any device size.
        Cell("QAOA", 40, "gau+par", kind="exec_time", device=big)
        Cell("QAOA", 4, "pert+zzx", kind="couplings", device=big)

    def test_every_paper_grid_size_constructs(self):
        for benchmark, sizes in PAPER_SIZES.items():
            for size in sizes:
                for config in CONFIGS:
                    Cell(benchmark, size, config, device=PAPER_DEVICE)
        full = SweepSpec(
            benchmarks=tuple(PAPER_SIZES), configs=tuple(CONFIGS), full=True
        )
        assert {c.num_qubits for c in full.cells()} == {
            size for sizes in PAPER_SIZES.values() for size in sizes
        }
        fig23 = SweepSpec(
            benchmarks=tuple(PAPER_SIZES),
            full=True,
            kind="density",
            device=FIG23_DEVICE,
            t1_values_us=(50.0,),
        )
        assert max(c.num_qubits for c in fig23.cells()) == 6

    def test_key_depends_on_cell_and_fingerprint(self):
        a = Cell("QAOA", 4, "gau+par")
        b = Cell("QAOA", 4, "pert+zzx")
        assert cell_key(a, FP) != cell_key(b, FP)
        assert cell_key(a, FP) != cell_key(a, "other")
        assert cell_key(a, FP) == cell_key(Cell("QAOA", 4, "gau+par"), FP)

    def test_cell_payload_round_trip(self):
        cell = Cell(
            "QAOA",
            6,
            "pert+zzx",
            kind="density",
            device=DeviceSpec(2, 3, seed=9),
            t1_us=100.0,
            t2_us=100.0,
            zzx=(("alpha", 0.5),),
        )
        assert Cell.from_payload(cell.payload()) == cell


class TestStore:
    def test_round_trip_through_disk(self, tmp_path):
        path = tmp_path / "store.jsonl"
        store = ResultStore(path)
        cells = SMALL_SPEC.cells()
        for i, cell in enumerate(cells):
            store.put(cell, _fake_result(i), fingerprint=FP, elapsed_s=0.1)
        reloaded = ResultStore(path)
        assert len(reloaded) == len(cells)
        for i, cell in enumerate(cells):
            assert reloaded.result_for(cell, FP) == _fake_result(i)
        assert reloaded.pending(cells, FP) == []
        assert reloaded.pending(cells, "other-fp") == list(cells)

    def test_last_record_wins(self, tmp_path):
        path = tmp_path / "store.jsonl"
        cell = Cell("QAOA", 4, "gau+par")
        store = ResultStore(path)
        store.put(cell, {"fidelity": 0.1}, fingerprint=FP)
        store.put(cell, {"fidelity": 0.2}, fingerprint=FP)
        assert ResultStore(path).result_for(cell, FP) == {"fidelity": 0.2}

    def test_truncated_trailing_line_is_tolerated(self, tmp_path):
        path = tmp_path / "store.jsonl"
        store = ResultStore(path)
        cells = SMALL_SPEC.cells()
        for i, cell in enumerate(cells):
            store.put(cell, _fake_result(i), fingerprint=FP)
        # Simulate a kill mid-append: chop the file inside the last record.
        raw = path.read_text()
        path.write_text(raw[: len(raw) - 25])
        reloaded = ResultStore(path).load()
        assert len(reloaded) == len(cells) - 1
        assert reloaded.skipped_lines == 1
        assert reloaded.pending(cells, FP) == [cells[-1]]

    def test_memory_store(self):
        store = ResultStore(None)
        cell = Cell("QAOA", 4, "gau+par")
        store.put(cell, {"fidelity": 0.9}, fingerprint=FP)
        assert store.result_for(cell, FP) == {"fidelity": 0.9}

    def test_append_after_truncation_repairs_the_tail(self, tmp_path):
        """Regression: appending to a newline-less tail must not weld records.

        Before the tail-repair fix, a store whose last line was chopped by a
        kill mid-append would glue the next record onto the partial line,
        losing *both*; now the partial line is sealed and only it is lost.
        """
        path = tmp_path / "store.jsonl"
        store = ResultStore(path)
        cells = SMALL_SPEC.cells()
        for i, cell in enumerate(cells[:-1]):
            store.put(cell, _fake_result(i), fingerprint=FP)
        # Chop mid-record with no trailing newline (kill-mid-append tail).
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) - 25])
        appender = ResultStore(path)
        appender.put(cells[-1], _fake_result(99), fingerprint=FP)
        reloaded = ResultStore(path).load()
        assert reloaded.skipped_lines == 1  # only the partial line is lost
        assert reloaded.result_for(cells[-1], FP) == _fake_result(99)
        for i, cell in enumerate(cells[:-2]):
            assert reloaded.result_for(cell, FP) == _fake_result(i)

    def test_failure_records_round_trip_and_pend(self, tmp_path):
        path = tmp_path / "store.jsonl"
        cells = SMALL_SPEC.cells()
        store = ResultStore(path)
        error = {
            "type": "RuntimeError",
            "message": "boom",
            "traceback": "...",
            "attempts": 3,
            "quarantined": True,
        }
        store.put(cells[0], None, fingerprint=FP, status="error", error=error)
        store.put(cells[1], _fake_result(1), fingerprint=FP)
        reloaded = ResultStore(path)
        assert len(reloaded.failures()) == 1
        assert reloaded.failures()[0]["error"] == error
        # Quarantined failures are durable: pending only with the flag.
        assert reloaded.pending(cells[:2], FP) == []
        assert reloaded.pending(cells[:2], FP, retry_quarantined=True) == [
            cells[0]
        ]

    def test_unknown_status_rejected(self):
        with pytest.raises(ValueError):
            ResultStore(None).put(
                SMALL_SPEC.cells()[0], None, fingerprint=FP, status="exploded"
            )


class TestRunner:
    def test_serial_matches_inline_harness_exactly(self):
        campaign = run_campaign(SMALL_SPEC)
        for cell in SMALL_SPEC.cells():
            legacy = run_config(
                BenchmarkCase(cell.benchmark, cell.num_qubits), cell.config
            )
            assert campaign[cell]["fidelity"] == legacy.fidelity
            assert campaign[cell]["execution_time_ns"] == legacy.execution_time_ns

    def test_resume_skips_completed_cells(self, tmp_path):
        path = tmp_path / "store.jsonl"
        first = run_campaign(SMALL_SPEC, ResultStore(path))
        assert first.computed == 4 and first.cached == 0

        # Simulate an interrupted sweep: drop the last two records.
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:2]) + "\n")

        second = run_campaign(SMALL_SPEC, ResultStore(path))
        assert second.computed == 2 and second.cached == 2
        for cell in SMALL_SPEC.cells():
            assert second[cell] == first[cell]

        third = run_campaign(SMALL_SPEC, ResultStore(path))
        assert third.computed == 0 and third.cached == 4

    def test_fingerprint_change_invalidates_store(self, tmp_path):
        path = tmp_path / "store.jsonl"
        run_campaign(SMALL_SPEC, ResultStore(path), fingerprint="fp-a")
        again = run_campaign(SMALL_SPEC, ResultStore(path), fingerprint="fp-b")
        assert again.computed == 4 and again.cached == 0

    def test_parallel_equals_serial_on_fig20_grid(self, tmp_path):
        """Acceptance: workers=4 fidelities identical to workers=1."""
        spec = SweepSpec(
            name="fig20-reduced",
            benchmarks=("QAOA", "Ising", "GRC"),
            sizes=(4,),
            configs=("gau+par", "optctrl+zzx", "pert+zzx"),
        )
        serial = run_campaign(spec, workers=1)
        parallel = run_campaign(
            spec,
            ResultStore(tmp_path / "par.jsonl"),
            workers=4,
            dispatch="parallel",  # pin a real pool; auto may go serial here
        )
        assert parallel.computed == len(spec.cells())
        assert parallel.dispatch == "parallel" and parallel.workers > 1
        for cell in spec.cells():
            assert parallel[cell] == serial[cell]

    def test_duplicate_cells_evaluated_once(self):
        cells = list(SMALL_SPEC.cells())
        campaign = run_campaign(cells + cells)
        assert campaign.computed == len(cells)
        assert len(campaign.records) == len(cells)

    def test_pool_workers_cap_blas_threads(self, monkeypatch, tmp_path):
        """Every OpenBLAS in each of 2 workers runs cores // 2 threads."""
        from repro.campaigns import blas, runner
        from repro.campaigns.costmodel import available_cores

        def report_threads(cell):
            return {"threads": blas.blas_threads()}

        parent = blas.blas_threads()
        cap = max(1, available_cores() // 2)
        monkeypatch.setattr(runner, "evaluate_cell", report_threads)
        campaign = run_campaign(
            SMALL_SPEC,
            ResultStore(tmp_path / "blas.jsonl"),
            workers=2,
            fingerprint=FP,
            dispatch="parallel",
        )
        assert campaign.dispatch == "parallel" and campaign.workers == 2
        expected = {path: min(count, cap) for path, count in parent.items()}
        for cell in SMALL_SPEC.cells():
            assert campaign[cell]["threads"] == expected
        # The cap applies to the workers only, never to the parent.
        assert blas.blas_threads() == parent

    def test_blas_cap_without_openblas_does_nothing(self, monkeypatch):
        from repro.campaigns import blas

        monkeypatch.setattr(blas, "loaded_openblas", lambda: {})
        assert blas.cap_blas_threads(2) == {}
        assert blas.blas_threads() == {}

    def test_analysis_kinds(self):
        exec_cell = Cell("QAOA", 4, "pert+zzx", kind="exec_time")
        out = evaluate_cell(exec_cell)
        assert out["execution_time_ns"] > 0
        coup = evaluate_cell(Cell("QAOA", 4, "gau+par", kind="couplings"))
        assert coup["value"] > 0


class TestReport:
    def test_sweep_table_pivot(self):
        campaign = run_campaign(SMALL_SPEC)
        table = sweep_table(SMALL_SPEC, campaign)
        assert len(table.rows) == 2
        assert set(table.rows[0]) == {"benchmark", "gau+par", "pert+zzx"}
        assert table.rows[0]["pert+zzx"] > table.rows[0]["gau+par"]

    def test_report_from_store_flags_missing(self, tmp_path):
        path = tmp_path / "store.jsonl"
        run_campaign(SMALL_SPEC, ResultStore(path))
        bigger = SweepSpec(
            name="bigger",
            benchmarks=("QAOA", "Ising", "GRC"),
            sizes=(4,),
            configs=("gau+par", "pert+zzx"),
        )
        result, missing = report_from_store(bigger, path)
        assert len(result.rows) == 3
        assert len(missing) == 2  # the GRC cells were never run

    def test_store_summary_counts(self, tmp_path):
        path = tmp_path / "store.jsonl"
        run_campaign(SMALL_SPEC, ResultStore(path))
        summary = store_summary(path)
        assert sum(r["cells"] for r in summary.rows) == 4

    def test_fingerprint_is_stable_within_process(self):
        assert library_fingerprint() == library_fingerprint()
        assert len(library_fingerprint()) == 12

    def _store_with_failure(self, tmp_path):
        """SMALL_SPEC store: first cell a quarantined failure, rest ok."""
        path = tmp_path / "store.jsonl"
        cells = SMALL_SPEC.cells()
        store = ResultStore(path)
        store.put(
            cells[0],
            None,
            fingerprint=FP,
            status="error",
            error={"type": "RuntimeError", "quarantined": True},
        )
        for i, cell in enumerate(cells[1:], start=1):
            store.put(cell, _fake_result(i), fingerprint=FP)
        return path, cells

    def test_report_from_store_separates_failed_from_missing(self, tmp_path):
        path, cells = self._store_with_failure(tmp_path)
        result, missing = report_from_store(SMALL_SPEC, path, fingerprint=FP)
        assert missing == []  # the failed cell ran — it is not "missing"
        assert "1 failed" in result.notes
        assert "3 stored" in result.notes
        # The failed cell renders as NaN in its config column.
        assert math.isnan(result.rows[0][cells[0].config])
        assert not math.isnan(result.rows[0][cells[1].config])

    def test_store_summary_surfaces_failures(self, tmp_path):
        path, _ = self._store_with_failure(tmp_path)
        summary = store_summary(path)
        assert sum(r["errors"] for r in summary.rows) == 1
        assert sum(r["cells"] for r in summary.rows) == 4
        assert "1 failure record(s)" in summary.notes

    def test_store_summary_warns_on_skipped_lines(self, tmp_path):
        path, _ = self._store_with_failure(tmp_path)
        # Corrupt one line the way disk damage does.
        lines = path.read_bytes().splitlines(keepends=True)
        lines[1] = b"{not json at all\n"
        path.write_bytes(b"".join(lines))
        summary = store_summary(path)
        assert "WARNING: 1 malformed line(s) skipped" in summary.notes

    def test_sweep_table_renders_failed_cells_as_nan(self, tmp_path):
        path, cells = self._store_with_failure(tmp_path)
        campaign = run_campaign(SMALL_SPEC, ResultStore(path), fingerprint=FP)
        assert campaign.computed == 0 and campaign.failed == 1
        table = sweep_table(SMALL_SPEC, campaign)
        assert ", 1 failed" in campaign.summary
        assert math.isnan(table.rows[0][cells[0].config])


class TestExperimentIntegration:
    def test_fig20_through_store_resumes(self, tmp_path):
        path = tmp_path / "fig20.jsonl"
        cases = [BenchmarkCase("QAOA", 4)]
        first = fig20_overall.run(cases=cases, store=path)
        second = fig20_overall.run(cases=cases, store=path)
        assert first.rows == second.rows
        assert len(ResultStore(path)) == 3  # one case x three configs

    def test_fig20_multi_seed_rows(self):
        cases = [BenchmarkCase("QAOA", 4)]
        result = fig20_overall.run(cases=cases, seeds=(7, 8))
        assert len(result.rows) == 2
        assert [r["seed"] for r in result.rows] == [7, 8]
        # Different crosstalk samples -> different baseline fidelities.
        assert result.rows[0]["gau+par"] != result.rows[1]["gau+par"]
