"""Fault-tolerance tests: supervision, injection, pool recovery, chaos."""

import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.campaigns import (
    CampaignAbort,
    Cell,
    ResultStore,
    RetryPolicy,
    SweepSpec,
    run_campaign,
    supervised_evaluate,
)
from repro.campaigns import faults as faults_mod
from repro.campaigns import runner as runner_mod
from repro.campaigns.chaos import canonical_records, convergence_problems
from repro.campaigns.faults import (
    ENV_FAULT,
    FaultSpec,
    FaultSpecError,
    corrupt_store,
)

FP = "test-fp"
SPEC = SweepSpec(
    name="small",
    benchmarks=("QAOA", "Ising"),
    sizes=(4,),
    configs=("gau+par", "pert+zzx"),
)
CELL = Cell("QAOA", 4, "gau+par")
#: No-backoff supervision so retry tests don't sleep.
FAST = RetryPolicy(max_attempts=3, backoff_s=0.0)


@pytest.fixture(autouse=True)
def _clean_fault_state(monkeypatch):
    """Every test starts with no active fault and fresh firing budgets."""
    monkeypatch.delenv(ENV_FAULT, raising=False)
    faults_mod._LOCAL_BUDGETS.clear()
    yield
    faults_mod._LOCAL_BUDGETS.clear()


def _set_fault(monkeypatch, spec: str) -> None:
    monkeypatch.setenv(ENV_FAULT, spec)


class TestFaultSpec:
    def test_defaults(self):
        spec = FaultSpec.parse("raise")
        assert spec.kind == "raise"
        assert spec.times == 1 and spec.match == "" and spec.budget is None

    def test_full_spec(self, tmp_path):
        spec = FaultSpec.parse(
            f"hang:times=3:secs=1.5:match=QAOA:budget={tmp_path}/b"
        )
        assert spec.kind == "hang"
        assert spec.times == 3
        assert spec.secs == 1.5
        assert spec.match == "QAOA"
        assert spec.budget == f"{tmp_path}/b"

    @pytest.mark.parametrize(
        "bad",
        ["", "explode", "raise:times=0", "raise:times=x", "hang:secs=abc",
         "raise:nonsense=1", "raise:times"],
    )
    def test_malformed_rejected(self, bad):
        with pytest.raises(FaultSpecError):
            FaultSpec.parse(bad)

    def test_local_budget_limits_firings(self, monkeypatch):
        _set_fault(monkeypatch, "raise:times=2")
        fired = 0
        for _ in range(5):
            try:
                faults_mod.maybe_fault(CELL)
            except faults_mod.InjectedFault:
                fired += 1
        assert fired == 2

    def test_file_budget_limits_firings(self, monkeypatch, tmp_path):
        budget = tmp_path / "budget"
        _set_fault(monkeypatch, f"raise:times=1:budget={budget}")
        with pytest.raises(faults_mod.InjectedFault):
            faults_mod.maybe_fault(CELL)
        faults_mod.maybe_fault(CELL)  # budget exhausted: no-op
        assert budget.stat().st_size == 1

    def test_match_filters_cells(self, monkeypatch):
        _set_fault(monkeypatch, "raise:times=9:match=Ising")
        faults_mod.maybe_fault(CELL)  # QAOA cell: not matched
        with pytest.raises(faults_mod.InjectedFault):
            faults_mod.maybe_fault(Cell("Ising", 4, "gau+par"))


class TestCorruptStore:
    def _filled(self, tmp_path) -> Path:
        path = tmp_path / "s.jsonl"
        store = ResultStore(path)
        for i, cell in enumerate(SPEC.cells()):
            store.put(cell, {"fidelity": 0.5 + i / 10}, fingerprint=FP)
        return path

    def test_truncate_leaves_unterminated_partial_line(self, tmp_path):
        path = self._filled(tmp_path)
        corrupt_store(path, "truncate")
        raw = path.read_bytes()
        assert not raw.endswith(b"\n")
        assert ResultStore(path).load().skipped_lines == 1

    def test_garbage_corrupts_a_middle_line(self, tmp_path):
        path = self._filled(tmp_path)
        corrupt_store(path, "garbage")
        store = ResultStore(path).load()
        assert store.skipped_lines == 1
        assert len(store) == len(SPEC.cells()) - 1

    def test_empty_and_unknown_mode_rejected(self, tmp_path):
        empty = tmp_path / "empty.jsonl"
        empty.write_bytes(b"")
        with pytest.raises(ValueError):
            corrupt_store(empty)
        with pytest.raises(ValueError):
            corrupt_store(self._filled(tmp_path), "melt")


class TestSupervisedEvaluate:
    def test_clean_cell_matches_plain_evaluate(self):
        plain = runner_mod.evaluate_cell(CELL)
        outcome = supervised_evaluate(CELL, FAST)
        assert outcome.ok and outcome.attempts == 1
        assert outcome.result == plain

    def test_transient_error_is_retried(self, monkeypatch):
        _set_fault(monkeypatch, "raise:times=1")
        outcome = supervised_evaluate(CELL, FAST)
        assert outcome.ok and outcome.attempts == 2

    def test_exhausted_retries_quarantine(self, monkeypatch):
        _set_fault(monkeypatch, "raise:times=99")
        outcome = supervised_evaluate(CELL, RetryPolicy(max_attempts=2, backoff_s=0.0))
        assert outcome.status == "error"
        assert outcome.attempts == 2
        assert outcome.quarantined
        assert outcome.error["type"] == "InjectedFault"
        assert "InjectedFault" in outcome.error["traceback"]

    def test_fatal_error_not_retried(self, monkeypatch):
        _set_fault(monkeypatch, "fatal:times=99")
        outcome = supervised_evaluate(CELL, FAST)
        assert outcome.status == "error"
        assert outcome.attempts == 1
        assert outcome.quarantined
        assert outcome.error["type"] == "InjectedFatalFault"

    def test_timeout_outcome(self, monkeypatch):
        monkeypatch.setattr(
            runner_mod, "evaluate_cell", lambda cell: time.sleep(10)
        )
        outcome = supervised_evaluate(
            CELL, RetryPolicy(max_attempts=1, timeout_s=0.2)
        )
        assert outcome.status == "timeout"
        assert outcome.quarantined
        assert outcome.error["type"] == "CellTimeout"

    def test_timeout_works_off_main_thread(self, monkeypatch):
        """Serve worker threads can't install SIGALRM; the timer-based
        soft deadline must break the hang instead (regression: this used
        to raise 'signal only works in main thread')."""

        def chunked_hang(cell):
            # Chunked like the injected hang fault: the soft timeout lands
            # at a bytecode boundary, never inside one long blocking call.
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                time.sleep(0.01)

        monkeypatch.setattr(runner_mod, "evaluate_cell", chunked_hang)
        outcomes = []
        worker = threading.Thread(
            target=lambda: outcomes.append(
                supervised_evaluate(
                    CELL, RetryPolicy(max_attempts=1, timeout_s=0.2)
                )
            )
        )
        start = time.perf_counter()
        worker.start()
        worker.join(timeout=8.0)
        assert not worker.is_alive(), "soft timeout never fired"
        assert time.perf_counter() - start < 8.0
        (outcome,) = outcomes
        assert outcome.status == "timeout"
        assert outcome.quarantined
        assert outcome.error["type"] == "CellTimeout"

    def test_backoff_is_deterministic_and_bounded(self):
        policy = RetryPolicy(backoff_s=0.1, backoff_cap_s=0.5)
        delays = [policy.backoff_for(CELL, a) for a in (1, 2, 3)]
        assert delays == [policy.backoff_for(CELL, a) for a in (1, 2, 3)]
        assert all(0 < d <= 0.5 * 1.5 for d in delays)
        # A different cell jitters differently (with overwhelming odds).
        other = Cell("Ising", 4, "gau+par")
        assert policy.backoff_for(other, 1) != pytest.approx(delays[0])


class TestSerialFaultHandling:
    def test_failed_cell_keeps_siblings_and_is_durable(self, monkeypatch, tmp_path):
        _set_fault(monkeypatch, "fatal:times=99:match=QAOA")
        store = ResultStore(tmp_path / "s.jsonl")
        campaign = run_campaign(SPEC, store, fingerprint=FP, policy=FAST)
        assert campaign.failed == 2
        assert "2 failed" in campaign.summary
        reloaded = ResultStore(tmp_path / "s.jsonl")
        failures = reloaded.failures()
        assert len(failures) == 2
        for record in failures:
            assert record["status"] == "error"
            assert record["error"]["quarantined"]
            assert record["result"] is None
        # Sibling Ising cells computed normally.
        for cell in SPEC.cells():
            if cell.benchmark == "Ising":
                assert campaign[cell]["fidelity"] > 0

    def test_quarantined_cells_skipped_then_retried(self, monkeypatch, tmp_path):
        _set_fault(monkeypatch, "fatal:times=99:match=QAOA")
        path = tmp_path / "s.jsonl"
        run_campaign(SPEC, ResultStore(path), fingerprint=FP, policy=FAST)
        monkeypatch.delenv(ENV_FAULT)
        # Default resume skips quarantined cells: nothing recomputes.
        resumed = run_campaign(SPEC, ResultStore(path), fingerprint=FP, policy=FAST)
        assert resumed.computed == 0 and resumed.failed == 2
        # retry_quarantined re-runs exactly the failed cells and converges.
        healed = run_campaign(
            SPEC,
            ResultStore(path),
            fingerprint=FP,
            policy=RetryPolicy(max_attempts=1, retry_quarantined=True),
        )
        assert healed.computed == 2 and healed.failed == 0
        baseline = run_campaign(SPEC, fingerprint=FP)
        for cell in SPEC.cells():
            assert healed[cell] == baseline[cell]

    def test_non_quarantined_failure_reruns_by_default(self, tmp_path):
        path = tmp_path / "s.jsonl"
        baseline = run_campaign(SPEC, ResultStore(path), fingerprint=FP)
        # Overwrite one record as an aborted (non-quarantined) failure.
        cell = SPEC.cells()[0]
        ResultStore(path).put(
            cell,
            None,
            fingerprint=FP,
            status="error",
            error={"type": "X", "message": "", "traceback": "",
                   "attempts": 1, "quarantined": False},
        )
        resumed = run_campaign(SPEC, ResultStore(path), fingerprint=FP)
        assert resumed.computed == 1
        assert resumed[cell] == baseline[cell]

    def test_timeout_quarantine_resume_rerun(self, monkeypatch, tmp_path):
        real = runner_mod.evaluate_cell
        hang_once = {"armed": True}

        def hang_first(cell):
            if hang_once["armed"]:
                hang_once["armed"] = False
                time.sleep(10)
            return real(cell)

        monkeypatch.setattr(runner_mod, "evaluate_cell", hang_first)
        path = tmp_path / "s.jsonl"
        # The budget must clear a real cell (with slack for slow CI
        # machines) while the injected hang sleeps far past it.
        campaign = run_campaign(
            SPEC,
            ResultStore(path),
            fingerprint=FP,
            policy=RetryPolicy(max_attempts=1, timeout_s=3.0),
        )
        assert campaign.failed == 1
        record = ResultStore(path).failures()[0]
        assert record["status"] == "timeout"
        # The hang cleared: resume with retry_quarantined converges.
        healed = run_campaign(
            SPEC,
            ResultStore(path),
            fingerprint=FP,
            policy=RetryPolicy(max_attempts=1, retry_quarantined=True),
        )
        assert healed.computed == 1 and healed.failed == 0

    def test_max_failures_aborts_cleanly_and_resumes(self, monkeypatch, tmp_path):
        _set_fault(monkeypatch, "fatal:times=99")
        path = tmp_path / "s.jsonl"
        policy = RetryPolicy(max_attempts=1, max_failures=0)
        with pytest.raises(CampaignAbort) as excinfo:
            run_campaign(SPEC, ResultStore(path), fingerprint=FP, policy=policy)
        assert excinfo.value.quarantined == 1
        # The abort is clean: the deciding failure record is stored.
        assert len(ResultStore(path).failures()) == 1
        monkeypatch.delenv(ENV_FAULT)
        healed = run_campaign(
            SPEC,
            ResultStore(path),
            fingerprint=FP,
            policy=RetryPolicy(max_attempts=1, retry_quarantined=True),
        )
        assert healed.failed == 0 and len(healed.records) == 4

    def test_fault_free_records_byte_compatible_with_legacy_put(self, tmp_path):
        """The supervised runner adds nothing to successful records."""
        legacy = ResultStore(None)
        for cell in SPEC.cells():
            legacy.put(cell, runner_mod.evaluate_cell(cell), fingerprint=FP)
        supervised = ResultStore(tmp_path / "s.jsonl")
        run_campaign(SPEC, supervised, fingerprint=FP)
        assert convergence_problems(
            ResultStore(tmp_path / "s.jsonl"), canonical_records(legacy)
        ) == []
        for record in ResultStore(tmp_path / "s.jsonl").records():
            assert "status" not in record
            assert "attempts" not in record
            assert "error" not in record


class TestParallelFaultHandling:
    def test_worker_exception_keeps_sibling_cells(self, monkeypatch, tmp_path):
        serial = run_campaign(SPEC, fingerprint=FP)
        _set_fault(monkeypatch, "fatal:times=99:match=QAOA")
        campaign = run_campaign(
            SPEC,
            ResultStore(tmp_path / "s.jsonl"),
            workers=2,
            fingerprint=FP,
            policy=FAST,
            dispatch="parallel",  # fault injection needs a real pool
        )
        assert campaign.failed == 2
        for cell in SPEC.cells():
            if cell.benchmark == "Ising":
                assert campaign[cell] == serial[cell]

    def test_broken_pool_recovery_matches_serial(self, monkeypatch, tmp_path):
        serial = run_campaign(SPEC, fingerprint=FP)
        budget = tmp_path / "kill.budget"
        _set_fault(monkeypatch, f"kill:times=1:budget={budget}")
        campaign = run_campaign(
            SPEC,
            ResultStore(tmp_path / "s.jsonl"),
            workers=2,
            fingerprint=FP,
            policy=FAST,
            dispatch="parallel",  # the kill must land in a worker, not here
        )
        assert budget.stat().st_size == 1, "kill fault never fired"
        assert campaign.failed == 0
        for cell in SPEC.cells():
            assert campaign[cell] == serial[cell]

    def test_repeated_pool_breaks_fall_back_to_serial(self, monkeypatch, tmp_path):
        # With zero allowed respawns, the first break must degrade to the
        # serial path — where the (exhausted) kill budget cannot fire.
        monkeypatch.setattr(runner_mod, "MAX_POOL_RESPAWNS", 0)
        serial = run_campaign(SPEC, fingerprint=FP)
        budget = tmp_path / "kill.budget"
        _set_fault(monkeypatch, f"kill:times=1:budget={budget}")
        campaign = run_campaign(
            SPEC,
            ResultStore(tmp_path / "s.jsonl"),
            workers=2,
            fingerprint=FP,
            policy=FAST,
            dispatch="parallel",  # the kill must land in a worker, not here
        )
        assert campaign.failed == 0
        for cell in SPEC.cells():
            assert campaign[cell] == serial[cell]
        assert campaign.pool_breaks == 1
        assert campaign.dispatch == "serial"

    def test_raising_initializer_is_reported_not_silent(
        self, monkeypatch, tmp_path, capsys
    ):
        # Every pool breaks before running a cell: the runner respawns
        # MAX_POOL_RESPAWNS times, then finishes serially — and says so.
        def broken_initializer(*args):
            raise RuntimeError("initializer exploded")

        monkeypatch.setattr(runner_mod, "_warm_worker", broken_initializer)
        serial = run_campaign(SPEC, fingerprint=FP)
        campaign = run_campaign(
            SPEC,
            ResultStore(tmp_path / "s.jsonl"),
            workers=2,
            fingerprint=FP,
            policy=FAST,
            dispatch="parallel",
        )
        assert campaign.failed == 0
        for cell in SPEC.cells():
            assert campaign[cell] == serial[cell]
        assert campaign.pool_breaks == runner_mod.MAX_POOL_RESPAWNS + 1
        assert campaign.dispatch == "serial"
        assert "pool broke" in campaign.dispatch_reason
        assert "serially" in campaign.dispatch_reason
        err = capsys.readouterr().err
        assert err.count("process pool broke") == campaign.pool_breaks
        assert "BrokenProcessPool" in err

    def test_healthy_pool_reports_no_breaks(self, tmp_path):
        campaign = run_campaign(
            SPEC,
            ResultStore(tmp_path / "s.jsonl"),
            workers=2,
            fingerprint=FP,
            dispatch="parallel",
        )
        assert campaign.pool_breaks == 0
        assert campaign.dispatch == "parallel"


class TestKill9Resume:
    def test_kill9_mid_campaign_then_resume_is_bit_identical(self, tmp_path):
        """SIGKILL a live sweep process, resume, compare to uninterrupted."""
        store = tmp_path / "store.jsonl"
        env = dict(os.environ)
        env["PYTHONPATH"] = "src" + os.pathsep + env.get("PYTHONPATH", "")
        # The last cell of the grid hangs forever; the first three land.
        env[ENV_FAULT] = "hang:times=1:secs=600:match=Ising-4/pert+zzx"
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "sweep",
                "--benchmarks", "QAOA,Ising", "--sizes", "4",
                "--configs", "gau+par,pert+zzx",
                "--store", str(store),
            ],
            env=env,
            cwd=Path(__file__).resolve().parent.parent,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        try:
            deadline = time.time() + 120
            while time.time() < deadline:
                if store.exists() and store.read_text().count("\n") >= 3:
                    break
                time.sleep(0.2)
            else:
                pytest.fail("campaign never reached 3 stored cells")
            proc.send_signal(signal.SIGKILL)
            proc.wait(timeout=30)
        finally:
            if proc.poll() is None:
                proc.kill()
        # Resume in-process (no fault) and compare to an uninterrupted run.
        resumed = run_campaign(SPEC, ResultStore(store))
        assert resumed.cached == 3 and resumed.computed == 1
        uninterrupted = ResultStore(None)
        run_campaign(SPEC, uninterrupted)
        assert canonical_records(ResultStore(store)) == canonical_records(
            uninterrupted
        )
