"""Snapshot naming of ``scripts/dump_bench.py``.

A numbered ``BENCH_<n>.json`` always holds the whole suite; a run limited
with ``--bench-file`` goes to ``BENCH_partial_<n>.json``.
"""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "dump_bench.py"


@pytest.fixture(scope="module")
def dump_bench():
    spec = importlib.util.spec_from_file_location("dump_bench", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_partial_runs_are_named_apart(dump_bench):
    assert not dump_bench.is_partial(list(dump_bench.SUITE))
    assert not dump_bench.is_partial(
        ["./" + path for path in reversed(dump_bench.SUITE)]
    )
    assert dump_bench.is_partial(["benchmarks/bench_micro.py"])
    assert dump_bench.next_bench_path("BENCH_partial_").name.startswith(
        "BENCH_partial_"
    )


def test_partial_run_refuses_a_numbered_output(dump_bench, capsys):
    with pytest.raises(SystemExit) as info:
        dump_bench.main(
            ["--bench-file", "benchmarks/bench_micro.py", "--output", "BENCH_7.json"]
        )
    assert info.value.code == 2
    assert "numbered snapshot" in capsys.readouterr().err
