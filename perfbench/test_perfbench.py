"""Smoke tests of the benchmark itself, at tiny shapes (a few seconds).

    python3 -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import recorder  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

TINY = workloads.WorkloadSpec(
    "tiny", conv=(6, 2, 3), sim=(4, 2, 3),
    spatial_reps=1, conv_sets=1, sim_sets=1, exact_rounds=1, dse_runs=1,
)


def _declared(kind):
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return {m["name"] for m in spec[kind]}


@pytest.mark.parametrize("trace,kind", [(False, "end_to_end"), (True, "per_layer")])
def test_every_declared_metric_is_emitted_with_a_unit(trace, kind):
    result = run.run_workload(TINY, seed=0, seconds=0, trace=trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == _declared(kind)
    for name, metric in result["metrics"].items():
        assert set(metric) == {"value", "unit"}, name
        assert metric["unit"], name
        assert isinstance(metric["value"], float), name


def test_wrong_output_counts_as_failure(monkeypatch):
    close = recorder.Checks.close

    def perturbed(self, name, got, want, rel_tol):
        return close(self, name, got + 1.0, want, rel_tol)

    monkeypatch.setattr(recorder.Checks, "close", perturbed)
    result = run.run_workload(TINY, seed=0, seconds=0, trace=False)
    assert not result["correct"]
    assert result["failed"] > 0


def test_known_defect_is_reported_but_not_counted():
    checks = recorder.Checks(known_defects=frozenset({"probe"}))
    checks.check("probe", False, "off by 3")
    checks.check("other", True)
    assert (checks.attempted, checks.failed) == (1, 0)
    assert checks.known == {"probe": "fails (off by 3)"}


def test_self_time_subtracts_children():
    rec = recorder.Recorder(trace=True)
    rec.spans = [["bench.pass", 0.0, 10.0, None], ["conv.a", 1.0, 4.0, 0],
                 ["conv.b", 5.0, 6.0, 0], ["dse.c", 6.0, 9.0, 0], ["x.setup", 20.0, 30.0, None]]
    assert rec.self_seconds({0}) == {"bench": 3.0, "conv": 4.0, "dse": 3.0}


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "deep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
