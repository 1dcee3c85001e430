"""The winoconv names the benchmark harness (perfbench/) and the layer harness
(scripts/bench_layers.py) read must exist.

perfbench's own tests run the harness and are slow.  Here their sources are
read with ast, so a deleted or renamed name fails in Tier-1, and the
benchmark's workload code runs once on a tiny spec, which also covers the
attribute reads, checks and golden digests that ast cannot see.  The layer
harness's sampler runs on recording callables.
"""

import ast
import importlib
import importlib.util
import sys
from pathlib import Path

from winoconv import dse

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


def _resolves(module: str, name: str) -> bool:
    """`from module import name` works: an attribute or a submodule."""
    mod = importlib.import_module(module)
    if hasattr(mod, name):
        return True
    return hasattr(mod, "__path__") and importlib.util.find_spec(f"{module}.{name}") is not None


def test_benchmark_imports_and_dse_reads_resolve():
    missing = []
    for path in (PERFBENCH / "workloads.py", PERFBENCH / "record_golden.py",
                 ROOT / "scripts" / "bench_layers.py"):
        source = path.name
        tree = ast.parse(path.read_text(), filename=source)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "winoconv":
                missing += [f"{source}: from {node.module} import {alias.name}"
                            for alias in node.names if not _resolves(node.module, alias.name)]
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id == "dse" and not hasattr(dse, node.attr)):
                missing.append(f"{source}: dse.{node.attr}")
    assert not missing


def test_benchmark_workload_code_runs_clean(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    wl = importlib.import_module("workloads")
    recorder = importlib.import_module("recorder")
    spec = wl.WorkloadSpec("tiny", conv=(6, 2, 3), sim=(4, 2, 3), spatial_reps=1,
                           conv_sets=1, sim_sets=1, exact_rounds=1, dse_runs=1)
    checks = recorder.Checks(known_defects=wl.KNOWN_DEFECTS)
    rec = recorder.Recorder(trace=False)
    inp = wl.setup(spec, 3, rec, checks, ROOT / "src", tmp_path)
    wl.run_pass(spec, inp, rec, checks, wl.load_golden(), tmp_path)
    wl.int32_probe(inp, rec, checks)
    assert checks.attempted > 0
    assert checks.failed == 0, checks.failures


def test_layer_harness_round_robin_samples_in_order(monkeypatch):
    # importing the harness pins BLAS threads and extends sys.path; both are restored
    monkeypatch.setattr(sys, "path", list(sys.path))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    spec = importlib.util.spec_from_file_location("bench_layers",
                                                  ROOT / "scripts" / "bench_layers.py")
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)

    order, firsts = [], []

    def recording(name):
        def call():
            order.append(name)
            return order.count(name)  # this entry's call number
        return call

    seconds, faults = bench.round_robin({"a": recording("a"), "b": recording("b")}, passes=3,
                                        per_sample=2, first=lambda *args: firsts.append(args))
    assert order == ["a", "a", "b", "b"] * 3
    assert {name: len(s) for name, s in seconds.items()} == {"a": 3, "b": 3}
    assert all(t >= 0 for s in seconds.values() for t in s)
    assert faults.keys() == {"a", "b"}
    assert firsts == [("a", 2), ("b", 2)]  # pass 0's result, from the entry's last call
