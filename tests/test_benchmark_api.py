"""The winoconv names the benchmark harness (perfbench/) and the layer harness
(scripts/bench_layers.py) read must exist.

perfbench's own tests run the harness and are slow, and nothing else imports
the layer harness.  Here their sources are read with ast, so a deleted or
renamed name fails in Tier-1, and the benchmark's workload code runs once on a
tiny spec, which also covers the attribute reads, checks and golden digests
that ast cannot see.
"""

import ast
import importlib
import importlib.util
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
