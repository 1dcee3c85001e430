"""The winoconv names the benchmark harness (perfbench/) and the layer harness
(scripts/bench_layers.py) read must exist.

perfbench's own tests run the harness and are slow.  Here their sources are
read with ast, so a deleted or renamed name fails in Tier-1, and the
benchmark's workload code runs once on a tiny spec, which also covers the
attribute reads, checks and golden digests that ast cannot see, and the golden
recorder runs once into a temporary file.  The layer harness's sampler runs on
recording callables, its layer, fixed-cost, network and dse stage sections run
on small inputs, and its list of the syntheses one dse + report run makes is
checked against what dse calls.
"""

import ast
import importlib
import importlib.util
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from winoconv import (LayerShape, MinimalParams, Workload, WorkloadLayer, dse, exact_cycles,
                      pe_count)
from winoconv.cli import main as cli_main
from winoconv.reference_data import SHARED_DESIGNS

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


def test_golden_recorder_reproduces_the_golden_file(tmp_path, monkeypatch):
    # the CLI path of the recorder, its SweepSpec(..., hw=...) and its best.hw.m_total read
    monkeypatch.setattr(sys, "path", [str(PERFBENCH), *sys.path])  # it also prepends src/
    record_golden = importlib.import_module("record_golden")
    monkeypatch.setattr(record_golden.wl, "GOLDEN_PATH", tmp_path / "golden.json")
    assert record_golden.main() == 0
    recorded = json.loads((tmp_path / "golden.json").read_text())
    assert recorded == json.loads((PERFBENCH / "golden.json").read_text())


@pytest.fixture
def bench(monkeypatch):
    """scripts/bench_layers.py as a module."""
    # importing the harness pins BLAS threads and extends sys.path; both are restored
    monkeypatch.setattr(sys, "path", list(sys.path))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    spec = importlib.util.spec_from_file_location("bench_layers",
                                                  ROOT / "scripts" / "bench_layers.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_layer_harness_round_robin_samples_in_order(bench):
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


def test_layer_harness_dse_syntheses_are_what_a_cli_run_synthesizes(bench, monkeypatch, tmp_path):
    made, counted = [], []  # (params, its set) per generate_transforms call; counted sets

    def generate(params, *args):
        made.append((params, dse_generate(params, *args)))
        return made[-1][1]

    def count(ts, *args):
        counted.append(ts)
        return dse_count(ts, *args)

    dse_generate, dse_count = dse.generate_transforms, dse.count_transform_ops
    monkeypatch.setattr(dse, "generate_transforms", generate)
    monkeypatch.setattr(dse, "count_transform_ops", count)
    for command in ("dse", "report"):  # with the CLI's default arguments
        assert cli_main([command, "--outdir", str(tmp_path)]) == 0
    assert tuple(params for params, _ in made) == bench.DSE_SYNTHESES
    assert [id(ts) for ts in counted] == [id(ts) for _, ts in made]  # one count per set


def test_layer_harness_layer_section_on_one_shape(bench, monkeypatch):
    # runs the im2col baseline and its error check, which no other test calls
    monkeypatch.setattr(bench, "REPEATS", 1)
    (row,) = bench.bench_layers([(LayerShape(1, 6, 6, 2, 3, 3), 1)], np.random.default_rng(0))
    assert row.keys() == {"h", "w", "c", "k", "r", "pad", "spatial_ms", "spatial_median_ms",
                          "spatial_faults", "im2col_ms", "im2col_median_ms", "m",
                          "best_winograd_over_im2col"}
    assert [row[key] for key in ("h", "w", "c", "k", "r", "pad")] == [6, 6, 2, 3, 3, 1]
    assert list(row["m"]) == [str(m) for m in bench.TILE_SIZES]
    for entry in row["m"].values():
        assert entry.keys() == {"filter_precompute_ms", "filter_precompute_median_ms",
                                "winograd_ms", "winograd_median_ms", "winograd_faults",
                                "max_rel_err"}
        assert entry["max_rel_err"] < 1e-5


def test_layer_harness_fixed_cost_calls_on_tiny_layers(bench):
    calls = bench.fixed_cost_calls((6, 2, 3), (4, 2, 3), np.random.default_rng(0))
    assert list(calls) == ["spatial", *(f"{name}.{m}" for m in bench.TILE_SIZES
                                        for name in ("winograd", "simulate"))]
    shapes = {}  # each entry's output shape, from pass 0
    seconds, _ = bench.round_robin(calls, 1, first=lambda name, y: shapes.update({name: y.shape}))
    assert all(len(s) == 1 for s in seconds.values())
    assert shapes == {name: (1, 3, 4, 4) if name.startswith("simulate") else (1, 3, 6, 6)
                      for name in calls}


def test_layer_harness_network_section_on_one_layer(bench, monkeypatch, capsys):
    layer = WorkloadLayer(LayerShape(n=1, h=6, w=6, c=3, k=8, r=3), pad=1, group="conv1")
    params = {m: MinimalParams(m, r) for m, r, *_ in SHARED_DESIGNS}
    budgets = {m: budget for m, _, budget, *_ in SHARED_DESIGNS}
    monkeypatch.setattr(bench, "VGG16D_EXACT_CYCLES", {
        m: exact_cycles(layer.shape, p, pe_count(budgets[m], p)) for m, p in params.items()})
    designs = bench.bench_network(Workload("one", (layer,)), np.random.default_rng(0))
    assert [d["m"] for d in designs] == list(params)
    for d in designs:
        assert d.keys() == {"m", "multipliers", "p", "d_p", "cycles", "exact_cycles",
                            "idle_pe_fraction", "simulate_s", "layers"}
        assert d["cycles"] == d["exact_cycles"] == bench.VGG16D_EXACT_CYCLES[d["m"]]
        assert 0 <= d["idle_pe_fraction"] < 1
        (row,) = d["layers"]
        assert row.keys() == {"group", "h", "c", "k", "cycles", "idle_pe_slots", "simulate_s",
                              "us_per_issue_cycle"}
        assert (row["group"], row["h"], row["c"], row["k"], row["cycles"]) == (
            "conv1", 6, 3, 8, d["cycles"])
    assert capsys.readouterr().out.count("= exact_cycles") == 3


def test_layer_harness_exact_entries(bench, monkeypatch):
    monkeypatch.setattr(bench, "EXACT_CALLS", 1)
    calls = bench.exact_calls(np.random.default_rng(0))
    assert list(calls) == [f"{name}.{m}" for m in bench.EXACT_M
                           for name in ("exact_1d", "exact_2d", "build_1d", "build_2d")]
    seconds, _ = bench.round_robin(calls, 2)
    assert all(len(s) == 2 and min(s) > 0 for s in seconds.values())


def test_layer_harness_dse_stages_section(bench, monkeypatch):
    monkeypatch.setattr(bench, "CLI_REPEATS", 2)
    monkeypatch.setattr(bench, "DSE_CALLS", 1)
    stages = bench.bench_dse_stages()
    names = ("synthesis", "op_count", "pricing", "csv", "total")
    assert stages.keys() == {"runs_per_sample", "repeats",
                             *(f"{n}{k}_ms" for n in names for k in ("", "_median"))}
    assert (stages["runs_per_sample"], stages["repeats"]) == (1, 2)
    assert all(math.isfinite(stages[f"{n}_ms"]) for n in names)
    assert all(math.isfinite(stages[f"{n}_median_ms"]) for n in names)
    assert stages["total_ms"] >= stages["pricing_ms"]
