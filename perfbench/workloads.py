"""The benchmark's workloads: seeded inputs, one timed pass, output checks.

A pass takes each m in {2, 3, 4} in turn and runs, through winoconv's public
API:

  conv   spatial_conv (the oracle), winograd_conv and a timed
         precompute_filter_transforms at m
  sim    simulate_layer at m, P sized from a 700-multiplier budget
  exact  winograd_1d_exact and winograd_2d_tile_exact at every m in
         {2, 3, 4, 5} on small integers
  dse    the work of `winoconv dse` plus `winoconv report` with default
         arguments on vgg16d, and count_transform_ops under both conventions

Every workload runs every part, so every metric has a value on every
workload; the workloads differ in the shapes and repeat counts, which set
where the time goes.  BENCHMARK.json says why each workload was chosen.
Checks run outside the timed calls.
"""

from __future__ import annotations

import hashlib
import json
import subprocess
import sys
from dataclasses import dataclass
from math import ceil, isclose
from pathlib import Path

import numpy as np

from recorder import Checks, Recorder
from winoconv import (
    ConvSpec,
    FeatureMap,
    HardwareConfig,
    KernelBank,
    LayerShape,
    MinimalParams,
    MultCounter,
    count_transform_ops,
    engine_config_for,
    expected_cycles,
    generate_transforms,
    load_workload,
    precompute_filter_transforms,
    recommend,
    run_sweep,
    simulate_layer,
    spatial_conv,
    table2_report,
    validate_against_analytical,
    winograd_1d_exact,
    winograd_2d_tile_exact,
    winograd_conv,
)
from winoconv import dse
from winoconv.cost_model import OP_CONVENTIONS
from winoconv.tensor_io import load_tensor, save_tensor

M_CONV = (2, 3, 4)
M_EXACT = (2, 3, 4, 5)
R = 3
SPEC = ConvSpec(pad=1)
REL_TOL = 1e-4  # the acceptance suite's winograd-vs-spatial bound
MULTIPLIERS = 700
FREQ_HZ = 200e6
# `winoconv dse` / `winoconv report` defaults.
DSE_WORKLOAD = "vgg16d"
DSE_M_VALUES = (1, 2, 3, 4, 5)
DSE_BUDGETS = (688, 700, 684)
DSE_FILES = ("fig1.csv", "fig2.csv", "fig3.csv", "fig6.csv", "table2.csv", "table2_reference.csv")
GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"

# int32 input to winograd_conv is silently wrong (ROADMAP item 2): the probe
# keeps showing it until that is fixed, then this entry is removed.
KNOWN_DEFECTS = frozenset({"conv.int32_probe"})

_IMPORT_CODE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); "
    "t = time.perf_counter(); import winoconv; print(time.perf_counter() - t)"
)


@dataclass(frozen=True)
class WorkloadSpec:
    """Shapes are (output height = width, C, K); N = 1, r = 3, pad 1.

    Repeat counts are per step; a pass has one step per m in M_CONV.
    """

    name: str
    conv: tuple[int, int, int]
    sim: tuple[int, int, int]
    spatial_reps: int    # spatial_conv calls
    conv_sets: int       # winograd_conv calls at the step's m
    sim_sets: int        # simulate_layer calls at the step's m
    exact_rounds: int    # rounds over the exact-trial pool
    dse_runs: int


# Every timed call is kept short (at most about 30 ms): on a shared host the
# fastest repeat of a short call is steady from run to run, that of a long
# call is not.  Hence deep keeps conv5_1's 14x14 output with 64 channels
# instead of 512, and wide keeps conv1_1's channels at 56x56 output.
WORKLOADS = {
    "deep": WorkloadSpec(
        "deep", conv=(14, 64, 64), sim=(2, 32, 128),
        spatial_reps=5, conv_sets=4, sim_sets=4, exact_rounds=1, dse_runs=3,
    ),
    "wide": WorkloadSpec(
        "wide", conv=(56, 3, 64), sim=(8, 3, 64),
        spatial_reps=5, conv_sets=4, sim_sets=4, exact_rounds=1, dse_runs=3,
    ),
    "analytic": WorkloadSpec(
        "analytic", conv=(8, 8, 8), sim=(4, 4, 32),
        spatial_reps=7, conv_sets=7, sim_sets=5, exact_rounds=4, dse_runs=10,
    ),
}
EXACT_TRIALS = 4  # seeded trial inputs per m; each is repeated in every step


@dataclass
class Inputs:
    x: FeatureMap
    kernels: KernelBank
    sim_x: FeatureMap
    sim_kernels: KernelBank
    ref: FeatureMap      # the oracle's output for x, kernels
    sim_ref: FeatureMap  # the oracle's output for the simulator's input
    ts: dict
    exact: dict          # m -> list of (d1, g1, y1, d2, g2, y2); y is brute force
    probe: tuple[FeatureMap, KernelBank]


def conv_ops(h: int, c: int, k: int) -> int:
    """Spatial-equivalent ops of one layer, 2*N*H*W*C*K*r^2 with N = 1."""
    return 2 * h * h * c * k * R * R


def time_import(src: Path) -> float:
    """Seconds to import winoconv in a fresh interpreter (startup excluded)."""
    out = subprocess.run(
        [sys.executable, "-c", _IMPORT_CODE, str(src)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(out.stdout.strip())


def _brute_1d(d, g):
    r = len(g)
    return [sum(d[j + u] * g[u] for u in range(r)) for j in range(len(d) - r + 1)]


def _brute_2d(d, g):
    r, n = len(g), len(d) - len(g) + 1
    return [[sum(d[i + u][j + v] * g[u][v] for u in range(r) for v in range(r))
             for j in range(n)] for i in range(n)]


def setup(spec: WorkloadSpec, seed: int, rec: Recorder, checks: Checks,
          src: Path, tmp: Path) -> Inputs:
    """Everything before the first pass: import, transforms, inputs, tensor I/O."""
    import_s = time_import(src)
    with rec.span("bench.setup") as total:
        with rec.span("transforms.generate_transforms") as s:
            ts = {m: generate_transforms(MinimalParams(m, R)) for m in M_EXACT}
        rec.add("transforms.generate_ms", s.seconds * 1e3)

        rng = np.random.default_rng(seed)
        (h, c, k), (sh, sc, sk) = spec.conv, spec.sim
        arrays = {
            "x": (rng.standard_normal((1, c, h, h), dtype=np.float32), "NCHW"),
            "kernels": (rng.standard_normal((k, c, R, R), dtype=np.float32), "KCRR"),
            "sim_x": (rng.standard_normal((1, sc, sh, sh), dtype=np.float32), "NCHW"),
            "sim_kernels": (rng.standard_normal((sk, sc, R, R), dtype=np.float32), "KCRR"),
        }
        trials = {}
        for m in M_EXACT:
            alpha, n = m + R - 1, EXACT_TRIALS
            trials[m] = (rng.integers(-3, 4, (n, alpha)).tolist(),
                         rng.integers(-3, 4, (n, R)).tolist(),
                         rng.integers(-3, 4, (n, alpha, alpha)).tolist(),
                         rng.integers(-3, 4, (n, R, R)).tolist())
        probe = (FeatureMap(rng.integers(-3, 4, (1, 2, 8, 8)).astype(np.int32)),
                 KernelBank(rng.integers(-3, 4, (2, 2, R, R)).astype(np.int32)))

        # The input path of `winoconv conv`: tensors go through a file.
        loaded, save_s, load_s, nbytes = {}, 0.0, 0.0, 0
        for name, (array, layout) in arrays.items():
            path = tmp / f"{name}.wtns"
            with rec.span("tensor_io.save_tensor") as s:
                save_tensor(path, array, layout)
            save_s += s.seconds
            with rec.span("tensor_io.load_tensor") as s:
                loaded[name] = load_tensor(path)
            load_s += s.seconds
            nbytes += path.stat().st_size

    for name, (array, layout) in arrays.items():
        checks.check(f"tensor_io.round_trip.{name}",
                     loaded[name][1] == layout and np.array_equal(loaded[name][0], array))
    exact = {m: [(a, b, _brute_1d(a, b), c2, d2, _brute_2d(c2, d2))
                 for a, b, c2, d2 in zip(*trials[m])] for m in M_EXACT}
    rec.add("tensor_io.save_ms", save_s * 1e3)
    rec.add("tensor_io.load_ms", load_s * 1e3)
    rec.add("tensor_io.mb", nbytes / 1e6)
    rec.add("setup_s", import_s + total.seconds)
    x, kernels = FeatureMap(loaded["x"][0]), KernelBank(loaded["kernels"][0])
    sim_x, sim_kernels = FeatureMap(loaded["sim_x"][0]), KernelBank(loaded["sim_kernels"][0])
    return Inputs(
        x=x, kernels=kernels, sim_x=sim_x, sim_kernels=sim_kernels,
        ref=spatial_conv(x, kernels, SPEC), sim_ref=spatial_conv(sim_x, sim_kernels, SPEC),
        ts=ts, exact=exact, probe=probe,
    )


def run_pass(spec: WorkloadSpec, inp: Inputs, rec: Recorder, checks: Checks,
             golden: dict, tmp: Path):
    """One step per m: that m's conv and sim calls, then exact trials and dse
    runs, so every call's repeats spread over the whole run."""
    for m in M_CONV:
        with rec.span("bench.conv"):
            _conv_step(spec, inp, rec, checks, m)
        with rec.span("bench.sim"):
            _sim_step(spec, inp, rec, checks, m)
        with rec.span("bench.exact"):
            _exact_step(spec, inp, rec, checks)
        with rec.span("bench.dse"):
            _dse_step(spec, inp, rec, checks, golden, tmp)


def _conv_step(spec, inp, rec, checks, m):
    h, c, k = spec.conv
    ops = conv_ops(h, c, k)
    for _ in range(spec.spatial_reps):
        with rec.span("conv.spatial_conv") as s:
            out = spatial_conv(inp.x, inp.kernels, SPEC)
        rec.add("conv.spatial_ms", s.seconds * 1e3)
        rec.timed("spatial_gops", None, ops / 1e9, s.seconds)
        checks.check("conv.spatial_repeatable", np.array_equal(out.data, inp.ref.data))

    ts, tiles = inp.ts[m], ceil(h / m) ** 2
    for _ in range(spec.conv_sets):
        counter = MultCounter()
        with rec.span("conv.winograd_conv") as s:
            out = winograd_conv(inp.x, inp.kernels, SPEC, ts, counter)
        rec.timed("winograd_gops", m, ops / 1e9, s.seconds)
        rec.add(f"conv.winograd_ms.m{m}", s.seconds * 1e3)
        rec.add(f"conv.max_rel_err.m{m}",
                checks.close(f"conv.winograd_vs_spatial.m{m}", out.data, inp.ref.data, REL_TOL))
        checks.equal(f"conv.hadamard_mults.m{m}", counter.count, tiles * c * k * ts.params.alpha ** 2)
        rec.add(f"conv.hadamard_mults.m{m}", counter.count)
        rec.add(f"conv.useful_tile_ratio.m{m}", h * h / (tiles * m * m))

    with rec.span("conv.precompute_filter_transforms") as s:
        v = precompute_filter_transforms(inp.kernels, ts)
    rec.add(f"conv.filter_precompute_ms.m{m}", s.seconds * 1e3)
    # Spot-check one kernel slice against the 2D filter transform G g G^T.
    g = inp.kernels.data[-1, -1].astype(np.float64)
    checks.close(f"conv.filter_precompute.m{m}", v[-1, -1], ts.g @ g @ ts.g.T, REL_TOL)


def _sim_step(spec, inp, rec, checks, m):
    h, c, k = spec.sim
    layer = LayerShape(n=1, h=h, w=h, c=c, k=k, r=R)
    params = MinimalParams(m, R)
    cfg = engine_config_for(params, HardwareConfig(m_total=MULTIPLIERS, t_c=1 / FREQ_HZ))
    p, a2 = cfg.p, params.alpha ** 2
    for _ in range(spec.sim_sets):
        with rec.span("pipeline_sim.simulate_layer") as s:
            out, trace = simulate_layer(cfg, inp.sim_x, inp.sim_kernels, SPEC, inp.ts[m])
        issued = trace.issue_cycles
        rec.timed("sim_cycles_per_s", m, issued, s.seconds)
        with rec.span("pipeline_sim.expected_cycles"):
            want_cycles = expected_cycles(cfg, layer)
        with rec.span("pipeline_sim.validate_against_analytical"):
            report = validate_against_analytical(cfg, layer)
        checks.equal(f"sim.cycles.m{m}", trace.cycles_elapsed, want_cycles)
        checks.check(f"sim.model_gap.m{m}",
                     isclose(report.gap_cycles, report.ceiling_overhead,
                             rel_tol=1e-9, abs_tol=1e-6),
                     f"gap {report.gap_cycles} != ceiling overhead {report.ceiling_overhead}")
        checks.equal(f"sim.dt_invocations.m{m}", trace.data_transform_invocations, issued)
        checks.equal(f"sim.inverse_transforms.m{m}", trace.inverse_transform_count, p * issued)
        checks.equal(f"sim.hadamard_mults.m{m}", trace.hadamard_mult_count, p * a2 * issued)
        checks.close(f"sim.output_vs_spatial.m{m}", out.data, inp.sim_ref.data, REL_TOL)
        rec.add(f"pipeline_sim.simulate_s.m{m}", s.seconds)
        rec.add(f"pipeline_sim.host_us_per_cycle.m{m}", s.seconds / issued * 1e6)
        rec.add(f"pipeline_sim.cycles.m{m}", trace.cycles_elapsed)
        rec.add(f"pipeline_sim.dt_invocations.m{m}", trace.data_transform_invocations)
        rec.add(f"pipeline_sim.inverse_transforms.m{m}", trace.inverse_transform_count)
        rec.add(f"pipeline_sim.hadamard_mults.m{m}", trace.hadamard_mult_count)
        rec.add(f"pipeline_sim.useful_pe_ratio.m{m}", k / (p * ceil(k / p)))
        rec.add(f"pipeline_sim.model_gap_cycles.m{m}", report.gap_cycles)


def _exact_step(spec, inp, rec, checks):
    for _ in range(spec.exact_rounds):
        for m in M_EXACT:
            ts = inp.ts[m]
            for b, (d1, g1, y1, d2, g2, y2) in enumerate(inp.exact[m]):
                with rec.span("transforms.winograd_1d_exact") as s1:
                    got1 = winograd_1d_exact(ts, d1, g1)
                with rec.span("transforms.winograd_2d_tile_exact") as s2:
                    got2 = winograd_2d_tile_exact(ts, d2, g2)
                # One trial is one 1D plus one 2D call; each call counts at
                # its own fastest repeat.
                rec.timed("exact_trials_per_s", ("1d", m, b), 1, s1.seconds)
                rec.timed("exact_trials_per_s", ("2d", m, b), 0, s2.seconds)
                rec.add(f"transforms.exact_1d_us.m{m}", s1.seconds * 1e6)
                rec.add(f"transforms.exact_2d_ms.m{m}", s2.seconds * 1e3)
                checks.equal(f"transforms.exact_1d.m{m}", list(got1), y1)
                checks.equal(f"transforms.exact_2d.m{m}", [list(row) for row in got2], y2)


def dse_run(rec: Recorder, outdir: Path):
    """`winoconv dse` then `winoconv report`, default arguments, through the API.

    Each call counts toward dse_runs_per_s at its own fastest repeat.
    """
    def call(name, thunk):
        with rec.span(name) as s:
            out = thunk()
        rec.timed("dse_runs_per_s", name, int(name == "dse.run_sweep"), s.seconds)
        return out, s.seconds

    workload, load_s = call("workload.load_workload", lambda: load_workload(DSE_WORKLOAD))
    rec.add("workload.load_ms", load_s * 1e3)
    hw = HardwareConfig(m_total=max(DSE_BUDGETS), t_c=1 / FREQ_HZ)
    sweep = dse.SweepSpec(m_values=DSE_M_VALUES, r=R, budgets=DSE_BUDGETS,
                          workload=workload, hw=hw)
    result, sweep_s = call("dse.run_sweep", lambda: run_sweep(sweep))
    rec.add("dse.run_sweep_ms", sweep_s * 1e3)
    best, _ = call("dse.recommend", lambda: recommend(result))
    write_s = 0.0
    for name, writer in (("fig1.csv", dse.write_fig1_csv), ("fig2.csv", dse.write_fig2_csv),
                         ("fig3.csv", dse.write_fig3_csv), ("fig6.csv", dse.write_fig6_csv)):
        write_s += call(f"dse.{writer.__name__}", lambda: writer(result, outdir / name))[1]
    report, report_s = call("dse.table2_report",
                            lambda: table2_report(workload, freq_hz=FREQ_HZ))
    rec.add("dse.table2_report_ms", report_s * 1e3)
    for name, writer in (("table2.csv", dse.write_table2_csv),
                         ("table2_reference.csv", dse.write_table2_reference_csv)):
        write_s += call(f"dse.{writer.__name__}", lambda: writer(report, outdir / name))[1]
    rec.add("dse.write_csv_ms", write_s * 1e3)
    rec.add("dse.points", len(result.points))
    return result, best


def dse_digests(outdir: Path) -> dict[str, str]:
    return {name: hashlib.sha256((outdir / name).read_bytes()).hexdigest()
            for name in DSE_FILES}


def load_golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


def _dse_step(spec, inp, rec, checks, golden, tmp):
    for _ in range(spec.dse_runs):
        result, best = dse_run(rec, tmp)
        for name, digest in dse_digests(tmp).items():
            checks.equal(f"dse.digest.{name}", digest, golden["files"][name])
        checks.equal("dse.recommend", [best.params.m, best.hw.m_total], golden["recommend"])

        with rec.span("cost_model.count_transform_ops") as s:
            counts = {(m, conv): count_transform_ops(inp.ts[m], conv)
                      for m in M_EXACT for conv in OP_CONVENTIONS}
        rec.add("cost_model.count_transform_ops_ms", s.seconds * 1e3)
        for m in M_EXACT:
            checks.equal(f"cost_model.op_counts.m{m}", counts[m, "all_ops"], result.op_counts[m])


def int32_probe(inp: Inputs, rec: Recorder, checks: Checks):
    """Untimed: winograd_conv on a small int32 layer must match the oracle or
    raise ValueError."""
    x, k = inp.probe
    ref = spatial_conv(x, k, SPEC)
    try:
        with rec.span("conv.winograd_conv"):
            out = winograd_conv(x, k, SPEC, inp.ts[2])
    except ValueError:
        checks.check("conv.int32_probe", True)
        rec.add("conv.int32_probe_max_abs_err", 0)
        return
    err = int(np.max(np.abs(out.data.astype(np.int64) - ref.data.astype(np.int64))))
    rec.add("conv.int32_probe_max_abs_err", err)
    checks.check("conv.int32_probe", err == 0, f"max abs error {err} against the oracle")
