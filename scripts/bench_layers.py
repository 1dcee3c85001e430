"""Per-layer timings of the convolution engine and the simulator on VGG16-D.

    python3 scripts/bench_layers.py --out BENCH_<n>.json

Every section samples its calls with round_robin, the harness's one timer: one
flat dict of calls, run in order once per pass, so that a slow stretch of the
host spreads over every entry rather than moving one entry's best and median
together.  A sample is the wall time of per_sample calls over per_sample, each
result kept until the next call returns; an entry keeps one sample per pass and
records the best and the median (*_median_*): on a shared host the best alone
moved up to 3x between runs of identical code.  Its minor page faults per call
are the getrusage ru_minflt delta summed over its calls and divided by their
number.  On the first pass an optional check reads each result, outside the
timed and fault windows.

Layers: for each distinct VGG16-D conv layer shape (N = 1, pad 1, seeded float32
input and kernels), spatial_conv, a float32 im2col + one GEMM baseline (defined
here, not in winoconv) and, at m = 2, 3, 4, precompute_filter_transforms and
winograd_conv, in REPEATS = 3 passes of one call each.  The first pass checks
im2col and winograd_conv against the latest spatial_conv output, relative to its
largest value; faults are kept for spatial_conv and winograd_conv, and the
best-m winograd_conv time over the im2col time.

Fixed cost: the conv layer and the sim layer of each perfbench workload (deep,
wide, analytic; N = 1, pad 1, seeded float32), with spatial_conv, winograd_conv
at m = 2, 3, 4 and simulate_layer at m = 2, 3, 4 (P from 700 multipliers, as in
the benchmark), in FIXED_COST_REPEATS passes of FIXED_COST_CALLS calls, in
microseconds per call, with faults per call for every entry.

Network: simulates all 13 VGG16-D layers once on each Table 2 design (m = 2, 3,
4 at 688, 700 and 684 multipliers): layer by layer, one pass over the three
designs on the layer's seeded input, drawn once and shared by them.  It records
each layer's simulate_layer wall time and microseconds per issue cycle, and each
design's measured idle-PE fraction, summed idle_pe_slots / (P * summed
issue_cycles), and asserts that the summed trace cycles equal the summed
cost_model.exact_cycles.

Synthesis and CLI, in CLI_REPEATS = 9 passes (3 passes put the `dse` process a
third above the best of 9 on a shared host): generate_transforms for F(m, 3) at
m = 1..8 (a call is SYNTH_CALLS syntheses); at m = 2..5 (r = 3),
winograd_1d_exact and winograd_2d_tile_exact on one seeded small-integer tile
(a call is EXACT_CALLS calls, timed after the programs are built) and one
build of each exact-mode program (exact.transform_program); in-process
`winoconv dse` and `winoconv report` with default arguments into a temporary
directory, then, each as a separate `python` process, a bare interpreter,
`import winoconv`, `python -m winoconv.cli transform --m 4 --r 3`, and `python
-m winoconv.cli dse` and `report`.  The process times are what a CLI user waits for, start-up and imports
included.  The CLI's stdout is discarded, and a failed call or process stops the
run.  Each pass also runs `import winoconv` once more under `-X importtime`
(which slows it by about 2.5 ms, so it is not the timed `import` process), and
the median self time of each winoconv module is kept beside the process times
(process.import_self_ms), so that a slower import names its module.

Last, bench_dse_stages splits one in-process `dse` + `report` run into stages
as four entries, in CLI_REPEATS passes of DSE_CALLS runs: transform synthesis
(the run's generate_transforms calls), op counting on those sets, compute
(run_sweep and table2_report) and CSV writes.  Per pass, pricing is compute less
synthesis and op counting, and the total is compute plus the CSV writes.

BLAS is pinned to one thread and the host (nproc, Python, numpy, BLAS) is
recorded, both by perfbench/run.py's functions, with the process's peak RSS.
The whole run takes about 35 s on a 2-vCPU host and peaks at 400-430 MB RSS in
spatial_conv on the 224x224, 64->64 layer, whose float64 patch matrix alone is
231 MB.  It imports winoconv from this checkout's src/.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import subprocess
import sys
import tempfile
from collections import defaultdict
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from run import environment, pin_blas_threads  # noqa: E402

BLAS_THREADS = pin_blas_threads()  # before numpy is imported

import numpy as np  # noqa: E402
from winoconv import (  # noqa: E402
    ConvSpec,
    EngineConfig,
    FeatureMap,
    HardwareConfig,
    KernelBank,
    LayerShape,
    MinimalParams,
    count_transform_ops,
    exact_cycles,
    generate_transforms,
    pe_count,
    pipeline_depth,
    precompute_filter_transforms,
    simulate_layer,
    spatial_conv,
    winograd_1d_exact,
    winograd_2d_tile_exact,
    winograd_conv,
)
from winoconv import dse  # noqa: E402
from winoconv.cli import main as cli_main  # noqa: E402
from winoconv.exact import transform_program  # noqa: E402
from winoconv.reference_data import SHARED_DESIGNS  # noqa: E402
from winoconv.workload import VGG16D  # noqa: E402
from workloads import DSE_BUDGETS, DSE_M_VALUES, MULTIPLIERS, WORKLOADS  # noqa: E402

TILE_SIZES = (2, 3, 4)
REPEATS = 3
CLI_REPEATS = 9
SYNTH_M = range(1, 9)
SYNTH_CALLS = 100
EXACT_M = (2, 3, 4, 5)
EXACT_CALLS = 100
FIXED_COST_REPEATS = 9
FIXED_COST_CALLS = 20
DSE_CALLS = 20
# Summed exact_cycles of VGG16-D on each Table 2 design, keyed by m.
VGG16D_EXACT_CYCLES = {2: 10_411_559, 3: 7_988_917, 4: 6_007_348}
# The F(m, 3) sets one CLI-default `dse` + `report` run synthesizes, in call order:
# run_sweep's, then one per table2_report single-point sweep.
DSE_SYNTHESES = (*(MinimalParams(m, 3) for m in DSE_M_VALUES),
                 *(MinimalParams(m, r) for m, r, _, _, _ in SHARED_DESIGNS))


def import_self_us(stderr: str) -> dict[str, int]:
    """Self microseconds of the winoconv modules in `-X importtime` output.

    Each line reads "import time: <self us> | <cumulative us> | <indent><module>".
    """
    out = {}
    for line in stderr.splitlines():
        fields = line.removeprefix("import time:").split("|")
        if len(fields) == 3 and fields[0].strip().isdigit():
            module = fields[2].strip()
            if module.split(".")[0] == "winoconv":
                out[module] = int(fields[0])
    return out


def round_robin(calls: dict, passes: int, per_sample: int = 1, first=None) -> tuple[dict, dict]:
    """Seconds per call of each entry, one sample per pass, and its minor faults per call.

    Each pass runs the entries in order, per_sample calls each, every result kept until
    the next call returns.  On pass 0, first(name, result) runs right after each entry's
    calls with the result of the last one, outside the timed and fault windows.
    """
    seconds, faults = {name: [] for name in calls}, dict.fromkeys(calls, 0)
    for rep in range(passes):
        for name, fn in calls.items():
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            start = perf_counter()
            for _ in range(per_sample):
                out = fn()
            seconds[name].append((perf_counter() - start) / per_sample)
            faults[name] += resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
            if rep == 0 and first is not None:
                first(name, out)
    return seconds, {name: n / (passes * per_sample) for name, n in faults.items()}


def timing(entry: str, seconds: list[float], unit: str = "ms") -> dict:
    """The fastest and the median of an entry's timings, in ms or us."""
    scale = {"ms": 1e3, "us": 1e6}[unit]
    return {f"{entry}_{unit}": round(min(seconds) * scale, 3),
            f"{entry}_median_{unit}": round(float(np.median(seconds)) * scale, 3)}


def im2col_conv(fmap: FeatureMap, kernels: KernelBank, pad: int) -> np.ndarray:
    """Baseline: the (C*r*r, N*H_out*W_out) patch matrix, then one GEMM with the kernels."""
    (n, c), (k, _, r, _) = fmap.data.shape[:2], kernels.data.shape
    x = np.pad(fmap.data, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    win = np.lib.stride_tricks.sliding_window_view(x, (r, r), axis=(2, 3))
    h_out, w_out = win.shape[2:4]
    cols = win.transpose(1, 4, 5, 0, 2, 3).reshape(c * r * r, n * h_out * w_out)
    y = kernels.data.reshape(k, c * r * r) @ cols
    return np.ascontiguousarray(y.reshape(k, n, h_out, w_out).transpose(1, 0, 2, 3))


def random_layer(layer, rng: np.random.Generator) -> tuple[FeatureMap, KernelBank]:
    x = rng.standard_normal((layer.n, layer.c, layer.h, layer.w), dtype=np.float32)
    g = rng.standard_normal((layer.k, layer.c, layer.r, layer.r), dtype=np.float32)
    return FeatureMap(x), KernelBank(g)


def layer_calls(layer, pad: int, rng: np.random.Generator) -> dict:
    """One shape's timed calls by entry name, in run order; each returns an array."""
    fmap, kernels = random_layer(layer, rng)
    spec = ConvSpec(pad=pad)
    calls = {"spatial": lambda: spatial_conv(fmap, kernels, spec).data,
             "im2col": lambda: im2col_conv(fmap, kernels, pad)}
    for m in TILE_SIZES:
        ts = generate_transforms(MinimalParams(m, layer.r))
        calls[f"filter_precompute.{m}"] = lambda ts=ts: precompute_filter_transforms(kernels, ts)
        calls[f"winograd.{m}"] = lambda ts=ts: winograd_conv(fmap, kernels, spec, ts).data
    return calls


def bench_layers(shapes, rng: np.random.Generator) -> list[dict]:
    """Time every call of every (layer, pad) shape, keyed (shape index, entry), in REPEATS passes.

    The first pass checks im2col and winograd_conv against the latest spatial_conv output.
    """
    calls = {(i, name): fn for i, (layer, pad) in enumerate(shapes)
             for name, fn in layer_calls(layer, pad, rng).items()}
    # sized before the first call: growing it between calls took a new table from the
    # heap and moved the fault columns of conv4 and conv5 by hundreds per call
    errors, ref = dict.fromkeys(calls), None

    def check(key, out):
        nonlocal ref
        if key[1] == "spatial":
            ref = out, np.abs(out).max()
        elif not key[1].startswith("filter_precompute"):
            errors[key] = err = np.abs(out.astype(np.float64) - ref[0]).max() / ref[1]
            assert key[1] != "im2col" or err < 1e-4, f"im2col baseline off by {err:.3g}"

    seconds, faults = round_robin(calls, REPEATS, first=check)
    rows = []
    for i, (layer, pad) in enumerate(shapes):
        row = {"h": layer.h, "w": layer.w, "c": layer.c, "k": layer.k, "r": layer.r, "pad": pad,
               **timing("spatial", seconds[i, "spatial"]),
               "spatial_faults": round(faults[i, "spatial"], 1),
               **timing("im2col", seconds[i, "im2col"]),
               "m": {str(m): {**timing("filter_precompute", seconds[i, f"filter_precompute.{m}"]),
                              **timing("winograd", seconds[i, f"winograd.{m}"]),
                              "winograd_faults": round(faults[i, f"winograd.{m}"], 1),
                              "max_rel_err": float(f"{errors[i, f'winograd.{m}']:.3g}")}
                     for m in TILE_SIZES}}
        best = min(t["winograd_ms"] for t in row["m"].values())
        row["best_winograd_over_im2col"] = round(best / row["im2col_ms"], 3)
        rows.append(row)
    return rows


def fixed_cost_calls(conv: tuple, sim: tuple, rng: np.random.Generator) -> dict:
    """A benchmark workload's conv and sim layer calls by entry name; each returns an array."""
    spec = ConvSpec(pad=1)
    fmap, kernels = random_layer(LayerShape(1, conv[0], conv[0], conv[1], conv[2], 3), rng)
    sim_fmap, sim_kernels = random_layer(LayerShape(1, sim[0], sim[0], sim[1], sim[2], 3), rng)
    calls = {"spatial": lambda: spatial_conv(fmap, kernels, spec).data}
    for m in TILE_SIZES:
        params = MinimalParams(m, 3)
        ts, cfg = generate_transforms(params), EngineConfig(params, pe_count(MULTIPLIERS, params))
        calls[f"winograd.{m}"] = lambda ts=ts: winograd_conv(fmap, kernels, spec, ts).data
        calls[f"simulate.{m}"] = lambda ts=ts, cfg=cfg: simulate_layer(
            cfg, sim_fmap, sim_kernels, spec, ts)[0].data
    return calls


def bench_fixed_cost(rng: np.random.Generator) -> list[dict]:
    """Per-call time and faults on the benchmark's layers, FIXED_COST_REPEATS round-robin passes."""
    calls = {(wl, name): fn for wl, w in WORKLOADS.items()
             for name, fn in fixed_cost_calls(w.conv, w.sim, rng).items()}
    seconds, faults = round_robin(calls, FIXED_COST_REPEATS, FIXED_COST_CALLS)
    return [{"workload": wl, "conv": list(w.conv), "sim": list(w.sim),
             **timing("spatial", seconds[wl, "spatial"], "us"),
             "spatial_faults": round(faults[wl, "spatial"], 2),
             "m": {str(m): {**timing("winograd", seconds[wl, f"winograd.{m}"], "us"),
                            "winograd_faults": round(faults[wl, f"winograd.{m}"], 2),
                            **timing("simulate", seconds[wl, f"simulate.{m}"], "us"),
                            "simulate_faults": round(faults[wl, f"simulate.{m}"], 2)}
                   for m in TILE_SIZES}}
            for wl, w in WORKLOADS.items()]


def bench_network(workload, rng: np.random.Generator) -> list[dict]:
    """Simulate every layer once per Table 2 design; trace cycles must sum to exact_cycles."""
    designs = []
    for m, r, budget, _, _ in SHARED_DESIGNS:
        params = MinimalParams(m, r)
        designs.append((m, budget, params, EngineConfig(params, p=pe_count(budget, params)),
                        generate_transforms(params)))
    seconds, traces = {}, {}  # keyed (m, layer index)
    # one round_robin per layer: all 13 inputs held at once (91 MB) took peak RSS to 432 MB
    for i, wl in enumerate(workload.layers):
        args = (*random_layer(wl.shape, rng), ConvSpec(pad=wl.pad))
        calls = {(m, i): lambda cfg=cfg, ts=ts: simulate_layer(cfg, *args, ts)[1]
                 for m, _, _, cfg, ts in designs}
        seconds.update(round_robin(calls, 1, first=traces.__setitem__)[0])
    out = []
    for m, budget, params, cfg, _ in designs:
        rows, total_s, issued = [], 0.0, 0
        for i, wl in enumerate(workload.layers):
            (secs,), trace = seconds[m, i], traces[m, i]
            total_s += secs
            issued += trace.issue_cycles
            rows.append({"group": wl.group, "h": wl.shape.h, "c": wl.shape.c, "k": wl.shape.k,
                         "cycles": trace.cycles_elapsed, "idle_pe_slots": trace.idle_pe_slots,
                         "simulate_s": round(secs, 3),
                         "us_per_issue_cycle": round(secs / trace.issue_cycles * 1e6, 3)})
        cycles = sum(row["cycles"] for row in rows)
        exact = sum(exact_cycles(wl.shape, params, cfg.p) for wl in workload.layers)
        assert cycles == exact == VGG16D_EXACT_CYCLES[m], \
            f"m={m}: trace cycles {cycles}, exact_cycles {exact}, want {VGG16D_EXACT_CYCLES[m]}"
        idle = sum(row["idle_pe_slots"] for row in rows) / (cfg.p * issued)
        print(f"simulate m={m} @ {budget} (P={cfg.p}): {cycles} cycles = exact_cycles, "
              f"{idle:.1%} idle PE slots, {total_s:.1f} s", flush=True)
        out.append({"m": m, "multipliers": budget, "p": cfg.p, "d_p": pipeline_depth(params),
                    "cycles": cycles, "exact_cycles": exact,
                    "idle_pe_fraction": round(idle, 4),
                    "simulate_s": round(total_s, 3), "layers": rows})
    return out


def repeated(calls: int, fn, *args):
    """A thunk that runs fn(*args) calls times."""
    def run():
        for _ in range(calls):
            fn(*args)
    return run


def exact_calls(rng: np.random.Generator) -> dict:
    """Per m in EXACT_M (r = 3), EXACT_CALLS exact calls in 1D and in 2D on one seeded
    small-integer tile, with the set's programs built beforehand, and one build of each."""
    calls = {}
    for m in EXACT_M:
        ts = generate_transforms(MinimalParams(m, 3))
        d = rng.integers(-3, 4, size=(m + 2, m + 2)).tolist()
        g = rng.integers(-3, 4, size=(3, 3)).tolist()
        ts.program_1d, ts.program_2d  # built here, so that no timed call builds one
        calls[f"exact_1d.{m}"] = repeated(EXACT_CALLS, winograd_1d_exact, ts, d[0], g[0])
        calls[f"exact_2d.{m}"] = repeated(EXACT_CALLS, winograd_2d_tile_exact, ts, d, g)
        calls[f"build_1d.{m}"] = repeated(1, transform_program, ts, 1)
        calls[f"build_2d.{m}"] = repeated(1, transform_program, ts, 2)
    return calls


def bench_synthesis_and_cli(rng: np.random.Generator) -> dict:
    """generate_transforms per m (r = 3), exact mode, and the CLI in and as processes."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    cli = [sys.executable, "-m", "winoconv.cli"]
    with (tempfile.TemporaryDirectory() as outdir, open(os.devnull, "w") as devnull,
          contextlib.redirect_stdout(devnull)):
        calls = {f"generate_transforms.{m}": repeated(SYNTH_CALLS, generate_transforms,
                                                      MinimalParams(m, 3)) for m in SYNTH_M}
        calls.update(exact_calls(rng))
        for command in ("dse", "report"):  # cli_main returns the exit status
            calls[command] = lambda c=command: cli_main([c, "--outdir", outdir]) and sys.exit(
                f"winoconv {c} failed")
        processes = {"bare": [sys.executable, "-c", "pass"],
                     "import": [sys.executable, "-c", "import winoconv"],
                     "transform": cli + ["transform", "--m", "4", "--r", "3"],
                     "dse": cli + ["dse", "--outdir", outdir],
                     "report": cli + ["report", "--outdir", outdir]}
        for name, argv in processes.items():
            calls[f"process.{name}"] = lambda a=argv: subprocess.run(
                a, env=env, stdout=subprocess.DEVNULL, check=True)
        self_us = defaultdict(list)  # module -> its self time in each profiled import

        def profile_import():
            stderr = subprocess.run([sys.executable, "-X", "importtime", "-c", "import winoconv"],
                                    env=env, stderr=subprocess.PIPE, text=True, check=True).stderr
            for module, us in import_self_us(stderr).items():
                self_us[module].append(us)

        calls["import_profile"] = profile_import
        seconds, _ = round_robin(calls, CLI_REPEATS)
    per_call = {m: [t / SYNTH_CALLS for t in seconds[f"generate_transforms.{m}"]] for m in SYNTH_M}
    exact = {str(m): {} for m in EXACT_M}
    for m in EXACT_M:
        for name, calls, unit in (("exact_1d", EXACT_CALLS, "us"), ("exact_2d", EXACT_CALLS, "us"),
                                  ("build_1d", 1, "ms"), ("build_2d", 1, "ms")):
            exact[str(m)].update(timing(name, [t / calls for t in seconds[f"{name}.{m}"]], unit))
    return {"r": 3, "calls_per_sample": SYNTH_CALLS, "repeats": CLI_REPEATS,
            "m": {str(m): timing("generate_transforms", per_call[m]) for m in SYNTH_M},
            "exact": {"r": 3, "calls_per_sample": EXACT_CALLS, "m": exact},
            "cli": {**timing("dse", seconds["dse"]), **timing("report", seconds["report"])},
            "process": {**{k: v for name in processes
                           for k, v in timing(name, seconds[f"process.{name}"]).items()},
                        "import_self_ms": {module: round(float(np.median(us)) / 1e3, 3)
                                           for module, us in sorted(self_us.items())}}}


def bench_dse_stages() -> dict:
    """One in-process `dse` + `report` run split into its stages, per run in ms.

    compute is run_sweep with the CLI defaults and table2_report, csv the six CSV
    writers into a temporary directory, synthesis the run's DSE_SYNTHESES and
    op_count count_transform_ops on those sets.  Per pass, pricing = compute -
    synthesis - op_count (layer costs, design points, transitions and Table 2
    rows) and total = compute + csv.  A sample is the mean of DSE_CALLS runs.
    """
    spec = dse.SweepSpec(DSE_M_VALUES, 3, DSE_BUDGETS, VGG16D, HardwareConfig(max(DSE_BUDGETS)))
    figures = {"fig1.csv": dse.write_fig1_csv, "fig2.csv": dse.write_fig2_csv,
               "fig3.csv": dse.write_fig3_csv, "fig6.csv": dse.write_fig6_csv}
    sets = [generate_transforms(params) for params in DSE_SYNTHESES]
    result, rows = dse.run_sweep(spec), dse.table2_report(VGG16D)

    def write_csvs():
        for name, writer in figures.items():
            writer(result, outdir / name)
        dse.write_table2_csv(rows, outdir / "table2.csv")
        dse.write_table2_reference_csv(rows, outdir / "table2_reference.csv")

    with tempfile.TemporaryDirectory() as tmp:
        outdir = Path(tmp)
        seconds, _ = round_robin({
            "synthesis": lambda: [generate_transforms(params) for params in DSE_SYNTHESES],
            "op_count": lambda: [count_transform_ops(ts) for ts in sets],
            "compute": lambda: (dse.run_sweep(spec), dse.table2_report(VGG16D)),
            "csv": write_csvs}, CLI_REPEATS, DSE_CALLS)
    seconds["pricing"] = [c - s - o for c, s, o in
                          zip(seconds["compute"], seconds["synthesis"], seconds["op_count"])]
    seconds["total"] = [c + w for c, w in zip(seconds["compute"], seconds["csv"])]
    return {"runs_per_sample": DSE_CALLS, "repeats": CLI_REPEATS,
            **{k: v for stage in ("synthesis", "op_count", "pricing", "csv", "total")
               for k, v in timing(stage, seconds[stage]).items()}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", required=True, type=Path, help="JSON file to write")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)

    rng = np.random.default_rng(args.seed)
    seen, distinct = set(), []
    for wl in VGG16D.layers:
        if (wl.shape, wl.pad) not in seen:
            seen.add((wl.shape, wl.pad))
            distinct.append(wl)
    layers = []
    for wl, row in zip(distinct, bench_layers([(wl.shape, wl.pad) for wl in distinct], rng)):
        print(f"{wl.group} {row['h']}x{row['w']} {row['c']}->{row['k']}: spatial "
              f"{row['spatial_ms']:.1f} ms, im2col {row['im2col_ms']:.1f} ms, winograd m=2/3/4 "
              + "/".join(f"{row['m'][str(m)]['winograd_ms']:.1f}" for m in TILE_SIZES)
              + f" ms, best/im2col {row['best_winograd_over_im2col']:.2f}", flush=True)
        layers.append({"group": wl.group, **row})
    fixed_cost = bench_fixed_cost(rng)
    for row in fixed_cost:
        print(f"{row['workload']} conv {row['conv']}, sim {row['sim']}: spatial "
              f"{row['spatial_us']:.1f} us, winograd m=2/3/4 "
              + "/".join(f"{row['m'][str(m)]['winograd_us']:.1f}" for m in TILE_SIZES)
              + " us, simulate m=2/3/4 "
              + "/".join(f"{row['m'][str(m)]['simulate_us']:.1f}" for m in TILE_SIZES) + " us",
              flush=True)
    result = {"host": environment(BLAS_THREADS), "seed": args.seed, "repeats": REPEATS, "n": 1,
              "dtype": "float32", "layers": layers,
              "fixed_cost": {"repeats": FIXED_COST_REPEATS, "calls_per_sample": FIXED_COST_CALLS,
                             "multipliers": MULTIPLIERS, "workloads": fixed_cost},
              "simulate": bench_network(VGG16D, rng),
              "synthesis": bench_synthesis_and_cli(rng),
              "dse_stages": bench_dse_stages(),
              "peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1)}
    synth = result["synthesis"]
    print("generate_transforms m=1..8: "
          + "/".join(f"{t['generate_transforms_ms'] * 1e3:.0f}" for t in synth["m"].values())
          + f" us; dse {synth['cli']['dse_ms']:.1f} ms, report {synth['cli']['report_ms']:.1f} ms",
          flush=True)
    print(f"exact m={EXACT_M[0]}..{EXACT_M[-1]}: 1D/2D per call "
          + ", ".join(f"{t['exact_1d_us']:.1f}/{t['exact_2d_us']:.1f}"
                      for t in synth["exact"]["m"].values()) + " us; program build 1D/2D "
          + ", ".join(f"{t['build_1d_ms']:.2f}/{t['build_2d_ms']:.2f}"
                      for t in synth["exact"]["m"].values()) + " ms", flush=True)
    print("as processes, bare/import/transform/dse/report: "
          + "/".join(f"{synth['process'][f'{name}_ms']:.0f}"
                     for name in ("bare", "import", "transform", "dse", "report")) + " ms",
          flush=True)
    print("import self ms: " + ", ".join(
        f"{module} {ms:.1f}" for module, ms in synth["process"]["import_self_ms"].items()),
        flush=True)
    stages = result["dse_stages"]
    print("dse + report run, synthesis/op count/pricing/csv/total: "
          + "/".join(f"{stages[f'{stage}_ms']:.3f}"
                     for stage in ("synthesis", "op_count", "pricing", "csv", "total")) + " ms",
          flush=True)
    args.out.write_text(json.dumps(result, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
