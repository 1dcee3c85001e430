"""Command-line interface.

Subcommands:
  transform  print or export the constant matrices of F(m, r)
  conv       run both convolution paths on tensor files, report error + mults
  dse        sweep (m, budget) and write the fig1/fig2/fig3/fig6 CSV files
  simulate   cycle-level engine run on a random layer, JSON-lines trace
  report     performance comparison table on vgg16d (table2 CSV files)

Files go to --outdir.  dse and report run at the builds' one clock, FREQ_HZ.
dse takes the kernel size r from the workload's layers, and simulate sizes its
PE array from --multipliers.  Every randomized input takes an explicit --seed.
conv and simulate import NumPy when they run; transform, dse and report never do.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import dse as dse_mod
from .cost_model import HardwareConfig, LayerShape, pe_count
from .reference_data import SHARED_DESIGNS
from .transforms import (
    MinimalParams,
    MultCounter,
    export_transforms_csv,
    format_transforms,
    generate_transforms,
)
from .workload import VGG16D, load_workload


def _outdir(args) -> Path:
    path = Path(args.outdir)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _int_list(text: str) -> list[int]:
    return [int(x) for x in text.split(",") if x.strip()]


def cmd_transform(args) -> int:
    ts = generate_transforms(MinimalParams(args.m, args.r),
                             args.points.split(",") if args.points is not None else None)
    print(format_transforms(ts))
    if args.outdir:
        written = export_transforms_csv(ts, _outdir(args))
        for path in written:
            print(f"wrote {path}")
    return 0


def cmd_conv(args) -> int:
    import numpy as np
    from .conv import ConvSpec, FeatureMap, KernelBank, spatial_conv, winograd_conv
    from .tensor_io import load_tensor, save_tensor

    data, layout = load_tensor(args.input)
    if layout != "NCHW":
        raise ValueError(f"{args.input}: expected an NCHW tensor, got {layout}")
    kdata, layout = load_tensor(args.kernels)
    if layout != "KCRR":
        raise ValueError(f"{args.kernels}: expected a KCRR tensor, got {layout}")
    fmap, kernels = FeatureMap(data), KernelBank(kdata)
    spec = ConvSpec(pad=args.pad)
    ts = generate_transforms(MinimalParams(args.m, kernels.r))

    spatial_counter, wino_counter = MultCounter(), MultCounter()
    reference = spatial_conv(fmap, kernels, spec, counter=spatial_counter)
    out = winograd_conv(fmap, kernels, spec, ts, counter=wino_counter)
    save_tensor(args.output, out.data, "NCHW")

    err = np.abs(out.data.astype(np.float64) - reference.data.astype(np.float64))
    scale = np.max(np.abs(reference.data)) or 1.0
    stats = [
        {"path": "spatial", "multiplications": spatial_counter.count},
        {"path": "winograd", "m": args.m, "multiplications": wino_counter.count},
        {"max_abs_error": float(np.max(err)), "max_rel_error": float(np.max(err) / scale)},
    ]
    print("\n".join(json.dumps(s) for s in stats))
    return 0


def cmd_dse(args) -> int:
    workload = load_workload(args.workload)
    # run_sweep reads no field of hw; default=1 leaves an empty --budgets to SweepSpec's check.
    hw = HardwareConfig(m_total=max(args.budgets, default=1))
    spec = dse_mod.SweepSpec(
        m_values=tuple(args.m_values), r=workload.layers[0].shape.r,
        budgets=tuple(args.budgets), workload=workload, hw=hw,
    )
    result = dse_mod.run_sweep(spec)
    outdir = _outdir(args)
    dse_mod.write_fig1_csv(result, outdir / "fig1.csv")
    dse_mod.write_fig2_csv(result, outdir / "fig2.csv")
    dse_mod.write_fig3_csv(result, outdir / "fig3.csv")
    dse_mod.write_fig6_csv(result, outdir / "fig6.csv")
    best = dse_mod.recommend(result)
    for tr in result.transitions:
        inc = "n/a" if tr.pct_transform_increase is None \
            else f"{tr.pct_transform_increase:.2f}%"
        print(f"m {tr.m_from}->{tr.m_to}: mult decrease {tr.pct_mult_decrease:.2f}%, "
              f"transform increase {inc}, favorable={tr.favorable}")
    print(f"recommended: m={best.params.m} budget={best.hw.m_total} "
          f"P={best.p} throughput={best.throughput / 1e9:.1f} GOPS")
    print(f"wrote fig1.csv fig2.csv fig3.csv fig6.csv in {outdir}")
    return 0


def cmd_simulate(args) -> int:
    import numpy as np
    from .conv import ConvSpec, FeatureMap, KernelBank, output_hw
    from .pipeline_sim import EngineConfig, simulate_layer, validate_against_analytical
    from .tensor_io import save_tensor

    params = MinimalParams(args.m, args.r)
    cfg = EngineConfig(params, p=pe_count(args.multipliers, params))

    rng = np.random.default_rng(args.seed)
    fmap = FeatureMap(rng.standard_normal((args.n, args.c, args.height, args.width))
                      .astype(np.float32))
    kernels = KernelBank(rng.standard_normal((args.k, args.c, args.r, args.r))
                         .astype(np.float32))
    out, trace = simulate_layer(cfg, fmap, kernels, ConvSpec(pad=args.pad))

    h_out, w_out = output_hw(args.height, args.width, args.r, args.pad)
    layer = LayerShape(n=args.n, h=h_out, w=w_out, c=args.c, k=args.k, r=args.r)
    report = validate_against_analytical(cfg, layer)

    outdir = _outdir(args)
    save_tensor(outdir / "simulated_output.npy", out.data, "NCHW")
    trace_path = outdir / "trace.jsonl"
    trace_path.write_text(trace.to_json() + "\n" + report.to_json() + "\n")
    print(trace.to_json())
    print(report.to_json())
    print(f"wrote {trace_path} and {outdir / 'simulated_output.npy'}")
    return 0


def cmd_report(args) -> int:
    rows = dse_mod.table2_report(VGG16D)
    outdir = _outdir(args)
    dse_mod.write_table2_csv(rows, outdir / "table2.csv")
    dse_mod.write_table2_reference_csv(rows, outdir / "table2_reference.csv")
    print((outdir / "table2.csv").read_text(), end="")
    print(f"wrote table2.csv and table2_reference.csv in {outdir}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="winoconv",
        description="Winograd convolution engine, cost models and PE-array simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("transform", help="print/export F(m,r) transform matrices")
    p.add_argument("--m", type=int, required=True, help="output tile size")
    p.add_argument("--r", type=int, required=True, help="kernel size")
    p.add_argument("--points", help="comma-separated finite interpolation points")
    p.add_argument("--outdir", default=None, help="also write a.csv/b.csv/g.csv here")
    p.set_defaults(func=cmd_transform)

    p = sub.add_parser("conv", help="run spatial and Winograd paths on tensor files")
    p.add_argument("--input", required=True, help="NCHW tensor file (.npy + layout record)")
    p.add_argument("--kernels", required=True, help="KCRR tensor file (.npy + layout record)")
    p.add_argument("--output", required=True, help="NCHW output file (.npy + layout record)")
    p.add_argument("--m", type=int, default=2, help="output tile size (default 2)")
    p.add_argument("--pad", type=int, default=0)
    p.set_defaults(func=cmd_conv)

    p = sub.add_parser("dse", help="sweep (m, multiplier budget) over a workload")
    p.add_argument("--workload", default="vgg16d")
    p.add_argument("--m-values", type=_int_list, default=[1, 2, 3, 4, 5],
                   help="comma-separated tile sizes (default 1,2,3,4,5)")
    p.add_argument("--budgets", type=_int_list, default=[b for _, _, b, _, _ in SHARED_DESIGNS],
                   help="comma-separated multiplier budgets")
    p.add_argument("--outdir", default="out")
    p.set_defaults(func=cmd_dse)

    p = sub.add_parser("simulate", help="cycle-level run on a random layer")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--r", type=int, default=3)
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--c", type=int, default=4)
    p.add_argument("--k", type=int, default=8)
    p.add_argument("--height", type=int, default=14)
    p.add_argument("--width", type=int, default=14)
    p.add_argument("--pad", type=int, default=1)
    p.add_argument("--multipliers", type=int, default=700,
                   help="multiplier budget; the array has budget // (m+r-1)^2 PEs")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--outdir", default="out")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("report", help="vgg16d performance comparison table")
    p.add_argument("--outdir", default="out")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {type(exc).__module__}.{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
