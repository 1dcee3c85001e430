"""Per-layer timings of the convolution engine on the VGG16-D conv shapes.

    python3 scripts/bench_layers.py --out BENCH_<n>.json

For each distinct VGG16-D conv layer shape (N = 1, pad 1, seeded float32
input and kernels) and m = 2, 3, 4, records the best-of-3 wall time of
precompute_filter_transforms and winograd_conv, the best-of-3 time of
spatial_conv once per shape, and winograd_conv's maximum error relative to
spatial_conv's largest output.  BLAS is pinned to one thread, and the host
(nproc, numpy, BLAS) is recorded with the results.  The whole run takes
about 10 s on a 2-vCPU host; the 224x224, 64->64 layer peaks near 780 MB
RSS.  It imports winoconv from this checkout's src/.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from time import perf_counter

BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)  # before numpy is imported

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from winoconv import (  # noqa: E402
    ConvSpec,
    FeatureMap,
    KernelBank,
    MinimalParams,
    generate_transforms,
    load_workload,
    precompute_filter_transforms,
    spatial_conv,
    winograd_conv,
)

TILE_SIZES = (2, 3, 4)
REPEATS = 3


def best_ms(fn) -> tuple[float, object]:
    """Fastest of REPEATS calls in ms, and the last call's result."""
    times = []
    for _ in range(REPEATS):
        start = perf_counter()
        out = fn()
        times.append(perf_counter() - start)
    return min(times) * 1e3, out


def host() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
    }


def bench_layer(layer, pad: int, rng: np.random.Generator) -> dict:
    x = rng.standard_normal((layer.n, layer.c, layer.h, layer.w))
    g = rng.standard_normal((layer.k, layer.c, layer.r, layer.r))
    fmap, kernels = FeatureMap(x.astype(np.float32)), KernelBank(g.astype(np.float32))
    spec = ConvSpec(pad=pad)
    spatial_ms, ref = best_ms(lambda: spatial_conv(fmap, kernels, spec))
    scale = np.abs(ref.data).max()
    row = {"h": layer.h, "w": layer.w, "c": layer.c, "k": layer.k, "r": layer.r, "pad": pad,
           "spatial_ms": round(spatial_ms, 3), "m": {}}
    for m in TILE_SIZES:
        ts = generate_transforms(MinimalParams(m, layer.r))
        precompute_ms, _ = best_ms(lambda: precompute_filter_transforms(kernels, ts))
        winograd_ms, out = best_ms(lambda: winograd_conv(fmap, kernels, spec, ts))
        err = np.abs(out.data.astype(np.float64) - ref.data).max() / scale
        row["m"][str(m)] = {"filter_precompute_ms": round(precompute_ms, 3),
                            "winograd_ms": round(winograd_ms, 3),
                            "max_rel_err": float(f"{err:.3g}")}
    return row


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", required=True, type=Path, help="JSON file to write")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)

    rng = np.random.default_rng(args.seed)
    seen, layers = set(), []
    for wl in load_workload("vgg16d").layers:
        key = (wl.shape, wl.pad)
        if key in seen:
            continue
        seen.add(key)
        row = bench_layer(wl.shape, wl.pad, rng)
        print(f"{wl.group} {row['h']}x{row['w']} {row['c']}->{row['k']}: spatial "
              f"{row['spatial_ms']:.1f} ms, winograd m=2/3/4 "
              + "/".join(f"{row['m'][str(m)]['winograd_ms']:.1f}" for m in TILE_SIZES) + " ms",
              flush=True)
        layers.append({"group": wl.group, **row})
    result = {"host": host(), "seed": args.seed, "repeats": REPEATS, "n": 1, "dtype": "float32",
              "layers": layers}
    args.out.write_text(json.dumps(result, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
