"""Benchmark of winoconv: one workload per run, metrics as one JSON line.

    python3 perfbench/run.py --workload deep --seed 1 --seconds 40 --trace 0

Run it from anywhere inside a checkout: it imports winoconv from the
checkout's src/ and refuses to run without it.  --workload all runs every
workload in its own process, one after another.

A run sets up (five times; setup_s is the median), runs one untimed warm-up
pass, then repeats timed passes until the next one would end after
--seconds (at least one pass; two with --trace 1).  Every output is checked.
With --trace 0 the metrics are the end-to-end ones listed in BENCHMARK.json.
Each rate is total work over total time, where every distinct call (same
function, same input) counts at its fastest repeat in the run: the host's
speed drifts by up to 2x over 5-30 s, which moves a run's median by about
17% from run to run but its fastest repeats by about 7%.  With --trace 1
passes alternate untraced and traced, the metrics are the per-layer ones
(medians over the traced passes), and the spans are written to
.perfbench-out/ at the end.
The last line of standard output is
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BLAS_THREADS = 1  # one process on one core keeps runs on a shared 2-core host steady
SETUP_REPS = 5
PASS_LAYERS = ("bench", "conv", "pipeline_sim", "transforms", "cost_model", "dse", "workload")
WORKLOAD_NAMES = ("deep", "wide", "analytic")


def pin_blas_threads() -> int:
    """Must run before numpy is imported; returns the pinned thread count."""
    threads = min(BLAS_THREADS, os.cpu_count() or 1)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)
    return threads


def environment(threads: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
    }


def metric_units() -> tuple[dict[str, str], dict[str, str]]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def run_workload(spec, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run; returns the result object printed as the last line."""
    from recorder import Checks, Recorder
    import workloads as wl

    end_to_end, per_layer = metric_units()
    checks = Checks(known_defects=wl.KNOWN_DEFECTS)
    rec = Recorder(trace)
    golden = wl.load_golden()
    tmp = Path(tempfile.mkdtemp(prefix=".perfbench-tmp-", dir=ROOT))
    try:
        for _ in range(SETUP_REPS):
            inp = wl.setup(spec, seed, rec, checks, SRC, tmp)
        wl.run_pass(spec, inp, Recorder(False), checks, golden, tmp)  # warm-up
        wl.int32_probe(inp, rec, checks)

        pass_s = {False: [], True: []}  # by whether the pass was traced
        roots: set[int] = set()
        start = perf_counter()
        while True:
            traced = trace and len(pass_s[False]) > len(pass_s[True])
            r = rec if traced or not trace else Recorder(False)
            if traced:
                roots.add(len(rec.spans))
            with r.span("bench.pass") as p:
                wl.run_pass(spec, inp, r, checks, golden, tmp)
            pass_s[traced].append(p.seconds)
            done = len(pass_s[False]) + len(pass_s[True])
            if done >= (2 if trace else 1) and perf_counter() - start + p.seconds > seconds:
                break
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    rates = rec.rates()
    if trace:
        values = {n: max(v) if ".max_rel_err." in n else statistics.median(v)
                  for n, v in rec.samples.items()}
        self_s = rec.self_seconds(roots)
        for layer in PASS_LAYERS:
            values[f"{layer}.self_ms"] = self_s.get(layer, 0.0) * 1e3 / len(roots)
        values["trace.overhead_ms"] = 1e3 * (statistics.median(pass_s[True])
                                             - statistics.median(pass_s[False]))
        units = per_layer
        out = ROOT / ".perfbench-out" / f"spans-{spec.name}-seed{seed}.json"
        rec.write_spans(out)
        print(f"spans: {len(rec.spans)} written to {out.relative_to(ROOT)}")
        print("self ms per traced pass: " + ", ".join(
            f"{layer} {values[f'{layer}.self_ms']:.3f}" for layer in PASS_LAYERS))
    else:
        values = {n: rate for n, (rate, _) in rates.items()}
        values["setup_s"] = statistics.median(rec.samples["setup_s"])
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        units = end_to_end

    missing = sorted(set(units) - set(values))
    if missing:
        raise RuntimeError(f"metrics not produced: {missing}")
    for name, unit in units.items():
        n = rates[name][1] if name in rates else len(rec.samples.get(name, ())) or 1
        print(f"{spec.name} {name} = {values[name]:.6g} {unit} (n={n})")
    passes = len(pass_s[False]) + len(pass_s[True])
    print(f"{spec.name} passes = {passes}; checks attempted = {checks.attempted}, "
          f"failed = {checks.failed}, fail_ratio = {checks.failed / checks.attempted:.6g}")
    for name, outcome in sorted(checks.known.items()):
        print(f"known defect {name}: {outcome}")
    for failure in checks.failures[:20]:
        print(f"FAILED {failure}")
    return {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {n: {"value": values[n], "unit": u} for n, u in units.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "winoconv" / "__init__.py").is_file():
        print(f"error: no winoconv sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        codes = [subprocess.run([sys.executable, __file__, "--workload", name,
                                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                                 "--trace", str(args.trace)]).returncode
                 for name in WORKLOAD_NAMES]
        return max(codes)

    threads = pin_blas_threads()
    sys.path.insert(0, str(SRC))
    import winoconv

    if not Path(winoconv.__file__).resolve().is_relative_to(SRC):
        print(f"error: winoconv imported from {winoconv.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    print(json.dumps({"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                      "trace": args.trace, "env": environment(threads)}))
    result = run_workload(workloads.WORKLOADS[args.workload], args.seed, args.seconds,
                          bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
