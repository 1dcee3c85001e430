"""Record the golden DSE outputs the benchmark checks against.

    python3 perfbench/record_golden.py

Runs `winoconv dse` and `winoconv report` with default arguments through the
CLI, which is a different path from the benchmark's API calls, and writes the
sha256 of each CSV plus recommend()'s (m, budget) to perfbench/golden.json.
Re-record only when a change is meant to alter these outputs.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from winoconv import cli, recommend, run_sweep  # noqa: E402
from winoconv.cost_model import HardwareConfig  # noqa: E402
from winoconv.dse import SweepSpec  # noqa: E402
from winoconv.workload import load_workload  # noqa: E402

import workloads as wl  # noqa: E402


def main() -> int:
    with tempfile.TemporaryDirectory(prefix=".perfbench-golden-", dir=HERE.parent) as tmp:
        with contextlib.redirect_stdout(io.StringIO()):
            for command in ("dse", "report"):
                if cli.main([command, "--outdir", tmp]) != 0:
                    raise SystemExit(f"winoconv {command} failed")
        digests = wl.dse_digests(Path(tmp))
    sweep = SweepSpec(m_values=wl.DSE_M_VALUES, r=wl.R, budgets=wl.DSE_BUDGETS,
                      workload=load_workload(wl.DSE_WORKLOAD),
                      hw=HardwareConfig(m_total=max(wl.DSE_BUDGETS), t_c=1 / wl.FREQ_HZ))
    best = recommend(run_sweep(sweep))
    golden = {"files": digests, "recommend": [best.params.m, best.hw.m_total]}
    wl.GOLDEN_PATH.write_text(json.dumps(golden, indent=1) + "\n")
    print(json.dumps(golden, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
