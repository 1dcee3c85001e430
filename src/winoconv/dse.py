"""Design space exploration over output tile size and multiplier budget.

run_sweep evaluates every (m, budget) pair of a SweepSpec against a workload
with evaluate_design; group rows, totals, figures and Table 2 are all sums
over slices of the per-layer costs it returns.  run_sweep also derives the
percentage-change columns between consecutive tile sizes:

  - multiplication savings: 100 * (O_m(m) - O_m(m')) / O_m(m), of one layer
  - transform overhead:     100 * (t(m') - t(m)) / t(m), where
    t(m) = (beta + gamma + delta) / m^2 is the per-output-pixel transform
    cost of one tile (the workload-independent normalization; m and m' are
    consecutive swept tile sizes).

recommend() picks the highest-throughput design among tile sizes whose
incoming transition is favorable, i.e. whose transform-overhead increase
does not exceed the multiplication savings.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

from .cost_model import (
    DesignPoint,
    HardwareConfig,
    TransformOpCounts,
    count_transform_ops,
    evaluate_design,
)
from .reference_data import (
    PRIOR_DESIGNS,
    SHARED_DESIGN_BUDGETS,
    SHARED_DESIGN_GOPS_PER_W,
    SHARED_DESIGN_POWER_W,
)
from .transforms import MinimalParams, generate_transforms
from .workload import Workload


@dataclass(frozen=True)
class SweepSpec:
    m_values: tuple[int, ...]
    r: int
    budgets: tuple[int, ...]
    workload: Workload
    hw: HardwareConfig  # template; m_total is overridden per budget

    def __post_init__(self):
        if not self.m_values or not self.budgets:
            raise ValueError("m_values and budgets must be nonempty")
        if min(self.m_values) < 1:
            raise ValueError("all m values must be >= 1")
        if self.r < 1:
            raise ValueError("r must be >= 1")


@dataclass(frozen=True)
class SweepRow:
    """Per layer-group complexity and latency of one (m, budget) point."""

    m: int
    budget: int
    group: str
    o_m: float
    o_t: float
    latency_s: float


@dataclass(frozen=True)
class Transition:
    """Percentage changes between consecutive swept tile sizes."""

    m_from: int
    m_to: int
    pct_mult_decrease: float
    pct_transform_increase: float | None  # None when the smaller m has no transforms

    @property
    def favorable(self) -> bool:
        """Savings at least cover the added transform overhead."""
        if self.pct_transform_increase is None:
            return self.pct_mult_decrease > 0
        return self.pct_transform_increase <= self.pct_mult_decrease


@dataclass(frozen=True)
class SweepResult:
    spec: SweepSpec
    points: tuple[DesignPoint, ...]          # sorted by (m, budget)
    rows: tuple[SweepRow, ...]               # one per (m, budget, group)
    transitions: tuple[Transition, ...]      # between consecutive m values
    op_counts: dict[int, TransformOpCounts]


def _group_rows(workload: Workload, point: DesignPoint) -> tuple[SweepRow, ...]:
    """Per-group sums of the point's per-layer costs, in workload group order."""
    by_group = {g: [] for g in workload.groups}
    for layer, cost in zip(workload.layers, point.layers):
        by_group[layer.group].append(cost)
    return tuple(
        SweepRow(
            m=point.params.m, budget=point.hw.m_total, group=group,
            o_m=sum(c.o_m for c in costs),
            o_t=sum(c.o_t for c in costs),
            latency_s=sum(c.latency_s for c in costs),
        )
        for group, costs in by_group.items()
    )


def run_sweep(spec: SweepSpec) -> SweepResult:
    ms = sorted(set(spec.m_values))
    budgets = sorted(set(spec.budgets))
    counts: dict[int, TransformOpCounts] = {}
    for m in ms:
        try:
            ts = generate_transforms(MinimalParams(m, spec.r))
        except ValueError as exc:
            raise ValueError(f"transform generation failed for m={m}: {exc}") from exc
        counts[m] = count_transform_ops(ts)

    points: list[DesignPoint] = []
    rows: list[SweepRow] = []
    for m in ms:
        params = MinimalParams(m, spec.r)
        for budget in budgets:
            hw = HardwareConfig(m_total=budget, t_c=spec.hw.t_c, d_p=spec.hw.d_p)
            point = evaluate_design(spec.workload.shapes, params, hw, counts[m])
            points.append(point)
            rows.extend(_group_rows(spec.workload, point))

    # O_m of one layer does not depend on the budget; any layer gives the ratio.
    first_layer_om = {pt.params.m: pt.layers[0].o_m for pt in points}
    per_pixel_transform_ops = {m: (c.beta + c.gamma + c.delta) / m**2 for m, c in counts.items()}
    transitions: list[Transition] = []
    for m_from, m_to in zip(ms, ms[1:]):
        om_from, om_to = first_layer_om[m_from], first_layer_om[m_to]
        pct_mult = 100.0 * (om_from - om_to) / om_from
        t_from, t_to = per_pixel_transform_ops[m_from], per_pixel_transform_ops[m_to]
        transitions.append(Transition(
            m_from=m_from, m_to=m_to,
            pct_mult_decrease=pct_mult,
            pct_transform_increase=(100.0 * (t_to - t_from) / t_from) if t_from > 0 else None,
        ))

    return SweepResult(
        spec=spec, points=tuple(points), rows=tuple(rows),
        transitions=tuple(transitions), op_counts=counts,
    )


def recommend(result: SweepResult) -> DesignPoint:
    """Max-throughput design whose incoming m transition is favorable.

    The smallest swept m is always feasible.  Ties break toward smaller m,
    then toward the smaller budget.
    """
    if not result.points:
        raise ValueError("cannot recommend from an empty sweep")
    feasible = {min(p.params.m for p in result.points)}
    for tr in result.transitions:
        if tr.favorable:
            feasible.add(tr.m_to)
    candidates = [p for p in result.points if p.params.m in feasible]
    return max(candidates, key=lambda p: (p.throughput, -p.params.m, -p.hw.m_total))


@dataclass(frozen=True)
class Table2Row:
    name: str
    m: int | None
    r: int | None
    multipliers: int
    pes: int | None
    precision_bits: int
    freq_mhz: float
    conv_ms: tuple[float, ...]
    overall_ms: float
    gops: float
    gops_per_mult: float
    power_w: float | None
    gops_per_w: float | None
    computed: bool


@dataclass(frozen=True)
class Table2Report:
    groups: tuple[str, ...]
    rows: tuple[Table2Row, ...]


def table2_report(workload: Workload, freq_hz: float = 200e6) -> Table2Report:
    """Per-group latency / throughput / efficiency comparison on VGG16-D.

    Prior designs, then those of SHARED_DESIGN_BUDGETS.  Latency, throughput
    and multiplier efficiency of the shared-transform designs are computed
    from the analytical model (group latencies are run_sweep's group rows);
    frequency, precision and power columns of prior designs are echoed from
    the static reference rows and never derived.
    """
    if workload.name != "vgg16d":
        raise ValueError(
            f"the comparison table is defined for the vgg16d workload, got {workload.name!r}"
        )
    rows = [
        Table2Row(m=None, r=None, computed=False,
                  **{k: v for k, v in vars(ref).items() if k != "note"})
        for ref in PRIOR_DESIGNS
    ]
    for m, r, budget in SHARED_DESIGN_BUDGETS:
        params = MinimalParams(m, r)
        hw = HardwareConfig(m_total=budget, t_c=1.0 / freq_hz)
        ts = generate_transforms(params)
        counts = count_transform_ops(ts)
        point = evaluate_design(workload.shapes, params, hw, counts)
        conv_ms = tuple(1e3 * row.latency_s for row in _group_rows(workload, point))
        power = SHARED_DESIGN_POWER_W.get(m)
        rows.append(Table2Row(
            name=f"shared_transform_m{m}", m=m, r=r,
            multipliers=budget, pes=point.p, precision_bits=32,
            freq_mhz=freq_hz / 1e6,
            conv_ms=conv_ms, overall_ms=point.t_total * 1e3,
            gops=point.throughput / 1e9,
            gops_per_mult=point.throughput / 1e9 / budget,
            power_w=power, gops_per_w=SHARED_DESIGN_GOPS_PER_W.get(m),
            computed=True,
        ))
    return Table2Report(groups=workload.groups, rows=tuple(rows))


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, float):
        return f"{x:.6g}"
    return str(x)


def write_fig1_csv(result: SweepResult, path: str | Path):
    """Per-group multiplication complexity: m, group, O_m."""
    budget0 = min(r.budget for r in result.rows)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["m", "group", "o_m"])
        for row in result.rows:
            if row.budget == budget0:
                w.writerow([row.m, row.group, _fmt(row.o_m)])


def write_fig2_csv(result: SweepResult, path: str | Path):
    """Whole-network transform complexity: m, O_t (design totals)."""
    budget0 = min(p.hw.m_total for p in result.points)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["m", "o_t"])
        for point in result.points:
            if point.hw.m_total == budget0:
                w.writerow([point.params.m, _fmt(point.o_t)])


def write_fig3_csv(result: SweepResult, path: str | Path):
    """Percentage changes between consecutive m, keyed by the destination m."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["m", "pct_mult_decrease", "pct_transform_increase"])
        for tr in result.transitions:
            w.writerow([tr.m_to, _fmt(tr.pct_mult_decrease), _fmt(tr.pct_transform_increase)])


def write_fig6_csv(result: SweepResult, path: str | Path):
    """Throughput surface: m, multipliers, gops."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["m", "multipliers", "gops"])
        for point in result.points:
            w.writerow([point.params.m, point.hw.m_total, _fmt(point.throughput / 1e9)])


def write_table2_csv(report: Table2Report, path: str | Path):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        header = ["design"] + [f"{g}_ms" for g in report.groups]
        header += ["overall_ms", "gops", "gops_per_mult"]
        w.writerow(header)
        for row in report.rows:
            w.writerow([row.name] + [_fmt(round(v, 4)) for v in row.conv_ms]
                       + [_fmt(round(row.overall_ms, 4)), _fmt(round(row.gops, 2)),
                          _fmt(round(row.gops_per_mult, 4))])


def write_table2_reference_csv(report: Table2Report, path: str | Path):
    """Echoed static attributes (precision, frequency, power) per design."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["design", "multipliers", "pes", "precision_bits", "freq_mhz",
                    "power_w", "gops_per_w", "computed"])
        for row in report.rows:
            w.writerow([row.name, row.multipliers, _fmt(row.pes), row.precision_bits,
                        _fmt(row.freq_mhz), _fmt(row.power_w), _fmt(row.gops_per_w),
                        int(row.computed)])
