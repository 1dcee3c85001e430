"""Design space exploration over output tile size and multiplier budget.

run_sweep, the one DesignPoint builder, prices every (m, budget) pair of a
SweepSpec against a workload, all of one m's budgets in one pass over the layers
(cost_model.price_layers).  Group sums (through group_costs), totals, figures and
Table 2 are sums over a point's per-layer costs.  run_sweep also derives the
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
from pathlib import Path

from .cost_model import (
    DesignPoint,
    HardwareConfig,
    LayerCost,
    TransformOpCounts,
    count_transform_ops,
    pe_count,
    price_layers,
)
from .reference_data import FREQ_HZ, PRIOR_DESIGNS, SHARED_DESIGNS, Table2Row
from .transforms import MinimalParams, Record, _checked_int, generate_transforms
from .workload import VGG16D, Workload


class SweepSpec(Record):
    def __init__(self, m_values: tuple[int, ...], r: int, budgets: tuple[int, ...],
                 workload: Workload, hw: HardwareConfig):
        # hw is unread: run_sweep builds one HardwareConfig per budget
        if not m_values or not budgets:
            raise ValueError("m_values and budgets must be nonempty")
        params = [MinimalParams(m, r) for m in m_values]  # checks m and r
        budgets = tuple([_checked_int(b, "multiplier budget", 1) for b in budgets])
        r = params[0].r
        for layer in workload.shapes:
            if layer.r != r:
                raise ValueError(f"sweep r={r} does not match a {layer.r}x{layer.r} "
                                 f"layer of workload {workload.name!r}")
        self.__dict__.update(m_values=tuple([p.m for p in params]), r=r, budgets=budgets,
                             workload=workload, hw=hw)


class Transition(Record):
    """Percentage changes between consecutive swept tile sizes.

    pct_transform_increase is None when the smaller m has no transforms.
    """

    def __init__(self, m_from: int, m_to: int, pct_mult_decrease: float,
                 pct_transform_increase: float | None):
        self.__dict__.update(m_from=m_from, m_to=m_to, pct_mult_decrease=pct_mult_decrease,
                             pct_transform_increase=pct_transform_increase)

    @property
    def favorable(self) -> bool:
        """Savings at least cover the added transform overhead."""
        if self.pct_transform_increase is None:
            return self.pct_mult_decrease > 0
        return self.pct_transform_increase <= self.pct_mult_decrease


class SweepResult(Record):
    """points are sorted by (m, budget); transitions lie between consecutive m values."""

    def __init__(self, spec: SweepSpec, points: tuple[DesignPoint, ...],
                 transitions: tuple[Transition, ...], op_counts: dict[int, TransformOpCounts]):
        self.__dict__.update(spec=spec, points=points, transitions=transitions,
                             op_counts=op_counts)


def group_costs(workload: Workload, point: DesignPoint) -> dict[str, list[LayerCost]]:
    """The point's per-layer costs by workload group, groups and layers in workload order."""
    by_group: dict[str, list[LayerCost]] = {g: [] for g in workload.groups}
    for layer, cost in zip(workload.layers, point.layers):
        by_group[layer.group].append(cost)
    return by_group


def run_sweep(spec: SweepSpec) -> SweepResult:
    ms = sorted(set(spec.m_values))
    budgets = sorted(set(spec.budgets))
    counts: dict[int, TransformOpCounts] = {}
    points: list[DesignPoint] = []
    for m in ms:
        params = MinimalParams(m, spec.r)
        try:
            ts = generate_transforms(params)
        except ValueError as exc:
            raise ValueError(f"transform generation failed for m={m}: {exc}") from exc
        counts[m] = count_transform_ops(ts)
        ps = [pe_count(budget, params) for budget in budgets]
        priced = price_layers(spec.workload.shapes, params, counts[m], ps)
        points += [DesignPoint(params=params, hw=HardwareConfig(budget), p=p, layers=tuple(costs))
                   for budget, p, costs in zip(budgets, ps, priced)]

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
        spec=spec, points=tuple(points), transitions=tuple(transitions), op_counts=counts,
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


def table2_report(workload: Workload, freq_hz: float = FREQ_HZ) -> tuple[Table2Row, ...]:
    """Per-group latency / throughput / efficiency comparison on VGG16-D, one row per design.

    Prior designs, then the SHARED_DESIGNS builds at their FREQ_HZ clock,
    each read from a one-point run_sweep: latency, throughput and multiplier
    efficiency from its design point, group latencies (in VGG16D.groups
    order) from group_costs.  Frequency, precision and power are echoed from
    the static reference data, never derived.  A workload other than VGG16D
    or a freq_hz other than FREQ_HZ is a ValueError.
    """
    if workload != VGG16D:
        raise ValueError(
            f"the comparison table is defined for the builtin vgg16d workload, "
            f"got {workload.name!r} with {len(workload.layers)} layers"
        )
    if freq_hz != FREQ_HZ:
        raise ValueError(f"the comparison table is priced at the builds' "
                         f"{FREQ_HZ / 1e6:g} MHz clock, got {freq_hz} Hz")
    rows = list(PRIOR_DESIGNS)
    for m, r, budget, power_w, gops_per_w in SHARED_DESIGNS:
        point = run_sweep(SweepSpec((m,), r, (budget,), workload, HardwareConfig(budget))).points[0]
        conv_ms = tuple(1e3 * sum(c.latency_s for c in costs)
                        for costs in group_costs(workload, point).values())
        rows.append(Table2Row(
            name=f"shared_transform_m{m}", m=m,
            multipliers=budget, pes=point.p, precision_bits=32,
            freq_mhz=FREQ_HZ / 1e6,
            conv_ms=conv_ms, overall_ms=point.t_total * 1e3,
            gops=point.throughput / 1e9,
            gops_per_mult=point.throughput / 1e9 / budget,
            power_w=power_w, gops_per_w=gops_per_w,
        ))
    return tuple(rows)


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, float):
        return f"{x:.6g}"
    return str(x)


def _write_csv(path: str | Path, header: list[str], rows) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def write_fig1_csv(result: SweepResult, path: str | Path):
    """Per-group multiplication complexity: m, group, O_m."""
    budget0 = min(p.hw.m_total for p in result.points)
    _write_csv(path, ["m", "group", "o_m"],
               ([pt.params.m, group, _fmt(sum(c.o_m for c in costs))]
                for pt in result.points if pt.hw.m_total == budget0
                for group, costs in group_costs(result.spec.workload, pt).items()))


def write_fig2_csv(result: SweepResult, path: str | Path):
    """Whole-network transform complexity: m, O_t (design totals)."""
    budget0 = min(p.hw.m_total for p in result.points)
    _write_csv(path, ["m", "o_t"],
               ([pt.params.m, _fmt(pt.o_t)] for pt in result.points if pt.hw.m_total == budget0))


def write_fig3_csv(result: SweepResult, path: str | Path):
    """Percentage changes between consecutive m, keyed by the destination m."""
    _write_csv(path, ["m", "pct_mult_decrease", "pct_transform_increase"],
               ([tr.m_to, _fmt(tr.pct_mult_decrease), _fmt(tr.pct_transform_increase)]
                for tr in result.transitions))


def write_fig6_csv(result: SweepResult, path: str | Path):
    """Throughput surface: m, multipliers, gops."""
    _write_csv(path, ["m", "multipliers", "gops"],
               ([pt.params.m, pt.hw.m_total, _fmt(pt.throughput / 1e9)] for pt in result.points))


def write_table2_csv(rows: tuple[Table2Row, ...], path: str | Path):
    """Per-group and overall latency, GOPS and GOPS/multiplier per design."""
    header = ["design", *(f"{g}_ms" for g in VGG16D.groups), "overall_ms", "gops", "gops_per_mult"]
    _write_csv(path, header,
               ([row.name] + [_fmt(round(v, 4)) for v in row.conv_ms]
                + [_fmt(round(row.overall_ms, 4)), _fmt(round(row.gops, 2)),
                   _fmt(round(row.gops_per_mult, 4))]
                for row in rows))


def write_table2_reference_csv(rows: tuple[Table2Row, ...], path: str | Path):
    """Echoed static attributes (precision, frequency, power) per design."""
    _write_csv(path, ["design", "multipliers", "pes", "precision_bits", "freq_mhz",
                      "power_w", "gops_per_w", "computed"],
               ([row.name, row.multipliers, _fmt(row.pes), row.precision_bits,
                 _fmt(row.freq_mhz), _fmt(row.power_w), _fmt(row.gops_per_w), int(row.computed)]
                for row in rows))
