import csv

import pytest

from winoconv.cost_model import HardwareConfig, count_transform_ops, pe_count, pipeline_depth
from winoconv.dse import (
    SweepSpec,
    group_costs,
    recommend,
    run_sweep,
    table2_report,
    write_fig1_csv,
    write_fig2_csv,
    write_fig3_csv,
    write_fig6_csv,
    write_table2_csv,
    write_table2_reference_csv,
)
from winoconv.reference_data import PRIOR_DESIGNS
from winoconv.transforms import MinimalParams, generate_transforms
from winoconv.workload import VGG16D, Workload, WorkloadLayer, load_workload
from winoconv.cost_model import LayerShape


@pytest.fixture(scope="module")
def vgg():
    return load_workload("vgg16d")


@pytest.fixture(scope="module")
def sweep(vgg):
    hw = HardwareConfig(m_total=700)
    spec = SweepSpec(m_values=(1, 2, 3, 4, 5), r=3, budgets=(688, 700, 684),
                     workload=vgg, hw=hw)
    return run_sweep(spec)


def test_sweep_m1_is_spatial_baseline(vgg):
    hw = HardwareConfig(m_total=90)
    spec = SweepSpec(m_values=(1,), r=3, budgets=(90,), workload=vgg, hw=hw)
    result = run_sweep(spec)
    point = result.points[0]
    assert all(sum(c.o_t for c in costs) == 0 for costs in group_costs(vgg, point).values())
    # with m = 1 every PE performs r^2 multiplications per output pixel
    p = 90 // 9
    total = sum(l.nhwck for l in vgg.shapes)
    fill = len(vgg.shapes) * (pipeline_depth(MinimalParams(1, 3)) - 1) * 5e-9
    assert point.t_total - fill == pytest.approx(total / p * 5e-9)
    assert point.throughput == pytest.approx(point.o_s / point.t_total)


def test_sweep_point_structure(sweep, vgg):
    # one point per (m, budget), sorted by (m, budget)
    order = [(p.params.m, p.hw.m_total) for p in sweep.points]
    assert order == sorted(set(order)) and len(order) == 5 * 3
    # every point has every workload group, in order, holding that group's layers in order
    for point in sweep.points:
        by_group = group_costs(vgg, point)
        assert list(by_group) == list(vgg.groups)
        assert [c for costs in by_group.values() for c in costs] == list(point.layers)
        assert [len(costs) for costs in by_group.values()] == [
            sum(l.group == g for l in vgg.layers) for g in vgg.groups]


def test_transition_percentages(sweep):
    by_pair = {(t.m_from, t.m_to): t for t in sweep.transitions}
    t34 = by_pair[(3, 4)]
    assert t34.pct_mult_decrease == pytest.approx(19.0, abs=0.01)
    assert t34.pct_transform_increase == pytest.approx(5.58, abs=3.0)
    t45 = by_pair[(4, 5)]
    assert t45.pct_mult_decrease == pytest.approx(12.89, abs=0.01)
    assert t45.pct_transform_increase == pytest.approx(31.31, abs=3.0)
    # savings dominate into m=4, overhead dominates into m=5
    assert t34.favorable
    assert not t45.favorable
    # transition out of the no-transform case is favorable by convention
    t12 = by_pair[(1, 2)]
    assert t12.pct_transform_increase is None and t12.favorable


def test_recommend_picks_m4(sweep):
    best = recommend(sweep)
    assert best.params.m == 4
    assert best.p == 19


def test_recommend_single_point(vgg):
    hw = HardwareConfig(m_total=700)
    res = run_sweep(SweepSpec(m_values=(3,), r=3, budgets=(700,), workload=vgg, hw=hw))
    assert recommend(res).params.m == 3


def test_recommend_restricted_to_m2(vgg):
    hw = HardwareConfig(m_total=700)
    res = run_sweep(SweepSpec(m_values=(1, 2), r=3, budgets=(700,), workload=vgg, hw=hw))
    assert recommend(res).params.m == 2


def test_throughput_monotonic_in_m_at_fixed_budget(sweep):
    tputs = [p.throughput for p in sweep.points
             if p.hw.m_total == 700 and p.params.m in (2, 3, 4)]
    assert tputs == sorted(tputs)


def test_equal_pe_counts_give_equal_throughput(sweep):
    # all three budgets floor to P = 19 at m = 4
    m4 = [p for p in sweep.points if p.params.m == 4]
    assert {p.p for p in m4} == {19}
    assert len({round(p.throughput, 6) for p in m4}) == 1


def test_design_point_invariants(sweep):
    for p in sweep.points:
        assert p.p == p.hw.m_total // p.params.alpha**2
        assert p.throughput == pytest.approx(p.o_s / p.t_total)


def test_sweep_axes_are_stored_once_and_a_sweep_hashes():
    hw = HardwareConfig(700)
    spec = SweepSpec((3, 2, 2), 3, (700, 688, 700), VGG16D, hw)
    same = SweepSpec((2, 3), 3, (688, 700), VGG16D, hw)
    assert (spec.m_values, spec.budgets) == ((2, 3), (688, 700))
    assert spec == same and hash(spec) == hash(same)
    result = run_sweep(spec)
    assert result == run_sweep(same) and hash(result) == hash(run_sweep(same))
    # each point keeps the op counts it was priced with; the sweep's map reads them back
    assert result.op_counts == {m: count_transform_ops(generate_transforms(MinimalParams(m, 3)))
                                for m in (2, 3)}
    assert [pt.p for pt in result.points] == [pe_count(pt.hw.m_total, pt.params)
                                              for pt in result.points] == [43, 43, 27, 28]


def test_sweep_propagates_generation_failure(vgg, monkeypatch):
    import winoconv.dse as dse_module

    def broken(params, points=None):
        raise ValueError("synthetic failure")

    monkeypatch.setattr(dse_module, "generate_transforms", broken)
    hw = HardwareConfig(m_total=700)
    spec = SweepSpec(m_values=(4,), r=3, budgets=(700,), workload=vgg, hw=hw)
    with pytest.raises(ValueError, match="failed for m=4"):
        run_sweep(spec)


def test_sweep_spec_validation(vgg):
    hw = HardwareConfig(m_total=700)
    with pytest.raises(ValueError):
        SweepSpec(m_values=(), r=3, budgets=(700,), workload=vgg, hw=hw)
    with pytest.raises(ValueError):
        SweepSpec(m_values=(2,), r=3, budgets=(), workload=vgg, hw=hw)
    with pytest.raises(ValueError):
        SweepSpec(m_values=(0,), r=3, budgets=(700,), workload=vgg, hw=hw)


def test_csv_outputs(tmp_path, sweep, vgg):
    write_fig1_csv(sweep, tmp_path / "fig1.csv")
    write_fig2_csv(sweep, tmp_path / "fig2.csv")
    write_fig3_csv(sweep, tmp_path / "fig3.csv")
    write_fig6_csv(sweep, tmp_path / "fig6.csv")

    with open(tmp_path / "fig1.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["m", "group", "o_m"]
    assert len(rows) == 1 + 5 * len(vgg.groups)

    with open(tmp_path / "fig2.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["m", "o_t"]
    assert [r[0] for r in rows[1:]] == ["1", "2", "3", "4", "5"]
    assert float(rows[1][1]) == 0.0

    with open(tmp_path / "fig3.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["m", "pct_mult_decrease", "pct_transform_increase"]
    assert [r[0] for r in rows[1:]] == ["2", "3", "4", "5"]
    assert rows[1][2] == ""  # no transform baseline at m = 1

    with open(tmp_path / "fig6.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["m", "multipliers", "gops"]
    assert len(rows) == 1 + 5 * 3


def test_csv_outputs_deterministic(tmp_path, vgg):
    hw = HardwareConfig(m_total=700)
    spec = SweepSpec(m_values=(2, 3, 4), r=3, budgets=(700,), workload=vgg, hw=hw)
    blobs = []
    for i in range(2):
        result = run_sweep(spec)
        path = tmp_path / f"fig6_{i}.csv"
        write_fig6_csv(result, path)
        blobs.append(path.read_bytes())
    assert blobs[0] == blobs[1]


def test_table2_report_values(vgg):
    rows = {r.name: r for r in table2_report(vgg)}
    m4 = rows["shared_transform_m4"]
    expected = (3.54, 5.07, 8.45, 8.45, 2.54)
    for got, want in zip(m4.conv_ms, expected):
        assert got == pytest.approx(want, abs=0.01)
    assert m4.overall_ms == pytest.approx(28.05, abs=0.02)
    assert m4.gops == pytest.approx(1094.3, rel=5e-3)

    m3 = rows["shared_transform_m3"]
    assert m3.overall_ms == pytest.approx(33.83, abs=0.02)
    assert m3.gops == pytest.approx(907.2, rel=5e-3)

    m2 = rows["shared_transform_m2"]
    assert m2.overall_ms == pytest.approx(49.57, abs=0.02)
    assert m2.gops == pytest.approx(619.2, rel=5e-3)
    # identical latency to the budget-normalized per-PE-transform design
    norm = rows["prior_1d_engine_norm688"]
    assert m2.overall_ms == pytest.approx(norm.overall_ms, abs=0.02)
    assert not norm.computed and m2.computed


def test_norm688_row_scales_the_published_engine_to_688_multipliers():
    rows = {r.name: r for r in PRIOR_DESIGNS}
    prior, norm = rows["prior_1d_engine"], rows["prior_1d_engine_norm688"]
    assert norm.conv_ms == tuple(round(ms * 256 / 688, 2) for ms in prior.conv_ms)
    assert norm.overall_ms == round(prior.overall_ms * 256 / 688, 2)
    assert norm.gops == round(230.4 * 688 / 256, 1) == 619.2
    assert norm.power_w == round(8.04 * 688 / 256, 2) == 21.61
    assert (prior.multipliers, prior.gops, prior.power_w) == (256, 230.4, 8.04)
    assert (norm.multipliers, norm.pes) == (688, 688 // 16) == (688, 43)
    for field in ("gops_per_w", "gops_per_mult", "precision_bits", "freq_mhz"):
        assert getattr(norm, field) == getattr(prior, field)


def test_table2_requires_vgg16d():
    small = Workload("tiny", (WorkloadLayer(LayerShape(1, 8, 8, 2, 2, 3), 1, "g1"),))
    with pytest.raises(ValueError, match="vgg16d"):
        table2_report(small)


def test_table2_checks_the_layers_not_the_name():
    # A one-layer workload named vgg16d wrote a table2.csv with 5 header and 9 row columns.
    fake = Workload("vgg16d", (WorkloadLayer(LayerShape(1, 8, 8, 2, 2, 3), 1, "g1"),))
    with pytest.raises(ValueError, match="builtin vgg16d workload, got 'vgg16d' with 1 layers"):
        table2_report(fake)


def test_sweep_r_must_match_every_layer(vgg):
    # r=5 on VGG16-D's 3x3 layers priced F(m,5) transforms and recommended m=5.
    hw = HardwareConfig(m_total=700)
    with pytest.raises(ValueError, match="r=5 does not match a 3x3 layer of workload 'vgg16d'"):
        SweepSpec(m_values=(2, 3), r=5, budgets=(700,), workload=vgg, hw=hw)
    mixed = Workload("mixed", (WorkloadLayer(LayerShape(1, 8, 8, 2, 2, 3), 1, "a"),
                               WorkloadLayer(LayerShape(1, 8, 8, 2, 2, 5), 2, "b")))
    with pytest.raises(ValueError, match="sweep r=3 does not match a 5x5 layer"):
        SweepSpec(m_values=(2, 3), r=3, budgets=(700,), workload=mixed, hw=hw)


@pytest.mark.parametrize("freq_hz", [0.0, -200e6, float("nan"), float("inf"), 300e6])
def test_table2_rejects_bad_frequency(vgg, freq_hz):
    # 300 MHz priced shared_transform_m2 at 928.8 GOPS beside power measured at 200 MHz
    with pytest.raises(ValueError, match=rf"^the comparison table is priced at the builds' "
                                         rf"200 MHz clock, got {freq_hz} Hz$"):
        table2_report(vgg, freq_hz=freq_hz)


def test_table2_csv_headers(tmp_path, vgg):
    designs = table2_report(vgg)
    write_table2_csv(designs, tmp_path / "table2.csv")
    write_table2_reference_csv(designs, tmp_path / "table2_reference.csv")
    with open(tmp_path / "table2.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["design", "conv1_ms", "conv2_ms", "conv3_ms", "conv4_ms",
                       "conv5_ms", "overall_ms", "gops", "gops_per_mult"]
    names = [r[0] for r in rows[1:]]
    assert "shared_transform_m4" in names and "prior_1d_engine" in names
    with open(tmp_path / "table2_reference.csv") as fh:
        ref_rows = list(csv.reader(fh))
    assert ref_rows[0][:2] == ["design", "multipliers"]
    by_name = {r[0]: r for r in ref_rows[1:]}
    # power numbers are echoed statics, never derived
    assert float(by_name["shared_transform_m4"][5]) == 36.32


def test_table2_group_latencies_are_sweep_group_sums(vgg):
    hw = HardwareConfig(m_total=700)
    computed = [r for r in table2_report(vgg) if r.computed]
    spec = SweepSpec(m_values=tuple(r.m for r in computed), r=3,
                     budgets=tuple(r.multipliers for r in computed), workload=vgg, hw=hw)
    result = run_sweep(spec)
    for design in computed:
        [point] = [p for p in result.points
                   if (p.params.m, p.hw.m_total) == (design.m, design.multipliers)]
        by_group = group_costs(vgg, point)
        assert list(by_group) == list(vgg.groups)
        assert design.conv_ms == tuple(1e3 * sum(c.latency_s for c in costs)
                                       for costs in by_group.values())


def test_group_rows_sum_to_point_totals(sweep, vgg):
    for point in sweep.points:
        groups = group_costs(vgg, point).values()
        for field, total in (("o_m", point.o_m), ("o_t", point.o_t),
                             ("latency_s", point.t_total)):
            group_sums = [sum(getattr(c, field) for c in costs) for costs in groups]
            assert sum(group_sums) == pytest.approx(total, rel=1e-12)
