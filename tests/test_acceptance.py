"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Criteria 1 and 2 carry runtime budgets which are asserted.
"""

import time
from fractions import Fraction

import numpy as np
import pytest

from winoconv.conv import ConvSpec, FeatureMap, KernelBank, spatial_conv, winograd_conv
from winoconv.cost_model import (
    HardwareConfig,
    LayerShape,
    count_transform_ops,
    exact_cycles,
)
from winoconv.dse import SweepSpec, recommend, run_sweep, table2_report
from winoconv.pipeline_sim import (
    EngineConfig,
    expected_cycles,
    simulate_layer,
    validate_against_analytical,
)
from winoconv.reference_data import (
    FREQ_HZ,
    RESOURCE_UTILIZATION_19PE,
    SHARED_DESIGNS,
)
from winoconv.transforms import (
    MinimalParams,
    generate_transforms,
    winograd_1d_exact,
    winograd_2d_tile_exact,
)
from winoconv.workload import VGG16D, load_workload

PARAM_SET = [(2, 3), (3, 3), (4, 3), (5, 3)]
TRIALS = 1000


def _ok(n, msg):
    print(f"\n[criterion {n}] PASS - {msg}")


def test_criterion_1_transform_correctness():
    rng = np.random.default_rng(20240901)
    start = time.monotonic()
    worst = 0.0
    for m, r in PARAM_SET:
        ts = generate_transforms(MinimalParams(m, r))
        alpha = m + r - 1

        # 64-bit float, batched: 1D
        d = rng.standard_normal((TRIALS, alpha))
        g = rng.standard_normal((TRIALS, r))
        u = d @ ts.bt.T
        v = g @ ts.g.T
        y = (u * v) @ ts.at.T
        ref = np.zeros((TRIALS, m))
        for j in range(m):
            ref[:, j] = np.sum(d[:, j : j + r] * g, axis=1)
        err = np.max(np.abs(y - ref)) / np.max(np.abs(ref))
        worst = max(worst, err)
        assert err <= 1e-10, f"1D F({m},{r}) float64 error {err}"

        # 64-bit float, batched: 2D
        d2 = rng.standard_normal((TRIALS, alpha, alpha))
        g2 = rng.standard_normal((TRIALS, r, r))
        u2 = np.einsum("ji,tjl,lo->tio", ts.bt.T, d2, ts.bt.T)
        v2 = np.einsum("ij,tjl,ol->tio", ts.g, g2, ts.g)
        y2 = np.einsum("ji,tjl,lo->tio", ts.at.T, u2 * v2, ts.at.T)
        ref2 = np.zeros((TRIALS, m, m))
        for i in range(m):
            for j in range(m):
                ref2[:, i, j] = np.einsum("tuv,tuv->t", d2[:, i : i + r, j : j + r], g2)
        err = np.max(np.abs(y2 - ref2)) / np.max(np.abs(ref2))
        worst = max(worst, err)
        assert err <= 1e-10, f"2D F({m},{r}) float64 error {err}"

        # exact rational mode, integer-valued trials, bit-identical equality
        d1i = rng.integers(-3, 4, size=(TRIALS, alpha))
        g1i = rng.integers(-3, 4, size=(TRIALS, r))
        ref1i = np.zeros((TRIALS, m), dtype=np.int64)
        for j in range(m):
            ref1i[:, j] = np.sum(d1i[:, j : j + r] * g1i, axis=1)
        d2i = rng.integers(-3, 4, size=(TRIALS, alpha, alpha))
        g2i = rng.integers(-3, 4, size=(TRIALS, r, r))
        ref2i = np.zeros((TRIALS, m, m), dtype=np.int64)
        for i in range(m):
            for j in range(m):
                ref2i[:, i, j] = np.einsum(
                    "tuv,tuv->t", d2i[:, i : i + r, j : j + r], g2i)
        d1l, g1l, ref1l = d1i.tolist(), g1i.tolist(), ref1i.tolist()
        d2l, g2l, ref2l = d2i.tolist(), g2i.tolist(), ref2i.tolist()
        for t in range(TRIALS):
            y1 = winograd_1d_exact(ts, d1l[t], g1l[t])
            assert list(y1) == ref1l[t], f"1D F({m},{r}) rational mismatch"
            y2e = winograd_2d_tile_exact(ts, d2l[t], g2l[t])
            assert [list(row) for row in y2e] == ref2l[t], \
                f"2D F({m},{r}) rational mismatch"
    elapsed = time.monotonic() - start
    assert elapsed < 10.0, f"criterion 1 took {elapsed:.1f} s (budget 10 s)"
    _ok(1, f"{TRIALS} trials x {len(PARAM_SET)} configs, 1D+2D, float64 "
           f"max rel err {worst:.2e} <= 1e-10, rational mode exact, {elapsed:.1f} s")


def test_criterion_2_layer_oracle_equivalence():
    start = time.monotonic()
    worst = 0.0
    cases = 0
    for m, r in [(2, 3), (3, 3), (4, 3)]:
        rng = np.random.default_rng(500 + m)
        ts = generate_transforms(MinimalParams(m, r))
        for trial in range(50):
            n = int(rng.integers(1, 3))
            c = int(rng.integers(1, 5))
            k = int(rng.integers(1, 9))
            h = int(rng.integers(r, 17))
            w = int(rng.integers(r, 17))
            pad = int(rng.integers(0, 2))
            if trial == 0:  # pin one non-divisible shape: 14x14 with m=4
                n, c, k, h, w, pad = 1, 3, 8, 14, 14, 1
            fmap = FeatureMap(rng.standard_normal((n, c, h, w)).astype(np.float32))
            kern = KernelBank(rng.standard_normal((k, c, r, r)).astype(np.float32))
            spec = ConvSpec(pad=pad)
            ref = spatial_conv(fmap, kern, spec)
            got = winograd_conv(fmap, kern, spec, ts)
            err = np.max(np.abs(got.data - ref.data)) / (np.max(np.abs(ref.data)) or 1.0)
            worst = max(worst, float(err))
            assert err < 1e-4, f"F({m},{r}) {n}x{c}x{h}x{w} k={k} pad={pad}: err {err}"
            cases += 1
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"criterion 2 took {elapsed:.1f} s (budget 60 s)"
    _ok(2, f"{cases} random layers, winograd == spatial within 1e-4 "
           f"(worst {worst:.2e}), {elapsed:.1f} s")


def test_criterion_3_performance_table():
    vgg = load_workload("vgg16d")
    rows = {r.name: r for r in table2_report(vgg) if r.computed}

    expected = {
        "shared_transform_m2": (43, (6.25, 8.96, 14.94, 14.94, 4.48), 49.57, 619.2, 0.90),
        "shared_transform_m3": (28, (4.27, 6.12, 10.19, 10.19, 3.06), 33.83, 907.2, 1.29),
        "shared_transform_m4": (19, (3.54, 5.07, 8.45, 8.45, 2.54), 28.05, 1094.3, 1.60),
    }
    for name, (pes, groups_ms, overall, gops, eff) in expected.items():
        row = rows[name]
        assert row.pes == pes, f"{name}: PE count {row.pes} != {pes}"
        for got, want in zip(row.conv_ms, groups_ms):
            assert got == pytest.approx(want, abs=0.01), f"{name}: group {got} vs {want}"
        assert row.overall_ms == pytest.approx(overall, abs=0.02)
        assert row.gops == pytest.approx(gops, rel=5e-3)
        assert row.gops_per_mult == pytest.approx(eff, abs=0.01)
    _ok(3, "PE counts {43,28,19}, group latencies +-0.01 ms, overall +-0.02 ms, "
           "throughput +-0.5%, multiplier efficiency +-0.01")


def test_criterion_4_crossover_percentages():
    vgg = load_workload("vgg16d")
    hw = HardwareConfig(m_total=700, t_c=5e-9)
    result = run_sweep(SweepSpec(m_values=(1, 2, 3, 4, 5), r=3, budgets=(700,),
                                 workload=vgg, hw=hw))
    tr = {(t.m_from, t.m_to): t for t in result.transitions}

    t34, t45 = tr[(3, 4)], tr[(4, 5)]
    assert t34.pct_mult_decrease == pytest.approx(19.0, abs=0.5)
    assert t34.pct_transform_increase == pytest.approx(5.58, abs=3.0)
    assert t45.pct_mult_decrease == pytest.approx(12.89, abs=0.5)
    assert t45.pct_transform_increase == pytest.approx(31.31, abs=3.0)
    # sign pattern: savings dominate into m=4, overhead dominates at m=5
    assert t34.pct_transform_increase < t34.pct_mult_decrease
    assert t45.pct_transform_increase > t45.pct_mult_decrease
    best = recommend(result)
    assert best.params.m == 4
    _ok(4, f"m3->4: -{t34.pct_mult_decrease:.2f}% mult / +{t34.pct_transform_increase:.2f}% "
           f"transforms; m4->5: -{t45.pct_mult_decrease:.2f}% / "
           f"+{t45.pct_transform_increase:.2f}%; recommend() -> m=4")


def test_criterion_5_shared_transform_saving():
    rng = np.random.default_rng(9)
    spec = ConvSpec(pad=1)
    params = MinimalParams(2, 3)
    # K <= P: one kernel pass; invocations must not depend on P in shared mode
    fmap = FeatureMap(rng.standard_normal((1, 3, 8, 8)).astype(np.float32))
    kern = KernelBank(rng.standard_normal((4, 3, 3, 3)).astype(np.float32))
    per_p = {}
    for p in (4, 6, 8):
        cfg = EngineConfig(params, p=p)
        _, trace = simulate_layer(cfg, fmap, kern, spec)
        per_p[p] = trace.data_transform_invocations
        # the reference design transforms every tile in each of the P PEs
        assert trace.inverse_transform_count == p * trace.data_transform_invocations
    assert len(set(per_p.values())) == 1, f"invocations vary with P: {per_p}"
    assert per_p[4] == 16 * 3  # tiles * channels

    # Derived amortized transform complexity equals the closed form exactly
    # (divisible dims, K a multiple of P).
    p = 4
    kern8 = KernelBank(rng.standard_normal((8, 3, 3, 3)).astype(np.float32))
    cfg = EngineConfig(params, p=p)
    _, trace = simulate_layer(cfg, fmap, kern8, spec)
    ts = generate_transforms(params)
    ops = count_transform_ops(ts)
    derived = Fraction(trace.data_transform_invocations * ops.beta) \
        + Fraction(trace.inverse_transform_count * ops.delta)
    layer = LayerShape(n=1, h=8, w=8, c=3, k=8, r=3)
    closed = Fraction(layer.nhwck, params.m**2) * (Fraction(ops.beta, p) + ops.delta)
    assert derived == closed

    # Per-tile transform adds relative to per-tile spatial multiplications
    # m^2 r^2: the data transform shared by 16 PEs, then paid by every PE.
    adds = count_transform_ops(ts, "adds_only")
    spatial_mults = params.m**2 * params.r**2
    ratio = (Fraction(adds.beta, 16) + adds.gamma + adds.delta) / spatial_mults
    ratio_ref = Fraction(adds.beta + adds.gamma + adds.delta, spatial_mults)
    assert (ratio, ratio_ref) == (Fraction(3, 2), Fraction(7, 3))
    assert ratio == pytest.approx(1.5, abs=0.2)
    assert ratio_ref == pytest.approx(2.33, abs=0.2)
    _ok(5, f"invocations P-independent (reference design = Px); derived amortized cost == "
           f"closed form exactly; overhead ratio {float(ratio):.3f} (shared) vs "
           f"{float(ratio_ref):.3f} (per-PE)")


def test_criterion_6_cycle_model():
    rng = np.random.default_rng(77)
    spec = ConvSpec(pad=1)
    checked = 0
    for _ in range(20):
        m = int(rng.integers(1, 5))
        n = int(rng.integers(1, 3))
        c = int(rng.integers(1, 4))
        k = int(rng.integers(1, 9))
        h = int(rng.integers(3, 13))
        w = int(rng.integers(3, 13))
        p = int(rng.integers(1, 5))
        fmap = FeatureMap(rng.standard_normal((n, c, h, w)).astype(np.float32))
        kern = KernelBank(rng.standard_normal((k, c, 3, 3)).astype(np.float32))
        cfg = EngineConfig(MinimalParams(m, 3), p=p)
        _, trace = simulate_layer(cfg, fmap, kern, spec)
        layer = LayerShape(n=n, h=h, w=w, c=c, k=k, r=3)  # pad=1 keeps dims for r=3
        assert trace.cycles_elapsed == expected_cycles(cfg, layer)
        report = validate_against_analytical(cfg, layer)
        assert report.consistent
        checked += 1

    # divisible dims and K % P == 0: the gap vanishes exactly
    cfg = EngineConfig(MinimalParams(4, 3), p=4)
    layer = LayerShape(n=2, h=16, w=8, c=3, k=8, r=3)
    report = validate_against_analytical(cfg, layer)
    assert report.gap_cycles == 0 and report.ceiling_overhead == 0
    # non-divisible: the gap equals the closed-form ceiling overhead
    layer14 = LayerShape(n=1, h=14, w=14, c=4, k=8, r=3)
    report14 = validate_against_analytical(cfg, layer14)
    assert report14.gap_cycles == pytest.approx((16 - (14 / 4) ** 2) * 4 * 2)
    _ok(6, f"{checked} random configs match the ceiling formula exactly; "
           "gap = 0 for divisible shapes and equals the ceiling overhead otherwise")


def test_criterion_7_static_echo_at_the_fixed_clock():
    # Registers, LUTs, DSPs, frequency and power are static echoes, never computed.
    ref = RESOURCE_UTILIZATION_19PE
    assert set(ref) == {"reference_style", "shared_transform"}
    assert ref["reference_style"]["registers"] == 97052
    assert ref["shared_transform"]["registers"] == 76500
    assert ref["reference_style"]["dsps"] == ref["shared_transform"]["dsps"] == 2736
    assert ref["reference_style"]["luts"] == 232256
    assert ref["shared_transform"]["luts"] == 107839

    # The report carries the power rows through unchanged, at the one clock.
    echoed = {m: (power_w, gops_per_w) for m, _, _, power_w, gops_per_w in SHARED_DESIGNS}
    for row in table2_report(load_workload("vgg16d")):
        if row.computed:
            assert (row.power_w, row.gops_per_w) == echoed[row.m]
            assert row.freq_mhz == FREQ_HZ / 1e6 == 200.0
    _ok(7, "registers/LUTs/DSPs/power echoed from static config at the 200 MHz clock; "
           "not derivable at desk scale")


def test_criterion_8_headline_claims():
    # The abstract's ratios, derived from the Table 2 rows.  Latency and GOPS
    # are modeled; power, GOPS/W and LUT totals are echoed from synthesis.
    rows = {row.name: row for row in table2_report(VGG16D)}
    prior = rows["prior_1d_engine"]
    m2, m4 = rows["shared_transform_m2"], rows["shared_transform_m4"]
    assert m4.gops / prior.gops == pytest.approx(4.750, abs=5e-4)

    # The same ratio on the ceiling cycle count the PE array issues at 5 ns.
    exact_s = sum(exact_cycles(s, MinimalParams(4, 3), m4.pes) for s in VGG16D.shapes) / FREQ_HZ
    assert (m4.pes, exact_s * 1e3) == (19, pytest.approx(30.04, abs=5e-3))
    exact_gops = m4.gops * m4.overall_ms * 1e-3 / exact_s  # the same ops over the exact time
    assert exact_gops == pytest.approx(1021.9, abs=0.05)
    assert exact_gops / prior.gops == pytest.approx(4.435, abs=5e-4)

    assert m2.gops_per_w / prior.gops_per_w == pytest.approx(1.442, abs=5e-4)
    assert (m4.multipliers, prior.multipliers) == (684, 256)
    assert m4.multipliers / prior.multipliers == pytest.approx(2.67, abs=5e-3)
    luts = {style: used["luts"] for style, used in RESOURCE_UTILIZATION_19PE.items()}
    logic = 1 - luts["shared_transform"] / luts["reference_style"]
    assert logic == pytest.approx(0.5357, abs=5e-5)

    # Echoed power times echoed GOPS/W gives each row's GOPS within 0.1%, but
    # not for the m = 2 build: 41.34 x 13.03 = 538.7 against 619.2 computed.
    # Its computed GOPS would give 47.5 GOPS/W, a 1.66x power-efficiency gain
    # rather than 1.44x.  The echoed values are kept as published.
    for row in rows.values():
        consistent = row.power_w * row.gops_per_w == pytest.approx(row.gops, rel=1e-3)
        assert consistent == (row is not m2), row.name
    assert m2.power_w * m2.gops_per_w == pytest.approx(538.7, abs=0.05)
    assert m2.gops == pytest.approx(619.2, abs=0.05)
    assert m2.gops / m2.power_w == pytest.approx(47.5, abs=0.05)
    assert m2.gops / m2.power_w / prior.gops_per_w == pytest.approx(1.658, abs=5e-4)
    _ok(8, f"throughput {m4.gops / prior.gops:.3f}x ({exact_gops / prior.gops:.3f}x on exact "
           f"cycles), power efficiency {m2.gops_per_w / prior.gops_per_w:.3f}x (echoed; "
           f"{m2.gops / m2.power_w / prior.gops_per_w:.3f}x from computed GOPS), multipliers "
           f"{m4.multipliers / prior.multipliers:.2f}x, logic savings {logic:.2%} (echoed LUTs)")
