import pytest

from winoconv.cost_model import (
    HardwareConfig,
    LayerShape,
    TransformOpCounts,
    count_transform_ops,
    default_pipeline_depth,
    evaluate_design,
    implementation_transform_complexity,
    layer_latency,
    lut_total,
    multiplication_complexity,
    pe_count,
    spatial_ops,
    throughput,
    transform_complexity,
)
from winoconv.transforms import MinimalParams, generate_transforms
from winoconv.workload import load_workload

# Golden per-tile op counts for the default interpolation points, frozen from
# the symbolic enumeration (two chained dense products, 0/±1 eliminated).
GOLDEN_ALL_OPS = {
    2: (32, 70, 24),
    3: (180, 128, 80),
    4: (336, 189, 200),
    5: (798, 260, 408),
}
GOLDEN_ADDS_ONLY = {
    2: (32, 28, 24),
    3: (110, 48, 64),
    4: (192, 72, 140),
    5: (378, 100, 264),
}


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_count_golden_values(m):
    ts = generate_transforms(MinimalParams(m, 3))
    ops = count_transform_ops(ts)
    assert (ops.beta, ops.gamma, ops.delta) == GOLDEN_ALL_OPS[m]
    adds = count_transform_ops(ts, "adds_only")
    assert (adds.beta, adds.gamma, adds.delta) == GOLDEN_ADDS_ONLY[m]


def test_count_spatial_degenerate_is_zero():
    ts = generate_transforms(MinimalParams(1, 3))
    assert count_transform_ops(ts) == TransformOpCounts(0, 0, 0)


def test_count_monotonicity_in_m():
    c2 = count_transform_ops(generate_transforms(MinimalParams(2, 3)))
    c4 = count_transform_ops(generate_transforms(MinimalParams(4, 3)))
    assert c4.beta > c2.beta and c4.delta > c2.delta


def test_count_rejects_unknown_convention():
    ts = generate_transforms(MinimalParams(2, 3))
    with pytest.raises(ValueError, match="convention"):
        count_transform_ops(ts, "made_up")


def test_multiplication_complexity():
    layer = LayerShape(n=1, h=224, w=224, c=3, k=64, r=3)
    assert multiplication_complexity(layer, MinimalParams(1, 3)) == layer.nhwck * 9
    # quadratic decay: ratio m=2 over m=1 is 16/36 for every layer
    assert multiplication_complexity(layer, MinimalParams(2, 3)) \
        / multiplication_complexity(layer, MinimalParams(1, 3)) == pytest.approx(16 / 36)
    assert multiplication_complexity(layer, MinimalParams(4, 3)) \
        == pytest.approx(224 * 224 * 3 * 64 / 16 * 36)


def test_multiplication_complexity_decay_invariant():
    layer = LayerShape(n=2, h=56, w=56, c=64, k=128, r=3)
    vals = [multiplication_complexity(layer, MinimalParams(m, 3)) * m**2 / (m + 2) ** 2
            for m in range(1, 7)]
    assert all(v == pytest.approx(vals[0]) for v in vals)


def test_transform_complexity():
    layer = LayerShape(n=1, h=6, w=6, c=2, k=4, r=3)
    params = MinimalParams(2, 3)
    ops = TransformOpCounts(32, 70, 24)
    tc = transform_complexity(layer, params, ops)
    assert tc.t_data == 32 / 4 * 36 * 2
    assert tc.t_filter == 70 * 2 * 4
    assert tc.t_inverse == 24 / 4 * 36 * 4
    assert tc.total == tc.t_data + tc.t_filter + tc.t_inverse

    # spatial case contributes nothing
    z = transform_complexity(layer, MinimalParams(1, 3), TransformOpCounts(0, 0, 0))
    assert z.total == 0

    # one tile of each transform: h = w = m, n = c = k = 1
    one = LayerShape(n=1, h=2, w=2, c=1, k=1, r=3)
    tc1 = transform_complexity(one, params, ops)
    assert tc1.total == 32 + 70 + 24


def test_transform_complexity_monotonic_in_m():
    layer = LayerShape(n=1, h=224, w=224, c=64, k=64, r=3)
    totals = []
    for m in (2, 3, 4, 5):
        ts = generate_transforms(MinimalParams(m, 3))
        totals.append(transform_complexity(layer, ts.params, count_transform_ops(ts)).total)
    assert totals == sorted(totals)
    assert totals[0] < totals[-1]


def test_implementation_transform_complexity():
    layer = LayerShape(n=1, h=8, w=8, c=3, k=5, r=3)
    params = MinimalParams(2, 3)
    ops = TransformOpCounts(32, 70, 24)
    assert implementation_transform_complexity(layer, params, ops, p=1) \
        == pytest.approx(layer.nhwck / 4 * (32 + 24))
    o16 = implementation_transform_complexity(layer, params, ops, p=16)
    o32 = implementation_transform_complexity(layer, params, ops, p=32)
    assert o32 < o16
    with pytest.raises(ValueError):
        implementation_transform_complexity(layer, params, ops, p=0)


def test_pe_count_table():
    assert pe_count(HardwareConfig(688, 5e-9), MinimalParams(2, 3)) == 43
    assert pe_count(HardwareConfig(700, 5e-9), MinimalParams(3, 3)) == 28
    assert pe_count(HardwareConfig(684, 5e-9), MinimalParams(4, 3)) == 19
    with pytest.raises(ValueError, match="below one PE"):
        pe_count(HardwareConfig(15, 5e-9), MinimalParams(2, 3))


def test_pe_count_nonincreasing_in_m():
    hw = HardwareConfig(700, 5e-9)
    counts = [pe_count(hw, MinimalParams(m, 3)) for m in range(1, 7)]
    assert counts == sorted(counts, reverse=True)


def test_default_pipeline_depth():
    assert default_pipeline_depth(MinimalParams(2, 3)) == 4   # ceil(log2 4) = 2
    assert default_pipeline_depth(MinimalParams(3, 3)) == 5
    assert default_pipeline_depth(MinimalParams(4, 3)) == 5   # ceil(log2 6) = 3


def test_layer_latency_conv1_group():
    hw = HardwareConfig(684, 5e-9)
    params = MinimalParams(4, 3)
    p = pe_count(hw, params)
    layers = [LayerShape(1, 224, 224, 3, 64, 3), LayerShape(1, 224, 224, 64, 64, 3)]
    total_ms = sum(layer_latency(l, params, p, hw) for l in layers) * 1e3
    assert total_ms == pytest.approx(3.54, abs=0.01)


def test_layer_latency_single_tile_is_pipeline_depth():
    hw = HardwareConfig(100, 5e-9, d_p=7)
    params = MinimalParams(2, 3)
    one_tile = LayerShape(n=1, h=2, w=2, c=1, k=1, r=3)
    assert layer_latency(one_tile, params, 1, hw) == pytest.approx(7 * 5e-9)


def test_latency_scaling_invariants():
    hw = HardwareConfig(1000, 5e-9, d_p=1)  # d_p - 1 = 0 isolates the cycle term
    layer = LayerShape(1, 56, 56, 32, 32, 3)
    params = MinimalParams(2, 3)
    assert layer_latency(layer, params, 8, hw) == pytest.approx(
        2 * layer_latency(layer, params, 16, hw))
    l2 = layer_latency(layer, MinimalParams(2, 3), 10, hw)
    l4 = layer_latency(layer, MinimalParams(4, 3), 10, hw)
    assert l2 / l4 == pytest.approx(4.0)


def test_spatial_ops_and_throughput():
    vgg = load_workload("vgg16d")
    o_s = sum(spatial_ops(l) for l in vgg.shapes)
    assert o_s == pytest.approx(30.69e9, rel=1e-3)
    assert throughput(o_s, 28.05e-3) == pytest.approx(1094.3e9, rel=5e-3)
    assert throughput(o_s, 28.05e-3) / 684 == pytest.approx(1.60e9, rel=5e-3)
    with pytest.raises(ValueError):
        throughput(1.0, 0.0)


def test_evaluate_design_invariants():
    vgg = load_workload("vgg16d")
    params = MinimalParams(4, 3)
    hw = HardwareConfig(684, 5e-9)
    ts = generate_transforms(params)
    point = evaluate_design(vgg.shapes, params, hw, count_transform_ops(ts))
    assert point.p == hw.m_total // params.alpha**2
    assert point.throughput == pytest.approx(point.o_s / point.t_total)
    assert point.mult_efficiency == pytest.approx(point.throughput / hw.m_total)


def test_lut_total_linear_model():
    assert lut_total(19, 12224) == 232256
    assert lut_total(19, 5312, fixed=6911) == 107839
    savings = 1 - 107839 / 232256
    assert savings == pytest.approx(0.536, abs=0.002)


def test_validation_errors():
    with pytest.raises(ValueError):
        LayerShape(0, 1, 1, 1, 1, 1)
    with pytest.raises(ValueError):
        HardwareConfig(0, 5e-9)
    with pytest.raises(ValueError):
        HardwareConfig(100, 0.0)
    with pytest.raises(ValueError):
        TransformOpCounts(-1, 0, 0)
