from operator import attrgetter

import numpy as np
import pytest

from winoconv.conv import ConvSpec
from winoconv.cost_model import (
    CLOCK_PERIOD_S,
    HardwareConfig,
    LayerShape,
    TransformOpCounts,
    analytical_cycles,
    count_transform_ops,
    exact_cycles,
    pe_count,
    pipeline_depth,
    price_layers,
    tile_grid,
)
from winoconv.dse import SweepSpec, run_sweep
from winoconv.pipeline_sim import EngineConfig, expected_cycles, validate_against_analytical
from winoconv.transforms import MinimalParams, generate_transforms
from winoconv.workload import VGG16D, Workload, WorkloadLayer

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


def o_m(layer, params):
    return price_layers([layer], params, TransformOpCounts(0, 0, 0), [1])[0][0].o_m


def o_t(layer, params, ops):
    return price_layers([layer], params, ops, [1])[0][0].o_t


def latency(layer, params, p):
    return price_layers([layer], params, TransformOpCounts(0, 0, 0), [p])[0][0].latency_s


def test_multiplication_complexity():
    layer = LayerShape(n=1, h=224, w=224, c=3, k=64, r=3)
    assert o_m(layer, MinimalParams(1, 3)) == layer.nhwck * 9
    # quadratic decay: ratio m=2 over m=1 is 16/36 for every layer
    assert o_m(layer, MinimalParams(2, 3)) / o_m(layer, MinimalParams(1, 3)) \
        == pytest.approx(16 / 36)
    assert o_m(layer, MinimalParams(4, 3)) == pytest.approx(224 * 224 * 3 * 64 / 16 * 36)


def test_multiplication_complexity_decay_invariant():
    layer = LayerShape(n=2, h=56, w=56, c=64, k=128, r=3)
    vals = [o_m(layer, MinimalParams(m, 3)) * m**2 / (m + 2) ** 2 for m in range(1, 7)]
    assert all(v == pytest.approx(vals[0]) for v in vals)


def test_transform_complexity():
    layer = LayerShape(n=1, h=6, w=6, c=2, k=4, r=3)
    params = MinimalParams(2, 3)
    # each transform alone: the other two counts are zero
    t_data = o_t(layer, params, TransformOpCounts(32, 0, 0))
    t_filter = o_t(layer, params, TransformOpCounts(0, 70, 0))
    t_inverse = o_t(layer, params, TransformOpCounts(0, 0, 24))
    assert t_data == 32 / 4 * 36 * 2
    assert t_filter == 70 * 2 * 4
    assert t_inverse == 24 / 4 * 36 * 4
    assert o_t(layer, params, TransformOpCounts(32, 70, 24)) == t_data + t_filter + t_inverse

    # spatial case contributes nothing
    assert o_t(layer, MinimalParams(1, 3), TransformOpCounts(0, 0, 0)) == 0

    # one tile of each transform: h = w = m, n = c = k = 1
    one = LayerShape(n=1, h=2, w=2, c=1, k=1, r=3)
    assert o_t(one, params, TransformOpCounts(32, 70, 24)) == 32 + 70 + 24


def test_transform_complexity_monotonic_in_m():
    layer = LayerShape(n=1, h=224, w=224, c=64, k=64, r=3)
    totals = []
    for m in (2, 3, 4, 5):
        ts = generate_transforms(MinimalParams(m, 3))
        totals.append(o_t(layer, ts.params, count_transform_ops(ts)))
    assert totals == sorted(totals)
    assert totals[0] < totals[-1]


def test_implementation_transform_complexity():
    layer = LayerShape(n=1, h=8, w=8, c=3, k=5, r=3)
    params = MinimalParams(2, 3)
    ops = TransformOpCounts(32, 70, 24)
    assert price_layers([layer], params, ops, [1])[0][0].o_t_shared \
        == pytest.approx(layer.nhwck / 4 * (32 + 24))
    o16 = price_layers([layer], params, ops, [16])[0][0].o_t_shared
    o32 = price_layers([layer], params, ops, [32])[0][0].o_t_shared
    assert o32 < o16
    with pytest.raises(ValueError, match="PE count"):
        price_layers([layer], params, ops, [0])


def test_pe_count_table():
    assert pe_count(688, MinimalParams(2, 3)) == 43
    assert pe_count(700, MinimalParams(3, 3)) == 28
    assert pe_count(684, MinimalParams(4, 3)) == 19
    with pytest.raises(ValueError, match="below one PE"):
        pe_count(15, MinimalParams(2, 3))


def test_pe_count_nonincreasing_in_m():
    counts = [pe_count(700, MinimalParams(m, 3)) for m in range(1, 7)]
    assert counts == sorted(counts, reverse=True)


def test_pipeline_depth():
    assert pipeline_depth(MinimalParams(2, 3)) == 4   # ceil(log2 4) = 2
    assert pipeline_depth(MinimalParams(3, 3)) == 5
    assert pipeline_depth(MinimalParams(4, 3)) == 5   # ceil(log2 6) = 3
    with pytest.raises(TypeError):  # the tile size fixes the depth
        HardwareConfig(700, d_p=5)


def test_pipeline_depth_is_exact_at_every_alpha():
    # float ceil(log2(2**e + 1)) is e for every e >= 49, one adder-tree level short
    def brute(alpha):
        levels = 0
        while 2**levels < alpha:
            levels += 1
        return 2 + max(1, levels)

    alphas = set(range(1, 1025)) | {2**e + d for e in range(10, 61) for d in (-1, 0, 1)}
    for alpha in sorted(alphas):
        assert pipeline_depth(MinimalParams(alpha, 1)) == brute(alpha), alpha


_LAYER = dict(n=1, h=14, w=14, c=8, k=8, r=3)
_OPS = dict(beta=1, gamma=1, delta=1)

# Every count and size field, and the functions that take one: build from one
# value, read the stored value back, the label its ValueError names, a valid
# value, the lower bound, and further non-integers that reached the code before.
INTEGER_FIELDS = {
    # a fractional pad died with a TypeError inside np.pad or a slice
    "ConvSpec.pad": (lambda v: ConvSpec(pad=v), attrgetter("pad"), "pad", 1, 0, (1.5, 1.0, "1")),
    # MinimalParams(2.5, 3) was accepted, and pe_count(700, ...) returned 34.0
    "MinimalParams.m": (lambda v: MinimalParams(v, 3), attrgetter("m"), "m", 3, 1, ()),
    "MinimalParams.r": (lambda v: MinimalParams(2, v), attrgetter("r"), "r", 3, 1, (3.0,)),
    # LayerShape(1, 2.5, 4, 3, 3, 3) was accepted, and exact_cycles on 3 PEs gave 15 cycles
    **{f"LayerShape.{d}": (lambda v, d=d: LayerShape(**{**_LAYER, d: v}), attrgetter(d),
                           f"layer dim {d}", 3, 1, ()) for d in _LAYER},
    **{f"TransformOpCounts.{o}": (lambda v, o=o: TransformOpCounts(**{**_OPS, o: v}),
                                  attrgetter(o), f"op count {o}", 1, 0, ()) for o in _OPS},
    "HardwareConfig.m_total": (lambda v: HardwareConfig(v), attrgetter("m_total"),
                               "multiplier budget", 100, 1, ()),
    # p=2.5 passed validate_against_analytical, then simulate_layer raised a TypeError
    "EngineConfig.p": (lambda v: EngineConfig(MinimalParams(2, 3), p=v), attrgetter("p"),
                       "PE count", 2, 1, ()),
    "WorkloadLayer.pad": (lambda v: WorkloadLayer(LayerShape(1, 8, 8, 1, 1, 3), v, "g"),
                          attrgetter("pad"), "pad", 1, 0, (1.5,)),  # 1.5 was accepted
    # SweepSpec(("2",), ...) raised a TypeError
    "SweepSpec.m_values": (lambda v: SweepSpec((v,), 3, (100,), VGG16D, HardwareConfig(100)),
                           lambda s: s.m_values[0], "m", 2, 1, ()),
    "SweepSpec.r": (lambda v: SweepSpec((2,), v, (100,), VGG16D, HardwareConfig(100)),
                    attrgetter("r"), "r", 3, 1, ()),
    # SweepSpec((2,), 3, (2.5,), ...) was accepted, and only run_sweep raised
    "SweepSpec.budgets": (lambda v: SweepSpec((2,), 3, (v,), VGG16D, HardwareConfig(100)),
                          lambda s: s.budgets[0], "multiplier budget", 100, 1, ()),
    # pe_count(700.5, MinimalParams(2, 3)) returned 43.0
    "pe_count": (lambda v: pe_count(v, MinimalParams(2, 3)), lambda x: x,
                 "multiplier budget", 100, 1, (700.5,)),
    "analytical_cycles": (lambda v: analytical_cycles(LayerShape(**_LAYER), MinimalParams(2, 3), v),
                          lambda x: x, "PE count", 4, 1, ()),
    "exact_cycles": (lambda v: exact_cycles(LayerShape(**_LAYER), MinimalParams(2, 3), v),
                     lambda x: x, "PE count", 4, 1, ()),
    # an np.int8 P gave an np.float64 o_t_shared beside a float latency_s
    "price_layers": (lambda v: price_layers([LayerShape(**_LAYER)], MinimalParams(2, 3),
                                            TransformOpCounts(**_OPS), [v])[0][0],
                     attrgetter("o_t_shared"), "PE count", 4, 1, ()),
}


@pytest.mark.parametrize("case", INTEGER_FIELDS)
def test_count_and_size_fields_take_only_integers(case):
    build, read, label, valid, low, reported = INTEGER_FIELDS[case]
    non_integers = (2.5, 2.0, "2", None, *reported)
    rejected = [(v, f"{label} must be an integer, got {v!r}") for v in non_integers]
    for bad, message in rejected + [(low - 1, f"{label} must be >= {low}, got {low - 1}")]:
        with pytest.raises(ValueError) as exc:
            build(bad)
        assert str(exc.value) == message
    expected = build(valid)
    for np_int in (np.int8, np.int32, np.int64):  # stored, and computed with, as a Python int
        got = build(np_int(valid))
        assert got == expected and type(read(got)) is type(read(expected)), np_int
    assert type(read(expected)) is (float if case in ("analytical_cycles", "price_layers") else int)


def test_layer_latency_conv1_group():
    params = MinimalParams(4, 3)
    p = pe_count(684, params)
    layers = [LayerShape(1, 224, 224, 3, 64, 3), LayerShape(1, 224, 224, 64, 64, 3)]
    total_ms = sum(latency(l, params, p) for l in layers) * 1e3
    assert total_ms == pytest.approx(3.54, abs=0.01)


def test_layer_latency_single_tile_is_pipeline_depth():
    params = MinimalParams(2, 3)
    one_tile = LayerShape(n=1, h=2, w=2, c=1, k=1, r=3)
    # one issue cycle plus the fill of D_p - 1 cycles
    assert latency(one_tile, params, 1) == pytest.approx(pipeline_depth(params) * 5e-9)


def test_exact_cycles_pay_tile_and_kernel_group_ceilings():
    params = MinimalParams(4, 3)
    # 14 x 14 output gives 4 x 4 tiles; K = 8 on P = 3 gives 3 kernel groups
    assert tile_grid(14, 14, 4) == (4, 4)
    layer = LayerShape(n=2, h=14, w=14, c=5, k=8, r=3)
    assert exact_cycles(layer, params, 3) == 16 * 5 * 3 * 2 + 4
    # whole tiles and whole kernel groups: the fractional count is exact
    whole = LayerShape(n=1, h=16, w=12, c=3, k=8, r=3)
    assert exact_cycles(whole, params, 4) == analytical_cycles(whole, params, 4) == 76
    with pytest.raises(ValueError, match="PE count"):
        exact_cycles(layer, params, 0)


def test_latency_scaling_invariants():
    layer = LayerShape(1, 56, 56, 32, 32, 3)

    def cycle_term(params, p):  # latency less the fill of D_p - 1 cycles
        return latency(layer, params, p) - (pipeline_depth(params) - 1) * CLOCK_PERIOD_S

    params = MinimalParams(2, 3)
    assert cycle_term(params, 8) == pytest.approx(2 * cycle_term(params, 16))
    l2 = cycle_term(MinimalParams(2, 3), 10)
    l4 = cycle_term(MinimalParams(4, 3), 10)
    assert l2 / l4 == pytest.approx(4.0)


def vgg16d_m4_point():
    """The one design point of F(4,3) with 684 multipliers on VGG16-D."""
    return run_sweep(SweepSpec((4,), 3, (684,), VGG16D, HardwareConfig(684))).points[0]


def test_spatial_ops_and_throughput():
    point = vgg16d_m4_point()
    assert point.o_s == pytest.approx(30.69e9, rel=1e-3)
    assert point.t_total == pytest.approx(28.05e-3, abs=0.02e-3)
    assert point.throughput == pytest.approx(1094.3e9, rel=5e-3)
    assert point.throughput / 684 == pytest.approx(1.60e9, rel=5e-3)


def test_design_point_invariants():
    point = vgg16d_m4_point()
    assert point.p == 684 // MinimalParams(4, 3).alpha**2
    assert point.throughput == pytest.approx(point.o_s / point.t_total)
    # the totals are derived from the per-layer costs, never stored beside them
    assert list(point._fields) == ["params", "hw", "p", "layers"]
    assert point.o_t == sum(c.o_t for c in point.layers)


def test_layer_cost_rejects_a_kernel_size_other_than_r():
    # priced o_m from alpha = m + 3 - 1 and o_s from r = 5, and a design summed it
    layer = LayerShape(1, 4, 4, 1, 1, 5)
    params = MinimalParams(2, 3)
    with pytest.raises(ValueError, match=r"^layer has r=5, F\(2,3\) needs r=3$"):
        price_layers([layer], params, TransformOpCounts(0, 0, 0), [1])


@pytest.mark.parametrize("r", [3, 5])
def test_sweep_and_design_pricing_equal_layer_cost_exactly(r):
    # run_sweep prices all of an m's budgets in one pass over the layers; every field must
    # be a one-layer, one-P price_layers call's own float, not merely close to it
    rng = np.random.default_rng(r)
    layers = [LayerShape(1, 3, 5, 1, 512, r), LayerShape(2, 7, 2, 512, 1, r)]
    for _ in range(10):
        h, w = rng.choice(np.arange(1, 65), 2, replace=False)
        layers.append(LayerShape(n=rng.integers(1, 3), h=h, w=w, c=rng.integers(1, 513),
                                 k=rng.integers(1, 513), r=r))
    workload = Workload("random", tuple(WorkloadLayer(l, 0, "g") for l in layers))
    a2 = MinimalParams(6, r).alpha ** 2  # one PE of the largest swept tile
    budgets = (43 * a2 + a2 - 1, a2, 7 * a2 + 3, 20 * a2, a2, 2 * a2)  # unsorted, a repeat
    result = run_sweep(SweepSpec((6, 1, 4, 2, 5, 3), r, budgets, workload, HardwareConfig(a2)))
    assert [(pt.params.m, pt.hw.m_total) for pt in result.points] == \
        [(m, b) for m in range(1, 7) for b in sorted(set(budgets))]
    assert [pt.p for pt in result.points if pt.params.m == 6] == [1, 2, 7, 20, 43]
    for pt in result.points:
        ops = result.op_counts[pt.params.m]
        assert pt.p == pe_count(pt.hw.m_total, pt.params)
        expected = tuple(price_layers([l], pt.params, ops, [pt.p])[0][0] for l in layers)
        assert pt.layers == expected


def test_design_pricing_keeps_its_messages():
    params, ops = MinimalParams(2, 3), TransformOpCounts(1, 2, 3)
    layer = LayerShape(1, 4, 4, 1, 1, 3)
    with pytest.raises(ValueError, match=r"^layer has r=5, F\(2,3\) needs r=3$"):
        price_layers([layer, LayerShape(1, 4, 4, 1, 1, 5)], params, ops, [1])
    # every P is checked before any layer is priced
    with pytest.raises(ValueError, match=r"^PE count must be >= 1, got 0$"):
        price_layers([LayerShape(1, 4, 4, 1, 1, 5)], params, ops, [4, 0])
    with pytest.raises(ValueError, match=r"^budget of 15 multipliers is below one PE "
                                         r"\(16 needed for F\(2,3\)\)$"):
        pe_count(15, params)
    # a sweep reports the first m, in ascending order, that a budget cannot hold one PE of
    with pytest.raises(ValueError, match=r"^budget of 16 multipliers is below one PE "
                                         r"\(36 needed for F\(4,3\)\)$"):
        run_sweep(SweepSpec((5, 4, 2), 3, (40, 16), VGG16D, HardwareConfig(16)))


@pytest.mark.parametrize("cycles", [
    lambda layer, params: analytical_cycles(layer, params, 4),
    lambda layer, params: exact_cycles(layer, params, 4),
    lambda layer, params: expected_cycles(EngineConfig(params, 4), layer),
    lambda layer, params: validate_against_analytical(EngineConfig(params, 4), layer),
], ids=["analytical_cycles", "exact_cycles", "expected_cycles", "validate_against_analytical"])
def test_cycle_counts_reject_a_kernel_size_other_than_r(cycles):
    # validate_against_analytical reported a 5x5 layer on F(2,3) as consistent
    with pytest.raises(ValueError, match=r"^layer has r=5, F\(2,3\) needs r=3$"):
        cycles(LayerShape(1, 14, 14, 8, 8, 5), MinimalParams(2, 3))


def test_hardware_config_defaults_to_the_one_clock():
    assert HardwareConfig(700) == HardwareConfig(m_total=700, t_c=1 / 200e6)
    assert HardwareConfig(700).t_c == CLOCK_PERIOD_S == 5e-9


def test_validation_errors():
    with pytest.raises(ValueError):
        LayerShape(0, 1, 1, 1, 1, 1)
    with pytest.raises(ValueError):
        HardwareConfig(0)
    # a nan period was once accepted and priced every design at nan; the period is now
    # fixed at 1 / FREQ_HZ, and 0, nan, inf and any other clock are rejected alike
    for t_c in (0.0, float("nan"), float("inf"), 1 / 150e6):
        with pytest.raises(ValueError, match=r"^clock period is fixed at the builds' 200 MHz clock"):
            HardwareConfig(100, t_c)
    with pytest.raises(ValueError):
        TransformOpCounts(-1, 0, 0)
