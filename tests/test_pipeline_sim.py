import json

import numpy as np
import pytest

from winoconv.conv import (
    ConvSpec,
    FeatureMap,
    KernelBank,
    spatial_conv,
    transformed_operands,
    winograd_conv,
)
from winoconv.cost_model import (
    CLOCK_PERIOD_S,
    HardwareConfig,
    LayerShape,
    TransformOpCounts,
    count_transform_ops,
    layer_cost,
    pipeline_depth,
)
from winoconv.pipeline_sim import (
    EngineConfig,
    SimTrace,
    engine_config_for,
    expected_cycles,
    simulate_layer,
    validate_against_analytical,
)
from winoconv.transforms import MinimalParams, generate_transforms


def rel_err(a, b):
    denom = np.max(np.abs(b))
    return np.max(np.abs(a.astype(np.float64) - b.astype(np.float64))) / (denom or 1.0)


def random_case(rng, n, c, h, w, k, r=3):
    fmap = FeatureMap(rng.standard_normal((n, c, h, w)).astype(np.float32))
    kern = KernelBank(rng.standard_normal((k, c, r, r)).astype(np.float32))
    return fmap, kern


def test_single_tile_latency_is_pipeline_depth():
    # m x m input with pad 1 and r = 3 produces exactly one m x m output tile
    for m, depth in ((2, 4), (3, 5), (4, 5)):
        cfg = EngineConfig(MinimalParams(m, 3), p=1)
        fmap = FeatureMap(np.ones((1, 1, m, m), dtype=np.float32))
        kern = KernelBank(np.ones((1, 1, 3, 3), dtype=np.float32))
        _, trace = simulate_layer(cfg, fmap, kern, ConvSpec(pad=1))
        assert trace.issue_cycles == 1
        assert trace.cycles_elapsed == pipeline_depth(cfg.params) == depth


def test_conv5_like_instance():
    rng = np.random.default_rng(0)
    fmap, kern = random_case(rng, 1, 4, 14, 14, 8)
    cfg = EngineConfig(MinimalParams(4, 3), p=4)
    spec = ConvSpec(pad=1)
    out, trace = simulate_layer(cfg, fmap, kern, spec)
    assert trace.issue_cycles == 16 * 4 * 2  # tiles * channels * kernel groups
    assert trace.cycles_elapsed == 128 + pipeline_depth(cfg.params) - 1
    ts = generate_transforms(cfg.params)
    ref = winograd_conv(fmap, kern, spec, ts)
    assert rel_err(out.data, ref.data) < 1e-5
    assert rel_err(out.data, spatial_conv(fmap, kern, spec).data) < 1e-4


def test_zero_kernels_same_cycles():
    rng = np.random.default_rng(1)
    fmap, kern = random_case(rng, 1, 2, 8, 8, 3)
    cfg = EngineConfig(MinimalParams(2, 3), p=2)
    spec = ConvSpec(pad=1)
    _, trace_a = simulate_layer(cfg, fmap, kern, spec)
    out, trace_b = simulate_layer(cfg, fmap, KernelBank(np.zeros_like(kern.data)), spec)
    assert not out.data.any()
    assert trace_a.cycles_elapsed == trace_b.cycles_elapsed


def test_shared_transform_invocations_independent_of_p():
    rng = np.random.default_rng(2)
    fmap, kern = random_case(rng, 1, 3, 8, 8, 8)
    spec = ConvSpec(pad=1)
    invocations = []
    for p in (2, 4, 8):
        cfg = EngineConfig(MinimalParams(2, 3), p=p)
        _, trace = simulate_layer(cfg, fmap, kern, spec)
        assert trace.data_transform_invocations == trace.issue_cycles
        # the reference design transforms every tile in each of the P PEs
        assert trace.inverse_transform_count == p * trace.data_transform_invocations
        invocations.append((p, trace.data_transform_invocations, trace.issue_cycles))
    # at constant kernel-group count the invocation count does not scale with P
    assert invocations[1][1] == invocations[2][1] * 2  # p=4 has 2 groups, p=8 has 1


def test_hadamard_count_and_per_pe_throughput():
    rng = np.random.default_rng(4)
    # divisible dims, K a multiple of P: all PEs stay busy
    fmap, kern = random_case(rng, 1, 3, 8, 8, 6)
    cfg = EngineConfig(MinimalParams(2, 3), p=3)
    out, trace = simulate_layer(cfg, fmap, kern, ConvSpec(pad=1))
    tiles = 16
    assert trace.hadamard_mult_count == tiles * 3 * 2 * 3 * 16  # tiles*C*groups*P*alpha^2
    assert out.data.size == tiles * 4 * kern.k

    # steady state (C=1, K=P): every issue cycle each PE emits m^2 output pixels
    for m in (2, 3, 4):
        f1 = FeatureMap(rng.standard_normal((1, 1, 4 * m, 4 * m)).astype(np.float32))
        k1 = KernelBank(rng.standard_normal((3, 1, 3, 3)).astype(np.float32))
        cfg = EngineConfig(MinimalParams(m, 3), p=3)
        out, trace = simulate_layer(cfg, f1, k1, ConvSpec(pad=1))
        assert out.data.size / (trace.issue_cycles * cfg.p) == m * m


def test_expected_cycles_formula_random_configs():
    rng = np.random.default_rng(5)
    for _ in range(20):
        m = int(rng.integers(1, 5))
        r = 3
        n = int(rng.integers(1, 3))
        c = int(rng.integers(1, 4))
        k = int(rng.integers(1, 9))
        h = int(rng.integers(3, 13))
        w = int(rng.integers(3, 13))
        p = int(rng.integers(1, 5))
        pad = 1
        fmap, kern = random_case(rng, n, c, h, w, k)
        cfg = EngineConfig(MinimalParams(m, r), p=p)
        _, trace = simulate_layer(cfg, fmap, kern, ConvSpec(pad=pad))
        layer = LayerShape(n=n, h=h, w=w, c=c, k=k, r=r)  # pad 1 keeps dims
        assert trace.cycles_elapsed == expected_cycles(cfg, layer)


def test_validate_against_analytical_divisible_gap_zero():
    cfg = EngineConfig(MinimalParams(4, 3), p=4)
    layer = LayerShape(n=1, h=16, w=16, c=3, k=8, r=3)
    report = validate_against_analytical(cfg, layer)
    assert report.gap_cycles == 0
    assert report.ceiling_overhead == 0
    assert report.consistent


def test_validate_against_analytical_partial_tiles():
    cfg = EngineConfig(MinimalParams(4, 3), p=4)
    layer = LayerShape(n=1, h=14, w=14, c=4, k=8, r=3)
    report = validate_against_analytical(cfg, layer)
    # (16 - (14/4)^2) * C * ceil(K/P) * N with K divisible by P
    assert report.ceiling_overhead == pytest.approx((16 - (14 / 4) ** 2) * 4 * 2)
    assert report.consistent
    assert report.simulated_cycles == expected_cycles(cfg, layer)


def test_validate_against_analytical_consistent_despite_rounding():
    # gap and overhead, about 3.7e5 cycles each, differ in the last bits
    cfg = EngineConfig(MinimalParams(3, 3), p=1)
    layer = LayerShape(n=1, h=41, w=41, c=173, k=235, r=3)
    report = validate_against_analytical(cfg, layer)
    assert report.gap_cycles != report.ceiling_overhead
    assert report.ceiling_overhead == pytest.approx((14 * 14 - (41 / 3) ** 2) * 173 * 235)
    assert report.consistent
    assert json.loads(report.to_json())["consistent"] is True


def test_analytical_cycles_price_the_dse_latency():
    # The simulator check and the DSE must use one latency model.
    rng = np.random.default_rng(11)
    for _ in range(50):
        params = MinimalParams(int(rng.integers(1, 7)), int(rng.choice([1, 3, 5])))
        layer = LayerShape(*(int(x) for x in rng.integers(1, 300, size=5)), r=params.r)
        p = int(rng.integers(1, 40))
        cfg = EngineConfig(params, p=p)
        report = validate_against_analytical(cfg, layer)
        cost = layer_cost(layer, params, TransformOpCounts(0, 0, 0), p)
        assert report.analytical_cycles * CLOCK_PERIOD_S == cost.latency_s


def test_batch_doubles_issue_cycles():
    rng = np.random.default_rng(6)
    spec = ConvSpec(pad=1)
    cfg = EngineConfig(MinimalParams(2, 3), p=2)
    f1, kern = random_case(rng, 1, 2, 6, 6, 4)
    f2 = FeatureMap(np.concatenate([f1.data, f1.data], axis=0))
    _, t1 = simulate_layer(cfg, f1, kern, spec)
    _, t2 = simulate_layer(cfg, f2, kern, spec)
    assert t2.issue_cycles == 2 * t1.issue_cycles
    fill = pipeline_depth(cfg.params) - 1
    assert t2.cycles_elapsed - fill == 2 * (t1.cycles_elapsed - fill)


def test_engine_config_validation():
    with pytest.raises(ValueError, match="PE count"):
        EngineConfig(MinimalParams(2, 3), p=0)


def test_engine_config_for_budget():
    hw = HardwareConfig(m_total=684)
    cfg = engine_config_for(MinimalParams(4, 3), hw)
    assert cfg == EngineConfig(MinimalParams(4, 3), p=19)


def test_shape_mismatch_errors():
    fmap = FeatureMap(np.ones((1, 2, 6, 6), dtype=np.float32))
    kern = KernelBank(np.ones((1, 3, 3, 3), dtype=np.float32))
    cfg = EngineConfig(MinimalParams(2, 3), p=1)
    with pytest.raises(ValueError, match="channel mismatch"):
        simulate_layer(cfg, fmap, kern, ConvSpec(pad=1))
    kern55 = KernelBank(np.ones((1, 2, 5, 5), dtype=np.float32))
    with pytest.raises(ValueError, match="does not match"):
        simulate_layer(cfg, fmap, kern55, ConvSpec(pad=1))


def test_trace_json_round_trips():
    rng = np.random.default_rng(7)
    fmap, kern = random_case(rng, 1, 1, 4, 4, 1)
    cfg = EngineConfig(MinimalParams(2, 3), p=2)
    _, trace = simulate_layer(cfg, fmap, kern, ConvSpec(pad=1))
    blob = json.loads(trace.to_json())
    assert blob == {
        "cycles_elapsed": trace.cycles_elapsed, "issue_cycles": trace.issue_cycles,
        "data_transform_invocations": trace.data_transform_invocations,
        "inverse_transform_count": trace.inverse_transform_count,
        "hadamard_mult_count": trace.hadamard_mult_count,
        "tiles_per_image": trace.tiles_per_image, "kernel_groups": trace.kernel_groups,
        "idle_pe_slots": trace.idle_pe_slots,
    }
    assert trace.idle_pe_slots == trace.issue_cycles == 4  # one of two PEs idles


def test_no_idle_pe_slots_when_p_divides_k():
    rng = np.random.default_rng(8)
    fmap, kern = random_case(rng, 2, 3, 7, 7, 6)
    for p in (1, 2, 3, 6):
        cfg = EngineConfig(MinimalParams(3, 3), p=p)
        _, trace = simulate_layer(cfg, fmap, kern, ConvSpec(pad=1))
        assert trace.idle_pe_slots == 0
        assert trace.inverse_transform_count == trace.issue_cycles * p


def stepped_hardware_order(cfg, fmap, kern, spec):
    """The engine stepped one issue cycle at a time, in the modeled loop order.

    Batch, tile position, kernel group, channel: each cycle reads one input
    tile's data transform from the shared front end, multiplies it with the P
    PEs' filter transforms (zero for idle PEs) into one alpha^2 x P product,
    inverse-transforms all P columns as one (m^2 x alpha^2) @ (alpha^2 x P)
    product and accumulates over C.  The data transform is not recomputed per
    tile: a per-tile product cannot round as the front end's one large GEMM
    does, and test_data_transform_matches_per_tile_reference checks U alone.
    """
    ts = generate_transforms(cfg.params)
    m, alpha, p = cfg.params.m, cfg.params.alpha, cfg.p
    n, c, k, dtype = fmap.n, fmap.c, kern.k, fmap.data.dtype
    u, v, (ty, tx), (h_out, w_out) = transformed_operands(fmap, kern, spec, ts)
    groups = -(-k // p)
    zero = np.zeros(alpha * alpha, dtype=dtype)
    kron_at = ts.kron_at.astype(dtype)

    out = np.zeros((n, k, ty * m, tx * m), dtype=dtype)
    cycles = idle = 0
    for img in range(n):
        for yi in range(ty):
            for xi in range(tx):
                tile = (img * ty + yi) * tx + xi
                for group in range(groups):
                    accum = np.zeros((m * m, p), dtype=dtype)
                    for ci in range(c):
                        cycles += 1
                        prod = np.empty((alpha * alpha, p), dtype=dtype)
                        for pe in range(p):
                            kk = group * p + pe
                            idle += kk >= k
                            prod[:, pe] = u[:, ci, tile] * (v[:, kk, ci] if kk < k else zero)
                        accum += kron_at @ prod
                    for pe in range(min(p, k - group * p)):
                        out[img, group * p + pe, yi * m : (yi + 1) * m, xi * m : (xi + 1) * m] = \
                            accum[:, pe].reshape(m, m)
    trace = SimTrace(
        cycles_elapsed=cycles + pipeline_depth(cfg.params) - 1,
        issue_cycles=cycles,
        data_transform_invocations=cycles,
        inverse_transform_count=cycles * p,
        hadamard_mult_count=cycles * p * alpha * alpha,
        tiles_per_image=ty * tx,
        kernel_groups=groups,
        idle_pe_slots=idle,
    )
    return out[:, :, :h_out, :w_out], trace


def test_bit_identical_to_hardware_order_stepping():
    rng = np.random.default_rng(12)
    for i in range(30):
        m = 1 + i % 5
        p = int(rng.integers(2, 5))
        k = p * int(rng.integers(0, 2)) + int(rng.integers(1, p))  # K % P != 0
        pad = i % 3
        # >= 3 output rows and columns, so pad 2 leaves an input; on odd layers
        # they are one short of whole tiles (partial edge tiles)
        partial = m - 1 if i % 2 else 0
        h = m * int(rng.integers(1, 3) + 3 // m) + partial + 2 - 2 * pad  # r = 3
        w = m * int(rng.integers(1, 3) + 3 // m) + partial + 2 - 2 * pad
        dtype = (np.float32, np.float64)[(i // 5) % 2]
        fmap = FeatureMap(rng.standard_normal((1 + (i // 2) % 2, int(rng.integers(1, 4)), h, w))
                          .astype(dtype))
        kern = KernelBank(rng.standard_normal((k, fmap.c, 3, 3)).astype(dtype))
        cfg = EngineConfig(MinimalParams(m, 3), p=p)
        spec = ConvSpec(pad=pad)
        out, trace = simulate_layer(cfg, fmap, kern, spec)
        want, want_trace = stepped_hardware_order(cfg, fmap, kern, spec)
        assert out.data.dtype == dtype
        assert np.array_equal(out.data, want), (i, m, p, k, pad, h, w)
        assert trace.to_json() == want_trace.to_json()


def test_measured_transform_counts_price_the_shared_design():
    # beta per data-transform invocation plus delta per inverse transform is
    # the amortized O_T of the shared design when no tile or PE slot is idle.
    rng = np.random.default_rng(13)
    for i in range(15):
        m = 1 + i % 5
        params = MinimalParams(m, 3)
        ts = generate_transforms(params)
        p = int(rng.integers(1, 5))
        n, c = int(rng.integers(1, 3)), int(rng.integers(1, 4))
        h, w = m * int(rng.integers(1, 4)), m * int(rng.integers(1, 4))
        k = p * int(rng.integers(1, 3))
        fmap, kern = random_case(rng, n, c, h, w, k)
        cfg = EngineConfig(params, p=p)
        _, trace = simulate_layer(cfg, fmap, kern, ConvSpec(pad=1), ts)
        ops = count_transform_ops(ts)
        measured = ops.beta * trace.data_transform_invocations \
            + ops.delta * trace.inverse_transform_count
        layer = LayerShape(n=n, h=h, w=w, c=c, k=k, r=3)  # pad 1 keeps dims
        assert measured == pytest.approx(
            layer_cost(layer, params, ops, p).o_t_shared, rel=1e-12)


def test_vgg16d_conv5_1_at_paper_scale():
    # 14x14, C = K = 512, F(4,3) with 684 multipliers: P = 19, 27 kernel groups
    rng = np.random.default_rng(14)
    fmap, kern = random_case(rng, 1, 512, 14, 14, 512)
    cfg = engine_config_for(MinimalParams(4, 3), HardwareConfig(m_total=684))
    spec = ConvSpec(pad=1)
    out, trace = simulate_layer(cfg, fmap, kern, spec)
    layer = LayerShape(n=1, h=14, w=14, c=512, k=512, r=3)
    assert cfg.p == 19
    assert trace.cycles_elapsed == expected_cycles(cfg, layer) == 221_188
    assert rel_err(out.data, spatial_conv(fmap, kern, spec).data) < 1e-4
