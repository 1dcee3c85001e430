import numpy as np
import pytest

from winoconv.conv import (
    ConvSpec,
    FeatureMap,
    KernelBank,
    precompute_filter_transforms,
    spatial_conv,
    winograd_conv,
)
from winoconv.cost_model import (
    HardwareConfig,
    LayerShape,
    count_transform_ops,
    implementation_transform_complexity,
    layer_latency,
)
from winoconv.pipeline_sim import (
    STAGES,
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
    for m in (2, 3, 4):
        cfg = EngineConfig(MinimalParams(m, 3), p=1, d_p=6, clock_period=5e-9)
        fmap = FeatureMap(np.ones((1, 1, m, m), dtype=np.float32))
        kern = KernelBank(np.ones((1, 1, 3, 3), dtype=np.float32))
        _, trace = simulate_layer(cfg, fmap, kern, ConvSpec(pad=1))
        assert trace.issue_cycles == 1
        assert trace.cycles_elapsed == cfg.d_p


def test_conv5_like_instance():
    rng = np.random.default_rng(0)
    fmap, kern = random_case(rng, 1, 4, 14, 14, 8)
    cfg = EngineConfig(MinimalParams(4, 3), p=4, d_p=5, clock_period=5e-9)
    spec = ConvSpec(pad=1)
    out, trace = simulate_layer(cfg, fmap, kern, spec)
    assert trace.issue_cycles == 16 * 4 * 2  # tiles * channels * kernel groups
    assert trace.cycles_elapsed == 128 + cfg.d_p - 1
    ts = generate_transforms(cfg.params)
    ref = winograd_conv(fmap, kern, spec, ts)
    assert rel_err(out.data, ref.data) < 1e-5
    assert rel_err(out.data, spatial_conv(fmap, kern, spec).data) < 1e-4


def test_zero_kernels_same_cycles():
    rng = np.random.default_rng(1)
    fmap, kern = random_case(rng, 1, 2, 8, 8, 3)
    cfg = EngineConfig(MinimalParams(2, 3), p=2, d_p=4, clock_period=5e-9)
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
        cfg = EngineConfig(MinimalParams(2, 3), p=p, d_p=4, clock_period=5e-9)
        _, trace = simulate_layer(cfg, fmap, kern, spec)
        assert trace.data_transform_invocations == trace.issue_cycles
        invocations.append((p, trace.data_transform_invocations, trace.issue_cycles))
    # at constant kernel-group count the invocation count does not scale with P
    assert invocations[1][1] == invocations[2][1] * 2  # p=4 has 2 groups, p=8 has 1


def test_reference_design_multiplies_invocations_by_p():
    rng = np.random.default_rng(3)
    fmap, kern = random_case(rng, 1, 2, 6, 6, 4)
    spec = ConvSpec(pad=1)
    for p in (2, 4):
        ours = EngineConfig(MinimalParams(2, 3), p=p, d_p=4, clock_period=5e-9)
        ref = EngineConfig(MinimalParams(2, 3), p=p, d_p=4, clock_period=5e-9,
                           reference_design=True)
        out_a, trace_a = simulate_layer(ours, fmap, kern, spec)
        out_b, trace_b = simulate_layer(ref, fmap, kern, spec)
        assert trace_b.data_transform_invocations == p * trace_a.data_transform_invocations
        assert trace_b.cycles_elapsed == trace_a.cycles_elapsed
        assert np.array_equal(out_a.data, out_b.data)


def test_hadamard_count_and_per_pe_throughput():
    rng = np.random.default_rng(4)
    # divisible dims, K a multiple of P: all PEs stay busy
    fmap, kern = random_case(rng, 1, 3, 8, 8, 6)
    cfg = EngineConfig(MinimalParams(2, 3), p=3, d_p=4, clock_period=5e-9)
    out, trace = simulate_layer(cfg, fmap, kern, ConvSpec(pad=1))
    tiles = 16
    assert trace.hadamard_mult_count == tiles * 3 * 2 * 3 * 16  # tiles*C*groups*P*alpha^2
    assert out.data.size == tiles * 4 * kern.k

    # steady state (C=1, K=P): every issue cycle each PE emits m^2 output pixels
    for m in (2, 3, 4):
        f1 = FeatureMap(rng.standard_normal((1, 1, 4 * m, 4 * m)).astype(np.float32))
        k1 = KernelBank(rng.standard_normal((3, 1, 3, 3)).astype(np.float32))
        cfg = EngineConfig(MinimalParams(m, 3), p=3, d_p=4, clock_period=5e-9)
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
        cfg = EngineConfig(MinimalParams(m, r), p=p, d_p=5, clock_period=5e-9)
        _, trace = simulate_layer(cfg, fmap, kern, ConvSpec(pad=pad))
        layer = LayerShape(n=n, h=h, w=w, c=c, k=k, r=r)  # pad 1 keeps dims
        assert trace.cycles_elapsed == expected_cycles(cfg, layer)


def test_validate_against_analytical_divisible_gap_zero():
    cfg = EngineConfig(MinimalParams(4, 3), p=4, d_p=5, clock_period=5e-9)
    layer = LayerShape(n=1, h=16, w=16, c=3, k=8, r=3)
    report = validate_against_analytical(cfg, layer)
    assert report.gap_cycles == 0
    assert report.ceiling_overhead == 0
    assert report.consistent


def test_validate_against_analytical_partial_tiles():
    cfg = EngineConfig(MinimalParams(4, 3), p=4, d_p=5, clock_period=5e-9)
    layer = LayerShape(n=1, h=14, w=14, c=4, k=8, r=3)
    report = validate_against_analytical(cfg, layer)
    # (16 - (14/4)^2) * C * ceil(K/P) * N with K divisible by P
    assert report.ceiling_overhead == pytest.approx((16 - (14 / 4) ** 2) * 4 * 2)
    assert report.consistent
    assert report.simulated_cycles == expected_cycles(cfg, layer)


def test_analytical_cycles_price_the_dse_latency():
    # The simulator check and the DSE must use one latency model.
    rng = np.random.default_rng(11)
    for _ in range(50):
        params = MinimalParams(int(rng.integers(1, 7)), int(rng.choice([1, 3, 5])))
        layer = LayerShape(*(int(x) for x in rng.integers(1, 300, size=5)), r=params.r)
        p = int(rng.integers(1, 40))
        d_p = int(rng.integers(3, 12))
        t_c = 1.0 / float(rng.uniform(50e6, 500e6))
        cfg = EngineConfig(params, p=p, d_p=d_p, clock_period=t_c)
        hw = HardwareConfig(m_total=p * params.alpha**2, t_c=t_c, d_p=d_p)
        report = validate_against_analytical(cfg, layer)
        assert report.analytical_cycles * t_c == layer_latency(layer, params, p, hw)


def test_batch_doubles_issue_cycles():
    rng = np.random.default_rng(6)
    spec = ConvSpec(pad=1)
    cfg = EngineConfig(MinimalParams(2, 3), p=2, d_p=4, clock_period=5e-9)
    f1, kern = random_case(rng, 1, 2, 6, 6, 4)
    f2 = FeatureMap(np.concatenate([f1.data, f1.data], axis=0))
    _, t1 = simulate_layer(cfg, f1, kern, spec)
    _, t2 = simulate_layer(cfg, f2, kern, spec)
    assert t2.issue_cycles == 2 * t1.issue_cycles
    assert t2.cycles_elapsed - (cfg.d_p - 1) == 2 * (t1.cycles_elapsed - (cfg.d_p - 1))


def test_engine_config_validation():
    with pytest.raises(ValueError, match="PE count"):
        EngineConfig(MinimalParams(2, 3), p=0, d_p=4, clock_period=5e-9)
    with pytest.raises(ValueError, match="3 stages"):
        EngineConfig(MinimalParams(2, 3), p=1, d_p=2, clock_period=5e-9)
    with pytest.raises(ValueError, match="clock"):
        EngineConfig(MinimalParams(2, 3), p=1, d_p=4, clock_period=0.0)


def test_engine_config_for_budget():
    hw = HardwareConfig(m_total=684, t_c=5e-9)
    cfg = engine_config_for(MinimalParams(4, 3), hw)
    assert cfg.p == 19 and cfg.d_p == 5 and cfg.clock_period == 5e-9


def test_shape_mismatch_errors():
    fmap = FeatureMap(np.ones((1, 2, 6, 6), dtype=np.float32))
    kern = KernelBank(np.ones((1, 3, 3, 3), dtype=np.float32))
    cfg = EngineConfig(MinimalParams(2, 3), p=1, d_p=4, clock_period=5e-9)
    with pytest.raises(ValueError, match="channel mismatch"):
        simulate_layer(cfg, fmap, kern, ConvSpec(pad=1))
    kern55 = KernelBank(np.ones((1, 2, 5, 5), dtype=np.float32))
    with pytest.raises(ValueError, match="does not match"):
        simulate_layer(cfg, fmap, kern55, ConvSpec(pad=1))


def test_trace_json_round_trips():
    import json

    rng = np.random.default_rng(7)
    fmap, kern = random_case(rng, 1, 1, 4, 4, 1)
    cfg = EngineConfig(MinimalParams(2, 3), p=1, d_p=4, clock_period=5e-9)
    _, trace = simulate_layer(cfg, fmap, kern, ConvSpec(pad=1))
    blob = json.loads(trace.to_json())
    assert blob["cycles_elapsed"] == trace.cycles_elapsed
    assert set(blob["stage_busy"]) == {"data_transform", "hadamard", "inverse_transform"}


def stepped_hardware_order(cfg, fmap, kern, spec):
    """The engine stepped one issue cycle at a time, in the modeled loop order.

    Batch, tile position, kernel group, channel: each cycle transforms one
    input tile once, then every PE multiplies it with its filter transform
    (zero for idle PEs), runs the inverse transform and accumulates over C.
    """
    ts = generate_transforms(cfg.params)
    m, alpha, r, p = cfg.params.m, cfg.params.alpha, cfg.params.r, cfg.p
    n, c, h, w = fmap.data.shape
    k, dtype = kern.k, fmap.data.dtype
    h_out, w_out = h + 2 * spec.pad - r + 1, w + 2 * spec.pad - r + 1
    ty, tx, groups = -(-h_out // m), -(-w_out // m), -(-k // p)
    ext = np.zeros((n, c, ty * m + r - 1, tx * m + r - 1), dtype=dtype)
    ext[:, :, spec.pad : spec.pad + h, spec.pad : spec.pad + w] = fmap.data
    v = precompute_filter_transforms(kern, ts)
    idle = np.zeros((alpha, alpha), dtype=dtype)
    bt, b, at, a = (x.astype(dtype) for x in (ts.b.T, ts.b, ts.a.T, ts.a))

    out = np.zeros((n, k, ty * m, tx * m), dtype=dtype)
    cycles = 0
    for img in range(n):
        for y0 in range(0, ty * m, m):
            for x0 in range(0, tx * m, m):
                for group in range(groups):
                    accum = np.zeros((p, m, m), dtype=dtype)
                    for ci in range(c):
                        cycles += 1
                        u = bt @ ext[img, ci, y0 : y0 + alpha, x0 : x0 + alpha] @ b
                        for pe in range(p):
                            kk = group * p + pe
                            accum[pe] += at @ (u * (v[kk, ci] if kk < k else idle)) @ a
                    for pe in range(min(p, k - group * p)):
                        out[img, group * p + pe, y0 : y0 + m, x0 : x0 + m] = accum[pe]
    trace = SimTrace(
        cycles_elapsed=cycles + cfg.d_p - 1,
        issue_cycles=cycles,
        stage_busy={stage: cycles for stage in STAGES},
        data_transform_invocations=cycles * (p if cfg.reference_design else 1),
        inverse_transform_count=cycles * p,
        hadamard_mult_count=cycles * p * alpha * alpha,
        tiles_per_image=ty * tx,
        kernel_groups=groups,
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
        cfg = EngineConfig(MinimalParams(m, 3), p=p, d_p=4 + i % 3, clock_period=5e-9,
                           reference_design=bool((i // 3) % 2))
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
        cfg = EngineConfig(params, p=p, d_p=5, clock_period=5e-9)
        _, trace = simulate_layer(cfg, fmap, kern, ConvSpec(pad=1), ts)
        ops = count_transform_ops(ts)
        measured = ops.beta * trace.data_transform_invocations \
            + ops.delta * trace.inverse_transform_count
        layer = LayerShape(n=n, h=h, w=w, c=c, k=k, r=3)  # pad 1 keeps dims
        assert measured == pytest.approx(
            implementation_transform_complexity(layer, params, ops, p), rel=1e-12)


def test_vgg16d_conv5_1_at_paper_scale():
    # 14x14, C = K = 512, F(4,3) with 684 multipliers: P = 19, 27 kernel groups
    rng = np.random.default_rng(14)
    fmap, kern = random_case(rng, 1, 512, 14, 14, 512)
    cfg = engine_config_for(MinimalParams(4, 3), HardwareConfig(m_total=684, t_c=5e-9))
    spec = ConvSpec(pad=1)
    out, trace = simulate_layer(cfg, fmap, kern, spec)
    layer = LayerShape(n=1, h=14, w=14, c=512, k=512, r=3)
    assert cfg.p == 19
    assert trace.cycles_elapsed == expected_cycles(cfg, layer) == 221_188
    assert rel_err(out.data, spatial_conv(fmap, kern, spec).data) < 1e-4
