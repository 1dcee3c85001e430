import numpy as np
import pytest

from winoconv.conv import (
    ConvSpec,
    FeatureMap,
    KernelBank,
    output_hw,
    precompute_filter_transforms,
    spatial_conv,
    tile_grid,
    winograd_conv,
)
from winoconv.pipeline_sim import EngineConfig, simulate_layer
from winoconv.transforms import (
    MinimalParams,
    MultCounter,
    generate_transforms,
)


def naive_conv(data, kernels, pad):
    """Independent 6-loop reference, deliberately written without numpy ops."""
    n, c, h, w = data.shape
    k, _, r, _ = kernels.shape
    ho, wo = h + 2 * pad - r + 1, w + 2 * pad - r + 1
    padded = np.zeros((n, c, h + 2 * pad, w + 2 * pad))
    padded[:, :, pad : pad + h, pad : pad + w] = data
    out = np.zeros((n, k, ho, wo))
    for i in range(n):
        for kk in range(k):
            for x in range(ho):
                for y in range(wo):
                    acc = 0.0
                    for cc in range(c):
                        for u in range(r):
                            for v in range(r):
                                acc += padded[i, cc, x + u, y + v] * kernels[kk, cc, u, v]
                    out[i, kk, x, y] = acc
    return out


def random_case(rng, n, c, h, w, k, r, dtype=np.float32):
    fmap = FeatureMap(rng.standard_normal((n, c, h, w)).astype(dtype))
    kern = KernelBank(rng.standard_normal((k, c, r, r)).astype(dtype))
    return fmap, kern


def rel_err(a, b):
    denom = np.max(np.abs(b))
    return np.max(np.abs(a.astype(np.float64) - b.astype(np.float64))) / (denom or 1.0)


def test_spatial_all_ones():
    fmap = FeatureMap(np.ones((1, 1, 4, 4), dtype=np.float32))
    kern = KernelBank(np.ones((1, 1, 3, 3), dtype=np.float32))
    out = spatial_conv(fmap, kern, ConvSpec(pad=0))
    assert out.data.shape == (1, 1, 2, 2)
    assert np.array_equal(out.data, np.full((1, 1, 2, 2), 9.0, dtype=np.float32))


def test_spatial_zero_kernels():
    rng = np.random.default_rng(0)
    fmap, kern = random_case(rng, 1, 2, 5, 5, 3, 3)
    zero = KernelBank(np.zeros_like(kern.data))
    out = spatial_conv(fmap, zero, ConvSpec(pad=1))
    assert not out.data.any()


def test_spatial_matches_naive_6loop():
    rng = np.random.default_rng(42)
    fmap, kern = random_case(rng, 1, 2, 5, 5, 3, 3, dtype=np.float64)
    out = spatial_conv(fmap, kern, ConvSpec(pad=1))
    ref = naive_conv(fmap.data, kern.data, pad=1)
    assert out.data.shape == ref.shape == (1, 3, 5, 5)
    assert np.allclose(out.data, ref, rtol=1e-12, atol=1e-12)


def test_spatial_rejects_integer_map_with_float_kernels():
    # the int32 output would truncate 4.5 to 4
    kern = KernelBank(np.full((1, 1, 3, 3), 0.5, dtype=np.float32))
    with pytest.raises(ValueError, match="feature map must be floating point"):
        spatial_conv(FeatureMap(np.ones((1, 1, 4, 4), dtype=np.int32)), kern, ConvSpec())
    out = spatial_conv(FeatureMap(np.ones((1, 1, 4, 4), dtype=np.float32)), kern, ConvSpec())
    assert np.array_equal(out.data, np.full((1, 1, 2, 2), 4.5, dtype=np.float32))


def test_spatial_channel_mismatch():
    fmap = FeatureMap(np.ones((1, 2, 4, 4), dtype=np.float32))
    kern = KernelBank(np.ones((1, 3, 3, 3), dtype=np.float32))
    with pytest.raises(ValueError, match="channel mismatch"):
        spatial_conv(fmap, kern, ConvSpec())


def test_winograd_zero_kernels():
    rng = np.random.default_rng(1)
    fmap, kern = random_case(rng, 1, 2, 6, 6, 2, 3)
    ts = generate_transforms(MinimalParams(2, 3))
    out = winograd_conv(fmap, KernelBank(np.zeros_like(kern.data)), ConvSpec(pad=1), ts)
    assert not out.data.any()


def test_winograd_f23_8x8():
    rng = np.random.default_rng(2)
    fmap, kern = random_case(rng, 1, 1, 8, 8, 1, 3)
    ts = generate_transforms(MinimalParams(2, 3))
    spec = ConvSpec(pad=1)
    assert rel_err(winograd_conv(fmap, kern, spec, ts).data,
                   spatial_conv(fmap, kern, spec).data) < 1e-4


def test_winograd_f43_partial_tiles_14x14():
    # 14 is not divisible by 4: exercises zero-padded edge tiles + truncation
    rng = np.random.default_rng(3)
    fmap, kern = random_case(rng, 1, 3, 14, 14, 8, 3)
    ts = generate_transforms(MinimalParams(4, 3))
    spec = ConvSpec(pad=1)
    out = winograd_conv(fmap, kern, spec, ts)
    assert out.data.shape == (1, 8, 14, 14)
    assert rel_err(out.data, spatial_conv(fmap, kern, spec).data) < 1e-4


@pytest.mark.parametrize("m,r", [(2, 3), (3, 3), (4, 3)])
def test_oracle_equivalence_random_shapes(m, r):
    rng = np.random.default_rng(100 + m)
    for _ in range(10):
        n = int(rng.integers(1, 3))
        c = int(rng.integers(1, 5))
        k = int(rng.integers(1, 9))
        h = int(rng.integers(r, 17))
        w = int(rng.integers(r, 17))
        pad = int(rng.integers(0, 2))
        if h + 2 * pad < r or w + 2 * pad < r:
            continue
        fmap, kern = random_case(rng, n, c, h, w, k, r)
        ts = generate_transforms(MinimalParams(m, r))
        spec = ConvSpec(pad=pad)
        assert rel_err(winograd_conv(fmap, kern, spec, ts).data,
                       spatial_conv(fmap, kern, spec).data) < 1e-4
        # 64-bit mode
        fmap64 = FeatureMap(fmap.data.astype(np.float64))
        kern64 = KernelBank(kern.data.astype(np.float64))
        assert rel_err(winograd_conv(fmap64, kern64, spec, ts).data,
                       spatial_conv(fmap64, kern64, spec).data) < 1e-9


def test_linearity():
    rng = np.random.default_rng(9)
    fmap, kern = random_case(rng, 1, 2, 7, 9, 2, 3, dtype=np.float64)
    other = FeatureMap(rng.standard_normal(fmap.data.shape))
    ts = generate_transforms(MinimalParams(3, 3))
    spec = ConvSpec(pad=1)

    def conv(x):
        return winograd_conv(FeatureMap(x), kern, spec, ts).data

    assert np.allclose(conv(2.5 * fmap.data), 2.5 * conv(fmap.data), rtol=1e-10, atol=1e-12)
    assert np.allclose(conv(fmap.data + other.data), conv(fmap.data) + conv(other.data),
                       rtol=1e-9, atol=1e-10)


def test_tiling_counts_and_instrumented_multiplications():
    rng = np.random.default_rng(4)
    fmap, kern = random_case(rng, 2, 3, 14, 10, 5, 3)
    ts = generate_transforms(MinimalParams(4, 3))
    spec = ConvSpec(pad=1)
    ho, wo = output_hw(14, 10, 3, 1)
    ty, tx = tile_grid(ho, wo, 4)
    assert (ty, tx) == (4, 3)

    counter = MultCounter()
    winograd_conv(fmap, kern, spec, ts, counter=counter)
    # ceiling-tile version of the element-wise multiplication count
    assert counter.count == fmap.n * ty * tx * fmap.c * kern.k * 6 * 6

    spatial_counter = MultCounter()
    spatial_conv(fmap, kern, spec, counter=spatial_counter)
    assert spatial_counter.count == fmap.n * fmap.c * ho * wo * 9 * kern.k


def test_every_output_pixel_written_once():
    # distinct per-pixel values survive a convolution with the identity kernel
    rng = np.random.default_rng(8)
    data = np.arange(1 * 1 * 10 * 10, dtype=np.float64).reshape(1, 1, 10, 10) + 1.0
    kern = np.zeros((1, 1, 3, 3))
    kern[0, 0, 1, 1] = 1.0  # centered impulse
    ts = generate_transforms(MinimalParams(3, 3))
    out = winograd_conv(FeatureMap(data), KernelBank(kern), ConvSpec(pad=1), ts)
    assert np.allclose(out.data, data, rtol=1e-12, atol=1e-9)


def test_precompute_filter_transforms():
    rng = np.random.default_rng(5)
    ts = generate_transforms(MinimalParams(2, 3))
    zero = KernelBank(np.zeros((3, 2, 3, 3), dtype=np.float32))
    assert not precompute_filter_transforms(zero, ts).any()

    kern = KernelBank(rng.standard_normal((4, 3, 3, 3)))
    v = precompute_filter_transforms(kern, ts)
    assert v.shape == (4, 3, 4, 4)
    for k in range(4):
        for c in range(3):
            assert np.allclose(v[k, c], ts.g @ kern.data[k, c] @ ts.g.T)

    with pytest.raises(ValueError, match="does not match"):
        precompute_filter_transforms(KernelBank(np.ones((1, 1, 5, 5))), ts)


def test_integer_input_rejected():
    # int32 would truncate the 1/2 entries of G in F(2,3); the result was off by tens
    rng = np.random.default_rng(6)
    fmap = FeatureMap(rng.integers(-3, 4, (1, 2, 8, 8)).astype(np.int32))
    kern = KernelBank(rng.integers(-3, 4, (2, 2, 3, 3)).astype(np.int32))
    ts = generate_transforms(MinimalParams(2, 3))
    cfg = EngineConfig(ts.params, p=2, d_p=4, clock_period=5e-9)
    spec = ConvSpec(pad=1)
    with pytest.raises(ValueError, match="floating point"):
        winograd_conv(fmap, kern, spec, ts)
    with pytest.raises(ValueError, match="floating point"):
        simulate_layer(cfg, fmap, kern, spec, ts)
    with pytest.raises(ValueError, match="floating point"):
        precompute_filter_transforms(kern, ts)

    # either operand alone being integer is rejected
    fmap32 = FeatureMap(fmap.data.astype(np.float32))
    kern32 = KernelBank(kern.data.astype(np.float32))
    for engine in (lambda x, w: winograd_conv(x, w, spec, ts),
                   lambda x, w: simulate_layer(cfg, x, w, spec, ts)):
        with pytest.raises(ValueError, match="kernel bank must be floating point"):
            engine(fmap32, kern)
        with pytest.raises(ValueError, match="feature map must be floating point"):
            engine(fmap, kern32)
    # the spatial oracle still takes integers
    assert spatial_conv(fmap, kern, spec).data.dtype == np.int32


@pytest.mark.parametrize("map_dtype,kernel_dtype", [(np.float32, np.float64),
                                                    (np.float64, np.float32)])
def test_output_keeps_map_dtype(map_dtype, kernel_dtype):
    rng = np.random.default_rng(10)
    fmap, kern = random_case(rng, 1, 3, 9, 9, 4, 3, dtype=map_dtype)
    kern = KernelBank(kern.data.astype(kernel_dtype))
    spec = ConvSpec(pad=1)
    ts = generate_transforms(MinimalParams(3, 3))
    out = winograd_conv(fmap, kern, spec, ts)
    assert out.data.dtype == map_dtype
    assert rel_err(out.data, spatial_conv(fmap, kern, spec).data) < 1e-4


# Measured max relative error of float32 winograd_conv on the layer below
# (seed 7): m=2 3.9e-7, m=3 2.8e-6, m=4 9.2e-6, m=5 7.6e-6, m=6 9.9e-6,
# m=7 2.0e-4, m=8 1.4e-3; float64 stays below 2e-12 up to m=8.
FLOAT32_ERROR_CEILING = {7: 1e-3, 8: 5e-3}


@pytest.mark.parametrize("m", range(2, 9))
def test_accuracy_per_m(m, record_property):
    rng = np.random.default_rng(7)
    fmap32, kern32 = random_case(rng, 1, 64, 24, 24, 64, 3)
    fmap64 = FeatureMap(fmap32.data.astype(np.float64))
    kern64 = KernelBank(kern32.data.astype(np.float64))
    spec = ConvSpec(pad=1)
    ref = spatial_conv(fmap64, kern64, spec).data
    ts = generate_transforms(MinimalParams(m, 3))
    err32 = rel_err(winograd_conv(fmap32, kern32, spec, ts).data, ref)
    err64 = rel_err(winograd_conv(fmap64, kern64, spec, ts).data, ref)
    record_property("rel_err_float32", err32)
    record_property("rel_err_float64", err64)
    assert err32 <= FLOAT32_ERROR_CEILING.get(m, 1e-4)
    assert err64 <= 1e-9


def test_winograd_r_mismatch():
    fmap = FeatureMap(np.ones((1, 1, 8, 8), dtype=np.float32))
    kern = KernelBank(np.ones((1, 1, 5, 5), dtype=np.float32))
    ts = generate_transforms(MinimalParams(2, 3))
    with pytest.raises(ValueError, match="does not match"):
        winograd_conv(fmap, kern, ConvSpec(pad=2), ts)


def test_shape_validation():
    with pytest.raises(ValueError, match="4D"):
        FeatureMap(np.ones((3, 4, 4)))
    with pytest.raises(ValueError, match="square"):
        KernelBank(np.ones((1, 1, 3, 2)))
    with pytest.raises(ValueError, match="pad"):
        ConvSpec(pad=-1)
    with pytest.raises(ValueError, match="does not fit"):
        spatial_conv(FeatureMap(np.ones((1, 1, 2, 2))), KernelBank(np.ones((1, 1, 3, 3))),
                     ConvSpec(pad=0))
