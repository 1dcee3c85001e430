import re

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from winoconv import conv as conv_module, pipeline_sim
from winoconv.conv import (
    ConvSpec,
    FeatureMap,
    KernelBank,
    output_hw,
    precompute_filter_transforms,
    spatial_conv,
    transformed_operands,
    winograd_conv,
)
from winoconv.cost_model import tile_grid
from winoconv.pipeline_sim import EngineConfig, simulate_layer
from winoconv.transforms import (
    MinimalParams,
    MultCounter,
    generate_transforms,
)


def naive_conv(data, kernels, pad):
    """Independent direct reference: float64 multiply-adds of shifted slices of the padded map.

    One step per channel and kernel offset (c, u, v), in the order of the scalar
    6-loop sum over c, u, v, so each output element is accumulated exactly as
    that loop did; no GEMM, einsum or im2col.
    """
    n, c, h, w = data.shape
    k, _, r, _ = kernels.shape
    ho, wo = h + 2 * pad - r + 1, w + 2 * pad - r + 1
    padded = np.zeros((n, c, h + 2 * pad, w + 2 * pad))
    padded[:, :, pad : pad + h, pad : pad + w] = data
    weights = kernels.astype(np.float64)
    out = np.zeros((n, k, ho, wo))
    for cc in range(c):
        for u in range(r):
            for v in range(r):
                shifted = padded[:, None, cc, u : u + ho, v : v + wo]
                out += shifted * weights[:, cc, u, v, None, None]
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


@pytest.mark.parametrize("r, pad", [(r, pad) for r in (1, 3, 5) for pad in (0, 1, 2)])
def test_spatial_matches_naive_over_batch_channels_and_shapes(r, pad):
    # The patch matrix rows are (c, u, v) and each image has its own slab: a wrong row
    # order needs C > 1 and r > 1 to show, mixed-up images N > 1.
    rng = np.random.default_rng(10 * r + pad)
    h, w, k = r + 1, r + 3, 3
    for n in (1, 2):
        for c in range(1, 5):
            fmap, kern = random_case(rng, n, c, h, w, k, r, dtype=np.float64)
            out = spatial_conv(fmap, kern, ConvSpec(pad=pad))
            ref = naive_conv(fmap.data, kern.data, pad)
            assert out.data.shape == ref.shape == (n, k, h + 2 * pad - r + 1, w + 2 * pad - r + 1)
            assert out.data.dtype == np.float64
            assert np.allclose(out.data, ref, rtol=0, atol=1e-12)
            for dtype, hi in ((np.int8, 1), (np.int16, 3), (np.int32, 3), (np.int64, 3)):
                d = FeatureMap(rng.integers(-hi, hi + 1, (n, c, h, w)).astype(dtype))
                g = KernelBank(rng.integers(-hi, hi + 1, (k, c, r, r)).astype(dtype))
                out = spatial_conv(d, g, ConvSpec(pad=pad))
                assert out.data.dtype == dtype
                assert np.array_equal(out.data, naive_conv(d.data, g.data, pad))


def test_spatial_rejects_integer_map_with_float_kernels():
    # the int32 output would truncate 4.5 to 4
    kern = KernelBank(np.full((1, 1, 3, 3), 0.5, dtype=np.float32))
    with pytest.raises(ValueError, match="feature map must be floating point"):
        spatial_conv(FeatureMap(np.ones((1, 1, 4, 4), dtype=np.int32)), kern, ConvSpec())
    out = spatial_conv(FeatureMap(np.ones((1, 1, 4, 4), dtype=np.float32)), kern, ConvSpec())
    assert np.array_equal(out.data, np.full((1, 1, 2, 2), 4.5, dtype=np.float32))


def test_spatial_rejects_integer_sums_beyond_exact_range():
    # int32 sums of 144 * 2^32 overflow the map's dtype; int64 sums near
    # 9 * 2^53 lose their low bits in the float64 accumulator; a uint8 map
    # cannot hold the sum -9
    for d, g in (((1, 16, 4, 4), 2**20, np.int32), ((1, 16, 3, 3), 2**12, np.int32)), \
                (((1, 1, 3, 3), 2**40 + 1, np.int64), ((1, 1, 3, 3), 2**13 + 1, np.int64)), \
                (((1, 1, 3, 3), 1, np.uint8), ((1, 1, 3, 3), -1, np.int8)):
        fmap, kern = FeatureMap(np.full(*d)), KernelBank(np.full(*g))
        with pytest.raises(ValueError, match="exact range"):
            spatial_conv(fmap, kern, ConvSpec())
    # sums inside the range stay exact and keep the map's dtype
    out = spatial_conv(FeatureMap(np.full((1, 16, 4, 4), 2**10, np.int32)),
                       KernelBank(np.full((1, 16, 3, 3), 2**12, np.int32)), ConvSpec())
    assert out.data.dtype == np.int32 and (out.data == 144 * 2**22).all()
    out = spatial_conv(FeatureMap(np.full((1, 1, 3, 3), 2**40 + 1, np.int64)),
                       KernelBank(np.full((1, 1, 3, 3), 2**8 + 1, np.int64)), ConvSpec())
    assert out.data.dtype == np.int64 and out.data.item() == 9 * (2**40 + 1) * (2**8 + 1)


def test_spatial_rejects_bool_map():
    # bool sums were cast back to bool: nine True products returned True, not 9
    fmap = FeatureMap(np.ones((1, 1, 3, 3), dtype=bool))
    kern = KernelBank(np.ones((1, 1, 3, 3), dtype=bool))
    with pytest.raises(ValueError, match="bool"):
        spatial_conv(fmap, kern, ConvSpec())


def test_spatial_rejects_complex_operands():
    # the float64 sum dropped the imaginary part: 1+1j maps gave 9+0j, 1j kernels gave 0
    ones = np.ones((1, 1, 3, 3), dtype=int)
    for fmap, kern, what in ((ones + 1j, ones, "feature map"),
                             (ones + 0.0, 1j * ones, "kernel bank")):
        with pytest.raises(ValueError, match=f"{what} must be real, got complex128"):
            spatial_conv(FeatureMap(fmap), KernelBank(kern), ConvSpec())


@pytest.mark.parametrize("dtype", ["<U1", "datetime64[s]", "timedelta64[s]", object])
def test_spatial_rejects_non_numeric_maps(dtype):
    # with int32 kernels a <U1 map returned the <U1 output '9', datetime64 and object maps
    # returned outputs of their own dtype, and timedelta64 failed inside np.iinfo
    fmap = FeatureMap(np.ones((1, 1, 3, 3), dtype=np.int64).astype(dtype))
    kern = KernelBank(np.ones((1, 1, 3, 3), dtype=np.int32))
    name = re.escape(str(np.dtype(dtype)))
    with pytest.raises(ValueError, match=f"^feature map must be numeric, got {name}$"):
        spatial_conv(fmap, kern, ConvSpec())
    with pytest.raises(ValueError, match=f"^kernel bank must be numeric, got {name}$"):
        spatial_conv(FeatureMap(np.ones((1, 1, 3, 3))), KernelBank(kern.data.astype(dtype)),
                     ConvSpec())


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


@pytest.mark.parametrize("m,r", [(1, 3), (2, 3), (3, 3), (4, 3), (5, 3), (6, 3), (2, 5), (3, 1)])
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
    (n, c), k = fmap.data.shape[:2], kern.data.shape[0]
    assert counter.count == n * ty * tx * c * k * 6 * 6


def test_every_output_pixel_written_once():
    # distinct per-pixel values survive a convolution with the identity kernel
    rng = np.random.default_rng(8)
    data = np.arange(1 * 1 * 10 * 10, dtype=np.float64).reshape(1, 1, 10, 10) + 1.0
    kern = np.zeros((1, 1, 3, 3))
    kern[0, 0, 1, 1] = 1.0  # centered impulse
    ts = generate_transforms(MinimalParams(3, 3))
    out = winograd_conv(FeatureMap(data), KernelBank(kern), ConvSpec(pad=1), ts)
    assert np.allclose(out.data, data, rtol=1e-12, atol=1e-9)


# (map, kernels) dtype pairs: either one wider, both the same, and non-native byte order
FRONT_END_DTYPES = [(np.float32, np.float64), (np.float64, np.float32), (np.float64, np.float64),
                    (np.float32, np.float32), (">f4", ">f4")]


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

    for m in range(1, 7):
        for r in (1, 3, 5):
            ts = generate_transforms(MinimalParams(m, r))
            a = ts.params.alpha
            kern = KernelBank(rng.standard_normal((3, 2, r, r)))
            v = precompute_filter_transforms(kern, ts)
            assert v.shape == (3, 2, a, a) and v.dtype == np.float64
            for k in range(3):
                for c in range(2):
                    np.testing.assert_allclose(v[k, c], ts.g @ kern.data[k, c] @ ts.g.T,
                                               rtol=1e-12)
            # it is a view of channel-major (C, alpha^2, K) storage, the front end's layout
            assert np.shares_memory(v, v.transpose(1, 2, 3, 0).reshape(2, a * a, 3))
            kern32 = KernelBank(kern.data.astype(np.float32))
            v32 = precompute_filter_transforms(kern32, ts)
            assert v32.dtype == np.float32
            # the front end computes V at the wider precision and casts it to the map's dtype
            for map_dtype, kernel_dtype in FRONT_END_DTYPES:
                x = FeatureMap(np.ones((1, 2, r, r), map_dtype))
                w = KernelBank(kern.data.astype(kernel_dtype))
                assert_identical(transformed_operands(x, w, ConvSpec(), ts)[1],
                                 front_end_filter_transforms(x, w, ts))


@pytest.mark.parametrize("dtype, bound", [(np.float32, 1e-6), (np.float64, 1e-14)])
def test_data_transform_matches_per_tile_reference(dtype, bound):
    # U is one kron(B^T, B^T) GEMM over all tiles; check it against B^T d B of each
    # tile in float64, and V against G g G^T of each kernel slice.
    rng = np.random.default_rng(17)
    for m in range(1, 7):
        ts = generate_transforms(MinimalParams(m, 3))
        a, pad = ts.params.alpha, m % 2
        fmap, kern = random_case(rng, 2, 3, 2 * m + 3, 3 * m + 1, 4, 3, dtype)
        u, v, (ty, tx), _ = transformed_operands(fmap, kern, ConvSpec(pad=pad), ts)
        assert u.shape == (a * a, 3, 2 * ty * tx) and v.shape == (3, a * a, 4)
        assert u.dtype == v.dtype == dtype
        ext = np.zeros((2, 3, ty * m + 2, tx * m + 2))
        h, w = fmap.data.shape[2:]
        ext[:, :, pad : pad + h, pad : pad + w] = fmap.data
        want = np.empty(u.shape)
        for img in range(2):
            for yi in range(ty):
                for xi in range(tx):
                    d = ext[img, :, yi * m : yi * m + a, xi * m : xi * m + a]
                    want[:, :, (img * ty + yi) * tx + xi] = (ts.bt @ d @ ts.bt.T).reshape(3, -1).T
        assert rel_err(u, want) <= bound, m
        want = ts.g @ kern.data.astype(np.float64) @ ts.g.T  # (K, C, alpha, alpha)
        assert rel_err(v, want.transpose(1, 2, 3, 0).reshape(3, a * a, 4)) <= bound, m


def pad_window_spatial(d, g, pad):
    """The im2col oracle with its patch matrix cut by np.pad and sliding_window_view."""
    (n, c), (k, _, r, _) = d.shape[:2], g.shape
    padded = np.pad(d, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    win = sliding_window_view(padded, (r, r), axis=(2, 3))
    h_out, w_out = win.shape[2:4]
    cols = np.empty((n, c * r * r, h_out * w_out))
    cols.reshape(n, c, r, r, h_out, w_out)[...] = win.transpose(0, 1, 4, 5, 2, 3)
    out = g.reshape(k, -1).astype(np.float64) @ cols
    return out.reshape(n, k, h_out, w_out).astype(d.dtype, copy=False)


def pad_window_operands(fmap, kernels, spec, ts):
    """transformed_operands with its tiles cut by np.pad and sliding_window_view."""
    (_, c, h, w), (k, _, r, _) = fmap.data.shape, kernels.data.shape
    m, alpha, dtype = ts.params.m, ts.params.alpha, fmap.data.dtype
    h_out, w_out = output_hw(h, w, r, spec.pad)
    ty, tx = tile_grid(h_out, w_out, m)
    p = spec.pad
    ext = np.pad(fmap.data, ((0, 0), (0, 0), (p, ty * m + r - 1 - p - h),
                             (p, tx * m + r - 1 - p - w)))
    tiles = sliding_window_view(ext, (alpha, alpha), axis=(2, 3))[:, :, ::m, ::m]
    d = tiles.transpose(4, 5, 1, 0, 2, 3).reshape(alpha * alpha, -1)
    u = (ts.kron_bt.astype(dtype) @ d).reshape(alpha * alpha, c, -1)
    return u, front_end_filter_transforms(fmap, kernels, ts), (ty, tx), (h_out, w_out)


def front_end_filter_transforms(fmap, kernels, ts):
    """The front end's V from the public precompute: kernels cast to the wider dtype,
    transformed, laid out as (C, alpha^2, K) and cast to the map's dtype."""
    (k, c, _, _), a, dtype = kernels.data.shape, ts.params.alpha, fmap.data.dtype
    wide = KernelBank(kernels.data.astype(np.promote_types(dtype, kernels.data.dtype)))
    v = precompute_filter_transforms(wide, ts).transpose(1, 2, 3, 0).reshape(c, a * a, k)
    return v.astype(dtype, copy=False)


def layouts(x):
    """x and four maps that are not C-contiguous; the last repeats image 0 and is read-only."""
    n, c, h, w = x.shape
    big = np.zeros((n, c + 1, h + 2, w + 3), x.dtype)
    big[:, 1:, 1:-1, 2:-1] = x
    return (x, np.ascontiguousarray(x[:, :, ::-1, ::-1])[:, :, ::-1, ::-1],
            np.asfortranarray(x), big[:, 1:, 1:-1, 2:-1], np.broadcast_to(x[:1], x.shape))


def assert_identical(got, want):
    assert got.dtype == want.dtype and np.array_equal(got, want)


@pytest.mark.parametrize("r", [1, 3, 5])
def test_strided_views_are_bit_identical_to_pad_and_sliding_window(r, monkeypatch):
    # Both paths must copy the same elements in the same order into the same GEMMs.
    rng = np.random.default_rng(r)
    sets = [generate_transforms(MinimalParams(m, r)) for m in range(1, 6)]
    for pad in range(3):
        spec = ConvSpec(pad=pad)
        for n in (1, 2):
            for dtype in (np.float32, np.float64, ">f4"):
                fmap, kern = random_case(rng, n, 3, r + 2, r + 5, 4, r, dtype)
                for x in layouts(fmap.data):
                    x = FeatureMap(x)
                    assert_identical(spatial_conv(x, kern, spec).data,
                                     pad_window_spatial(x.data, kern.data, pad))
                    for ts in sets:
                        cfg = EngineConfig(ts.params, p=3)
                        got = transformed_operands(x, kern, spec, ts)
                        want = pad_window_operands(x, kern, spec, ts)
                        assert got[2:] == want[2:]
                        assert_identical(got[0], want[0])
                        assert_identical(got[1], want[1])
                        wino, (sim, trace) = (winograd_conv(x, kern, spec, ts),
                                              simulate_layer(cfg, x, kern, spec, ts))
                        with monkeypatch.context() as patch:
                            patch.setattr(conv_module, "transformed_operands", pad_window_operands)
                            patch.setattr(pipeline_sim, "transformed_operands", pad_window_operands)
                            assert_identical(wino.data, winograd_conv(x, kern, spec, ts).data)
                            want_sim, want_trace = simulate_layer(cfg, x, kern, spec, ts)
                            assert_identical(sim.data, want_sim.data)
                            assert trace.to_json() == want_trace.to_json()
            for dtype in (np.int8, np.int32):
                d = rng.integers(-3, 4, (n, 3, r + 2, r + 5)).astype(dtype)
                g = KernelBank(rng.integers(-3, 4, (4, 3, r, r)).astype(dtype))
                for x in layouts(d):
                    assert_identical(spatial_conv(FeatureMap(x), g, spec).data,
                                     pad_window_spatial(x, g.data, pad))


def test_integer_input_rejected():
    # int32 would truncate the 1/2 entries of G in F(2,3); the result was off by tens
    rng = np.random.default_rng(6)
    fmap = FeatureMap(rng.integers(-3, 4, (1, 2, 8, 8)).astype(np.int32))
    kern = KernelBank(rng.integers(-3, 4, (2, 2, 3, 3)).astype(np.int32))
    ts = generate_transforms(MinimalParams(2, 3))
    cfg = EngineConfig(ts.params, p=2)
    spec = ConvSpec(pad=1)
    with pytest.raises(ValueError, match="floating point"):
        precompute_filter_transforms(kern, ts)

    # both Winograd paths share one layer frame and raise the same message per fault
    fmap32 = FeatureMap(fmap.data.astype(np.float32))
    kern32 = KernelBank(kern.data.astype(np.float32))
    faults = [
        (fmap32, KernelBank(np.ones((2, 3, 3, 3), np.float32)),
         "channel mismatch: input has 2, kernels have 3"),
        (fmap32, KernelBank(np.ones((2, 2, 5, 5), np.float32)),
         "kernel size 5 does not match transform set r=3"),
        (fmap, kern32, "feature map must be floating point, got int32"),
        (fmap32, kern, "kernel bank must be floating point, got int32"),
        (fmap, kern, "feature map must be floating point, got int32"),
        (FeatureMap(fmap.data + 1j), kern32, "feature map must be floating point, got complex128"),
        # in float16 a 24x24, 64->64 layer was 1% off at m = 4 and NaN at m = 8, with a warning
        (FeatureMap(fmap.data.astype(np.float16)), kern32,
         "feature map must be float32 or wider, got float16"),
        (FeatureMap(np.ones((1, 2, 1, 8), np.float32)), kern32,
         "kernel 3x3 with pad 0 does not fit 1x8 input"),
    ]
    for x, w, message in faults:
        for engine in (winograd_conv, lambda *args: simulate_layer(cfg, *args)):
            with pytest.raises(ValueError, match=f"^{message}$"):
                engine(x, w, ConvSpec(), ts)
    # the spatial oracle still takes integers
    assert spatial_conv(fmap, kern, spec).data.dtype == np.int32


@pytest.mark.parametrize("map_dtype,kernel_dtype", [(np.float32, np.float64),
                                                    (np.float64, np.float32),
                                                    (np.float64, np.float64)])
def test_output_keeps_map_dtype(map_dtype, kernel_dtype):
    rng = np.random.default_rng(10)
    fmap, kern = random_case(rng, 1, 3, 9, 9, 4, 3, dtype=map_dtype)
    kern = KernelBank(kern.data.astype(kernel_dtype))
    spec = ConvSpec(pad=1)
    ts = generate_transforms(MinimalParams(3, 3))
    out = winograd_conv(fmap, kern, spec, ts)
    assert out.data.dtype == map_dtype
    assert rel_err(out.data, spatial_conv(fmap, kern, spec).data) < 1e-4
    if map_dtype is np.float64:
        # A float64 map computes in float64 whatever the kernels' dtype; a filter precompute
        # in the kernels' float32 is 9.7e-7 off at m = 4.
        fmap, kern = random_case(rng, 1, 16, 12, 12, 8, 3, dtype=np.float64)
        kern = KernelBank(kern.data.astype(kernel_dtype))
        ref = spatial_conv(fmap, kern, spec).data
        for m in (2, 3, 4):
            ts = generate_transforms(MinimalParams(m, 3))
            sim, _ = simulate_layer(EngineConfig(ts.params, p=3), fmap, kern, spec, ts)
            for out in (winograd_conv(fmap, kern, spec, ts), sim):
                assert out.data.dtype == np.float64
                assert rel_err(out.data, ref) < 1e-12


# Measured max relative error of float32 winograd_conv on the layer below
# (seed 7): m=2 3.6e-7, m=3 3.1e-6, m=4 7.8e-6, m=5 7.6e-6, m=6 9.7e-6,
# m=7 2.3e-4, m=8 1.4e-3; float64 stays below 3e-12 up to m=8.
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


def test_non_float_kernels_rejected_by_kind_before_promotion():
    # The kernel checks run before np.promote_types, which raises DTypePromotionError (not
    # ValueError) for datetime64 kernels against a float map.
    ts = generate_transforms(MinimalParams(2, 3))
    cfg = EngineConfig(ts.params, p=2)
    fmap = FeatureMap(np.ones((1, 2, 8, 8), np.float32))
    size = "kernel size 5 does not match transform set r=3"
    channels = "channel mismatch: input has 2, kernels have 3"
    for dtype in ("<U1", "datetime64[s]", "timedelta64[s]", object, bool, np.complex64, np.int8):
        kind = f"kernel bank must be floating point, got {np.dtype(dtype)}"
        # (shape, message of the two Winograd paths, message of the precompute)
        for shape, engine_message, precompute_message in [
                ((2, 2, 3, 3), kind, kind), ((2, 2, 5, 5), size, size),
                ((2, 3, 3, 3), channels, kind)]:
            kernels = KernelBank(np.zeros(shape, dtype))
            for call, message in [
                    (lambda: winograd_conv(fmap, kernels, ConvSpec(), ts), engine_message),
                    (lambda: simulate_layer(cfg, fmap, kernels, ConvSpec(), ts), engine_message),
                    (lambda: precompute_filter_transforms(kernels, ts), precompute_message)]:
                with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                    call()
