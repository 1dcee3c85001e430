import numpy as np
import pytest
from fractions import Fraction

from winoconv.conv import ConvSpec, FeatureMap, KernelBank, winograd_conv
from winoconv.transforms import (
    MinimalParams,
    MultCounter,
    default_points,
    export_transforms_csv,
    generate_transforms,
    winograd_1d_exact,
    winograd_2d_tile_exact,
)


def brute_conv1d(d, g):
    """Valid 1D cross-correlation, the oracle winograd_1d_exact must match."""
    m = len(d) - len(g) + 1
    return [sum(d[i + j] * g[j] for j in range(len(g))) for i in range(m)]


def brute_conv2d(d, g):
    """Valid 2D cross-correlation on one tile."""
    r = len(g)
    m = len(d) - r + 1
    return [
        [sum(d[i + u][j + v] * g[u][v] for u in range(r) for v in range(r)) for j in range(m)]
        for i in range(m)
    ]


def one_tile(ts, d, g, counter=None):
    """winograd_conv on a single alpha x alpha tile (pad 0): the m x m output Y."""
    fmap = FeatureMap(np.asarray(d)[None, None])
    kern = KernelBank(np.asarray(g)[None, None])
    return winograd_conv(fmap, kern, ConvSpec(pad=0), ts, counter=counter).data[0, 0]


def test_default_points_match_classical_sets():
    assert default_points(2) == (0, 1)
    assert default_points(3) == (0, 1, -1)
    assert default_points(4) == (0, 1, -1, 2)
    assert default_points(5) == (0, 1, -1, 2, -2)
    assert default_points(6) == (0, 1, -1, 2, -2, Fraction(1, 2))
    assert len(set(default_points(12))) == 12


def test_f23_canonical_matrices():
    ts = generate_transforms(MinimalParams(2, 3))
    bt = [[int(x) for x in row] for row in np.array(ts.b_exact).T.tolist()]
    assert bt == [[1, 0, -1, 0], [0, 1, 1, 0], [0, -1, 1, 0], [0, 1, 0, -1]]
    h = Fraction(1, 2)
    assert [list(row) for row in ts.g_exact] == [
        [1, 0, 0], [h, h, h], [h, -h, h], [0, 0, 1]]
    at = [list(row) for row in zip(*ts.a_exact)]
    assert at == [[1, 1, 1, 0], [0, 1, -1, -1]]


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_transform_shapes(m):
    ts = generate_transforms(MinimalParams(m, 3))
    alpha = m + 2
    assert ts.a.shape == (alpha, m)
    assert ts.b.shape == (alpha, alpha)
    assert ts.g.shape == (alpha, 3)
    assert len(ts.interpolation_points) == alpha - 1


@pytest.mark.parametrize("m,r", [(2, 3), (3, 3), (4, 3), (5, 3), (2, 5), (6, 3)])
def test_correctness_identity_rational(m, r):
    import random

    rng = random.Random(1234)
    ts = generate_transforms(MinimalParams(m, r))
    for _ in range(100):
        d = [Fraction(rng.randint(-40, 40), rng.randint(1, 6)) for _ in range(m + r - 1)]
        g = [Fraction(rng.randint(-40, 40), rng.randint(1, 6)) for _ in range(r)]
        y = winograd_1d_exact(ts, d, g)
        assert isinstance(y, tuple) and all(isinstance(x, Fraction) for x in y)
        assert list(y) == brute_conv1d(d, g)


def test_all_integer_f53_point_set_also_passes():
    # the all-integer point set remains usable explicitly
    import random

    rng = random.Random(7)
    ts = generate_transforms(MinimalParams(5, 3), points=[0, 1, -1, 2, -2, 3])
    assert ts.interpolation_points == (0, 1, -1, 2, -2, 3)
    for _ in range(100):
        d = [Fraction(rng.randint(-9, 9)) for _ in range(7)]
        g = [Fraction(rng.randint(-9, 9)) for _ in range(3)]
        y = winograd_1d_exact(ts, d, g)
        assert all(isinstance(x, Fraction) for x in y)
        assert list(y) == brute_conv1d(d, g)


def test_f1r_degenerates_to_dot_product():
    for r in (1, 2, 3, 5):
        ts = generate_transforms(MinimalParams(1, r))
        assert ts.a.shape == (r, 1)
        assert np.array_equal(ts.a, np.ones((r, 1)))
        assert np.array_equal(ts.b, np.eye(r))
        assert np.array_equal(ts.g, np.eye(r))
        d = np.arange(1.0, r * r + 1).reshape(r, r)
        g = np.linspace(-1, 1, r * r).reshape(r, r)
        out = one_tile(ts, d, g)
        assert out.shape == (1, 1)
        assert out[0, 0] == pytest.approx(float(np.sum(d * g)), rel=1e-12)


def test_generate_transforms_errors():
    with pytest.raises(ValueError):
        MinimalParams(0, 3)
    with pytest.raises(ValueError):
        MinimalParams(2, 0)
    with pytest.raises(ValueError, match="distinct"):
        generate_transforms(MinimalParams(2, 3), points=[0, 1, 1])
    with pytest.raises(ValueError, match="finite points"):
        generate_transforms(MinimalParams(2, 3), points=[0, 1])
    with pytest.raises(ValueError, match="dot product"):
        generate_transforms(MinimalParams(1, 3), points=[0, 1])


def test_winograd_1d_examples():
    ts = generate_transforms(MinimalParams(2, 3))
    assert winograd_1d_exact(ts, [1, 2, 3, 4], [1, 1, 1]) == (6, 9)
    assert winograd_1d_exact(ts, [1, 2, 3, 4], [0, 0, 0]) == (0, 0)
    assert winograd_1d_exact(ts, [1, 0, 0, 0], [5, 0, 0]) == (5, 0)
    with pytest.raises(ValueError, match="need len"):
        winograd_1d_exact(ts, [1, 2, 3], [1, 1, 1])
    with pytest.raises(ValueError, match="need len"):
        winograd_1d_exact(ts, [1, 2, 3, 4], [1, 1])


def test_hadamard_counts():
    for m in (2, 3, 4):
        ts = generate_transforms(MinimalParams(m, 3))
        alpha = m + 2
        counter = MultCounter()
        one_tile(ts, np.ones((alpha, alpha)), np.ones((3, 3)), counter=counter)
        assert counter.count == alpha**2  # vs m^2 r^2 spatially (36 at m = 2)


def test_winograd_2d_tile_examples():
    for m in (2, 3, 4):
        ts = generate_transforms(MinimalParams(m, 3))
        alpha = m + 2
        ones = np.ones((alpha, alpha))
        assert np.allclose(one_tile(ts, ones, np.ones((3, 3))), np.full((m, m), 9.0))
        assert np.array_equal(one_tile(ts, ones, np.zeros((3, 3))), np.zeros((m, m)))
        # an impulse at (i, j) returns the kernel, shifted: Y[x, y] = g[i - x, j - y]
        g = np.arange(1.0, 10.0).reshape(3, 3)
        for i, j in ((0, 0), (alpha - 1, alpha - 1), (1, alpha - 2)):
            impulse = np.zeros((alpha, alpha))
            impulse[i, j] = 1.0
            assert np.allclose(one_tile(ts, impulse, g), brute_conv2d(impulse, g),
                               rtol=0, atol=1e-12)
        with pytest.raises(ValueError, match="does not match"):
            one_tile(ts, ones, np.ones((4, 4)))

    rng = np.random.default_rng(11)
    ts33 = generate_transforms(MinimalParams(3, 3))
    d = rng.standard_normal((5, 5)).astype(np.float32)
    g = rng.standard_normal((3, 3)).astype(np.float32)
    out = one_tile(ts33, d, g)
    ref = np.array(brute_conv2d(d.astype(np.float64).tolist(), g.astype(np.float64).tolist()))
    assert np.max(np.abs(out - ref)) / np.max(np.abs(ref)) < 1e-4


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_nesting_property_separable(m):
    rng = np.random.default_rng(m)
    ts = generate_transforms(MinimalParams(m, 3))
    alpha = m + 2
    u, v = rng.standard_normal(alpha), rng.standard_normal(alpha)
    p, q = rng.standard_normal(3), rng.standard_normal(3)
    two_d = one_tile(ts, np.outer(u, v), np.outer(p, q))
    rows, cols = winograd_1d_exact(ts, u, p), winograd_1d_exact(ts, v, q)
    assert np.allclose(two_d, np.outer(np.array(rows, float), np.array(cols, float)),
                       rtol=1e-9, atol=1e-9)


def test_exact_2d_bit_identical():
    import random

    rng = random.Random(3)
    # m=5 has fractional A and B with the default points
    for m, points in ((2, None), (4, None), (5, None), (5, [0, 1, -1, 2, -2, 3])):
        ts = generate_transforms(MinimalParams(m, 3), points)
        alpha = m + 2
        d = [[Fraction(rng.randint(-20, 20), rng.randint(1, 5)) for _ in range(alpha)]
             for _ in range(alpha)]
        g = [[Fraction(rng.randint(-20, 20), rng.randint(1, 5)) for _ in range(3)]
             for _ in range(3)]
        y = winograd_2d_tile_exact(ts, d, g)
        assert isinstance(y, tuple) and all(isinstance(row, tuple) for row in y)
        assert all(isinstance(x, Fraction) for row in y for x in row)
        assert [list(row) for row in y] == brute_conv2d(d, g)

    # integer inputs whose outputs divide out still come back as Fractions
    ts = generate_transforms(MinimalParams(5, 3))
    y = winograd_2d_tile_exact(ts, [[1] * 7] * 7, [[1] * 3] * 3)
    assert y == ((9,) * 5,) * 5
    assert all(isinstance(x, Fraction) for row in y for x in row)

    ts = generate_transforms(MinimalParams(2, 3))
    kernel = [[1] * 3] * 3
    with pytest.raises(ValueError, match="input tile must be 4x4"):
        winograd_2d_tile_exact(ts, [[1] * 4] * 3, kernel)
    with pytest.raises(ValueError, match="input tile must be 4x4"):
        winograd_2d_tile_exact(ts, [[1] * 5] * 4, kernel)
    with pytest.raises(ValueError, match="input tile must be 4x4"):
        winograd_2d_tile_exact(ts, [[1] * 4, [1] * 4, [1] * 3, [1] * 4], kernel)
    with pytest.raises(ValueError, match="kernel tile must be 3x3"):
        winograd_2d_tile_exact(ts, [[1] * 4] * 4, [[1] * 3] * 2)
    with pytest.raises(ValueError, match="kernel tile must be 3x3"):
        winograd_2d_tile_exact(ts, [[1] * 4] * 4, [[1] * 3, [1] * 4, [1] * 3])


def test_csv_export_renders_exact_rationals(tmp_path):
    ts = generate_transforms(MinimalParams(2, 3))
    written = export_transforms_csv(ts, tmp_path)
    assert sorted(p.name for p in written) == ["a.csv", "b.csv", "g.csv"]
    g_text = (tmp_path / "g.csv").read_text().splitlines()
    assert g_text[1] == "1/2,1/2,1/2"
    assert g_text[2] == "1/2,-1/2,1/2"
    a_text = (tmp_path / "a.csv").read_text().splitlines()
    assert len(a_text) == 4 and a_text[0] == "1,0"


def test_transform_set_is_frozen():
    ts = generate_transforms(MinimalParams(2, 3))
    with pytest.raises(AttributeError):
        ts.params = MinimalParams(3, 3)
