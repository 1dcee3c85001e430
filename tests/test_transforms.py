import hashlib
import random

import numpy as np
import pytest
from fractions import Fraction
from math import ulp

from winoconv.conv import ConvSpec, FeatureMap, KernelBank, winograd_conv
from winoconv.transforms import (
    MinimalParams,
    MultCounter,
    ScaledIntMatrix,
    TransformSet,
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
    assert ts.bt_int == ScaledIntMatrix(
        ((1, 0, -1, 0), (0, 1, 1, 0), (0, -1, 1, 0), (0, 1, 0, -1)), 1)
    assert ts.g_int == ScaledIntMatrix(((2, 0, 0), (1, 1, 1), (1, -1, 1), (0, 0, 2)), 2)
    assert ts.at_int == ScaledIntMatrix(((1, 1, 1, 0), (0, 1, -1, -1)), 1)


@pytest.mark.parametrize("m", range(1, 9))
def test_floats_are_the_exact_matrices_correctly_rounded(m):
    sets = [generate_transforms(MinimalParams(m, r)) for r in range(1, 6)]
    if m == 4:  # numerators up to 2^274: rounding num and den to float64 first misses 11 entries
        point = Fraction(10**20 + 1, 3**30)
        sets.append(generate_transforms(MinimalParams(4, 3), [0, Fraction(1, 3), -3, Fraction(5, 7), point]))
    for ts in sets:
        alpha, r = ts.params.alpha, ts.params.r
        for x, exact, shape in ((ts.at, ts.at_int, (m, alpha)), (ts.bt, ts.bt_int, (alpha, alpha)),
                                (ts.g, ts.g_int, (alpha, r))):
            assert x.shape == shape and x.dtype == np.float64
            rounded = np.array([[n / exact.den for n in row] for row in exact.num])
            assert np.array_equal(x.view(np.int64), rounded.view(np.int64))
            for f, n in zip(x.ravel().tolist(), np.ravel(exact.num).tolist()):
                assert abs(Fraction(f) - Fraction(n, exact.den)) <= Fraction(ulp(f)) / 2


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_transform_shapes(m):
    ts = generate_transforms(MinimalParams(m, 3))
    alpha = m + 2
    assert ts.at.shape == (m, alpha)
    assert ts.bt.shape == (alpha, alpha)
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
        assert ts.at.shape == (1, r)
        assert np.array_equal(ts.at, np.ones((1, r)))
        assert np.array_equal(ts.bt, np.eye(r))
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
    f23 = MinimalParams(2, 3)
    with pytest.raises(ValueError, match=r"^interpolation points must be distinct, got "
                       r"\[Fraction\(0, 1\), Fraction\(1, 1\), Fraction\(1, 1\)\]$"):
        generate_transforms(f23, points=[0, 1, 1])
    with pytest.raises(ValueError, match="^interpolation points must be distinct"):
        generate_transforms(f23, points=["1/2", 0, 0.5])  # equal once parsed
    for points in ([0, 1], [0, 1, -1, 2]):
        with pytest.raises(ValueError, match=rf"^F\(2,3\) needs 3 finite points \(plus infinity\), "
                                             rf"got {len(points)}$"):
            generate_transforms(f23, points=points)
    for points in ([0, 1], []):
        with pytest.raises(ValueError, match=r"^F\(1, r\) is a plain dot product; it takes no points$"):
            generate_transforms(MinimalParams(1, 3), points=points)
    with pytest.raises(ValueError, match=r"^zero denominator in interpolation points "
                                         r"\['0', '1', '1/0'\]$"):
        generate_transforms(f23, points=["0", "1", "1/0"])
    # float("inf") raised OverflowError out of Fraction; NaN already gave ValueError
    for bad in (float("inf"), float("-inf")):
        with pytest.raises(ValueError, match=rf"^infinite value in interpolation points "
                                             rf"\[0, 1, {bad}\]$"):
            generate_transforms(f23, points=[0, 1, bad])
    with pytest.raises(ValueError):
        generate_transforms(f23, points=[0, 1, float("nan")])
    # entries beyond float64: 10^800 in A^T overflowed out of float(); 10^-400 in G became 0.0.
    # The integer synthesis must leave both to TransformSet's check, not raise
    # OverflowError or ZeroDivisionError itself.
    for points in ([Fraction(10**400), 1, -1], [Fraction(1, 10**200), 1, -1],
                   [0, 1, Fraction(1, 10**400)], [0, Fraction(10**400, 3), -1]):
        with pytest.raises(ValueError, match="^an entry of (at|g) overflows or underflows float64$"):
            generate_transforms(f23, points=points)


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


@pytest.mark.parametrize("m", [2, 5])
def test_exact_results_do_not_depend_on_entry_type(m):
    # Python ints skip Fraction() and NumPy integers become ints; neither may change a result
    rng = random.Random(m)
    ts = generate_transforms(MinimalParams(m, 3))
    alpha = m + 2
    d = [[rng.randint(-9, 9) for _ in range(alpha)] for _ in range(alpha)]
    g = [[rng.randint(-9, 9) for _ in range(3)] for _ in range(3)]
    want_1d, want_2d = winograd_1d_exact(ts, d[0], g[0]), winograd_2d_tile_exact(ts, d, g)
    assert list(want_1d) == brute_conv1d(d[0], g[0])
    assert [list(row) for row in want_2d] == brute_conv2d(d, g)
    for kind in (Fraction, str, np.int8, np.int64, lambda v: v if v % 2 else Fraction(v)):
        dk = [[kind(v) for v in row] for row in d]
        gk = [[kind(v) for v in row] for row in g]
        y_1d, y_2d = winograd_1d_exact(ts, dk[0], gk[0]), winograd_2d_tile_exact(ts, dk, gk)
        assert y_1d == want_1d and y_2d == want_2d
        assert all(type(x) is Fraction for x in y_1d + sum(y_2d, ()))


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
    # the float matrices were writable: ts.g[0, 0] = 5 changed every later convolution
    for name in ("at", "bt", "g", "kron_bt", "kron_at", "kron_g"):
        with pytest.raises(ValueError, match="read-only"):
            getattr(ts, name)[0, 0] = 5.0
    assert ts.g[0, 0] == 1.0


def test_float_copies_are_built_on_first_use():
    ts, same = generate_transforms(MinimalParams(4, 3)), generate_transforms(MinimalParams(4, 3))
    names = ("at", "bt", "g", "kron_bt", "kron_at", "kron_g")
    # at, bt and g were built at construction, which made every `import winoconv` load NumPy
    assert not set(names) & vars(ts).keys()
    before = ts == same, hash(ts) == hash(same), hash(ts)
    ts.at  # first use builds it
    assert (ts == same, hash(ts) == hash(same), hash(ts)) == before
    for name in names:
        x = getattr(ts, name)
        assert x.dtype == np.float64 and not x.flags.writeable and getattr(ts, name) is x
    for x, exact in ((ts.at, ts.at_int), (ts.bt, ts.bt_int), (ts.g, ts.g_int)):
        assert x.tolist() == [[n / exact.den for n in row] for row in exact.num]


def test_transform_sets_compare_and_hash_by_value():
    # == compared the float arrays and raised "truth value ... is ambiguous"
    ts, same = generate_transforms(MinimalParams(3, 3)), generate_transforms(MinimalParams(3, 3))
    assert ts == same and hash(ts) == hash(same)
    assert ts != generate_transforms(MinimalParams(4, 3))
    assert ts != generate_transforms(MinimalParams(3, 3), [0, 1, -1, Fraction(1, 2)])
    assert len({ts, same, generate_transforms(MinimalParams(1, 3))}) == 2


def _times(x, f):
    """The same rational matrix with numerators and denominator multiplied by f."""
    return ScaledIntMatrix(tuple([tuple([f * v for v in row]) for row in x.num]), f * x.den)


@pytest.mark.parametrize("case, match", [
    # negated: same floats, but count_transform_ops counted every +-1 as a multiplication,
    # (32, 70, 24) became (96, 84, 60)
    ("negated", "lowest terms over a positive"),
    ("doubled", "lowest terms"),  # compared unequal to the same matrices
    ("zero_den", "lowest terms over a positive"),  # was a ZeroDivisionError traceback
    ("wrong_params", "must be 3 x 5 for F\\(3,3\\)"),  # F(2,3) gave a 2 x 4 A^T for F(3,3)
    # a float denominator or numerator raised a TypeError from math.gcd
    ("float_den", "^at must be integer numerators over an integer denominator$"),
    ("float_entry", "^g must be integer numerators"),
])
def test_transform_set_rejects_malformed_matrices(case, match):
    ts = generate_transforms(MinimalParams(2, 3))
    mats = ts.at_int, ts.bt_int, ts.g_int
    params = ts.params
    if case == "negated":
        mats = tuple([_times(x, -1) for x in mats])
    elif case == "doubled":
        mats = tuple([_times(x, 2) for x in mats])
    elif case == "zero_den":
        mats = (mats[0], mats[1], mats[2]._replace(den=0))
    elif case == "float_den":
        mats = (ScaledIntMatrix(mats[0].num, 1.0), *mats[1:])
    elif case == "float_entry":
        mats = (*mats[:2], mats[2]._replace(num=((1.0, 0, 0), *mats[2].num[1:])))
    else:
        params = MinimalParams(3, 3)
    with pytest.raises(ValueError, match=match):
        TransformSet(params, *mats, ts.interpolation_points)
    assert TransformSet(ts.params, ts.at_int, ts.bt_int, ts.g_int, ts.interpolation_points) == ts


@pytest.mark.parametrize("m", range(1, 7))
@pytest.mark.parametrize("r", [1, 3, 5])
def test_kron_forms_equal_np_kron_and_are_cached(m, r):
    ts = generate_transforms(MinimalParams(m, r))
    same = generate_transforms(MinimalParams(m, r))
    other = generate_transforms(MinimalParams(m + 1, r))

    def outcomes():
        return ts == ts, ts == same, ts == other

    before = outcomes()
    assert before == (True, True, False)
    for name, x in (("kron_bt", ts.bt), ("kron_at", ts.at), ("kron_g", ts.g)):
        kron = getattr(ts, name)
        assert kron.dtype == np.float64
        assert np.array_equal(kron, np.kron(x, x))
        assert getattr(ts, name) is kron
    assert outcomes() == before


# sha256 of generate_transforms' exact output, (at_int, bt_int, g_int,
# interpolation_points) per case, as recorded from the Fraction-based synthesis
# that the integer synthesis replaced: the new code is checked against the old
# output, not against its own formula.
GOLDEN_CASES = [((m, r), None) for m in range(1, 9) for r in range(1, 6)] + [
    ((5, 3), [0, 1, -1, 2, -2, 3]),
    ((4, 3), [0, Fraction(1, 3), -3, Fraction(5, 7), Fraction(10**20 + 1, 3**30)]),
    ((3, 3), [0, 1, -1, Fraction(1, 2)]),
    ((2, 3), ["0", "1/2", "-1/2"]),
    ((5, 3), [0, 1, -1, "1/2", "-3/4", 0.1]),  # non-unit denominators and a float
]
GOLDEN_SHA256 = "2e679a15b3af51ecc3926ee0d4d0893cd866e10d85f4308208b5d5da18f658d3"


def test_generate_transforms_matches_recorded_golden_matrices():
    def exact(ts):
        return (ts.at_int.num, ts.at_int.den, ts.bt_int.num, ts.bt_int.den, ts.g_int.num,
                ts.g_int.den, tuple([(p.numerator, p.denominator) for p in ts.interpolation_points]))

    blob = repr([exact(generate_transforms(MinimalParams(*mr), pts)) for mr, pts in GOLDEN_CASES])
    assert hashlib.sha256(blob.encode()).hexdigest() == GOLDEN_SHA256


def random_points(rng, n, zero):
    """n distinct rationals with numerators in [-9, 9] and denominators 1..7, 0 among them if zero."""
    pts = {Fraction(0)} if zero else set()
    while len(pts) < n:
        pts.add(Fraction(rng.randint(-9, 9), rng.randint(1, 7)))
    return rng.sample(sorted(pts), n)


@pytest.mark.parametrize("m", range(2, 7))
@pytest.mark.parametrize("r", range(1, 5))
def test_exact_modes_on_random_rational_points(m, r):
    rng = random.Random(100 * m + r)
    alpha = m + r - 1
    for trial in range(4):
        points = random_points(rng, alpha - 1, zero=trial % 2 == 0)
        ts = generate_transforms(MinimalParams(m, r), points)
        assert ts.interpolation_points == tuple(points)
        for _ in range(3):
            d = [rng.randint(-9, 9) for _ in range(alpha)]
            g = [rng.randint(-9, 9) for _ in range(r)]
            assert list(winograd_1d_exact(ts, d, g)) == brute_conv1d(d, g)
        d = [[rng.randint(-9, 9) for _ in range(alpha)] for _ in range(alpha)]
        g = [[rng.randint(-9, 9) for _ in range(r)] for _ in range(r)]
        assert [list(row) for row in winograd_2d_tile_exact(ts, d, g)] == brute_conv2d(d, g)
