"""Winograd minimal filtering: transform synthesis and exact single-tile mode.

A minimal 1D algorithm F(m, r) computes m outputs of a valid (no padding)
convolution with an r-tap filter using only m+r-1 multiplications:

    y = A^T [(B^T d) . (G g)]

where d has alpha = m+r-1 samples, g has r taps, "." is element-wise, and
A (alpha x m), B (alpha x alpha), G (alpha x r) are constant matrices.
Nesting the 1D form gives the 2D algorithm on alpha x alpha input tiles:

    Y = A^T [(B^T d B) . (G g G^T)] A

The constant matrices are synthesized from a set of distinct interpolation
points via polynomial evaluation/interpolation (Cook-Toom), carried out in
exact integer arithmetic.  A TransformSet keeps A^T, B^T and G once, exactly,
as integer numerators over one common denominator each; the float64 copies
are derived from those.  conv.winograd_conv and pipeline_sim.simulate_layer
apply the floats to whole layers.  Exact mode (winograd_1d_exact,
winograd_2d_tile_exact) evaluates the algorithms on one tile, on the integer
numerators, and divides once per output.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import gcd, lcm, prod
from numbers import Integral
from operator import attrgetter, index, mul
from pathlib import Path
from typing import TYPE_CHECKING, NamedTuple, Sequence

if TYPE_CHECKING:
    import numpy as np


class ScaledIntMatrix(NamedTuple):
    """A rational matrix as integer numerators over one common positive denominator."""

    num: tuple[tuple[int, ...], ...]
    den: int


def _checked_int(value, label: str, low: int) -> int:
    """The rule of every count and size field: value as an int (NumPy integers
    included), or a ValueError naming label unless it is an integer >= low."""
    try:
        value = index(value)
    except TypeError:
        raise ValueError(f"{label} must be an integer, got {value!r}") from None
    if value < low:
        raise ValueError(f"{label} must be >= {low}, got {value}")
    return value


class MultCounter:
    """Instrumented counter for element-wise (Hadamard) multiplications."""

    def __init__(self):
        self.count = 0

    def add(self, n: int):
        self.count += int(n)


class Record:
    """Base of the package's immutable records.

    A subclass's __init__ checks its arguments and stores them with
    self.__dict__.update(...); its parameters, in order, are the record's
    fields.  Records are equal, and hash alike, when they are of the same
    class with equal field values; repr is Name(field=value, ...); setting or
    deleting an attribute raises AttributeError.  No method is generated, so
    defining a record costs no more than defining a class.
    """

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls):
        code = cls.__init__.__code__
        cls._fields = fields = code.co_varnames[1 : code.co_argcount]
        get = attrgetter(*fields)  # a tuple, unless there is one field
        cls._values = (lambda self: (get(self),)) if len(fields) == 1 else (lambda self: get(self))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join([f"{n}={v!r}" for n, v in zip(self._fields, self._values())])
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class MinimalParams(Record):
    """The (m, r) pair selecting one minimal filtering algorithm.

    m: output tile size per dimension, r: kernel size per dimension.
    The input tile size alpha = m + r - 1 is always derived.
    """

    def __init__(self, m: int, r: int):
        self.__dict__.update(m=_checked_int(m, "m", 1), r=_checked_int(r, "r", 1))

    @property
    def alpha(self) -> int:
        return self.m + self.r - 1


class TransformSet(Record):
    """Constant matrices of one minimal algorithm, exact and as float64.

    at_int: inverse transform A^T (m x alpha), bt_int: data transform B^T
    (alpha x alpha), g_int: filter transform G (alpha x r), each exact as
    integer numerators over one common denominator, in the orientation the
    algorithm applies them.  at, bt and g are the same matrices as float64,
    each entry n / den correctly rounded, and kron_bt, kron_at and kron_g are
    kron(X, X) for X = B^T, A^T, G: they apply X t X^T to row-major flattened
    tiles t.  All six are built once, on first use, so NumPy loads only then.
    Only pipeline_sim.simulate_layer reads kron_at, as its per-issue-cycle product.
    interpolation_points lists the finite synthesis points; the last evaluation
    point is always the point at infinity and is not stored.  Instances are
    immutable (every array is read-only), thread-safe, and compare and hash by
    params, exact matrices and points.  Construction checks in plain Python and
    raises ValueError when a matrix's shape does not match params, when it
    holds a non-integer, when it is not in lowest terms over a positive
    denominator (so equal sets compare equal, and a coefficient is +-1 exactly
    when its numerator's magnitude is the denominator), or when a nonzero
    entry overflows float64 or rounds to zero.
    """

    def __init__(self, params: MinimalParams, at_int: ScaledIntMatrix, bt_int: ScaledIntMatrix,
                 g_int: ScaledIntMatrix, interpolation_points: tuple[Fraction, ...]):
        m, r, alpha = params.m, params.r, params.alpha
        for name, mat, rows, cols in (("at", at_int, m, alpha), ("bt", bt_int, alpha, alpha),
                                      ("g", g_int, alpha, r)):
            num, den = mat
            if len(num) != rows or any(len(row) != cols for row in num):
                raise ValueError(f"{name} must be {rows} x {cols} for F({m},{r})")
            try:
                common = gcd(den, *[v for row in num for v in row])
            except TypeError:  # a float or Fraction entry
                raise ValueError(
                    f"{name} must be integer numerators over an integer denominator") from None
            if den <= 0 or common != 1:
                raise ValueError(f"{name} must be in lowest terms over a positive denominator")
            try:  # int true division rounds correctly at any integer size
                lost = any(v != 0 and v / den == 0 for row in num for v in row)
            except OverflowError:
                lost = True
            if lost:
                raise ValueError(f"an entry of {name} overflows or underflows float64")
        self.__dict__.update(params=params, at_int=at_int, bt_int=bt_int, g_int=g_int,
                             interpolation_points=interpolation_points)

    at = cached_property(lambda self: _floats(self.at_int))
    bt = cached_property(lambda self: _floats(self.bt_int))
    g = cached_property(lambda self: _floats(self.g_int))
    kron_bt = cached_property(lambda self: _kron(self.bt))
    kron_at = cached_property(lambda self: _kron(self.at))
    kron_g = cached_property(lambda self: _kron(self.g))


def _floats(x: ScaledIntMatrix) -> np.ndarray:
    """x as a read-only float64 array, each entry n / den correctly rounded."""
    import numpy as np  # here, so that `import winoconv` and the analytic CLI never load it
    return _read_only(np.array([[v / x.den for v in row] for row in x.num], dtype=np.float64))


def _kron(x: np.ndarray) -> np.ndarray:
    import numpy as np
    return _read_only(np.kron(x, x))


def _read_only(x: np.ndarray) -> np.ndarray:
    x.flags.writeable = False
    return x


def default_points(n: int) -> tuple[Fraction, ...]:
    """First n points of the sequence 0, 1, -1, 2, -2, 1/2, -1/2, 3, -3, 1/3, ...

    Small-magnitude points keep the transform constants small; the mix of
    integers and reciprocals delays the growth of Lagrange coefficients.
    """
    pts: list[Fraction] = [Fraction(0)]
    k = 1
    while len(pts) < n:
        pts.append(Fraction(k))
        pts.append(Fraction(-k))
        if k > 1:
            pts.append(Fraction(1, k))
            pts.append(Fraction(-1, k))
        k += 1
    return tuple(pts[:n])


def _divide_linear(poly: list[int], p: int, q: int) -> list[int]:
    """poly(x) / (q x - p) by synthetic division from the top; exact when it divides poly."""
    out = [0]
    for c in reversed(poly[1:]):
        out.append((c + p * out[-1]) // q)
    return out[:0:-1]  # ascending, like poly


def _lowest_terms(num: list[list[int]], den: int) -> ScaledIntMatrix:
    """Integer rows over a positive denominator, divided by their one common gcd."""
    g = gcd(den, *[v for row in num for v in row])
    return ScaledIntMatrix(tuple([tuple([v // g for v in row]) for row in num]), den // g)


def generate_transforms(
    params: MinimalParams, points: Sequence[Fraction | int | str] | None = None
) -> TransformSet:
    """Synthesize the A^T, B^T, G matrices for F(m, r).

    Uses m+r-2 distinct rational points a_i = p_i/q_i (lowest terms, q_i > 0)
    plus the implicit point at infinity.  Per finite point i the rows come
    from the Lagrange basis polynomial L_i = N_i / N_i(a_i), where N_i is the
    master polynomial M(x) = prod_k (q_k x - p_k) over (q_i x - p_i): the B^T
    row holds N_i's coefficients, a primitive integer vector (Gauss's lemma),
    signed like N_i(a_i); the G row holds the Vandermonde powers of the point
    over |N_i(a_i)| (fractions end up in the filter transform, which is the
    precomputable one); the A^T column holds the plain Vandermonde powers.
    The infinity row extracts leading coefficients.  Points are parsed as
    Fractions; synthesis then runs on Python integers, building M once and
    each N_i from it by exact synthetic division (O(alpha^2) operations), and
    keeps each matrix as a ScaledIntMatrix.  With the default points {0, 1, -1}
    this reproduces the classical F(2,3) matrices exactly.  Points may also
    be strings such as "1/2"; a zero denominator or infinity is a ValueError.

    m == 1 has no interpolation stage: the algorithm degenerates to a plain
    dot product (B^T = G = I, A^T = row of ones).
    """
    m, r = params.m, params.r
    alpha = params.alpha

    if m == 1:
        if points is not None:
            raise ValueError("F(1, r) is a plain dot product; it takes no points")
        eye = ScaledIntMatrix(tuple([tuple([int(i == j) for j in range(r)]) for i in range(r)]), 1)
        return TransformSet(params, ScaledIntMatrix(((1,) * r,), 1), eye, eye, ())

    if points is None:
        pts = list(default_points(alpha - 1))
    else:
        try:
            pts = [Fraction(p) for p in points]
        except ZeroDivisionError as exc:
            raise ValueError(f"zero denominator in interpolation points {list(points)}") from exc
        except OverflowError as exc:  # float("inf"): the point at infinity is implicit
            raise ValueError(f"infinite value in interpolation points {list(points)}") from exc
    if len(pts) != alpha - 1:
        raise ValueError(
            f"F({m},{r}) needs {alpha - 1} finite points (plus infinity), got {len(pts)}"
        )
    if len(set(pts)) != len(pts):
        raise ValueError(f"interpolation points must be distinct, got {pts}")

    pq = [(a.numerator, a.denominator) for a in pts]
    master = [1]  # M(x), ascending
    for p, q in pq:
        master = [q * hi - p * lo for lo, hi in zip(master + [0], [0] + master)]
    q_all = master[-1]  # prod q_k: M / q_all = prod (x - a_k), with leading coefficient 1
    bt_rows, g_rows, e_abs = [], [], []
    for i, (p, q) in enumerate(pq):
        # q^(alpha-2) N_i(a_i), nonzero for distinct points
        e = prod([qk * p - pk * q for k, (pk, qk) in enumerate(pq) if k != i])
        scale = q_all if e > 0 else -q_all
        bt_rows.append([scale * c for c in _divide_linear(master, p, q)] + [0])
        g_rows.append([p**j * q ** (alpha - 2 - j) for j in range(r)])
        e_abs.append(abs(e))
    g_den = lcm(*e_abs)
    g_rows = [[v * (g_den // e) for v in row] for row, e in zip(g_rows, e_abs)]

    # Point at infinity: the product's leading coefficient.  The row is the
    # coefficient vector of prod(a_i - x); its sign is compensated in A^T.
    sign = (-1) ** (alpha - 1)
    bt_rows.append([sign * c for c in master])
    g_rows.append([0] * (r - 1) + [g_den])
    at_den = lcm(*[q for _, q in pq]) ** (m - 1)
    at_rows = [[p**j * q ** (m - 1 - j) * (at_den // q ** (m - 1)) for p, q in pq]
               + [sign * at_den if j == m - 1 else 0] for j in range(m)]
    return TransformSet(params, _lowest_terms(at_rows, at_den), _lowest_terms(bt_rows, q_all),
                        _lowest_terms(g_rows, g_den), tuple(pts))


# Exact (rational) mode: same algorithms, evaluated on integer numerators
# over one common denominator per operand and divided once per output.
# Outputs are bit-identical to brute-force convolution, which makes the
# correctness identity testable without floating-point tolerances.
#
# tuple() and *-arguments below take lists, not generator expressions.
# CPython builds a tuple from a generator at a guessed size and resizes it,
# bypassing the per-size tuple free lists, but frees it into them; called
# per tile, that fills the free lists (2000 tuples per size) with memory
# the process keeps.

def _scaled_input(x) -> tuple[list[list[int]], int]:
    """Rows of anything Fraction() accepts as Python-int rows over one positive denominator."""
    rows = [[v if type(v) is int else int(v) if isinstance(v, Integral) else Fraction(v)
             for v in row] for row in x]
    den = lcm(*[v.denominator for row in rows for v in row])
    return [[v.numerator * (den // v.denominator) for v in row] for row in rows], den


def _matmul(rows, cols) -> list[list[int]]:
    """rows @ X, where cols lists the columns of X."""
    return [[sum(map(mul, row, col)) for col in cols] for row in rows]


def _sandwich(t, x) -> list[list[int]]:
    """T x T^T for T given by its rows."""
    return _matmul(_matmul(t, list(zip(*x))), t)


def winograd_1d_exact(ts: TransformSet, d, g) -> tuple[Fraction, ...]:
    """F(m, r) on one tile in exact arithmetic; d and g are sequences of rationals."""
    alpha, r = ts.params.alpha, ts.params.r
    (dv,), d_den = _scaled_input([d])
    (gv,), g_den = _scaled_input([g])
    if len(dv) != alpha or len(gv) != r:
        raise ValueError(f"need len(d)={alpha} and len(g)={r}")
    u = [sum(map(mul, row, dv)) for row in ts.bt_int.num]
    v = [sum(map(mul, row, gv)) for row in ts.g_int.num]
    prod = list(map(mul, u, v))
    den = ts.at_int.den * ts.bt_int.den * ts.g_int.den * d_den * g_den
    return tuple([Fraction(sum(map(mul, row, prod)), den) for row in ts.at_int.num])


def winograd_2d_tile_exact(ts: TransformSet, d, g) -> tuple[tuple[Fraction, ...], ...]:
    """F(m x m, r x r) on one tile in exact arithmetic; d is alpha x alpha, g is r x r."""
    alpha, r = ts.params.alpha, ts.params.r
    dm, d_den = _scaled_input(d)
    if len(dm) != alpha or any(len(row) != alpha for row in dm):
        raise ValueError(f"input tile must be {alpha}x{alpha}")
    gm, g_den = _scaled_input(g)
    if len(gm) != r or any(len(row) != r for row in gm):
        raise ValueError(f"kernel tile must be {r}x{r}")
    u = _sandwich(ts.bt_int.num, dm)
    v = _sandwich(ts.g_int.num, gm)
    y = _sandwich(ts.at_int.num, [list(map(mul, ur, vr)) for ur, vr in zip(u, v)])
    den = (ts.at_int.den * ts.bt_int.den * ts.g_int.den) ** 2 * d_den * g_den
    return tuple([tuple([Fraction(x, den) for x in row]) for row in y])


def _rationals(mat: ScaledIntMatrix) -> list[list[Fraction]]:
    return [[Fraction(n, mat.den) for n in row] for row in mat.num]


def export_transforms_csv(ts: TransformSet, directory) -> list[Path]:
    """Write a.csv, b.csv, g.csv (row-major, exact rationals as 'p/q').

    The file format keeps A and B, so this is where A^T and B^T are transposed.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    written = []
    for name, mat in (("a", zip(*_rationals(ts.at_int))), ("b", zip(*_rationals(ts.bt_int))),
                      ("g", _rationals(ts.g_int))):
        path = directory / f"{name}.csv"
        lines = [",".join(str(x) for x in row) for row in mat]
        path.write_text("\n".join(lines) + "\n")
        written.append(path)
    return written


def format_transforms(ts: TransformSet) -> str:
    """Human-readable dump of B^T, G, A^T with exact entries."""
    p = ts.params

    def fmt(rows, label):
        cells = [[str(x) for x in row] for row in rows]
        width = max(len(c) for row in cells for c in row)
        body = "\n".join("  [" + " ".join(c.rjust(width) for c in row) + "]" for row in cells)
        return f"{label} =\n{body}"

    pts = ", ".join(str(x) for x in ts.interpolation_points) + ", inf" \
        if ts.interpolation_points else "(none: dot-product form)"
    return "\n".join([
        f"F({p.m}x{p.m}, {p.r}x{p.r})  alpha={p.alpha}  points: {pts}",
        fmt(_rationals(ts.bt_int), "B^T"),
        fmt(_rationals(ts.g_int), "G"),
        fmt(_rationals(ts.at_int), "A^T"),
    ])
