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
exact rational arithmetic.  Floating-point copies are derived at the end;
conv.winograd_conv and pipeline_sim.simulate_layer apply them to whole
layers.  Exact mode (winograd_1d_exact, winograd_2d_tile_exact) evaluates
the algorithms on one tile, on integer numerators over one common
denominator per matrix, and divides once per output.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm
from operator import mul
from pathlib import Path
from typing import Iterable, NamedTuple, Sequence

import numpy as np

RationalMatrix = tuple[tuple[Fraction, ...], ...]


class ScaledIntMatrix(NamedTuple):
    """A rational matrix as integer numerators over one common positive denominator."""

    num: tuple[tuple[int, ...], ...]
    den: int


class MultCounter:
    """Instrumented counter for element-wise (Hadamard) multiplications."""

    def __init__(self):
        self.count = 0

    def add(self, n: int):
        self.count += int(n)


@dataclass(frozen=True)
class MinimalParams:
    """The (m, r) pair selecting one minimal filtering algorithm.

    m: output tile size per dimension, r: kernel size per dimension.
    The input tile size alpha = m + r - 1 is always derived.
    """

    m: int
    r: int

    def __post_init__(self):
        if self.m < 1 or self.r < 1:
            raise ValueError(f"m and r must be >= 1, got m={self.m}, r={self.r}")

    @property
    def alpha(self) -> int:
        return self.m + self.r - 1


@dataclass(frozen=True)
class TransformSet:
    """Constant matrices of one minimal algorithm, exact and as float64.

    a: inverse transform (alpha x m), b: data transform (alpha x alpha),
    g: filter transform (alpha x r).  The *_exact fields hold the rational
    matrices the floats were derived from; at_int, bt_int and g_int hold
    A^T, B^T and G as integer numerators over one denominator each, derived
    from them at construction for exact mode.  interpolation_points lists
    the finite synthesis points; the last evaluation point is always the
    point at infinity and is not stored.  Instances are immutable and safe
    to share across threads.
    """

    params: MinimalParams
    a: np.ndarray
    b: np.ndarray
    g: np.ndarray
    a_exact: RationalMatrix
    b_exact: RationalMatrix
    g_exact: RationalMatrix
    interpolation_points: tuple[Fraction, ...]
    at_int: ScaledIntMatrix = field(init=False, repr=False, compare=False)
    bt_int: ScaledIntMatrix = field(init=False, repr=False, compare=False)
    g_int: ScaledIntMatrix = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for name, mat in (("at_int", tuple(zip(*self.a_exact))),
                          ("bt_int", tuple(zip(*self.b_exact))), ("g_int", self.g_exact)):
            num, den = _scaled(mat)
            object.__setattr__(self, name, ScaledIntMatrix(_freeze(num), den))

    @property
    def at(self) -> np.ndarray:
        return self.a.T

    @property
    def bt(self) -> np.ndarray:
        return self.b.T


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


def _times_linear(p: list[Fraction], a: Fraction) -> list[Fraction]:
    """p(x) * (x - a), coefficients in ascending order."""
    return [-a * p[0]] + [p[i - 1] - a * p[i] for i in range(1, len(p))] + [p[-1]]


def _freeze(rows: Iterable[Iterable[Fraction]]) -> RationalMatrix:
    return tuple(tuple(row) for row in rows)


def _to_float(mat: RationalMatrix) -> np.ndarray:
    return np.array([[float(x) for x in row] for row in mat], dtype=np.float64)


def generate_transforms(
    params: MinimalParams, points: Sequence[Fraction | int] | None = None
) -> TransformSet:
    """Synthesize the A, B, G matrices for F(m, r).

    Uses m+r-2 distinct rational points plus the implicit point at infinity.
    Per finite point i the rows are built from the Lagrange basis polynomial
    L_i: the B^T row holds L_i's coefficients scaled to a primitive integer
    vector, the G row holds the Vandermonde powers of the point divided by
    the same scale (fractions end up in the filter transform, which is the
    precomputable one), and the A row holds the plain Vandermonde powers.
    The infinity row extracts leading coefficients.  With the default points
    {0, 1, -1} this reproduces the classical F(2,3) matrices exactly.

    m == 1 has no interpolation stage: the algorithm degenerates to a plain
    dot product (B = G = I, A = column of ones).
    """
    m, r = params.m, params.r
    alpha = params.alpha

    if m == 1:
        if points is not None:
            raise ValueError("F(1, r) is a plain dot product; it takes no points")
        eye = tuple(
            tuple(Fraction(1 if i == j else 0) for j in range(r)) for i in range(r)
        )
        ones = tuple((Fraction(1),) for _ in range(r))
        return TransformSet(
            params=params,
            a=_to_float(ones), b=_to_float(eye), g=_to_float(eye),
            a_exact=ones, b_exact=eye, g_exact=eye,
            interpolation_points=(),
        )

    if points is None:
        pts = list(default_points(alpha - 1))
    else:
        pts = [Fraction(p) for p in points]
    if len(pts) != alpha - 1:
        raise ValueError(
            f"F({m},{r}) needs {alpha - 1} finite points (plus infinity), got {len(pts)}"
        )
    if len(set(pts)) != len(pts):
        raise ValueError(f"interpolation points must be distinct, got {pts}")

    bt_rows: list[list[Fraction]] = []
    g_rows: list[list[Fraction]] = []
    a_rows: list[list[Fraction]] = []
    for i, ai in enumerate(pts):
        numer = [Fraction(1)]
        denom = Fraction(1)
        for k, ak in enumerate(pts):
            if k == i:
                continue
            numer = _times_linear(numer, ak)
            denom *= ai - ak
        basis = [c / denom for c in numer] + [Fraction(0)]  # degree < alpha-1, padded
        dens = [c.denominator for c in basis if c != 0]
        nums = [abs(c.numerator) for c in basis if c != 0]
        scale = Fraction(lcm(*dens), gcd(*nums))  # positive, makes the row primitive
        bt_rows.append([c * scale for c in basis])
        g_rows.append([ai**j / scale for j in range(r)])
        a_rows.append([ai**j for j in range(m)])

    # Point at infinity: the product's leading coefficient.  The row is the
    # coefficient vector of prod(a_i - x); its sign is compensated in A.
    pi = [Fraction(1)]
    for ak in pts:
        pi = _times_linear(pi, ak)
    sign = Fraction(-1) ** (alpha - 1)
    bt_rows.append([sign * c for c in pi])
    g_rows.append([Fraction(0)] * (r - 1) + [Fraction(1)])
    a_rows.append([Fraction(0)] * (m - 1) + [sign])

    b_exact = _freeze(zip(*bt_rows))  # stored as B, not B^T
    g_exact = _freeze(g_rows)
    a_exact = _freeze(a_rows)
    return TransformSet(
        params=params,
        a=_to_float(a_exact), b=_to_float(b_exact), g=_to_float(g_exact),
        a_exact=a_exact, b_exact=b_exact, g_exact=g_exact,
        interpolation_points=tuple(pts),
    )


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

def _scaled(rows) -> tuple[list[list[int]], int]:
    """Rows of rationals as integer numerator rows over one common positive denominator."""
    den = lcm(*[v.denominator for row in rows for v in row])
    return [[v.numerator * (den // v.denominator) for v in row] for row in rows], den


def _scaled_input(x) -> tuple[list[list[int]], int]:
    """_scaled on caller rows whose entries are anything Fraction() accepts."""
    return _scaled([[Fraction(v) for v in row] for row in x])


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


def export_transforms_csv(ts: TransformSet, directory) -> list[Path]:
    """Write a.csv, b.csv, g.csv (row-major, exact rationals as 'p/q')."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    written = []
    for name, mat in (("a", ts.a_exact), ("b", ts.b_exact), ("g", ts.g_exact)):
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
        fmt(zip(*ts.b_exact), "B^T"),
        fmt(ts.g_exact, "G"),
        fmt(zip(*ts.a_exact), "A^T"),
    ])
