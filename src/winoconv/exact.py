"""Exact (rational) mode: one Winograd tile run as a generated integer program.

winograd_1d_exact and winograd_2d_tile_exact put each input over one common
denominator, run the TransformSet's program on the integer numerators and
divide once per output, so outputs are bit-identical to brute-force convolution.
A program is straight-line code generated once per set from the numerators of
B^T, G and A^T and compiled with exec: a zero coefficient drops its term, +-1 is
a plain add or subtract, any other is one integer multiply.  Each 2D transform
is two chained 1D passes with no shared terms, so a 2D program's additions are
cost_model.count_transform_ops(ts, "adds_only").
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from numbers import Integral
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .transforms import TransformSet

# tuple() and *-arguments below take lists, not generator expressions.
# CPython builds a tuple from a generator at a guessed size and resizes it,
# bypassing the per-size tuple free lists, but frees it into them; called
# per tile, that fills the free lists (2000 tuples per size) with memory
# the process keeps.


def _lincomb(coeffs, names) -> str:
    """sum(c * x) as source: zeros dropped, +-1 a plain add or subtract, positive terms first."""
    src = ""
    for c, x in sorted(zip(coeffs, names), key=lambda term: term[0] < 0):
        if c:
            term = x if abs(c) == 1 else f"{abs(c)} * {x}"
            src += f" {'-+'[c > 0]} {term}" if src else "-" * (c < 0) + term
    return src or "0"


def _product(rows, grid, name: str, lines: list[str]) -> list[list[str]]:
    """rows @ grid on a grid of variable names, one assignment per entry; the new grid."""
    lines += [f" {name}{i}_{j} = {_lincomb(row, col)}" for i, row in enumerate(rows)
              for j, col in enumerate(zip(*grid))]
    return [[f"{name}{i}_{j}" for j in range(len(grid[0]))] for i in range(len(rows))]


def transform_program(ts: TransformSet, dims: int):
    """ts's program in dims = 1 (int lists in, a tuple out) or 2 (lists of int rows in,
    a tuple of rows out): numerators of d and g in, of y out; the caller checks shapes."""
    alpha, r = ts.params.alpha, ts.params.r
    lines: list[str] = []

    def apply(mat, grid, name):  # mat @ grid, or mat @ grid @ mat^T as two passes in 2D
        if dims == 2:
            grid = list(zip(*_product(mat.num, list(zip(*grid)), name + "h", lines)))
        return _product(mat.num, grid, name, lines)

    def src(grid):  # a grid as a tuple: flat in 1D (one column), of rows in 2D
        return " ".join([f"({', '.join(row)},)," if dims == 2 else f"{row[0]}," for row in grid])

    d = [[f"d{i}_{j}" for j in range(alpha if dims == 2 else 1)] for i in range(alpha)]
    g = [[f"g{i}_{j}" for j in range(r if dims == 2 else 1)] for i in range(r)]
    u, v = apply(ts.bt_int, d, "u"), apply(ts.g_int, g, "v")
    lines += [f" p{i}_{j} = {a} * {b}" for i, (ur, vr) in enumerate(zip(u, v))
              for j, (a, b) in enumerate(zip(ur, vr))]
    y = apply(ts.at_int, [[f"p{i}_{j}" for j in range(len(row))] for i, row in enumerate(u)], "y")
    source = "\n".join([f"def program(d, g):\n {src(d)} = d\n {src(g)} = g", *lines,
                        f" return {src(y)}\n"])
    exec(compile(source, f"<F({ts.params.m}, {r}) {dims}D program>", "exec"), namespace := {})
    return namespace["program"]


def _rational(v) -> Fraction:
    """v as a Fraction; a ValueError for anything Fraction() rejects."""
    try:
        return Fraction(v)
    except (ArithmeticError, TypeError) as exc:  # 1/0, inf, None, complex, ...
        raise ValueError(f"tile entry {v!r} is not a finite rational") from exc


def _scaled_input(x) -> tuple[list[list[int]], int]:
    """Rows of anything Fraction() accepts as Python-int rows over one positive denominator."""
    rows = [[v if type(v) is int else int(v) if isinstance(v, Integral) else _rational(v)
             for v in row] for row in x]
    den = lcm(*[v.denominator for row in rows for v in row])
    return [[v.numerator * (den // v.denominator) for v in row] for row in rows], den


def winograd_1d_exact(ts: TransformSet, d, g) -> tuple[Fraction, ...]:
    """F(m, r) on one tile in exact arithmetic; d and g are sequences of rationals."""
    alpha, r = ts.params.alpha, ts.params.r
    (dv,), d_den = _scaled_input([d])
    (gv,), g_den = _scaled_input([g])
    if len(dv) != alpha or len(gv) != r:
        raise ValueError(f"need len(d)={alpha} and len(g)={r}")
    den = ts.at_int.den * ts.bt_int.den * ts.g_int.den * d_den * g_den
    return tuple([Fraction(y, den) for y in ts.program_1d(dv, gv)])


def winograd_2d_tile_exact(ts: TransformSet, d, g) -> tuple[tuple[Fraction, ...], ...]:
    """F(m x m, r x r) on one tile in exact arithmetic; d is alpha x alpha, g is r x r."""
    alpha, r = ts.params.alpha, ts.params.r
    dm, d_den = _scaled_input(d)
    if len(dm) != alpha or any(len(row) != alpha for row in dm):
        raise ValueError(f"input tile must be {alpha}x{alpha}")
    gm, g_den = _scaled_input(g)
    if len(gm) != r or any(len(row) != r for row in gm):
        raise ValueError(f"kernel tile must be {r}x{r}")
    den = (ts.at_int.den * ts.bt_int.den * ts.g_int.den) ** 2 * d_den * g_den
    return tuple([tuple([Fraction(x, den) for x in row]) for row in ts.program_2d(dm, gm)])
