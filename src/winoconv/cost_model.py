"""Closed-form complexity, latency and throughput models for the PE array.

price_layers is the one per-layer evaluation: a layer's O_m, O_t, O_S, T_t and
O_T below as one LayerCost, with O_m, O_t and O_S priced once per layer and only
T_t and O_T per PE count P.  dse.run_sweep prices its design points with it;
totals, group sums, figures and Table 2 are sums over those LayerCosts.

Complexity conventions, with alpha = m + r - 1 and a layer of N images,
H x W output pixels, C input and K output channels:

    multiplications   O_m = (N*H*W*C*K / m^2) * alpha^2
    data transform    T(D) = (beta / m^2) * N*H*W*C
    filter transform  T(F) = gamma * C*K
    inverse transform T(I) = (delta / m^2) * N*H*W*K
    total transforms  O_t = T(D) + T(F) + T(I)
    amortized         O_T = (N*H*W*C*K / m^2) * (beta/P + delta)
    PE count          P = floor(m_total / alpha^2)
    pipeline depth    D_p = 2 + max(1, ceil(log2 alpha))
    latency           T_t = (N*H*W*C*K / (m^2 * P) + D_p - 1) * CLOCK_PERIOD_S   (1 / FREQ_HZ)
    issued cycles     ceil(H/m) * ceil(W/m) * C * ceil(K/P) * N + D_p - 1
    spatial op count  O_S = 2 * N*H*W*C*K * r^2      (one MAC = 2 ops)
    throughput        O_S / T_t

O_T is the transform cost of the shared design: the filter transform is
precomputed and excluded, and the data transform is computed once per cycle
and shared by all P PEs, dividing its cost by P.

Tile counts are fractional (H*W/m^2) in this analytical model; exact_cycles
counts the whole tiles and kernel groups the PE array issues, and the
difference is exactly the partial-tile overhead.  beta/gamma/delta come from
count_transform_ops, which walks the transform matrices symbolically (see its
docstring for the two counting conventions).
"""

from __future__ import annotations

from math import ceil
from typing import Iterable

from .reference_data import FREQ_HZ
from .transforms import MinimalParams, Record, ScaledIntMatrix, TransformSet, _checked_int

OP_CONVENTIONS = ("all_ops", "adds_only")
CLOCK_PERIOD_S = 1 / FREQ_HZ


class LayerShape(Record):
    """Convolution layer dimensions; h and w are OUTPUT spatial dims."""

    def __init__(self, n: int, h: int, w: int, c: int, k: int, r: int):
        self.__dict__.update({dim: _checked_int(value, f"layer dim {dim}", 1)
                              for dim, value in zip(self._fields, (n, h, w, c, k, r))})

    @property
    def nhwck(self) -> int:
        return self.n * self.h * self.w * self.c * self.k


class TransformOpCounts(Record):
    """Per-tile op counts of the data (beta), filter (gamma), inverse (delta) transforms."""

    def __init__(self, beta: int, gamma: int, delta: int):
        self.__dict__.update({name: _checked_int(value, f"op count {name}", 0)
                              for name, value in zip(self._fields, (beta, gamma, delta))})


class HardwareConfig(Record):
    """Multiplier budget of one accelerator build; the clock period is fixed at CLOCK_PERIOD_S."""

    def __init__(self, m_total: int, t_c: float = CLOCK_PERIOD_S):
        m_total = _checked_int(m_total, "multiplier budget", 1)
        if t_c != CLOCK_PERIOD_S:
            raise ValueError(f"clock period is fixed at the builds' {FREQ_HZ / 1e6:g} MHz clock, "
                             f"{CLOCK_PERIOD_S} s, got {t_c}")
        self.__dict__.update(m_total=m_total, t_c=t_c)


class LayerCost(Record):
    """Closed-form costs of one layer under one design.

    o_m: element-wise multiplications; o_t: transform ops T(D) + T(F) + T(I);
    o_s: spatial op count; o_t_shared: amortized transform ops O_T of the
    shared-data-transform design.
    """

    def __init__(self, o_m: float, o_t: float, o_s: float, latency_s: float, o_t_shared: float):
        self.__dict__.update(o_m=o_m, o_t=o_t, o_s=o_s, latency_s=latency_s,
                             o_t_shared=o_t_shared)


class DesignPoint(Record):
    """One evaluated (m, r, hardware) configuration over a workload.

    `layers` holds one LayerCost per workload layer, in order; the totals
    o_m, o_t, o_s and t_total are in-order sums over it, not stored.
    """

    def __init__(self, params: MinimalParams, hw: HardwareConfig, p: int,
                 layers: tuple[LayerCost, ...]):
        self.__dict__.update(params=params, hw=hw, p=p, layers=layers)

    o_m = property(lambda self: sum(c.o_m for c in self.layers))
    o_t = property(lambda self: sum(c.o_t for c in self.layers))
    o_s = property(lambda self: sum(c.o_s for c in self.layers))
    t_total = property(lambda self: sum(c.latency_s for c in self.layers))
    throughput = property(lambda self: self.o_s / self.t_total)


def pipeline_depth(params: MinimalParams) -> int:
    """Data transform (1) + element-wise stage (1) + inverse adder tree (ceil(log2 alpha), exact)."""
    return 2 + max(1, (params.alpha - 1).bit_length())


def _product_ops(mat: ScaledIntMatrix, convention: str) -> int:
    """Ops to apply an exact constant matrix to one dense generic vector, one output per row.

    Per output element: (nonzeros - 1) additions, plus one multiplication for
    every coefficient not in {0, +1, -1} under 'all_ops'; a coefficient is
    +-1 exactly when its numerator's magnitude equals the denominator.
    'adds_only' counts only the additions: constant multiplications are
    folded into shift-and-add logic and priced at zero.
    """
    total = 0
    for row in mat.num:
        nonzero = [c for c in row if c != 0]
        ops = len(nonzero) - 1
        if convention == "all_ops":
            ops += sum(1 for c in nonzero if abs(c) != mat.den)
        total += max(0, ops)
    return total


def count_transform_ops(ts: TransformSet, convention: str = "all_ops") -> TransformOpCounts:
    """Symbolic op counts for one tile of each transform.

    Each 2D transform is evaluated as two chained dense matrix products
    (B^T*d then *B; G*g then *G^T; A^T*M then *A) with no common-subexpression
    reuse, on the exact matrices.  Multiplications by 0 drop the term;
    by +-1 they cost nothing.  Under 'all_ops' every other constant (powers of
    two included) costs one multiplication; 'adds_only' prices all constant
    multiplications at zero, modelling shift-and-add hardware, and depends only
    on the zero patterns.  m == 1 is the spatial case: there is no transform
    stage and all three counts are zero.
    """
    if convention not in OP_CONVENTIONS:
        raise ValueError(f"unknown convention {convention!r}, expected one of {OP_CONVENTIONS}")
    p = ts.params
    if p.m == 1:
        return TransformOpCounts(0, 0, 0)
    alpha, r, m = p.alpha, p.r, p.m
    beta = _product_ops(ts.bt_int, convention) * (alpha + alpha)
    gamma = _product_ops(ts.g_int, convention) * (r + alpha)
    delta = _product_ops(ts.at_int, convention) * (alpha + m)
    return TransformOpCounts(beta, gamma, delta)


def pe_count(m_total: int, params: MinimalParams) -> int:
    """Parallel PEs fitting the multiplier budget: floor(m_total / alpha^2)."""
    m_total, per_pe = _checked_int(m_total, "multiplier budget", 1), params.alpha**2
    if m_total < per_pe:
        raise ValueError(
            f"budget of {m_total} multipliers is below one PE "
            f"({per_pe} needed for F({params.m},{params.r}))"
        )
    return m_total // per_pe


def tile_grid(h_out: int, w_out: int, m: int) -> tuple[int, int]:
    """Tiles per channel along each axis: ceil(H_out/m) x ceil(W_out/m)."""
    return ceil(h_out / m), ceil(w_out / m)


def _check_runnable(layer: LayerShape, params: MinimalParams, p: int) -> int:
    """P as an int; ValueError unless the layer's kernel size is the algorithm's r and P >= 1."""
    if layer.r != params.r:
        raise ValueError(f"layer has r={layer.r}, F({params.m},{params.r}) needs r={params.r}")
    return _checked_int(p, "PE count", 1)


def _cycles(nhwck: int, m2: int, d_p: int, p: int) -> float:
    """The latency model's fractional cycle count NHWCK / (m^2 P) + D_p - 1."""
    return nhwck / (m2 * p) + d_p - 1


def analytical_cycles(layer: LayerShape, params: MinimalParams, p: int) -> float:
    """Fractional cycle count NHWCK / (m^2 P) + D_p - 1 of the latency model."""
    p = _check_runnable(layer, params, p)
    return _cycles(layer.nhwck, params.m**2, pipeline_depth(params), p)


def exact_cycles(layer: LayerShape, params: MinimalParams, p: int) -> int:
    """Cycle count the PE array issues: whole tiles and whole kernel groups."""
    p = _check_runnable(layer, params, p)
    ty, tx = tile_grid(layer.h, layer.w, params.m)
    return ty * tx * layer.c * ceil(layer.k / p) * layer.n + pipeline_depth(params) - 1


def price_layers(layers: Iterable[LayerShape], params: MinimalParams, ops: TransformOpCounts,
                 ps: Iterable[int]) -> list[list[LayerCost]]:
    """Each layer's LayerCost at each PE count of ps, one list per P; fractional tiles.

    Only T_t and O_T are priced per P.  Raises ValueError unless every P is an
    integer >= 1 and every layer's kernel size is the algorithm's r.
    """
    ps = [_checked_int(p, "PE count", 1) for p in ps]
    m2, alpha2, d_p = params.m**2, params.alpha**2, pipeline_depth(params)
    by_p: list[list[LayerCost]] = [[] for _ in ps]
    for layer in layers:
        if layer.r != params.r:
            raise ValueError(f"layer has r={layer.r}, F({params.m},{params.r}) needs r={params.r}")
        nhwck, nhw, c, k = layer.nhwck, layer.n * layer.h * layer.w, layer.c, layer.k
        nhwck_m2 = nhwck / m2
        o_m = nhwck_m2 * alpha2
        o_t = ops.beta / m2 * nhw * c + ops.gamma * c * k + ops.delta / m2 * nhw * k
        o_s = 2.0 * nhwck * layer.r**2
        for costs, p in zip(by_p, ps):
            costs.append(LayerCost(o_m, o_t, o_s, _cycles(nhwck, m2, d_p, p) * CLOCK_PERIOD_S,
                                   nhwck_m2 * (ops.beta / p + ops.delta)))
    return by_p
