"""Closed-form complexity, latency and throughput models for the PE array.

layer_cost is the one per-layer evaluation: it returns a layer's O_m, O_t,
O_S, latency T_t and O_T below as one LayerCost.  evaluate_design calls it once
per layer; design totals, and in dse the group sums, figures and Table 2,
are sums over those LayerCosts.

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

from dataclasses import dataclass
from math import ceil
from typing import Iterable

from .reference_data import FREQ_HZ
from .transforms import MinimalParams, ScaledIntMatrix, TransformSet, _checked_int

OP_CONVENTIONS = ("all_ops", "adds_only")
CLOCK_PERIOD_S = 1 / FREQ_HZ


@dataclass(frozen=True)
class LayerShape:
    """Convolution layer dimensions; h and w are OUTPUT spatial dims."""

    n: int
    h: int
    w: int
    c: int
    k: int
    r: int

    def __post_init__(self):
        for dim in ("n", "h", "w", "c", "k", "r"):
            object.__setattr__(self, dim, _checked_int(getattr(self, dim), f"layer dim {dim}", 1))

    @property
    def nhwck(self) -> int:
        return self.n * self.h * self.w * self.c * self.k


@dataclass(frozen=True)
class TransformOpCounts:
    """Per-tile op counts of the data (beta), filter (gamma), inverse (delta) transforms."""

    beta: int
    gamma: int
    delta: int

    def __post_init__(self):
        for name in ("beta", "gamma", "delta"):
            object.__setattr__(self, name, _checked_int(getattr(self, name), f"op count {name}", 0))


@dataclass(frozen=True)
class HardwareConfig:
    """Multiplier budget of one accelerator build; the clock period is fixed at CLOCK_PERIOD_S."""

    m_total: int
    t_c: float = CLOCK_PERIOD_S

    def __post_init__(self):
        object.__setattr__(self, "m_total", _checked_int(self.m_total, "multiplier budget", 1))
        if self.t_c != CLOCK_PERIOD_S:
            raise ValueError(f"clock period is fixed at the builds' {FREQ_HZ / 1e6:g} MHz clock, "
                             f"{CLOCK_PERIOD_S} s, got {self.t_c}")


@dataclass(frozen=True)
class LayerCost:
    """Closed-form costs of one layer under one design."""

    o_m: float         # element-wise multiplications
    o_t: float         # transform ops T(D) + T(F) + T(I)
    o_s: float         # spatial op count
    latency_s: float
    o_t_shared: float  # amortized transform ops O_T of the shared-data-transform design


@dataclass(frozen=True)
class DesignPoint:
    """One evaluated (m, r, hardware) configuration over a workload.

    `layers` holds one LayerCost per workload layer, in order; the totals
    o_m, o_t, o_s and t_total are in-order sums over it, not stored.
    """

    params: MinimalParams
    hw: HardwareConfig
    p: int
    layers: tuple[LayerCost, ...]

    o_m = property(lambda self: sum(c.o_m for c in self.layers))
    o_t = property(lambda self: sum(c.o_t for c in self.layers))
    o_s = property(lambda self: sum(c.o_s for c in self.layers))
    t_total = property(lambda self: sum(c.latency_s for c in self.layers))
    throughput = property(lambda self: self.o_s / self.t_total)


def pipeline_depth(params: MinimalParams) -> int:
    """Data transform (1) + element-wise stage (1) + inverse adder tree (ceil(log2 alpha), exact)."""
    return 2 + max(1, (params.alpha - 1).bit_length())


def _product_ops(mat: ScaledIntMatrix, n_vectors: int, convention: str) -> int:
    """Ops to apply an exact constant matrix to n_vectors dense generic vectors,
    one output element per row per vector.

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
        total += max(0, ops) * n_vectors
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
    beta = _product_ops(ts.bt_int, alpha, convention) * 2
    gamma = _product_ops(ts.g_int, r, convention) + _product_ops(ts.g_int, alpha, convention)
    delta = _product_ops(ts.at_int, alpha, convention) + _product_ops(ts.at_int, m, convention)
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


def analytical_cycles(layer: LayerShape, params: MinimalParams, p: int) -> float:
    """Fractional cycle count NHWCK / (m^2 P) + D_p - 1 of the latency model."""
    p = _check_runnable(layer, params, p)
    return layer.nhwck / (params.m**2 * p) + pipeline_depth(params) - 1


def exact_cycles(layer: LayerShape, params: MinimalParams, p: int) -> int:
    """Cycle count the PE array issues: whole tiles and whole kernel groups."""
    p = _check_runnable(layer, params, p)
    ty, tx = tile_grid(layer.h, layer.w, params.m)
    return ty * tx * layer.c * ceil(layer.k / p) * layer.n + pipeline_depth(params) - 1


def layer_cost(
    layer: LayerShape, params: MinimalParams, ops: TransformOpCounts, p: int
) -> LayerCost:
    """O_m, O_t = T(D) + T(F) + T(I), O_S, T_t and O_T of one layer on P PEs; fractional tiles.

    Raises ValueError unless the layer's kernel size is the algorithm's r and P >= 1.
    """
    p = _check_runnable(layer, params, p)
    m2 = params.m**2
    nhw = layer.n * layer.h * layer.w
    return LayerCost(
        o_m=layer.nhwck / m2 * params.alpha**2,
        o_t=ops.beta / m2 * nhw * layer.c + ops.gamma * layer.c * layer.k
        + ops.delta / m2 * nhw * layer.k,
        o_s=2.0 * layer.nhwck * layer.r**2,
        latency_s=analytical_cycles(layer, params, p) * CLOCK_PERIOD_S,
        o_t_shared=layer.nhwck / m2 * (ops.beta / p + ops.delta),
    )


def evaluate_design(
    layers: Iterable[LayerShape],
    params: MinimalParams,
    hw: HardwareConfig,
    ops: TransformOpCounts,
) -> DesignPoint:
    """Whole-workload DesignPoint: one layer_cost per layer."""
    p = pe_count(hw.m_total, params)
    costs = tuple(layer_cost(l, params, ops, p) for l in layers)
    if not costs:
        raise ValueError("a design needs at least one layer")
    return DesignPoint(params=params, hw=hw, p=p, layers=costs)
