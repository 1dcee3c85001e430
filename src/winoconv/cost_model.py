"""Closed-form complexity, latency and throughput models for the PE array.

evaluate_design prices each layer once (one LayerCost per layer); design
totals, and in dse the group rows, figures and Table 2, are sums over it.

Complexity conventions, with alpha = m + r - 1 and a layer of N images,
H x W output pixels, C input and K output channels:

    multiplications   O_m = (N*H*W*C*K / m^2) * alpha^2
    data transform    T(D) = (beta / m^2) * N*H*W*C
    filter transform  T(F) = gamma * C*K
    inverse transform T(I) = (delta / m^2) * N*H*W*K
    total transforms  O_t = T(D) + T(F) + T(I)
    amortized         O_T = (N*H*W*C*K / m^2) * (beta/P + delta)
    PE count          P = floor(m_total / alpha^2)
    latency           T_t = (N*H*W*C*K / (m^2 * P) + D_p - 1) * t_c
    spatial op count  O_S = 2 * N*H*W*C*K * r^2      (one MAC = 2 ops)
    throughput        O_S / T_t

implementation_transform_complexity computes O_T, the one normalization of
the beta/gamma/delta counts this module keeps: the shared-design transform
cost, with the filter transform precomputed and the data transform shared
by P PEs.

Tile counts are fractional (H*W/m^2) in this analytical model; the cycle
simulator uses ceilings and the difference is exactly the partial-tile
overhead.  beta/gamma/delta come from count_transform_ops, which walks the
transform matrices symbolically (see its docstring for the two counting
conventions).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import ceil, log2
from typing import Iterable, Sequence

from .transforms import MinimalParams, TransformSet

OP_CONVENTIONS = ("all_ops", "adds_only")


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
        for name in ("n", "h", "w", "c", "k", "r"):
            if getattr(self, name) < 1:
                raise ValueError(f"layer dim {name} must be >= 1, got {getattr(self, name)}")

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
        if min(self.beta, self.gamma, self.delta) < 0:
            raise ValueError("op counts must be >= 0")


@dataclass(frozen=True)
class HardwareConfig:
    """Multiplier budget, clock and pipeline parameters of one accelerator build.

    d_p of None selects the default pipeline depth for the tile size in use
    (data transform + element-wise stage + inverse-transform adder tree).
    """

    m_total: int
    t_c: float
    d_p: int | None = None

    def __post_init__(self):
        if self.m_total < 1:
            raise ValueError(f"multiplier budget must be >= 1, got {self.m_total}")
        if self.t_c <= 0:
            raise ValueError(f"clock period must be > 0, got {self.t_c}")
        if self.d_p is not None and self.d_p < 1:
            raise ValueError(f"pipeline depth must be >= 1, got {self.d_p}")


@dataclass(frozen=True)
class LayerCost:
    """Closed-form costs of one layer under one design."""

    o_m: float        # element-wise multiplications
    o_t: float        # transform ops T(D) + T(F) + T(I)
    o_s: float        # spatial op count
    latency_s: float


@dataclass(frozen=True)
class DesignPoint:
    """One evaluated (m, r, hardware) configuration over a workload.

    `layers` holds one LayerCost per workload layer, in order; the totals
    are in-order sums over it.
    """

    params: MinimalParams
    hw: HardwareConfig
    p: int
    layers: tuple[LayerCost, ...]
    o_m: float
    o_t: float
    o_s: float
    t_total: float
    throughput: float
    mult_efficiency: float


def default_pipeline_depth(params: MinimalParams) -> int:
    """Data transform (1) + element-wise stage (1) + inverse adder tree (ceil(log2 alpha))."""
    return 2 + max(1, ceil(log2(params.alpha)))


def pipeline_depth(params: MinimalParams, hw: HardwareConfig) -> int:
    return hw.d_p if hw.d_p is not None else default_pipeline_depth(params)


def _product_ops(coeff_rows: Sequence[Sequence[Fraction]], n_vectors: int, convention: str) -> int:
    """Ops to apply a constant matrix (given as rows of coefficients) to
    n_vectors dense generic vectors, one output element per row per vector.

    Per output element: (nonzeros - 1) additions, plus one multiplication for
    every coefficient not in {0, +1, -1} under 'all_ops'.  'adds_only' counts
    only the additions: constant multiplications are folded into shift-and-add
    logic and priced at zero.
    """
    total = 0
    for row in coeff_rows:
        nonzero = [c for c in row if c != 0]
        ops = len(nonzero) - 1
        if convention == "all_ops":
            ops += sum(1 for c in nonzero if abs(c) != 1)
        total += max(0, ops) * n_vectors
    return total


def count_transform_ops(ts: TransformSet, convention: str = "all_ops") -> TransformOpCounts:
    """Symbolic op counts for one tile of each transform.

    Each 2D transform is evaluated as two chained dense matrix products
    (B^T*d then *B; G*g then *G^T; A^T*M then *A) with no common-subexpression
    reuse, on the exact rational matrices.  Multiplications by 0 drop the term;
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
    bt = tuple(zip(*ts.b_exact))
    at = tuple(zip(*ts.a_exact))
    beta = _product_ops(bt, alpha, convention) * 2
    gamma = _product_ops(ts.g_exact, r, convention) + _product_ops(ts.g_exact, alpha, convention)
    delta = _product_ops(at, alpha, convention) + _product_ops(at, m, convention)
    return TransformOpCounts(beta, gamma, delta)


def multiplication_complexity(layer: LayerShape, params: MinimalParams) -> float:
    """Element-wise stage multiplications; fractional tile counts."""
    return layer.nhwck / params.m**2 * params.alpha**2


@dataclass(frozen=True)
class TransformComplexity:
    t_data: float
    t_filter: float
    t_inverse: float
    total: float


def transform_complexity(
    layer: LayerShape, params: MinimalParams, ops: TransformOpCounts
) -> TransformComplexity:
    """Per-layer transform op totals and their sum O_t."""
    m2 = params.m**2
    nhw = layer.n * layer.h * layer.w
    t_data = ops.beta / m2 * nhw * layer.c
    t_filter = ops.gamma * layer.c * layer.k
    t_inverse = ops.delta / m2 * nhw * layer.k
    return TransformComplexity(t_data, t_filter, t_inverse, t_data + t_filter + t_inverse)


def implementation_transform_complexity(
    layer: LayerShape, params: MinimalParams, ops: TransformOpCounts, p: int
) -> float:
    """Amortized transform cost of the shared-data-transform design.

    The filter transform is precomputed and excluded; the data transform is
    computed once per cycle and shared by all P PEs, dividing its cost by P.
    """
    if p < 1:
        raise ValueError(f"PE count must be >= 1, got {p}")
    return layer.nhwck / params.m**2 * (ops.beta / p + ops.delta)


def pe_count(hw: HardwareConfig, params: MinimalParams) -> int:
    """Parallel PEs fitting the multiplier budget: floor(m_total / alpha^2)."""
    per_pe = params.alpha**2
    if hw.m_total < per_pe:
        raise ValueError(
            f"budget of {hw.m_total} multipliers is below one PE "
            f"({per_pe} needed for F({params.m},{params.r}))"
        )
    return hw.m_total // per_pe


def analytical_cycles(layer: LayerShape, params: MinimalParams, p: int, d_p: int) -> float:
    """Fractional cycle count NHWCK / (m^2 P) + D_p - 1 of the latency model."""
    if p < 1:
        raise ValueError(f"PE count must be >= 1, got {p}")
    return layer.nhwck / (params.m**2 * p) + d_p - 1


def layer_latency(layer: LayerShape, params: MinimalParams, p: int, hw: HardwareConfig) -> float:
    """Seconds to produce the layer's output map; fractional cycle counts."""
    return analytical_cycles(layer, params, p, pipeline_depth(params, hw)) * hw.t_c


def spatial_ops(layer: LayerShape) -> float:
    """Spatial-convolution op count, one multiply-accumulate = two ops."""
    return 2.0 * layer.nhwck * layer.r**2


def throughput(o_s: float, t_total: float) -> float:
    """Operations per second."""
    if t_total <= 0:
        raise ValueError(f"total time must be > 0, got {t_total}")
    return o_s / t_total


def lut_total(p: int, per_pe: int, fixed: int = 0) -> int:
    """Linear logic-resource model: fixed block plus per-PE slope."""
    return fixed + p * per_pe


def evaluate_design(
    layers: Iterable[LayerShape],
    params: MinimalParams,
    hw: HardwareConfig,
    ops: TransformOpCounts,
) -> DesignPoint:
    """Whole-workload DesignPoint: evaluates the per-layer models once per layer."""
    p = pe_count(hw, params)
    costs = tuple(
        LayerCost(
            o_m=multiplication_complexity(l, params),
            o_t=transform_complexity(l, params, ops).total,
            o_s=spatial_ops(l),
            latency_s=layer_latency(l, params, p, hw),
        )
        for l in layers
    )
    o_s = sum(c.o_s for c in costs)
    t_total = sum(c.latency_s for c in costs)
    tput = throughput(o_s, t_total)
    return DesignPoint(
        params=params, hw=hw, p=p, layers=costs,
        o_m=sum(c.o_m for c in costs), o_t=sum(c.o_t for c in costs), o_s=o_s,
        t_total=t_total, throughput=tput, mult_efficiency=tput / hw.m_total,
    )
