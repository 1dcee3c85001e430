"""Cycle-level functional simulator of the shared-data-transform PE array.

The modeled engine has one data-transform stage feeding P parallel PEs.
Every issue cycle one alpha x alpha input tile (one channel of one tile
position) is transformed once and broadcast; each PE multiplies it with its
own precomputed filter transform, runs the inverse transform, and
accumulates the m x m partial result in its output buffer over C channel
cycles.  Kernels are processed in groups of P (idle PEs compute with zero
kernels when K is not a multiple of P); loop order is batch, tile position,
kernel group, channel.  Double buffering is assumed ideal, so no stall
cycles exist and the run takes cost_model.exact_cycles cycles: the issue
cycles plus the pipeline fill, cost_model.pipeline_depth(params) - 1, which
the tile size fixes.

Granularity is stage-synchronous ("one tile per stage per cycle"), not
bit-accurate; that is enough to validate the latency model and the
shared-transform economy.  In the reference design every PE transforms its
own tile on every issue cycle, idle PEs included: its data-transform count is
P x issue_cycles, which the trace records as inverse_transform_count.

The modeled loop order is unchanged; execution batches it.  The shared
front end, conv.transformed_operands, data-transforms every tile once and
returns the filter transforms as (C, alpha^2, K), so a kernel group of P PEs
is a run of P columns of V[c], read in place.  Each step runs every issue
cycle of a block of channels: one Hadamard multiply into a zeroed product
buffer whose columns from K on are the idle PE slots, then one stacked
matmul with one (m^2 x alpha^2) @ (alpha^2 x P) inverse transform per
cycle, rounded as that product alone would be (one GEMM over all cycles
would not: BLAS rounding depends on the matrix sizes).  The step's channels
are added into the PE output buffers one at a time, in hardware order.  The
trace counters are summed from the sizes of the arrays each step computes.
"""

from __future__ import annotations

import json
from math import ceil, isclose

import numpy as np

from .conv import ConvSpec, FeatureMap, KernelBank, transformed_operands, untile
from .cost_model import (
    HardwareConfig,
    LayerShape,
    analytical_cycles,
    exact_cycles,
    pe_count,
    pipeline_depth,
    tile_grid,
)
from .transforms import MinimalParams, Record, TransformSet, _checked_int, generate_transforms

# Products plus inverse-transform results one step holds at most: cache-sized, small beside V.
STEP_ELEMENTS = 2**15


class EngineConfig(Record):
    def __init__(self, params: MinimalParams, p: int):
        self.__dict__.update(params=params, p=_checked_int(p, "PE count", 1))


class SimTrace(Record):
    """Counters of one simulated layer.  idle_pe_slots counts the (issue cycle, PE)
    pairs that ran with a zero kernel."""

    def __init__(self, cycles_elapsed: int, issue_cycles: int, data_transform_invocations: int,
                 inverse_transform_count: int, hadamard_mult_count: int, tiles_per_image: int,
                 kernel_groups: int, idle_pe_slots: int):
        self.__dict__.update(cycles_elapsed=cycles_elapsed, issue_cycles=issue_cycles,
                             data_transform_invocations=data_transform_invocations,
                             inverse_transform_count=inverse_transform_count,
                             hadamard_mult_count=hadamard_mult_count,
                             tiles_per_image=tiles_per_image, kernel_groups=kernel_groups,
                             idle_pe_slots=idle_pe_slots)

    def to_json(self) -> str:
        return json.dumps(dict(zip(self._fields, self._values())))


def expected_cycles(cfg: EngineConfig, layer: LayerShape) -> int:
    """Closed-form cycle count of simulate_layer for the same shapes."""
    return exact_cycles(layer, cfg.params, cfg.p)


def simulate_layer(
    cfg: EngineConfig,
    fmap: FeatureMap,
    kernels: KernelBank,
    spec: ConvSpec,
    ts: TransformSet | None = None,
) -> tuple[FeatureMap, SimTrace]:
    """Run the engine over one layer; returns the output map and the trace."""
    if ts is None:
        ts = generate_transforms(cfg.params)
    elif ts.params != cfg.params:
        raise ValueError("transform set does not match engine parameters")
    u, v, (ty, tx), (h_out, w_out) = transformed_operands(fmap, kernels, spec, ts)

    m, alpha, p, dtype = cfg.params.m, cfg.params.alpha, cfg.p, fmap.data.dtype
    (n, c), k = fmap.data.shape[:2], kernels.data.shape[0]
    a2, m2, n_groups, n_tiles = alpha * alpha, m * m, ceil(k / p), n * ty * tx
    step = min(c, max(1, STEP_ELEMENTS // (n_tiles * n_groups * p * (a2 + m2))))

    u = u.transpose(1, 2, 0)[..., None]  # shared data transforms, (C, tiles, alpha^2, 1)
    kron_at = ts.kron_at.astype(dtype)
    # a step's products, alpha^2 rows of groups * P PE slots per (channel, tile)
    prod = np.zeros((step, n_tiles, a2, n_groups * p), dtype=dtype)
    cycles = prod.reshape(step, n_tiles, a2, n_groups, p).transpose(0, 1, 3, 2, 4)
    y = np.empty((step, n_tiles, n_groups, m2, p), dtype=dtype)
    accum = np.zeros(y.shape[1:], dtype=dtype)  # PE output buffers
    products = idle = 0
    for c0 in range(0, c, step):
        b = min(step, c - c0)
        # every issue cycle of b channels: all tile positions x all kernel groups
        np.multiply(u[c0 : c0 + b], v[c0 : c0 + b, None], out=prod[:b, ..., :k])
        # At m = 1 BLAS runs vector products, whose rounding (unlike GEMM's) follows the strides.
        np.matmul(kron_at, cycles[:b] if m > 1 else cycles[:b].copy(), out=y[:b])
        for channel in y[:b]:
            accum += channel
        products += prod[:b].size
        idle += prod[:b, ..., k:].size // a2

    issued = products // (p * a2)
    trace = SimTrace(cycles_elapsed=issued + pipeline_depth(cfg.params) - 1,
                     issue_cycles=issued, data_transform_invocations=issued,
                     inverse_transform_count=products // a2, hadamard_mult_count=products,
                     tiles_per_image=ty * tx, kernel_groups=n_groups, idle_pe_slots=idle)
    y = accum.reshape(n, ty, tx, n_groups, m, m, p).transpose(0, 3, 6, 1, 4, 2, 5)
    return untile(y.reshape(n, n_groups * p, ty, m, tx, m)[:, :k], h_out, w_out), trace


class ValidationReport(Record):
    """ceiling_overhead is the closed-form gap: tile and kernel-group ceilings."""

    def __init__(self, simulated_cycles: int, analytical_cycles: float, gap_cycles: float,
                 ceiling_overhead: float):
        self.__dict__.update(simulated_cycles=simulated_cycles,
                             analytical_cycles=analytical_cycles, gap_cycles=gap_cycles,
                             ceiling_overhead=ceiling_overhead)

    @property
    def consistent(self) -> bool:
        return isclose(self.gap_cycles, self.ceiling_overhead, rel_tol=1e-9, abs_tol=1e-6)

    def to_json(self) -> str:
        return json.dumps(dict(zip(self._fields, self._values()), consistent=self.consistent))


def validate_against_analytical(cfg: EngineConfig, layer: LayerShape) -> ValidationReport:
    """Compare the simulator's cycle count with the fractional latency model.

    The analytical side is cost_model.analytical_cycles, the cycle count that
    price_layers prices.  The gap is exactly the ceiling overhead of partial
    tiles and partial kernel groups; it is zero when m divides both output
    dims and P divides K.
    """
    m = cfg.params.m
    simulated = expected_cycles(cfg, layer)
    analytical = analytical_cycles(layer, cfg.params, cfg.p)
    ty, tx = tile_grid(layer.h, layer.w, m)
    overhead = (
        ty * tx * ceil(layer.k / cfg.p) - (layer.h * layer.w / (m * m)) * (layer.k / cfg.p)
    ) * layer.c * layer.n
    return ValidationReport(
        simulated_cycles=simulated,
        analytical_cycles=analytical,
        gap_cycles=simulated - analytical,
        ceiling_overhead=overhead,
    )


def engine_config_for(params: MinimalParams, hw: HardwareConfig) -> EngineConfig:
    """Engine sized to a hardware budget: P from the multiplier count."""
    return EngineConfig(params=params, p=pe_count(hw.m_total, params))
