"""Cycle-level functional simulator of the shared-data-transform PE array.

The modeled engine has one data-transform stage feeding P parallel PEs.
Every issue cycle one alpha x alpha input tile (one channel of one tile
position) is transformed once and broadcast; each PE multiplies it with its
own precomputed filter transform, runs the inverse transform, and
accumulates the m x m partial result in its output buffer over C channel
cycles.  Kernels are processed in groups of P (idle PEs compute with zero
kernels when K is not a multiple of P); loop order is batch, tile position,
kernel group, channel.  Double buffering is assumed ideal, so no stall
cycles exist and

    cycles = ceil(Ho/m) * ceil(Wo/m) * C * ceil(K/P) * N + D_p - 1.

Granularity is stage-synchronous ("one tile per stage per cycle"), not
bit-accurate; that is enough to validate the latency model and the
shared-transform economy.  In reference-design mode every PE recomputes the
data transform itself, which multiplies the transform invocation count by P
without changing latency or output.

The modeled loop order is unchanged; execution batches it.  Every tile is
data-transformed once, then one step per channel computes all of that
channel's issue cycles (every tile position and PE slot) and adds each PE's
inverse transform into its buffer, so channels accumulate in hardware order.
The trace counters are summed from the sizes of the arrays each step computes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from math import ceil

import numpy as np

from .conv import (
    ConvSpec,
    FeatureMap,
    KernelBank,
    extract_tiles,
    precompute_filter_transforms,
    require_floating,
    zero_extend,
)
from .cost_model import HardwareConfig, LayerShape, analytical_cycles, pe_count, pipeline_depth
from .transforms import MinimalParams, TransformSet, generate_transforms

STAGES = ("data_transform", "hadamard", "inverse_transform")


@dataclass(frozen=True)
class EngineConfig:
    params: MinimalParams
    p: int
    d_p: int
    clock_period: float
    reference_design: bool = False

    def __post_init__(self):
        if self.p < 1:
            raise ValueError(f"PE count must be >= 1, got {self.p}")
        if self.d_p < 3:
            raise ValueError(f"pipeline depth must cover the 3 stages, got {self.d_p}")
        if self.clock_period <= 0:
            raise ValueError(f"clock period must be > 0, got {self.clock_period}")


@dataclass
class SimTrace:
    cycles_elapsed: int = 0
    issue_cycles: int = 0
    stage_busy: dict[str, int] = field(default_factory=lambda: {s: 0 for s in STAGES})
    data_transform_invocations: int = 0
    inverse_transform_count: int = 0
    hadamard_mult_count: int = 0
    tiles_per_image: int = 0
    kernel_groups: int = 0

    def to_json(self) -> str:
        return json.dumps({
            "cycles_elapsed": self.cycles_elapsed,
            "issue_cycles": self.issue_cycles,
            "stage_busy": self.stage_busy,
            "data_transform_invocations": self.data_transform_invocations,
            "inverse_transform_count": self.inverse_transform_count,
            "hadamard_mult_count": self.hadamard_mult_count,
            "tiles_per_image": self.tiles_per_image,
            "kernel_groups": self.kernel_groups,
        })


def expected_cycles(cfg: EngineConfig, layer: LayerShape) -> int:
    """Closed-form cycle count of simulate_layer for the same shapes."""
    tiles = ceil(layer.h / cfg.params.m) * ceil(layer.w / cfg.params.m)
    return tiles * layer.c * ceil(layer.k / cfg.p) * layer.n + cfg.d_p - 1


def simulate_layer(
    cfg: EngineConfig,
    fmap: FeatureMap,
    kernels: KernelBank,
    spec: ConvSpec,
    ts: TransformSet | None = None,
) -> tuple[FeatureMap, SimTrace]:
    """Run the engine over one layer; returns the output map and the trace."""
    if kernels.r != cfg.params.r:
        raise ValueError(f"kernel size {kernels.r} does not match engine r={cfg.params.r}")
    if fmap.c != kernels.c:
        raise ValueError(f"channel mismatch: input has {fmap.c}, kernels have {kernels.c}")
    require_floating("feature map", fmap.data)  # precompute_filter_transforms checks the kernels
    if ts is None:
        ts = generate_transforms(cfg.params)
    elif ts.params != cfg.params:
        raise ValueError("transform set does not match engine parameters")

    m, alpha = cfg.params.m, cfg.params.alpha
    p = cfg.p
    dtype = fmap.data.dtype
    ext, h_out, w_out, ty, tx = zero_extend(fmap, spec, m, cfg.params.r)
    n_groups = ceil(kernels.k / p)

    # Filter transforms are precomputed before the run; idle PE slots in the
    # last kernel group hold zero kernels.
    v = np.zeros((n_groups * p, kernels.c, alpha, alpha), dtype=dtype)
    v[: kernels.k] = precompute_filter_transforms(kernels, ts)

    bt = ts.b.T.astype(dtype)
    b = ts.b.astype(dtype)
    at = ts.a.T.astype(dtype)
    a = ts.a.astype(dtype)

    # The shared data transform of every tile, (N, C, Ty, Tx, alpha, alpha).
    u = bt @ extract_tiles(ext, m, alpha) @ b
    trace = SimTrace(tiles_per_image=ty * tx, kernel_groups=n_groups)
    accum = np.zeros((fmap.n, ty, tx, n_groups * p, m, m), dtype=dtype)  # PE output buffers

    for ci in range(fmap.c):
        # every issue cycle of channel ci: all tile positions x all P-PE kernel groups
        prod = u[:, ci, :, :, None] * v[:, ci]  # (N, Ty, Tx, groups*P, alpha, alpha)
        accum += at @ prod @ a
        issued = prod.size // (p * alpha * alpha)
        trace.issue_cycles += issued
        trace.data_transform_invocations += issued * (p if cfg.reference_design else 1)
        trace.hadamard_mult_count += prod.size
        trace.inverse_transform_count += prod.size // (alpha * alpha)

    out = accum[:, :, :, : kernels.k].transpose(0, 3, 1, 4, 2, 5)
    out = out.reshape(fmap.n, kernels.k, ty * m, tx * m)
    for stage in STAGES:
        trace.stage_busy[stage] = trace.issue_cycles
    trace.cycles_elapsed = trace.issue_cycles + cfg.d_p - 1
    return FeatureMap(np.ascontiguousarray(out[:, :, :h_out, :w_out])), trace


@dataclass(frozen=True)
class ValidationReport:
    simulated_cycles: int
    analytical_cycles: float
    gap_cycles: float
    ceiling_overhead: float  # closed-form (tile + kernel-group ceilings)

    @property
    def consistent(self) -> bool:
        return abs(self.gap_cycles - self.ceiling_overhead) < 1e-9

    def to_json(self) -> str:
        return json.dumps({
            "simulated_cycles": self.simulated_cycles,
            "analytical_cycles": self.analytical_cycles,
            "gap_cycles": self.gap_cycles,
            "ceiling_overhead": self.ceiling_overhead,
            "consistent": self.consistent,
        })


def validate_against_analytical(cfg: EngineConfig, layer: LayerShape) -> ValidationReport:
    """Compare the simulator's cycle count with the fractional latency model.

    The analytical side is cost_model.analytical_cycles, the cycle count that
    layer_latency prices.  The gap is exactly the ceiling overhead of partial
    tiles and partial kernel groups; it is zero when m divides both output
    dims and P divides K.
    """
    m = cfg.params.m
    simulated = expected_cycles(cfg, layer)
    analytical = analytical_cycles(layer, cfg.params, cfg.p, cfg.d_p)
    tiles_ceil = ceil(layer.h / m) * ceil(layer.w / m)
    overhead = (
        tiles_ceil * ceil(layer.k / cfg.p) - (layer.h * layer.w / (m * m)) * (layer.k / cfg.p)
    ) * layer.c * layer.n
    return ValidationReport(
        simulated_cycles=simulated,
        analytical_cycles=analytical,
        gap_cycles=simulated - analytical,
        ceiling_overhead=overhead,
    )


def engine_config_for(
    params: MinimalParams, hw: HardwareConfig, reference_design: bool = False
) -> EngineConfig:
    """Engine sized to a hardware budget: P from the multiplier count."""
    return EngineConfig(
        params=params,
        p=pe_count(hw, params),
        d_p=pipeline_depth(params, hw),
        clock_period=hw.t_c,
        reference_design=reference_design,
    )
