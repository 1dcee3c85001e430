"""Winograd minimal-filtering convolution, cost models, DSE and PE-array simulation."""

from importlib import import_module

from .cost_model import (
    DesignPoint,
    HardwareConfig,
    LayerShape,
    TransformOpCounts,
    analytical_cycles,
    count_transform_ops,
    exact_cycles,
    pe_count,
    pipeline_depth,
    price_layers,
)
from .dse import (
    SweepResult,
    SweepSpec,
    recommend,
    run_sweep,
    table2_report,
)
from .transforms import (
    MinimalParams,
    MultCounter,
    TransformSet,
    default_points,
    generate_transforms,
)
from .workload import Workload, WorkloadLayer, load_workload

__version__ = "0.1.0"

# Names of conv and pipeline_sim, which need NumPy, and of exact mode load on first
# access (PEP 562), so that `import winoconv` neither loads NumPy nor compiles them.
_LAZY = {
    **dict.fromkeys(["ConvSpec", "FeatureMap", "KernelBank", "precompute_filter_transforms",
                     "spatial_conv", "winograd_conv"], "conv"),
    **dict.fromkeys(["EngineConfig", "SimTrace", "engine_config_for", "expected_cycles",
                     "simulate_layer", "validate_against_analytical"], "pipeline_sim"),
    **dict.fromkeys(["winograd_1d_exact", "winograd_2d_tile_exact"], "exact"),
}


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # stored, so later lookups find it without calling __getattr__
    globals()[name] = value = getattr(import_module(f".{_LAZY[name]}", __name__), name)
    return value
