"""Winograd minimal-filtering convolution, cost models, DSE and PE-array simulation."""

from .conv import (
    ConvSpec,
    FeatureMap,
    KernelBank,
    precompute_filter_transforms,
    spatial_conv,
    winograd_conv,
)
from .cost_model import (
    DesignPoint,
    HardwareConfig,
    LayerShape,
    TransformOpCounts,
    analytical_cycles,
    count_transform_ops,
    default_pipeline_depth,
    evaluate_design,
    implementation_transform_complexity,
    layer_latency,
    lut_total,
    multiplication_complexity,
    pe_count,
    spatial_ops,
    throughput,
    transform_complexity,
)
from .dse import (
    SweepResult,
    SweepSpec,
    Table2Report,
    recommend,
    run_sweep,
    table2_report,
)
from .pipeline_sim import (
    EngineConfig,
    SimTrace,
    engine_config_for,
    expected_cycles,
    simulate_layer,
    validate_against_analytical,
)
from .transforms import (
    MinimalParams,
    MultCounter,
    TransformSet,
    default_points,
    generate_transforms,
    winograd_1d_exact,
    winograd_2d_tile_exact,
)
from .workload import Workload, WorkloadLayer, load_workload, save_workload

__version__ = "0.1.0"
