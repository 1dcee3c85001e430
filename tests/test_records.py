"""The package's records: construction, equality, hashing, repr and immutability.

Every record class derives from transforms.Record.  These checks pin, for all
of them, what each class's constructor and the base provide.
"""

from functools import cached_property

import numpy as np
import pytest

from winoconv import (
    DesignPoint,
    HardwareConfig,
    LayerShape,
    MinimalParams,
    SweepResult,
    SweepSpec,
    TransformOpCounts,
    TransformSet,
    Workload,
    WorkloadLayer,
    generate_transforms,
    winograd_1d_exact,
    winograd_2d_tile_exact,
)
from winoconv.conv import ConvSpec, FeatureMap, KernelBank
from winoconv.cost_model import CLOCK_PERIOD_S, LayerCost
from winoconv.dse import Transition
from winoconv.pipeline_sim import EngineConfig, SimTrace, ValidationReport
from winoconv.reference_data import Table2Row
from winoconv.workload import VGG16D

P23 = MinimalParams(2, 3)
HW = HardwareConfig(700)
TS = generate_transforms(P23)
COST = LayerCost(1.0, 2.0, 3.0, 4.0, 5.0)
OPS = TransformOpCounts(1, 2, 3)
POINT = DesignPoint(P23, HW, OPS, (COST,))
SPEC = SweepSpec((2,), 3, (700,), VGG16D, HW)
SHAPE = LayerShape(1, 2, 3, 4, 5, 3)
TRACE_FIELDS = ("cycles_elapsed issue_cycles data_transform_invocations inverse_transform_count "
                "hadamard_mult_count tiles_per_image kernel_groups idle_pe_slots")

# class, its fields in declaration order, one value per field (as the record stores it),
# and the defaults of the trailing fields that have one
RECORDS = [
    (MinimalParams, "m r", (2, 3), {}),
    (TransformSet, "params at_int bt_int g_int interpolation_points",
     (P23, TS.at_int, TS.bt_int, TS.g_int, TS.interpolation_points), {}),
    (LayerShape, "n h w c k r", (1, 2, 3, 4, 5, 3), {}),
    (TransformOpCounts, "beta gamma delta", (1, 2, 3), {}),
    (HardwareConfig, "m_total t_c", (700, CLOCK_PERIOD_S), {"t_c": CLOCK_PERIOD_S}),
    (LayerCost, "o_m o_t o_s latency_s o_t_shared", (1.0, 2.0, 3.0, 4.0, 5.0), {}),
    (DesignPoint, "params hw ops layers", (P23, HW, OPS, (COST,)), {}),
    (SweepSpec, "m_values r budgets workload hw", ((2,), 3, (700,), VGG16D, HW), {}),
    (Transition, "m_from m_to pct_mult_decrease pct_transform_increase", (2, 3, 10.0, None), {}),
    (SweepResult, "spec points transitions", (SPEC, (POINT,), ()), {}),
    (Table2Row, "name multipliers pes precision_bits freq_mhz conv_ms overall_ms gops "
                "gops_per_mult power_w gops_per_w m",
     ("d", 700, 43, 32, 200.0, (1.0, 2.0), 3.0, 4.0, 0.5, None, 6.0, 2), {"m": None}),
    (WorkloadLayer, "shape pad group", (SHAPE, 1, "conv1"), {}),
    (Workload, "name layers", ("w", (WorkloadLayer(SHAPE, 1, "conv1"),)), {}),
    (ConvSpec, "pad", (1,), {"pad": 0}),
    (FeatureMap, "data", (np.ones((1, 2, 3, 3)),), {}),
    (KernelBank, "data", (np.ones((4, 2, 3, 3)),), {}),
    (EngineConfig, "params p", (P23, 4), {}),
    (SimTrace, TRACE_FIELDS, tuple(range(1, 9)), {}),
    (ValidationReport, "simulated_cycles analytical_cycles gap_cycles ceiling_overhead",
     (10, 9.5, 0.5, 0.5), {}),
]
# an array field makes the tuple of values unhashable
UNHASHABLE = {FeatureMap, KernelBank}


@pytest.mark.parametrize("cls, names, values, defaults", RECORDS,
                         ids=[row[0].__name__ for row in RECORDS])
def test_record_semantics(cls, names, values, defaults):
    names = names.split()
    record, same = cls(*values), cls(**dict(zip(names, values)))
    assert record._fields == tuple(names)
    assert record._values() == values == same._values()
    required = len(names) - len(defaults)
    assert list(defaults) == names[required:]
    assert cls(*values[:required])._values()[required:] == tuple(defaults.values())

    # Python's own errors for a wrong argument list
    init = rf"^{cls.__name__}\.__init__\(\) "
    with pytest.raises(TypeError, match=init + rf"takes .+ but {len(names) + 2} were given$"):
        cls(*values, None)
    with pytest.raises(TypeError, match=init + r"got an unexpected keyword argument 'nope'$"):
        cls(*values, nope=None)
    if required:
        with pytest.raises(TypeError, match=init + rf"missing 1 required positional argument: "
                                                   rf"'{names[required - 1]}'$"):
            cls(*values[:required - 1])

    # == and hash by exact class and field values
    assert record == same and not record != same
    assert record != values and values != record
    assert record != type("Other", (cls,), {})(*values)
    if cls in UNHASHABLE:
        with pytest.raises(TypeError, match="unhashable"):
            hash(record)
    else:
        assert hash(record) == hash(same) == hash(values)

    fields = ", ".join(f"{n}={v!r}" for n, v in zip(names, values))
    assert repr(record) == f"{cls.__name__}({fields})"

    # built-on-first-use values stay out of ==, hash and repr
    for name, attr in vars(cls).items():
        if isinstance(attr, cached_property):
            getattr(record, name)
            assert name in vars(record)
    assert record == same and repr(record) == f"{cls.__name__}({fields})"
    if cls not in UNHASHABLE:
        assert hash(record) == hash(same)

    for name in names + ["other"]:
        with pytest.raises(AttributeError, match=rf"^cannot assign to field '{name}'$"):
            setattr(record, name, 0)
        with pytest.raises(AttributeError, match=rf"^cannot delete field '{name}'$"):
            delattr(record, name)
    assert record._values() == values


def test_pinned_reprs_and_a_tuple_of_the_same_values():
    shape = LayerShape(1, 2, 3, 4, 5, 3)
    assert repr(shape) == "LayerShape(n=1, h=2, w=3, c=4, k=5, r=3)"
    assert shape != (1, 2, 3, 4, 5, 3)
    assert repr(SimTrace(0, 0, 0, 0, 0, 0, 0, 0)) == ("SimTrace(cycles_elapsed=0, issue_cycles=0, "
                                "data_transform_invocations=0, inverse_transform_count=0, "
                                "hadamard_mult_count=0, tiles_per_image=0, kernel_groups=0, "
                                "idle_pe_slots=0)")
    assert repr(HardwareConfig(700)) == f"HardwareConfig(m_total=700, t_c={CLOCK_PERIOD_S!r})"
    assert repr(ConvSpec()) == "ConvSpec(pad=0)"


def test_every_record_class_is_in_the_table():
    import winoconv.transforms as transforms

    classes = {row[0] for row in RECORDS}
    assert len(classes) == 19
    assert set(transforms.Record.__subclasses__()) == classes


def test_exact_programs_stay_out_of_the_record():
    ts, fresh = generate_transforms(MinimalParams(3, 3)), generate_transforms(MinimalParams(3, 3))
    before = repr(ts)
    assert winograd_1d_exact(ts, [1, 2, 3, 4, 5], [1, 0, -1]) == (-2, -2, -2)
    assert winograd_2d_tile_exact(ts, [[1] * 5] * 5, [[1] * 3] * 3) == ((9,) * 3,) * 3
    assert ts.program_1d is ts.program_1d and ts.program_2d is ts.program_2d
    assert ts == fresh and hash(ts) == hash(fresh)
    assert repr(ts) == before == repr(fresh)
    assert ts._fields == ("params", "at_int", "bt_int", "g_int", "interpolation_points")
    for name in ("params", "program_2d"):
        with pytest.raises(AttributeError, match=rf"^cannot assign to field '{name}'$"):
            setattr(ts, name, None)
