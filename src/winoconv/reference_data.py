"""The Table 2 row type and the static reference rows of report tables.

Table2Row is one design of the VGG16-D comparison, published or computed.
Published measurements of prior FPGA accelerator implementations and of the
synthesized builds of this architecture (clock, power, registers, LUTs,
DSPs) are not computed by this package: they require an actual FPGA flow,
so they are echoed as published, never modeled, next to the quantities the
models do derive.  The builds are priced at their one clock, FREQ_HZ.
"""

from __future__ import annotations

from .transforms import Record


class Table2Row(Record):
    """One design on the VGG16-D conv layers: modeled at tile size m, else published."""

    def __init__(self, name: str, multipliers: int, pes: int | None, precision_bits: int,
                 freq_mhz: float, conv_ms: tuple[float, ...], overall_ms: float, gops: float,
                 gops_per_mult: float, power_w: float | None, gops_per_w: float | None,
                 m: int | None = None):
        self.__dict__.update(
            name=name, multipliers=multipliers, pes=pes, precision_bits=precision_bits,
            freq_mhz=freq_mhz, conv_ms=conv_ms, overall_ms=overall_ms, gops=gops,
            gops_per_mult=gops_per_mult, power_w=power_w, gops_per_w=gops_per_w, m=m)

    @property
    def computed(self) -> bool:
        return self.m is not None


# Prior published designs (static echo only).
PRIOR_DESIGNS = (
    # Older embedded implementation, fixed point.
    Table2Row(
        name="prior_zynq_16bit",
        multipliers=780, pes=None, precision_bits=16, freq_mhz=150.0,
        conv_ms=(31.29, 23.58, 39.29, 36.30, 32.95),
        overall_ms=163.4, gops=187.8, gops_per_mult=0.24,
        power_w=9.63, gops_per_w=19.50,
    ),
    # Per-PE data transform, F(2x2,3x3), as published.
    Table2Row(
        name="prior_1d_engine",
        multipliers=256, pes=16, precision_bits=32, freq_mhz=200.0,
        conv_ms=(16.81, 24.08, 40.14, 40.14, 12.04),
        overall_ms=133.22, gops=230.4, gops_per_mult=0.90,
        power_w=8.04, gops_per_w=28.66,
    ),
    # Normalized to the 688-multiplier budget of the F(2x2,3x3) build.
    Table2Row(
        name="prior_1d_engine_norm688",
        multipliers=688, pes=43, precision_bits=32, freq_mhz=200.0,
        conv_ms=(6.25, 8.96, 14.94, 14.94, 4.48),
        overall_ms=49.57, gops=619.2, gops_per_mult=0.90,
        power_w=21.61, gops_per_w=28.66,
    ),
)

# The three shared-transform builds evaluated on VGG16-D at FREQ_HZ:
# (m, r, multiplier budget, power_w, gops_per_w); power and GOPS/W are echoed.
SHARED_DESIGNS = (
    (2, 3, 688, 13.03, 41.34),
    (3, 3, 700, 23.96, 37.87),
    (4, 3, 684, 36.32, 30.13),
)
FREQ_HZ = 200e6  # the builds' clock, the one clock of dse and report

# Synthesized resource utilization of the 19-PE F(4x4,3x3) builds (echo only):
# the shared-transform build's LUT total is 53.6% below the reference style's.
RESOURCE_UTILIZATION_19PE = {
    "reference_style": {"registers": 97052, "luts": 232256, "dsps": 2736, "multipliers": 684},
    "shared_transform": {"registers": 76500, "luts": 107839, "dsps": 2736, "multipliers": 684},
}
