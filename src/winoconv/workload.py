"""Workload definitions: named sequences of convolution layers.

File format (line oriented, '#' comments and blank lines ignored):

    workload <name>
    layer <n> <h> <w> <c> <k> <r> <pad> <group>

h and w are output spatial dims.  Group labels must be contiguous.  The
builtin VGG16D, loaded as "vgg16d", holds the 13 convolutional layers of
VGG-16 configuration D (all 3x3 kernels, pad 1, batch 1) in five groups
conv1..conv5.
"""

from __future__ import annotations

from pathlib import Path

from .cost_model import LayerShape
from .transforms import Record, _checked_int


class WorkloadLayer(Record):
    def __init__(self, shape: LayerShape, pad: int, group: str):
        pad = _checked_int(pad, "pad", 0)
        if not group:
            raise ValueError("layer group label must be nonempty")
        self.__dict__.update(shape=shape, pad=pad, group=group)


class Workload(Record):
    def __init__(self, name: str, layers: tuple[WorkloadLayer, ...]):
        self.__dict__.update(name=name, layers=layers)
        if not name:
            raise ValueError("workload name must be nonempty")
        if not layers:
            raise ValueError("workload must contain at least one layer")
        groups = self.groups
        for i, group in enumerate(groups):
            if group in groups[:i]:
                raise ValueError(f"group {group!r} is not contiguous")

    @property
    def groups(self) -> tuple[str, ...]:
        out: list[str] = []
        for layer in self.layers:
            if not out or out[-1] != layer.group:
                out.append(layer.group)
        return tuple(out)

    @property
    def shapes(self) -> tuple[LayerShape, ...]:
        return tuple(l.shape for l in self.layers)


# (h=w, c, k, group); all r=3, pad=1, n=1; h, w are output dims
VGG16D = Workload("vgg16d", tuple(
    WorkloadLayer(LayerShape(n=1, h=s, w=s, c=c, k=k, r=3), pad=1, group=g)
    for s, c, k, g in (
        (224, 3, 64, "conv1"), (224, 64, 64, "conv1"),
        (112, 64, 128, "conv2"), (112, 128, 128, "conv2"),
        (56, 128, 256, "conv3"), (56, 256, 256, "conv3"), (56, 256, 256, "conv3"),
        (28, 256, 512, "conv4"), (28, 512, 512, "conv4"), (28, 512, 512, "conv4"),
        (14, 512, 512, "conv5"), (14, 512, 512, "conv5"), (14, 512, 512, "conv5"),
    )
))


def parse_workload(text: str, source: str = "<string>") -> Workload:
    name: str | None = None
    layers: list[WorkloadLayer] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        fields = raw.split("#", 1)[0].split()
        if not fields:
            continue
        try:
            if fields[0] == "workload":
                if name is not None:
                    raise ValueError("duplicate 'workload' record")
                if len(fields) != 2:
                    raise ValueError("expected 'workload <name>'")
                name = fields[1]
            elif fields[0] == "layer":
                if name is None:
                    raise ValueError("'layer' before 'workload' record")
                if len(fields) != 9:
                    raise ValueError(
                        f"expected 'layer n h w c k r pad group', got {len(fields) - 1} fields")
                try:
                    n, h, w, c, k, r, pad = (int(x) for x in fields[1:8])
                except ValueError as exc:
                    raise ValueError(f"non-integer layer field: {exc}") from None
                layers.append(WorkloadLayer(LayerShape(n, h, w, c, k, r), pad, fields[8]))
            else:
                raise ValueError(f"unknown record type {fields[0]!r}")
        except ValueError as exc:
            raise ValueError(f"{source}:{lineno}: {exc}") from None
    if name is None:
        raise ValueError(f"{source}: missing 'workload <name>' record")
    try:
        return Workload(name, tuple(layers))
    except ValueError as exc:
        raise ValueError(f"{source}: {exc}") from None


def load_workload(name_or_path: str | Path) -> Workload:
    """Return the builtin VGG16D for "vgg16d", else parse a workload file."""
    key = str(name_or_path)
    if key == VGG16D.name:
        return VGG16D
    path = Path(name_or_path)
    if not path.exists():
        raise ValueError(f"unknown workload {key!r}: not the builtin vgg16d and no such file")
    return parse_workload(path.read_text(), source=str(path))

