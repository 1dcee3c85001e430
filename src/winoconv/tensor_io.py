"""Flat binary tensor container with a one-line textual header.

Header grammar (ASCII, terminated by a single newline):

    WTNS1 <layout> <dtype> <d0> <d1> <d2> <d3>

where layout is NCHW (feature maps) or KCRR (kernel banks), dtype is f32 or
f64, and d0..d3 are the decimal dimensions.  The header is followed by the
raw little-endian element bytes in C (row-major) order.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

MAGIC = "WTNS1"
LAYOUTS = ("NCHW", "KCRR")
_DTYPES = {"f32": np.dtype("<f4"), "f64": np.dtype("<f8")}
_DTYPE_TAGS = {np.dtype(np.float32): "f32", np.dtype(np.float64): "f64"}
_MAX_HEADER = 256  # bytes before the newline


def save_tensor(path: str | Path, array: np.ndarray, layout: str):
    if layout not in LAYOUTS:
        raise ValueError(f"layout must be one of {LAYOUTS}, got {layout!r}")
    if array.ndim != 4:
        raise ValueError(f"tensor must be 4D, got ndim={array.ndim}")
    tag = _DTYPE_TAGS.get(np.dtype(array.dtype))
    if tag is None:
        raise ValueError(f"unsupported dtype {array.dtype}; use float32 or float64")
    header = f"{MAGIC} {layout} {tag} " + " ".join(str(d) for d in array.shape) + "\n"
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        fh.write(np.ascontiguousarray(array, dtype=_DTYPES[tag]).tobytes())


def load_tensor(path: str | Path) -> tuple[np.ndarray, str]:
    """Returns (array, layout)."""
    with open(path, "rb") as fh:
        line = fh.readline(_MAX_HEADER + 1)
        if not line.endswith(b"\n"):
            if len(line) > _MAX_HEADER:
                raise ValueError(f"{path}: header too long; not a tensor file")
            raise ValueError(f"{path}: truncated header")
        header = line[:-1]
        fields = header.decode("ascii", errors="replace").split()
        if len(fields) != 7 or fields[0] != MAGIC:
            raise ValueError(f"{path}: bad header {header!r}; expected "
                             f"'{MAGIC} <layout> <dtype> <d0> <d1> <d2> <d3>'")
        layout, tag = fields[1], fields[2]
        if layout not in LAYOUTS:
            raise ValueError(f"{path}: unknown layout tag {layout!r}")
        if tag not in _DTYPES:
            raise ValueError(f"{path}: unknown dtype tag {tag!r}")
        try:
            dims = tuple(int(x) for x in fields[3:7])
        except ValueError:
            raise ValueError(f"{path}: non-integer dimension in header") from None
        if min(dims) < 1:
            raise ValueError(f"{path}: dimensions must be >= 1, got {dims}")
        count = int(np.prod(dims))
        raw = fh.read()
        expected = count * _DTYPES[tag].itemsize
        if len(raw) != expected:
            raise ValueError(
                f"{path}: payload is {len(raw)} bytes, header promises {expected}"
            )
        return np.frombuffer(raw, dtype=_DTYPES[tag]).reshape(dims).copy(), layout
