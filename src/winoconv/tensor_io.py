"""Tensor files in NumPy's .npy format, tagged with their layout.

A tensor file holds two .npy records: first the array, then its layout as a
0-d string array.  The layout is NCHW (feature maps) or KCRR (kernel banks);
the array is 4-D, native float32 or float64, with every dimension >= 1.
np.load(path) alone reads the array.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
from numpy.lib.format import read_array

from .conv import check_dense_4d

LAYOUTS = ("NCHW", "KCRR")


def _check(array: np.ndarray, layout, where: str):
    if layout not in LAYOUTS:
        raise ValueError(f"{where}layout must be one of {LAYOUTS}, got {layout!r}")
    check_dense_4d(array, f"{where}tensor", layout)
    if array.dtype not in (np.dtype(np.float32), np.dtype(np.float64)):
        raise ValueError(f"{where}unsupported dtype {array.dtype}; use native float32 or float64")


def save_tensor(path: str | Path, array: np.ndarray, layout: str):
    _check(array, layout, "")
    with open(path, "wb") as fh:  # a path would get ".npy" appended by np.save
        np.save(fh, np.ascontiguousarray(array), allow_pickle=False)
        np.save(fh, np.array(layout), allow_pickle=False)


def load_tensor(path: str | Path) -> tuple[np.ndarray, str]:
    """Returns (array, layout); every malformed file is a ValueError."""
    with open(path, "rb") as fh:
        try:
            array = read_array(fh, allow_pickle=False)
            layout = read_array(fh, allow_pickle=False).tolist()
            if fh.read(1):
                raise ValueError("bytes after the layout record")
        except (ValueError, MemoryError) as exc:  # MemoryError: a header promising too much
            raise ValueError(f"{path}: not a tensor file: {exc}") from None
    _check(array, layout, f"{path}: ")
    return array, layout
