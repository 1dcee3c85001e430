"""Full-layer convolution: spatial reference path and tiled Winograd path.

Both paths compute cross-correlation (no kernel flip): for stride 1,

    Y[i, k, x, y] = sum_c sum_u sum_v D[i, c, x+u, y+v] * G[k, c, u, v]

Layouts are fixed to N-C-H-W feature maps and K-C-r-r kernel banks.  The
Winograd path decomposes the padded input into overlapping alpha x alpha
tiles with stride m; partial edge tiles are zero-padded to alpha and the
excess output rows/columns are discarded.  Channels are summed in the
transformed domain (Lavin & Gray, arXiv:1509.09308): for each of the
alpha^2 tile positions (xi, nu) one GEMM

    M[xi, nu] = V[xi, nu] @ U[xi, nu],   [K x C] @ [C x N*Ty*Tx]

and then one inverse transform per (image, kernel, output tile).  The
hardware order -- inverse transform per channel, then accumulation over C
cycles -- is modeled by pipeline_sim.simulate_layer.  Both Winograd paths
need floating-point input: the transforms have fractional entries.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil

import numpy as np

from .transforms import MultCounter, TransformSet


@dataclass(frozen=True)
class ConvSpec:
    """Border zero padding in pixels; stride is fixed at 1."""

    pad: int = 0

    def __post_init__(self):
        if self.pad < 0:
            raise ValueError(f"pad must be >= 0, got {self.pad}")


@dataclass(frozen=True)
class FeatureMap:
    """Dense N-C-H-W tensor."""

    data: np.ndarray

    def __post_init__(self):
        if self.data.ndim != 4:
            raise ValueError(f"feature map must be 4D (N,C,H,W), got ndim={self.data.ndim}")
        if min(self.data.shape) < 1:
            raise ValueError(f"all feature-map dims must be >= 1, got {self.data.shape}")

    @property
    def n(self) -> int:
        return self.data.shape[0]

    @property
    def c(self) -> int:
        return self.data.shape[1]

    @property
    def h(self) -> int:
        return self.data.shape[2]

    @property
    def w(self) -> int:
        return self.data.shape[3]


@dataclass(frozen=True)
class KernelBank:
    """Dense K-C-r-r tensor of K kernels with square spatial support."""

    data: np.ndarray

    def __post_init__(self):
        if self.data.ndim != 4:
            raise ValueError(f"kernel bank must be 4D (K,C,r,r), got ndim={self.data.ndim}")
        if self.data.shape[2] != self.data.shape[3]:
            raise ValueError(f"kernels must be square, got {self.data.shape[2:]}")
        if min(self.data.shape) < 1:
            raise ValueError(f"all kernel-bank dims must be >= 1, got {self.data.shape}")

    @property
    def k(self) -> int:
        return self.data.shape[0]

    @property
    def c(self) -> int:
        return self.data.shape[1]

    @property
    def r(self) -> int:
        return self.data.shape[2]


def output_hw(h: int, w: int, r: int, pad: int) -> tuple[int, int]:
    ho, wo = h + 2 * pad - r + 1, w + 2 * pad - r + 1
    if ho < 1 or wo < 1:
        raise ValueError(f"kernel {r}x{r} with pad {pad} does not fit {h}x{w} input")
    return ho, wo


def tile_grid(h_out: int, w_out: int, m: int) -> tuple[int, int]:
    """Tiles per channel along each axis: ceil(H_out/m) x ceil(W_out/m)."""
    return ceil(h_out / m), ceil(w_out / m)


def spatial_conv(
    fmap: FeatureMap,
    kernels: KernelBank,
    spec: ConvSpec,
    counter: MultCounter | None = None,
) -> FeatureMap:
    """Direct convolution; every output pixel is a triple sum in 64-bit.

    Keeps the map's dtype; an integer map with float kernels, which would
    truncate, raises ValueError.
    """
    if fmap.c != kernels.c:
        raise ValueError(f"channel mismatch: input has {fmap.c}, kernels have {kernels.c}")
    if np.issubdtype(kernels.data.dtype, np.floating):
        require_floating("feature map", fmap.data)
    r = kernels.r
    h_out, w_out = output_hw(fmap.h, fmap.w, r, spec.pad)
    padded = np.pad(fmap.data, ((0, 0), (0, 0), (spec.pad, spec.pad), (spec.pad, spec.pad)))
    windows = np.lib.stride_tricks.sliding_window_view(padded, (r, r), axis=(2, 3))
    # windows: (N, C, H_out, W_out, r, r)
    out64 = np.einsum(
        "nchwuv,kcuv->nkhw",
        windows.astype(np.float64),
        kernels.data.astype(np.float64),
        optimize=True,
    )
    if counter is not None:
        counter.add(fmap.n * fmap.c * h_out * w_out * r * r * kernels.k)
    return FeatureMap(out64.astype(fmap.data.dtype))


def require_floating(what: str, data: np.ndarray) -> None:
    """Reject integer data: casting the fractional transforms to it would truncate them."""
    if not np.issubdtype(data.dtype, np.floating):
        raise ValueError(f"{what} must be floating point, got {data.dtype}")


def precompute_filter_transforms(kernels: KernelBank, ts: TransformSet) -> np.ndarray:
    """Transform every (k, c) kernel slice: returns (K, C, alpha, alpha)."""
    if kernels.r != ts.params.r:
        raise ValueError(
            f"kernel size {kernels.r} does not match transform set r={ts.params.r}"
        )
    require_floating("kernel bank", kernels.data)
    g = ts.g.astype(kernels.data.dtype)
    return np.einsum("ij,kcjl,ol->kcio", g, kernels.data, g, optimize=True)


def zero_extend(
    fmap: FeatureMap, spec: ConvSpec, m: int, r: int
) -> tuple[np.ndarray, int, int, int, int]:
    """Pad the map and zero-extend it so every tile, partial edge tiles included, is full size.

    Returns (ext, H_out, W_out, Ty, Tx): ext is (N, C, Ty*m + r-1, Tx*m + r-1)
    in the map's dtype and holds the Ty x Tx alpha x alpha tiles at stride m.
    """
    h_out, w_out = output_hw(fmap.h, fmap.w, r, spec.pad)
    ty, tx = tile_grid(h_out, w_out, m)
    ext = np.zeros((fmap.n, fmap.c, ty * m + r - 1, tx * m + r - 1), dtype=fmap.data.dtype)
    ext[:, :, spec.pad : spec.pad + fmap.h, spec.pad : spec.pad + fmap.w] = fmap.data
    return ext, h_out, w_out, ty, tx


def extract_tiles(padded_ext: np.ndarray, m: int, alpha: int) -> np.ndarray:
    """View of all alpha x alpha tiles at stride m: (N, C, Ty, Tx, alpha, alpha)."""
    win = np.lib.stride_tricks.sliding_window_view(padded_ext, (alpha, alpha), axis=(2, 3))
    return win[:, :, ::m, ::m]


def winograd_conv(
    fmap: FeatureMap,
    kernels: KernelBank,
    spec: ConvSpec,
    ts: TransformSet,
    counter: MultCounter | None = None,
) -> FeatureMap:
    """Tiled minimal-filtering convolution, equal to spatial_conv within tolerance.

    Computes in the feature map's dtype and returns it; integer input raises
    ValueError.
    """
    if kernels.r != ts.params.r:
        raise ValueError(
            f"kernel size {kernels.r} does not match transform set r={ts.params.r}"
        )
    if fmap.c != kernels.c:
        raise ValueError(f"channel mismatch: input has {fmap.c}, kernels have {kernels.c}")
    require_floating("feature map", fmap.data)
    m, alpha = ts.params.m, ts.params.alpha
    n, c, k = fmap.n, fmap.c, kernels.k
    dtype = fmap.data.dtype
    v = precompute_filter_transforms(kernels, ts).astype(dtype, copy=False)
    v = v.transpose(2, 3, 0, 1).reshape(alpha * alpha, k, c)

    ext, h_out, w_out, ty, tx = zero_extend(fmap, spec, m, ts.params.r)
    tiles = n * ty * tx
    # Transforms act on row-major flattened tiles: vec(X^T d X) = kron(X^T, X^T) vec(d).
    d = extract_tiles(ext, m, alpha).transpose(4, 5, 1, 0, 2, 3).reshape(alpha * alpha, c * tiles)
    u = (np.kron(ts.bt, ts.bt).astype(dtype) @ d).reshape(alpha * alpha, c, tiles)
    prod = np.matmul(v, u)  # (alpha^2, K, tiles), summed over channels
    if counter is not None:
        counter.add(prod.size * c)
    y = np.kron(ts.at, ts.at).astype(dtype) @ prod.reshape(alpha * alpha, k * tiles)

    out = y.reshape(m, m, k, n, ty, tx).transpose(3, 2, 4, 0, 5, 1).reshape(n, k, ty * m, tx * m)
    return FeatureMap(np.ascontiguousarray(out[:, :, :h_out, :w_out]))
