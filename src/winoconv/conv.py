"""Full-layer convolution: spatial reference path and tiled Winograd path.

Both compute cross-correlation (no kernel flip) at stride 1 on N-C-H-W maps and
K-C-r-r kernel banks: Y[i, k, x, y] = sum_c,u,v D[i, c, x+u, y+v] * G[k, c, u, v].
Each path zero-pads the map into a buffer of its own, so that a tiling bug cannot
hide in the oracle too, with np.zeros and one slice assignment, and reads it through
one bounds-checked strided view, _windows: r x r windows at stride 1 for the patch
matrix of spatial_conv, alpha x alpha tiles at stride m for transformed_operands.  That
front end, shared by winograd_conv and pipeline_sim.simulate_layer, returns the
data transforms U, one GEMM kron(B^T, B^T) @ [alpha^2 x C*N*Ty*Tx], and the
filter transforms V channel-major, one GEMM kron(G, G) @ [r^2 x K] per channel,
as (C, alpha^2, K), computed in the wider of the map's and the kernels' dtype and
cast to the map's.  precompute_filter_transforms, which takes no dtype, computes
them in the kernels' dtype and returns a (K, C, alpha, alpha) view of that
channel-major storage.  winograd_conv sums channels in the transformed domain
(Lavin & Gray, arXiv:1509.09308), one GEMM per tile position (xi, nu),

    M[xi, nu] = V[:, xi, nu]^T @ U[xi, nu],   [K x C] @ [C x N*Ty*Tx],

with V^T a view that BLAS reads as it is, then applies A^T M A as two 1-D passes
on cache-sized blocks; untile drops the excess output rows/columns.
simulate_layer models the hardware order instead: inverse transform per channel,
then accumulation over C cycles.  The Winograd paths need floating-point input:
the transforms have fractional entries.
"""

from __future__ import annotations

import numpy as np

from .cost_model import tile_grid
from .transforms import MultCounter, Record, TransformSet, _checked_int


class ConvSpec(Record):
    """Border zero padding in pixels; stride is fixed at 1."""

    def __init__(self, pad: int = 0):
        self.__dict__.update(pad=_checked_int(pad, "pad", 0))


def check_dense_4d(data: np.ndarray, what: str, axes: str):
    """ValueError unless data is 4-D with no empty dimension."""
    if data.ndim != 4 or min(data.shape) < 1:
        raise ValueError(f"{what} must be 4D ({axes}) with no empty dimension, got {data.shape}")


class FeatureMap(Record):
    """Dense N-C-H-W tensor."""

    def __init__(self, data: np.ndarray):
        check_dense_4d(data, "feature map", "N,C,H,W")
        self.__dict__.update(data=data)


class KernelBank(Record):
    """Dense K-C-r-r tensor of K kernels with square spatial support."""

    def __init__(self, data: np.ndarray):
        check_dense_4d(data, "kernel bank", "K,C,r,r")
        if data.shape[2] != data.shape[3]:
            raise ValueError(f"kernels must be square, got {data.shape[2:]}")
        self.__dict__.update(data=data)


def _layer_dims(fmap: FeatureMap, kernels: KernelBank) -> tuple[int, int, int, int, int, int]:
    """(N, C, H, W, K, r) of a layer; ValueError unless the map and kernels agree on C."""
    (n, c, h, w), (k, kernel_c, r, _) = fmap.data.shape, kernels.data.shape
    if c != kernel_c:
        raise ValueError(f"channel mismatch: input has {c}, kernels have {kernel_c}")
    return n, c, h, w, k, r


def output_hw(h: int, w: int, r: int, pad: int) -> tuple[int, int]:
    ho, wo = h + 2 * pad - r + 1, w + 2 * pad - r + 1
    if ho < 1 or wo < 1:
        raise ValueError(f"kernel {r}x{r} with pad {pad} does not fit {h}x{w} input")
    return ho, wo


def _windows(ext: np.ndarray, size: int, step: int, n_y: int, n_x: int) -> np.ndarray:
    """(N, C, size, size, n_y, n_x) view of C-contiguous N-C-H-W ext's windows at stride step."""
    return np.ndarray((*ext.shape[:2], size, size, n_y, n_x), ext.dtype, buffer=ext, offset=0,
                      strides=(*ext.strides, step * ext.strides[2], step * ext.strides[3]))


def spatial_conv(
    fmap: FeatureMap,
    kernels: KernelBank,
    spec: ConvSpec,
) -> FeatureMap:
    """Direct convolution as im2col and one float64 GEMM (Chellapilla et al. 2006).

    The r x r windows of the padded map are copied once into a float64 patch matrix
    (N, C*r^2, H_out*W_out), rows ordered (c, u, v), which the (K, C*r^2) kernel matrix
    multiplies.  Keeps the map's dtype.  Raises ValueError unless the map is integer or float
    and the kernels integer, float or bool (by dtype.kind), and for an integer map with float
    kernels, which would truncate, or with a sum not exact in float64 or its dtype.
    """
    n, c, h, w, k, r = _layer_dims(fmap, kernels)
    for what, kinds, data in (("feature map", "iuf", fmap.data),
                              ("kernel bank", "biuf", kernels.data)):
        if data.dtype.kind not in kinds:
            raise ValueError(f"{what} must be {'real' if data.dtype.kind == 'c' else 'numeric'}, "
                             f"got {data.dtype}")
    if kernels.data.dtype.kind == "f":
        require_floating("feature map", fmap.data)
    h_out, w_out = output_hw(h, w, r, spec.pad)
    padded = np.zeros((n, c, h + 2 * spec.pad, w + 2 * spec.pad), fmap.data.dtype)
    padded[:, :, spec.pad : spec.pad + h, spec.pad : spec.pad + w] = fmap.data
    cols = np.empty((n, c * r * r, h_out * w_out), np.float64)
    cols.reshape(n, c, r, r, h_out, w_out)[...] = _windows(padded, r, 1, h_out, w_out)
    g = kernels.data.reshape(k, c * r * r).astype(np.float64)
    out64 = (g @ cols).reshape(n, k, h_out, w_out)
    if fmap.data.dtype.kind in "iu":
        # out64 is exact while sum |d|*|g| stays below 2^53; then check it fits the dtype
        info = np.iinfo(fmap.data.dtype)
        bound = (np.abs(g) @ np.abs(cols)).max()
        if bound > 2**53 - 1 or out64.min() < info.min or out64.max() > info.max:
            raise ValueError(f"integer sums leave the exact range of {fmap.data.dtype}")
    return FeatureMap(out64.astype(fmap.data.dtype, copy=False))


def require_floating(what: str, data: np.ndarray) -> None:
    """Reject integer data: casting the fractional transforms to it would truncate them."""
    if data.dtype.kind != "f":
        raise ValueError(f"{what} must be floating point, got {data.dtype}")


def _filter_transforms(kernels: KernelBank, ts: TransformSet, like: np.dtype | None) -> np.ndarray:
    """G g G^T of every (k, c) kernel slice as channel-major (C, alpha^2, K), kron(G, G) @
    [r^2 x K] for each channel as one stacked matmul, in the kernels' dtype or like's if wider."""
    (k, c, r, _), alpha = kernels.data.shape, ts.params.alpha
    if r != ts.params.r:
        raise ValueError(f"kernel size {r} does not match transform set r={ts.params.r}")
    require_floating("kernel bank", kernels.data)
    dtype = kernels.data.dtype if like is None else np.promote_types(like, kernels.data.dtype)
    # Cast before the transposed view: GEMM rounding depends on the operands' layout.
    g = kernels.data.astype(dtype, copy=False).transpose(1, 2, 3, 0).reshape(c, r * r, k)
    # Channels padded by 16 elements: a channel stride of a multiple of 4 KiB (as at
    # alpha^2 * K = 16 * 512) puts the rows winograd_conv's GEMM reads in one cache set.
    v = np.empty((c, alpha * alpha * k + 16), dtype)[:, : alpha * alpha * k].reshape(c, -1, k)
    np.matmul(ts.kron_g.astype(dtype), g, out=v)
    return v


def precompute_filter_transforms(kernels: KernelBank, ts: TransformSet) -> np.ndarray:
    """G g G^T of every (k, c) kernel slice in the kernels' dtype: a (K, C, alpha, alpha)
    view of channel-major (C, alpha^2, K) storage, the layout the front end uses."""
    (k, c, _, _), alpha = kernels.data.shape, ts.params.alpha
    return _filter_transforms(kernels, ts, None).reshape(c, alpha, alpha, k).transpose(3, 0, 1, 2)


def transformed_operands(
    fmap: FeatureMap, kernels: KernelBank, spec: ConvSpec, ts: TransformSet
) -> tuple[np.ndarray, np.ndarray, tuple[int, int], tuple[int, int]]:
    """The Winograd front end: check the operands, tile the padded map, transform both sides.

    Returns (U, V, (Ty, Tx), (H_out, W_out)), both in the map's dtype: U is the data
    transform B^T d B of every alpha x alpha tile at stride m as (alpha^2, C, N*Ty*Tx),
    tiles ordered (image, tile row, tile column); V is the filter transforms as
    (C, alpha^2, K), computed in the wider of the map's and the kernels' dtype.  The
    padded map is zero-extended so that partial edge tiles are full size.
    """
    n, c, h, w, _, r = _layer_dims(fmap, kernels)
    require_floating("feature map", fmap.data)
    m, alpha, pad, dtype = ts.params.m, ts.params.alpha, spec.pad, fmap.data.dtype
    h_out, w_out = output_hw(h, w, r, pad)
    v = _filter_transforms(kernels, ts, dtype).astype(dtype, copy=False)
    ty, tx = tile_grid(h_out, w_out, m)
    ext = np.zeros((n, c, ty * m + r - 1, tx * m + r - 1), dtype=dtype)
    ext[:, :, pad : pad + h, pad : pad + w] = fmap.data
    # Row-major flattened tiles, one column each: vec(B^T d B) = kron(B^T, B^T) vec(d).
    d = _windows(ext, alpha, m, ty, tx).transpose(2, 3, 1, 0, 4, 5).reshape(alpha * alpha, -1)
    u = (ts.kron_bt.astype(dtype) @ d).reshape(alpha * alpha, c, n * ty * tx)
    return u, v, (ty, tx), (h_out, w_out)


def untile(y: np.ndarray, h_out: int, w_out: int) -> FeatureMap:
    """(N, K, Ty, m, Tx, m) output tiles as the contiguous N-K-H_out-W_out map."""
    n, k, ty, m, tx, _ = y.shape
    return FeatureMap(np.ascontiguousarray(y.reshape(n, k, ty * m, tx * m)[:, :, :h_out, :w_out]))


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
    m, alpha = ts.params.m, ts.params.alpha
    u, v, (ty, tx), (h_out, w_out) = transformed_operands(fmap, kernels, spec, ts)
    (n, c), k, dtype = fmap.data.shape[:2], kernels.data.shape[0], fmap.data.dtype
    kt = k * n * ty * tx
    prod = np.matmul(v.transpose(1, 2, 0), u).reshape(alpha, alpha, kt)  # summed over C
    if counter is not None:
        counter.add(prod.size * c)
    # A^T M A as two 1-D passes, Z = A^T M over xi then Z A over nu with the output column
    # innermost for untile, on blocks of Z of 2^16 elements that stay in cache in between.
    at = ts.at.astype(dtype)
    y = np.empty((m, kt, m), dtype)
    step = max(1, 2**16 // (alpha * m))
    for t in range(0, kt, step):
        z = np.matmul(at, prod[:, :, t : t + step].transpose(1, 0, 2))  # (nu, i, columns)
        np.matmul(z.transpose(1, 2, 0), at.T, out=y[:, t : t + step])
    return untile(y.reshape(m, k, n, ty, tx, m).transpose(2, 1, 3, 0, 4, 5), h_out, w_out)
