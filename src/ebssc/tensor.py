"""Dense feature-map and filter-bank primitives.

Everything in this package moves through plain numpy arrays with a
channels-first layout:

* feature maps:  ``(..., channels, height, width)`` — any leading axes
  (batch, class hypothesis) broadcast through every operation;
* filter banks:  ``(filters, in_channels, kh, kw)``.

``cross_correlate`` and ``reconstruct`` are exact adjoints of one another
for matching padding: ``<cross_correlate(x, d), z> == <x, reconstruct(z, d)>``
up to float rounding. Correlation slides filters over the zero-padded input;
reconstruction is the corresponding transposed (true) convolution, which
superimposes one translated filter copy per active code coefficient.

Both are backed by an im2col/col2im pair so the heavy lifting is a single
GEMM; the im2col buffers are also reused for filter gradients during
training.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ShapeError

__all__ = [
    "cross_correlate",
    "reconstruct",
    "correlate_bank_grad",
    "max_pool",
    "max_unpool",
    "switch_gather",
    "avg_pool",
    "pool_output_size",
    "inner",
    "l1_norm",
    "l2_norm",
]


def _require_map(x, name="feature map"):
    x = np.asarray(x)
    if x.ndim < 3:
        raise ShapeError(f"{name} must have at least 3 dims (C, H, W)", x.shape)
    return x


def _require_bank(bank):
    bank = np.asarray(bank)
    if bank.ndim != 4:
        raise ShapeError("filter bank must be rank 4 (K, C, kh, kw)", bank.shape)
    return bank


def _pad_hw(x, pad, value=0.0):
    """Zero-pad (or constant-pad) the trailing two axes by `pad` on each side."""
    if pad == 0:
        return x
    width = [(0, 0)] * (x.ndim - 2) + [(pad, pad), (pad, pad)]
    return np.pad(x, width, mode="constant", constant_values=value)


def _im2col(x, kh, kw, pad):
    """Return (cols, (Ho, Wo)) with cols of shape (..., Ho*Wo, C*kh*kw).

    Column order is (channel, dy, dx), matching ``bank.reshape(K, -1)``.
    """
    xp = _pad_hw(x, pad)
    h, w = xp.shape[-2], xp.shape[-1]
    if h < kh or w < kw:
        raise ShapeError("kernel larger than padded input", (kh, kw), (h, w))
    win = sliding_window_view(xp, (kh, kw), axis=(-2, -1))  # (..., C, Ho, Wo, kh, kw)
    win = np.moveaxis(win, -5, -3)  # (..., Ho, Wo, C, kh, kw)
    ho, wo = win.shape[-5], win.shape[-4]
    lead = win.shape[:-5]
    cols = win.reshape(lead + (ho * wo, win.shape[-3] * kh * kw))
    return np.ascontiguousarray(cols), (ho, wo)


def cross_correlate(x, bank, pad=0):
    """Slide every filter over `x` (zero padding `pad`, stride 1).

    x: (..., C, H, W); bank: (K, C, kh, kw) -> (..., K, Ho, Wo) with
    Ho = H + 2*pad - kh + 1.
    """
    x = _require_map(x)
    bank = _require_bank(bank)
    if x.shape[-3] != bank.shape[1]:
        raise ShapeError("channel mismatch between input and bank",
                         x.shape, bank.shape)
    k, _, kh, kw = bank.shape
    cols, (ho, wo) = _im2col(x, kh, kw, pad)
    wmat = bank.reshape(k, -1)
    out = cols @ wmat.T  # (..., Ho*Wo, K)
    out = out.reshape(x.shape[:-3] + (ho, wo, k))
    return np.ascontiguousarray(np.moveaxis(out, -1, -3))


def reconstruct(z, bank, pad=0):
    """Superimpose translated filter copies: sum_k d_k * z_k (true convolution).

    Exact adjoint of :func:`cross_correlate` at the same padding.
    z: (..., K, Hz, Wz) -> (..., C, H, W) with H = Hz + kh - 1 - 2*pad.
    """
    z = _require_map(z, "code map")
    bank = _require_bank(bank)
    if z.shape[-3] != bank.shape[0]:
        raise ShapeError("code channels do not match bank size",
                         z.shape, bank.shape)
    k, c, kh, kw = bank.shape
    hz, wz = z.shape[-2], z.shape[-1]
    h_out, w_out = hz + kh - 1 - 2 * pad, wz + kw - 1 - 2 * pad
    if h_out <= 0 or w_out <= 0:
        raise ShapeError("padding exceeds reconstructed extent",
                         z.shape, (kh, kw, pad))
    lead = z.shape[:-3]
    zf = np.moveaxis(z, -3, -1).reshape(lead + (hz * wz, k))
    cols = zf @ bank.reshape(k, -1)  # (..., Hz*Wz, C*kh*kw)
    cols = cols.reshape(lead + (hz, wz, c, kh, kw))
    out_p = np.zeros(lead + (c, hz + kh - 1, wz + kw - 1), dtype=cols.dtype)
    for u in range(kh):
        for v in range(kw):
            out_p[..., :, u:u + hz, v:v + wz] += np.moveaxis(
                cols[..., u, v], -1, -3)
    if pad == 0:
        return out_p
    return np.ascontiguousarray(out_p[..., :, pad:pad + h_out, pad:pad + w_out])


def correlate_bank_grad(x, upstream, kernel_hw, pad=0):
    """Adjoint of `cross_correlate` with respect to the bank.

    Accumulates over all leading axes of `x`/`upstream`.
    x: (..., C, H, W); upstream: (..., K, Ho, Wo) -> (K, C, kh, kw).
    """
    x = _require_map(x)
    upstream = _require_map(upstream, "upstream gradient")
    kh, kw = kernel_hw
    cols, (ho, wo) = _im2col(x, kh, kw, pad)
    if upstream.shape[-2:] != (ho, wo):
        raise ShapeError("upstream spatial dims do not match correlation output",
                         upstream.shape, (ho, wo))
    k = upstream.shape[-3]
    lead = upstream.shape[:-3]
    gf = upstream.reshape(lead + (k, ho * wo))
    grad = gf @ cols  # (..., K, C*kh*kw)
    if grad.ndim > 2:
        grad = grad.sum(axis=tuple(range(grad.ndim - 2)))
    return grad.reshape(k, x.shape[-3], kh, kw)


def pool_output_size(size, window, stride, pad):
    """floor((size + 2*pad - window) / stride) + 1."""
    return (size + 2 * pad - window) // stride + 1


def _pool_windows(xp, window, stride):
    win = sliding_window_view(xp, (window, window), axis=(-2, -1))
    return win[..., ::stride, ::stride, :, :]


def _check_pool_args(window, stride, pad):
    if window < 1 or stride < 1:
        raise ValueError(f"window/stride must be positive, got {window}/{stride}")
    if not 0 <= pad < window:
        raise ValueError(f"pool padding must satisfy 0 <= pad < window, got {pad}")


def max_pool(x, window, stride=None, pad=0, return_switches=False):
    """Max pooling with -inf padding, so padded cells never win.

    When `return_switches` is set, also returns the within-window argmax
    offsets (ties broken toward the first cell, scan order row-major), which
    `max_unpool` uses to route values or gradients back.
    """
    x = _require_map(x)
    stride = window if stride is None else stride
    _check_pool_args(window, stride, pad)
    xp = _pad_hw(x, pad, value=-np.inf)
    win = _pool_windows(xp, window, stride)
    lead = win.shape[:-2]
    flat = win.reshape(lead + (window * window,))
    switches = flat.argmax(-1)
    out = np.take_along_axis(flat, switches[..., None], -1)[..., 0]
    out = np.ascontiguousarray(out)
    if return_switches:
        return out, switches.astype(np.int32)
    return out


def _align_rank(arr, target_ndim):
    """Insert singleton axes at position -4 until ranks match, so maps
    that gained a per-class or batch axis broadcast against companions
    recorded before the axis existed."""
    while arr.ndim < target_ndim:
        arr = arr.reshape(arr.shape[:-3] + (1,) + arr.shape[-3:])
    return arr


def max_unpool(values, switches, window, stride, pad, out_hw):
    """Scatter `values` back to the argmax positions recorded in `switches`.

    Linear adjoint of `max_pool` once the switches are fixed; also the
    unpooling step of deconvolutional decoding.
    """
    values = _require_map(values, "pooled map")
    switches = _align_rank(switches, values.ndim)
    values = _align_rank(values, switches.ndim)
    h, w = out_hw
    lead = np.broadcast_shapes(values.shape[:-2], switches.shape[:-2])
    out_p = np.zeros(lead + (h + 2 * pad, w + 2 * pad), dtype=values.dtype)
    ho, wo = values.shape[-2], values.shape[-1]
    for off in range(window * window):
        u, v = divmod(off, window)
        sel = (switches == off) * values
        out_p[..., u:u + (ho - 1) * stride + 1:stride,
              v:v + (wo - 1) * stride + 1:stride] += sel
    if pad == 0:
        return out_p
    return np.ascontiguousarray(out_p[..., pad:pad + h, pad:pad + w])


def switch_gather(x, switches, window, stride, pad):
    """Pool `x` by reading the cell each switch recorded rather than
    recomputing an argmax.

    Linear in `x` and the exact adjoint of `max_unpool` for the same
    switches; used to keep pooling decisions frozen while codes change
    during unrolled inference. Broadcasts over leading axes of either
    argument (e.g. per-class codes against shared switches).
    """
    x = _require_map(x)
    switches = _align_rank(switches, x.ndim)
    x = _align_rank(x, switches.ndim)
    xp = _pad_hw(x, pad)
    ho, wo = switches.shape[-2], switches.shape[-1]
    lead = np.broadcast_shapes(x.shape[:-2], switches.shape[:-2])
    out = np.zeros(lead + (ho, wo), dtype=x.dtype)
    for off in range(window * window):
        u, v = divmod(off, window)
        windowed = xp[..., u:u + (ho - 1) * stride + 1:stride,
                      v:v + (wo - 1) * stride + 1:stride]
        out += (switches == off) * windowed
    return out


def avg_pool(x, window, stride=None, pad=0):
    """Average pooling; the mean is over in-bounds cells only."""
    x = _require_map(x)
    stride = window if stride is None else stride
    _check_pool_args(window, stride, pad)
    sums = _pool_windows(_pad_hw(x, pad), window, stride).sum(axis=(-2, -1))
    ones = np.ones(x.shape[-2:], dtype=x.dtype)
    counts = _pool_windows(_pad_hw(ones, pad), window, stride).sum(axis=(-2, -1))
    return sums / counts


def inner(a, b):
    """<a, b> accumulated in float64 regardless of input dtype."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        raise ShapeError("inner product operands differ in shape", a.shape, b.shape)
    return float(np.dot(a.ravel().astype(np.float64, copy=False),
                        b.ravel().astype(np.float64, copy=False)))


def l1_norm(a):
    """Sum of absolute entries, accumulated in float64."""
    return float(np.abs(np.asarray(a)).sum(dtype=np.float64))


def l2_norm(a):
    """Euclidean norm of the flattened array, accumulated in float64."""
    v = np.asarray(a).ravel().astype(np.float64, copy=False)
    return float(np.sqrt(np.dot(v, v)))
