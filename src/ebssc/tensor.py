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

All three convolution kernels share one channels-first column layout, so
each is a GEMM per map with no window copy and no axis move.  ``_im2col``
lays a map out as ``(..., C*kh*kw, Ho*Wo)`` columns, rows in (channel, dy,
dx) order to match ``bank.reshape(K, -1)``, filled by kh*kw slice copies
from the zero-padded map.  Correlation is ``W @ cols``, which is already
``(..., K, Ho*Wo)``; the bank gradient is ``g @ cols.T`` summed over the
leading axes; reconstruction is ``W.T @ z`` followed by kh*kw slice-adds.

``max_pool`` takes a running maximum over the window*window strided views
of the -inf-padded map, and its switches are int32 row-major offsets
within each window, ties going to the first cell.  The two pooling
inverses turn the switches into flat indices into the padded map inside
each call: ``switch_gather`` reads the recorded cells with one
``take_along_axis``, and ``max_unpool`` routes values back with one
``bincount`` scatter, which sums the routes of overlapping windows.  For
fixed switches both are linear in their map and adjoint to each other.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ShapeError

__all__ = [
    "cross_correlate",
    "reconstruct",
    "correlate_bank_grad",
    "max_pool",
    "max_unpool",
    "switch_gather",
    "pool_output_size",
    "inner",
    "l1_norm",
    "l2_norm",
    "sq_norms",
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
    h, w = x.shape[-2], x.shape[-1]
    xp = np.full(x.shape[:-2] + (h + 2 * pad, w + 2 * pad), value,
                 dtype=x.dtype)
    xp[..., pad:pad + h, pad:pad + w] = x
    return xp


def _im2col(x, kh, kw, pad):
    """Return (cols, (Ho, Wo)) with cols of shape (..., C*kh*kw, Ho*Wo).

    Row order is (channel, dy, dx), matching ``bank.reshape(K, -1)``.
    """
    xp = _pad_hw(x, pad)
    h, w = xp.shape[-2], xp.shape[-1]
    if h < kh or w < kw:
        raise ShapeError("kernel larger than padded input", (kh, kw), (h, w))
    ho, wo = h - kh + 1, w - kw + 1
    cols = np.empty(xp.shape[:-2] + (kh, kw, ho, wo), dtype=xp.dtype)
    for u in range(kh):
        for v in range(kw):
            cols[..., u, v, :, :] = xp[..., u:u + ho, v:v + wo]
    rows = xp.shape[-3] * kh * kw
    return cols.reshape(xp.shape[:-3] + (rows, ho * wo)), (ho, wo)


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
    out = bank.reshape(k, -1) @ cols  # (..., K, Ho*Wo)
    return out.reshape(x.shape[:-3] + (k, ho, wo))


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
    cols = bank.reshape(k, -1).T @ z.reshape(lead + (k, hz * wz))
    cols = cols.reshape(lead + (c, kh, kw, hz, wz))
    out_p = np.zeros(lead + (c, hz + kh - 1, wz + kw - 1), dtype=cols.dtype)
    for u in range(kh):
        for v in range(kw):
            out_p[..., u:u + hz, v:v + wz] += cols[..., u, v, :, :]
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
    grad = gf @ np.swapaxes(cols, -1, -2)  # (..., K, C*kh*kw)
    if grad.ndim > 2:
        grad = grad.sum(axis=tuple(range(grad.ndim - 2)))
    return grad.reshape(k, x.shape[-3], kh, kw)


def pool_output_size(size, window, stride, pad):
    """floor((size + 2*pad - window) / stride) + 1.  Raises ValueError
    unless window and stride are positive and 0 <= pad < window."""
    if window < 1 or stride < 1:
        raise ValueError(f"window/stride must be positive, got {window}/{stride}")
    if not 0 <= pad < window:
        raise ValueError(f"pool padding must satisfy 0 <= pad < window, got {pad}")
    return (size + 2 * pad - window) // stride + 1


def max_pool(x, window, stride=None, pad=0, return_switches=False):
    """Max pooling with -inf padding, so padded cells never win.

    When `return_switches` is set, also returns the within-window argmax
    offsets (ties broken toward the first cell, scan order row-major), which
    `max_unpool` uses to route values or gradients back.
    """
    x = _require_map(x)
    stride = window if stride is None else stride
    ho = pool_output_size(x.shape[-2], window, stride, pad)
    wo = pool_output_size(x.shape[-1], window, stride, pad)
    if ho < 1 or wo < 1:
        raise ShapeError("pool window larger than padded input",
                         (window, window), x.shape[-2:])
    xp = _pad_hw(x, pad, value=-np.inf)
    span_h, span_w = (ho - 1) * stride + 1, (wo - 1) * stride + 1
    # views[off] holds every window's cell at row-major offset `off`.
    views = [xp[..., u:u + span_h:stride, v:v + span_w:stride]
             for u in range(window) for v in range(window)]
    out = views[0].copy()
    for view in views[1:]:
        np.maximum(out, view, out=out)
    if not return_switches:
        return out
    switches = np.zeros(out.shape, dtype=np.int32)
    # Last offset first, so a tie ends on the first cell.
    for off in range(len(views) - 1, -1, -1):
        np.copyto(switches, off, where=views[off] == out)
    return out, switches


def _routes(switches, hw, window, stride, pad):
    """Flat index, into one (H + 2*pad) x (W + 2*pad) padded map, of the
    cell each switch recorded.  Raises ShapeError when an H x W map does
    not pool to the switches' size."""
    ho, wo = switches.shape[-2], switches.shape[-1]
    pooled = tuple(pool_output_size(n, window, stride, pad) for n in hw)
    if pooled != (ho, wo):
        raise ShapeError("map size does not pool to the switches' size",
                         tuple(hw), (ho, wo))
    wp = hw[1] + 2 * pad
    offsets = np.array([u * wp + v for u in range(window)
                        for v in range(window)], dtype=np.intp)
    routes = offsets[switches]
    routes += stride * (np.arange(ho, dtype=np.intp)[:, None] * wp
                        + np.arange(wo, dtype=np.intp))
    return routes


def max_unpool(values, switches, window, stride, pad, out_hw):
    """Scatter `values` back to the argmax positions recorded in `switches`.

    Linear adjoint of `max_pool` once the switches are fixed; also the
    unpooling step of deconvolutional decoding.  Values routed to one cell
    by overlapping windows add up.  The leading axes of `values` and
    `switches` broadcast as numpy broadcasts them, aligned from the right,
    so a (C, h, w) pattern un-pools through (B, Y, C, h, w) switches.
    """
    values = _require_map(values, "pooled map")
    if values.shape[-2:] != switches.shape[-2:]:
        raise ShapeError("pooled map and switches differ in size",
                         values.shape, switches.shape)
    h, w = out_hw
    routes = _routes(switches, (h, w), window, stride, pad)
    lead = np.broadcast_shapes(values.shape[:-2], switches.shape[:-2])
    cells = (h + 2 * pad) * (w + 2 * pad)
    maps = math.prod(lead)
    # Offset each map's routes into its own block of the flat output.
    routes = routes + (np.arange(maps, dtype=np.intp) * cells).reshape(
        lead + (1, 1))
    weights = np.broadcast_to(values, routes.shape)
    out_p = np.bincount(routes.ravel(), weights=weights.ravel(),
                        minlength=maps * cells)
    out_p = out_p.astype(values.dtype, copy=False).reshape(
        lead + (h + 2 * pad, w + 2 * pad))
    if pad == 0:
        return out_p
    return np.ascontiguousarray(out_p[..., pad:pad + h, pad:pad + w])


def switch_gather(x, switches, window, stride, pad):
    """Pool `x` by reading the cell each switch recorded rather than
    recomputing an argmax.

    Linear in `x` and the exact adjoint of `max_unpool` for the same
    switches; used to keep pooling decisions frozen while codes change
    during unrolled inference. `x` and `switches` have equal rank, and
    their leading axes broadcast (e.g. per-class codes against switches
    with a singleton class axis); raises ShapeError when the ranks differ.
    """
    x = _require_map(x)
    if x.ndim != switches.ndim:
        raise ShapeError("map and switches differ in rank", x.shape,
                         switches.shape)
    routes = _routes(switches, x.shape[-2:], window, stride, pad)
    xp = _pad_hw(x, pad)
    flat = xp.reshape(xp.shape[:-2] + (-1,))
    out = np.take_along_axis(flat, routes.reshape(routes.shape[:-2] + (-1,)),
                             axis=-1)
    return out.reshape(out.shape[:-1] + switches.shape[-2:])


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
    """Euclidean norm of the flattened array, accumulated in float64 by
    the reduction that the coder's projection uses (``sq_norms``), so a
    map divided by its l2_norm is bitwise that projection's code."""
    return float(np.sqrt(sq_norms(np.reshape(a, (1, 1, -1)))))


def sq_norms(t):
    """Squared l2 norm of each trailing (C, H, W) map, accumulated in
    float64.  A float64 map is summed as one contiguous row by numpy's
    pairwise sum, whose result for a map does not depend on the leading
    axes; ``einsum``'s does, past 8192 coefficients, so batch-1 codes
    would differ from batched ones in the last bit.  Other dtypes keep the
    ``einsum`` reduction, which needs no float64 copy of the map."""
    if t.dtype == np.float64:
        return np.sum(np.square(t.reshape(t.shape[:-3] + (-1,))), axis=-1)
    return np.einsum("...chw,...chw->...", t, t, dtype=np.float64)
