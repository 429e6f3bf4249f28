"""Slow, obviously-correct reference implementations for the tests.

Everything here is plain quadruple loops, dense matrices or one-buffer
byte packing, so the fast code in the package has an independent point
of comparison.
"""

import struct
import zlib

import numpy as np

from ebssc import data


def correlate_loops(x, bank, pad):
    """Valid cross-correlation of one (C, H, W) map after zero padding."""
    k, c, kh, kw = bank.shape
    xp = np.pad(x, ((0, 0), (pad, pad), (pad, pad)))
    ho, wo = xp.shape[1] - kh + 1, xp.shape[2] - kw + 1
    out = np.zeros((k, ho, wo), dtype=np.result_type(x, bank))
    for f in range(k):
        for i in range(ho):
            for j in range(wo):
                out[f, i, j] = (xp[:, i:i + kh, j:j + kw]
                                * bank[f]).sum()
    return out


def reconstruct_loops(z, bank, pad):
    """Adjoint of correlate_loops: scatter each coefficient's filter."""
    k, c, kh, kw = bank.shape
    ho, wo = z.shape[-2], z.shape[-1]
    h, w = ho + kh - 1 - 2 * pad, wo + kw - 1 - 2 * pad
    full = np.zeros((c, h + 2 * pad, w + 2 * pad),
                    dtype=np.result_type(z, bank))
    for f in range(k):
        for i in range(ho):
            for j in range(wo):
                full[:, i:i + kh, j:j + kw] += z[f, i, j] * bank[f]
    if pad == 0:
        return full
    return full[:, pad:pad + h, pad:pad + w]


def correlation_matrix(bank, in_shape, pad):
    """Dense matrix D.T such that correlate(x) = M @ x.ravel()."""
    c, h, w = in_shape
    cols = []
    for idx in range(c * h * w):
        e = np.zeros(c * h * w)
        e[idx] = 1.0
        cols.append(correlate_loops(e.reshape(in_shape), bank, pad).ravel())
    return np.stack(cols, axis=1)


def max_pool_loops(x, window, stride, pad):
    """Padded max pooling with -inf fill; first index wins ties."""
    c, h, w = x.shape
    xp = np.full((c, h + 2 * pad, w + 2 * pad), -np.inf, dtype=x.dtype)
    xp[:, pad:pad + h, pad:pad + w] = x
    ho = (h + 2 * pad - window) // stride + 1
    wo = (w + 2 * pad - window) // stride + 1
    out = np.empty((c, ho, wo), dtype=x.dtype)
    sw = np.empty((c, ho, wo), dtype=np.int32)
    for ch in range(c):
        for i in range(ho):
            for j in range(wo):
                win = xp[ch, i * stride:i * stride + window,
                         j * stride:j * stride + window]
                out[ch, i, j] = win.max()
                sw[ch, i, j] = int(win.argmax())
    return out, sw


def max_unpool_loops(values, switches, window, stride, pad, out_hw):
    """Route each pooled value to its switch's cell, one map at a time;
    routes of overlapping windows add up.  `switches` broadcasts against
    `values` over the leading axes."""
    switches = np.broadcast_to(switches, values.shape)
    h, w = out_hw
    out = np.zeros(values.shape[:-2] + (h + 2 * pad, w + 2 * pad),
                   dtype=values.dtype)
    for idx in np.ndindex(values.shape):
        *lead, i, j = idx
        u, v = divmod(int(switches[idx]), window)
        out[tuple(lead) + (i * stride + u, j * stride + v)] += values[idx]
    return out[..., pad:pad + h, pad:pad + w]


def switch_gather_loops(x, switches, window, stride, pad):
    """Read, for each switch, the cell of the zero-padded map it names.
    `switches` broadcasts against `x` over the leading axes."""
    lead = np.broadcast_shapes(x.shape[:-2], switches.shape[:-2])
    x = np.broadcast_to(x, lead + x.shape[-2:])
    switches = np.broadcast_to(switches, lead + switches.shape[-2:])
    h, w = x.shape[-2], x.shape[-1]
    out = np.zeros(switches.shape, dtype=x.dtype)
    for idx in np.ndindex(switches.shape):
        *lead_idx, i, j = idx
        u, v = divmod(int(switches[idx]), window)
        r, s = i * stride + u - pad, j * stride + v - pad
        if 0 <= r < h and 0 <= s < w:
            out[idx] = x[tuple(lead_idx) + (r, s)]
    return out


def shrink_loops(v, beta_plus, beta_minus):
    """Elementwise two-threshold shrinkage, scalar thresholds."""
    out = np.zeros_like(v)
    for idx in np.ndindex(v.shape):
        val = v[idx]
        if val > beta_plus:
            out[idx] = val - beta_plus
        elif val < -beta_minus:
            out[idx] = val + beta_minus
    return out


def render_meshgrid(points, side):
    """Pen intensity from the nearest stroke point, with the squared
    distances formed over a full (side, side) meshgrid per point."""
    grid = (np.arange(side) + 0.5) / side
    gx, gy = np.meshgrid(grid, grid, indexing="xy")
    d2 = ((gx[None] - points[:, 0, None, None]) ** 2
          + (gy[None] - points[:, 1, None, None]) ** 2)
    return np.exp(-d2.min(axis=0) / (2.0 * data._PEN_SIGMA ** 2))


def digits_arrays_per_image(n_train, n_test, seed):
    """The synthetic digit corpus rendered one image at a time: stroke
    points rebuilt from the glyph for every image, meshgrid distances."""
    rng = np.random.default_rng(seed)

    def make(count):
        labels = np.tile(np.arange(10), count // 10)
        images = np.empty((count, 28, 28), dtype=np.uint8)
        for i, lab in enumerate(labels):
            pts = data._jitter(data._stroke_points(int(lab)), rng)
            img = render_meshgrid(pts, 28) * rng.uniform(0.82, 1.0)
            img = img + rng.normal(0.0, 0.04, img.shape)
            images[i] = (np.clip(img, 0.0, 1.0) * 255).astype(np.uint8)
        order = rng.permutation(count)
        return images[order], labels[order]

    return make(n_train) + make(n_test)


TENSOR_TAGS = {np.dtype(np.float32): 0, np.dtype(np.float64): 1,
               np.dtype(np.int64): 2, np.dtype(np.uint64): 3,
               np.dtype(np.int32): 4, np.dtype(np.uint8): 5}


def pack_tensor_file(tensors, text=""):
    """The checkpoint container's bytes built in one buffer: every
    tensor copied out with ``tobytes``, all of it joined, then the CRC32
    of the whole appended."""
    parts = [struct.pack("<I", len(tensors))]
    for name in sorted(tensors):
        arr = np.asarray(tensors[name], order="C")
        nb = name.encode("utf-8")
        parts.append(struct.pack("<I", len(nb)))
        parts.append(nb)
        parts.append(struct.pack("<BB", TENSOR_TAGS[arr.dtype], arr.ndim))
        parts.append(struct.pack(f"<{arr.ndim}Q", *arr.shape))
        parts.append(arr.astype(arr.dtype.newbyteorder("<")).tobytes())
    tb = text.encode("utf-8")
    payload = b"".join([b"EBSC", struct.pack("<I", 1),
                        struct.pack("<I", len(tb)), tb, b"".join(parts)])
    return payload + struct.pack("<I", zlib.crc32(payload))
