"""Slow, obviously-correct reference implementations for the tests.

Everything here is plain quadruple loops or dense matrices so the fast
GEMM-based code in the package has an independent point of comparison.
"""

import numpy as np


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
