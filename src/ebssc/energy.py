"""Energy functions scored over codes.

All energies are accumulated in float64 regardless of the tensor dtype, so
optimality comparisons between solvers remain meaningful on float32 models.

Three views of the same objective appear here:

* ``e_code``      — reconstruction-match energy with a symmetric L1 penalty:
                    <x, sum_k d_k * z_k> - beta * ||z||_1, over the unit ball.
* ``e_class``     — linear class-compatibility score on split codes:
                    sum_k <w+_k, z+_k> + <w-_k, z-_k>.
* ``e_reparam``   — the non-negative reparameterization, with a per-channel
                    central offset b_k and arm widths w^+, w^- >= 0:
                    <x, r> - sum_k b_k·1'z_k - sum_k <w^+_k, z+_k>
                    + sum_k <w^-_k, z-_k>.

For thresholds (beta_plus, beta_minus) = (w^+ + b, w^- - b),
``e_code + e_class`` at base level beta equals ``e_reparam`` after the
substitution w^+ = (beta - w_plus) - b, w^- = (beta + w_minus) + b; the
identity is exercised to 1e-10 in the acceptance tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor

__all__ = ["EnergyBreakdown", "e_code", "e_class", "e_reparam",
           "lsq_objective"]

UNIT_BALL_SLACK = 1e-6


@dataclass(frozen=True)
class EnergyBreakdown:
    """Per-hypothesis energy report: e_total = e_code + e_class exactly."""

    e_code: float
    e_class: float
    e_total: float
    l1_of_code: float
    recon_inner: float


def _check_unit_ball(z):
    n = tensor.l2_norm(z)
    if n > 1.0 + UNIT_BALL_SLACK:
        raise ValueError(f"code lies outside the unit ball: ||z||_2 = {n:.8f}")


def _as_map(w, name):
    """Lift per-channel (K,) weights to (K, 1, 1); pass maps through."""
    w = np.asarray(w)
    if w.ndim == 1:
        return w[:, None, None]
    if w.ndim == 3:
        return w
    raise ValueError(f"{name} must be (K,) or (K, H, W), got shape {w.shape}")


def e_code(x, z, bank, beta, pad=0):
    """<x, reconstruct(z)> - beta * ||z||_1 for a unit-ball code."""
    _check_unit_ball(z)
    r = tensor.reconstruct(np.asarray(z, dtype=np.float64), bank, pad)
    return tensor.inner(x, r) - float(beta) * tensor.l1_norm(z)


def e_class(z, w_plus, w_minus):
    """sum_k <w+_k, z+_k> + <w-_k, z-_k> (per-channel weights broadcast
    over locations)."""
    z = np.asarray(z, dtype=np.float64)
    wp = _as_map(w_plus, "w_plus")
    wm = _as_map(w_minus, "w_minus")
    return float((wp * np.maximum(z, 0)).sum(dtype=np.float64)
                 + (wm * np.minimum(z, 0)).sum(dtype=np.float64))


def e_reparam(x, z, bank, w_hat_plus, w_hat_minus, offset, pad=0):
    """Reparameterized energy with offsets b and non-negative arm widths.

    <x, r> - sum_k b_k·(sum of z_k) - sum_k <w^+_k, z+_k> + sum_k <w^-_k, z-_k>.
    """
    _check_unit_ball(z)
    z64 = np.asarray(z, dtype=np.float64)
    r = tensor.reconstruct(z64, bank, pad)
    zp = np.maximum(z64, 0)
    zn = np.minimum(z64, 0)
    b = _as_map(offset, "offset")
    wp = _as_map(w_hat_plus, "w_hat_plus")
    wm = _as_map(w_hat_minus, "w_hat_minus")
    return float(tensor.inner(x, r)
                 - (b * z64).sum(dtype=np.float64)
                 - (wp * zp).sum(dtype=np.float64)
                 + (wm * zn).sum(dtype=np.float64))


def lsq_objective(x, z, bank, beta, pad=0):
    """||x - reconstruct(z)||_2^2 + beta * ||z||_1 (no 1/2 factor)."""
    r = tensor.reconstruct(np.asarray(z, dtype=np.float64), bank, pad)
    resid = np.asarray(x, dtype=np.float64) - r
    return float(np.dot(resid.ravel(), resid.ravel())
                 + float(beta) * tensor.l1_norm(z))

