"""Closed-form spherical sparse coding.

The coding problem maximizes, over codes z in the unit L2 ball,

    <x, sum_k d_k * z_k> - P(z),

where P is an asymmetric L1 penalty with per-coefficient thresholds
(beta_plus, beta_minus).  Writing v = cross-correlation of x with the bank,
the objective separates per coefficient up to the shared ball constraint,
and the maximizer has a two-step closed form:

    z_tilde = shrink(v; beta_plus, beta_minus)
    z_star  = z_tilde / ||z_tilde||_2      (zero when z_tilde = 0)

with ball multiplier lambda_star = ||z_tilde||_2 / 2 and optimal value
||z_tilde||_2.  Class-conditional coding swaps in thresholds built from
per-class arm widths and a shared channel offset (``ClassBiasParams``).

This module holds the one coding step the networks run: the threshold
rule ``arm_thresholds`` is what ``network.forward`` calls for every
coding block, and the single-map encoders shrink with the branch rule
behind ``Ops.branch_code`` (``shrinkage.branch_code``) and project with
``Ops.normalize``, so a one-block network's code is bitwise the
encoder's.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import shrinkage, tensor
from .shrinkage import ThresholdPair
from .tape import Ops

__all__ = ["ClassBiasParams", "CodeResult", "UnitScaleResult",
           "arm_thresholds", "class_thresholds", "ssc_encode",
           "ebssc_encode", "unit_scale_to_lsq"]


@dataclass(frozen=True)
class ClassBiasParams:
    """Per-class non-negative arm widths plus a shared channel offset.

    w_hat_plus / w_hat_minus have shape (Y, K) for weights tied across
    locations, or (Y, K, H, W) for full spatial maps.  offset has shape
    (K,) and is shared by every class; it shifts the dead zone without
    changing its width, so properness of the induced thresholds holds for
    any real offset as long as the arm widths stay non-negative.
    """

    w_hat_plus: np.ndarray
    w_hat_minus: np.ndarray
    offset: np.ndarray

    def __post_init__(self):
        wp = np.asarray(self.w_hat_plus)
        wm = np.asarray(self.w_hat_minus)
        b = np.asarray(self.offset)
        if wp.shape != wm.shape:
            raise ValueError(
                f"arm width shapes differ: {wp.shape} vs {wm.shape}")
        if wp.ndim not in (2, 4):
            raise ValueError(
                f"arm widths must be (Y, K) or (Y, K, H, W), got {wp.shape}")
        if b.ndim != 1 or b.shape[0] != wp.shape[1]:
            raise ValueError(
                f"offset must be (K,) with K={wp.shape[1]}, got {b.shape}")
        if not (np.all(np.isfinite(wp)) and np.all(np.isfinite(wm))
                and np.all(np.isfinite(b))):
            raise ValueError("class bias parameters must be finite")
        if np.any(wp < 0) or np.any(wm < 0):
            raise ValueError("arm widths must be non-negative")


def arm_thresholds(ops, w_plus, w_minus, offset):
    """(beta_plus, beta_minus) = (w_plus + offset, w_minus - offset),
    broadcastable against a correlation map.  Per-channel arm widths,
    (K,) or (Y, K), gain two trailing singleton axes; spatial arm maps,
    (K, H, W) or (Y, K, H, W), are used as they are.  The offset is (K,).
    Written against ``ops``, so a taped forward pass differentiates it."""
    arms = np.shape(ops.value(w_plus))
    if len(arms) <= 2:
        w_plus = ops.reshape(w_plus, arms + (1, 1))
        w_minus = ops.reshape(w_minus, arms + (1, 1))
    offset = ops.reshape(offset, np.shape(ops.value(offset)) + (1, 1))
    return ops.add(w_plus, offset), ops.sub(w_minus, offset)


def class_thresholds(params):
    """Every class's thresholds in one pair,

    beta_plus[y] = w_hat_plus[y] + offset,
    beta_minus[y] = w_hat_minus[y] - offset,

    of shape (Y, K, 1, 1) for tied arms or (Y, K, H, W) for arm maps: the
    class axis sits at -4, as in ``network.forward``.
    """
    return ThresholdPair(*arm_thresholds(
        Ops(), np.asarray(params.w_hat_plus),
        np.asarray(params.w_hat_minus), np.asarray(params.offset)))


@dataclass(frozen=True)
class CodeResult:
    """Output of a closed-form coding step.  ``lambda_star`` holds one
    float64 entry per leading index of the code, as ``Ops.normalize``
    returns the norm: a float64 scalar for one (K, H, W) map."""

    code: np.ndarray
    pre_projection: np.ndarray
    lambda_star: np.ndarray

    @property
    def optimal_energy(self):
        """Value of the coding objective at the optimum: ||z_tilde||_2."""
        return 2.0 * self.lambda_star


def ssc_encode(x, bank, thresholds, pad=0):
    """Spherical sparse coding of the (..., C, H, W) input ``x``.

    ``thresholds`` may be a ThresholdPair, proper by construction, that
    broadcasts against the (..., K, Ho, Wo) correlation, or a scalar beta
    (symmetric dead zone [-beta, beta]).
    """
    if not isinstance(thresholds, ThresholdPair):
        thresholds = ThresholdPair.symmetric(float(thresholds))
    v = tensor.cross_correlate(x, bank, pad)
    z_tilde = shrinkage.branch_code(v, thresholds.beta_plus,
                                    thresholds.beta_minus)
    code, norm = Ops().normalize(z_tilde)
    return CodeResult(code=code, pre_projection=z_tilde,
                      lambda_star=0.5 * norm)


def ebssc_encode(x, bank, params, *, pad=0):
    """Class-conditional coding under every class hypothesis at once: a
    one-block ``network.forward``.  The class axis enters at -4, so a
    (C, H, W) map gives (Y, K, Ho, Wo) codes and a (B, C, H, W) batch
    gives (B, Y, K, Ho, Wo); everything else matches ``ssc_encode``."""
    return ssc_encode(np.expand_dims(x, -4), bank, class_thresholds(params),
                      pad)


@dataclass(frozen=True)
class UnitScaleResult:
    """Rescaling of a unit-sphere code to the least-squares solution."""

    scale: float
    reconstruction: np.ndarray
    degenerate: bool


def unit_scale_to_lsq(code, x, bank, beta, pad=0):
    """Map the unit-problem solution at level beta/2 to the solution of
    ||x - r||^2 + beta·||z||_1: the optimal reconstruction is eps·u with
    u = reconstruct(code) and eps = <x, u> - (beta/2)·||code||_1, clamped
    at zero (degenerate instances have the zero code as LSQ optimum).
    """
    u = tensor.reconstruct(np.asarray(code, dtype=np.float64), bank, pad)
    eps = tensor.inner(x, u) - 0.5 * float(beta) * tensor.l1_norm(code)
    if eps <= 0:
        return UnitScaleResult(scale=0.0, reconstruction=np.zeros_like(u),
                               degenerate=True)
    return UnitScaleResult(scale=eps, reconstruction=eps * u,
                           degenerate=False)
