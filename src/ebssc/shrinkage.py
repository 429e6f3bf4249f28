"""Asymmetric two-sided shrinkage and the concatenated rectifier split.

The shrink operator with threshold pair (beta_plus, beta_minus) is

    shrink(v) = v - beta_plus   where v - beta_plus > 0
              = v + beta_minus  where v + beta_minus < 0
              = 0               otherwise,

i.e. a dead zone [-beta_minus, beta_plus] whose ends are pulled to zero.
The pair is *proper* when -beta_minus <= beta_plus elementwise, which makes
the operator single-valued and monotone. Special cases:

* symmetric soft threshold at level b:   (beta_plus, beta_minus) = (b, b)
* one-sided rectifier (ReLU):            (beta_plus, beta_minus) = (0, +inf):
  the dead zone extends to -inf, so the negative branch never fires.

Equivalently, for finite pairs, shrink(v) = relu(v - beta_plus)
- relu(-(v + beta_minus)) — two rectifiers back to back.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ImproperThresholdError

__all__ = ["ThresholdPair", "branch_code", "shrink", "crelu_split"]


@dataclass(frozen=True)
class ThresholdPair:
    """Upper/lower shrinkage thresholds, broadcastable against the input.

    `beta_plus` gates the positive branch (active where v > beta_plus) and
    `beta_minus` the negative branch (active where v < -beta_minus). Entries
    may be scalars, per-channel (K, 1, 1) arrays, or full per-location maps.
    A pair is proper by construction: one that ``proper`` refuses raises
    ImproperThresholdError.
    """

    beta_plus: np.ndarray
    beta_minus: np.ndarray

    def __post_init__(self):
        bp = np.asarray(self.beta_plus)
        bm = np.asarray(self.beta_minus)
        object.__setattr__(self, "beta_plus", bp)
        object.__setattr__(self, "beta_minus", bm)
        if not self.proper(bp, bm):
            raise ImproperThresholdError("threshold pair holds NaN or "
                                         "violates -beta_minus <= beta_plus")

    @classmethod
    def symmetric(cls, beta):
        """The standard soft threshold at level beta (dead zone [-beta, beta])."""
        return cls(np.asarray(beta), np.asarray(beta))

    @classmethod
    def rectifier(cls):
        """The ReLU limit: zero upper threshold, and a +inf lower one that
        disables the negative branch."""
        return cls(np.asarray(0.0), np.asarray(np.inf))

    @staticmethod
    def proper(beta_plus, beta_minus):
        """The properness rule over broadcast arrays: -beta_minus <=
        beta_plus everywhere, as beta_plus + beta_minus >= 0.  A rounded
        sum keeps the exact sum's sign, and NaN and inf - inf compare
        false, so this refuses NaN and a -inf beta_plus or beta_minus; a
        +inf beta_minus disables the negative arm."""
        with np.errstate(over="ignore", invalid="ignore"):
            return bool(np.all(beta_plus + beta_minus >= 0))


def branch_code(v, beta_plus, beta_minus, c_plus=None, c_minus=None):
    """Per-coefficient maximizer z_tilde of v·z - P(z) + c+·z+ + c-·z-
    before projection: the one branch rule behind ``shrink``, the coder
    and the network ops.  Thresholds and bonuses are cast to v's dtype.

    Without bonuses and with a proper pair at most one arm is active, so
    z_tilde = v - clip(v, -beta_minus, beta_plus), the dead zone's
    distance, with no arm choice and no buffer beyond the one clip
    allocates; callers pass a proper pair (an improper one would need
    both arms).  A +inf beta_minus disables the negative arm with no special
    case: z_tilde = max(v - beta_plus, 0).  Bonuses can make both arms
    active, and then the larger one wins.  Either way sign(z_tilde) flags
    the active arm, which is all a subgradient needs.  NaN entries of v
    propagate into z_tilde.
    """
    v = np.asarray(v)
    bp = np.asarray(beta_plus, dtype=v.dtype)
    bm = np.asarray(beta_minus, dtype=v.dtype)
    if c_plus is None and c_minus is None:
        # clip as max-then-min into one buffer: np.clip itself runs several
        # times slower against broadcast bounds.
        z = np.empty(np.broadcast_shapes(v.shape, bp.shape, bm.shape),
                     dtype=v.dtype)
        np.maximum(v, -bm, out=z)
        np.minimum(z, bp, out=z)
        return np.subtract(v, z, out=z)
    pos = v - bp
    if c_plus is not None:
        pos = pos + np.asarray(c_plus, dtype=v.dtype)
    neg = v + bm
    if c_minus is not None:
        neg = neg + np.asarray(c_minus, dtype=v.dtype)
    pos, neg = np.asarray(pos), np.asarray(neg)
    np.maximum(pos, 0, out=pos)
    np.minimum(neg, 0, out=neg)
    # Ties and NaN take the positive arm, so NaN survives the choice.
    return np.where(pos < -neg, neg, pos)


def shrink(v, pair):
    """Apply two-sided shrinkage elementwise with a ThresholdPair, which
    is proper by construction; NaN entries of v stay NaN."""
    return branch_code(v, pair.beta_plus, pair.beta_minus)


def crelu_split(v, axis=-3):
    """Concatenate positive and negative parts along the channel axis.

    Returns [max(v, 0); min(v, 0)], doubling the channel count. The two
    halves have disjoint support and sum back to `v` exactly.
    """
    v = np.asarray(v)
    return np.concatenate([np.maximum(v, 0), np.minimum(v, 0)], axis=axis)
