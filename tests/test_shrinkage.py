"""Asymmetric shrinkage: threshold validation, the operator itself, and
its rewrites as rectifier combinations."""

import numpy as np
import pytest

from ebssc import ImproperThresholdError
from ebssc.shrinkage import ThresholdPair, branch_code, crelu_split, shrink

from reference import shrink_loops


class TestThresholdPair:
    """Construction and the properness rule: a pair that ``proper``
    refuses does not construct."""

    def test_symmetric(self):
        """symmetric(b) uses the same level on both branches."""
        p = ThresholdPair.symmetric(0.3)
        assert p.beta_plus == 0.3 and p.beta_minus == 0.3

    def test_rectifier(self):
        """The rectifier pair has a zero upper threshold and a +inf lower
        one, which disables the lower arm."""
        p = ThresholdPair.rectifier()
        assert p.beta_plus == 0.0
        assert np.isposinf(p.beta_minus)

    def test_proper_iff_dead_zone_nonempty(self):
        """-beta_minus <= beta_plus decides properness: a pair with an
        empty dead zone does not construct."""
        ThresholdPair(np.asarray(0.2), np.asarray(-0.1))
        with pytest.raises(ImproperThresholdError):
            ThresholdPair(np.asarray(0.2), np.asarray(-0.3))

    def test_inverted_entry_refused_at_construction(self):
        """One inverted entry among proper ones refuses the whole pair."""
        with pytest.raises(ImproperThresholdError):
            ThresholdPair(np.asarray([0.1, 0.0]), np.asarray([0.2, -0.5]))

    def test_nan_rejected(self):
        """NaN thresholds are refused at construction."""
        with pytest.raises(ImproperThresholdError):
            ThresholdPair(np.asarray(np.nan), np.asarray(0.1))

    @pytest.mark.parametrize("bp, bm, want", [
        (0.2, -0.2, True), (0.2, -0.2000001, False), (1e-300, -1e-300, True),
        (np.inf, 0.0, True), (0.0, np.inf, True), (0.0, -np.inf, False),
        (np.inf, -np.inf, False), (-np.inf, np.inf, False),
        (-np.inf, -np.inf, False), (np.nan, 0.0, False), (0.0, np.nan, False),
        (np.nan, -np.inf, False)])
    def test_proper_rule_per_entry(self, bp, bm, want):
        """ThresholdPair.proper, on one entry among proper ones: NaN and a
        -inf threshold on either side are refused, and a +inf beta_minus
        (a disabled negative arm) passes -beta_minus <= beta_plus.  The
        constructor applies the same rule."""
        bps, bms = np.full(4, 0.1), np.full(4, 0.1)
        bps[2], bms[2] = bp, bm
        assert ThresholdPair.proper(bps, bms) is want
        if want:
            ThresholdPair(bps, bms)
        else:
            with pytest.raises(ImproperThresholdError):
                ThresholdPair(bps, bms)

    def test_disabled_branch_always_proper(self):
        """A +inf beta_minus is proper at any finite beta_plus; -inf is
        not a disabled arm but an inverted pair."""
        ThresholdPair(np.asarray([0.0, 0.1]), np.asarray([np.inf, 0.2]))
        with pytest.raises(ImproperThresholdError):
            ThresholdPair(np.asarray([0.0, 0.1]),
                          np.asarray([-np.inf, 0.2]))


class TestShrink:
    """The two-sided shrinkage operator against the loop reference."""

    def test_matches_reference(self):
        """Fast shrink equals the scalar loop on random input."""
        rng = np.random.default_rng(42)
        v = rng.standard_normal((4, 9, 9))
        out = shrink(v, ThresholdPair(np.asarray(0.3), np.asarray(0.2)))
        np.testing.assert_array_equal(out, shrink_loops(v, 0.3, 0.2))

    def test_dead_zone_is_exactly_zero(self):
        """Values inside [-beta_minus, beta_plus] map to exactly 0."""
        v = np.linspace(-0.2, 0.3, 101)
        out = shrink(v, ThresholdPair(np.asarray(0.3), np.asarray(0.2)))
        assert (out == 0.0).all()

    def test_asymmetric_shift(self):
        """Active entries shift by their own branch's threshold."""
        p = ThresholdPair(np.asarray(0.4), np.asarray(0.1))
        np.testing.assert_allclose(shrink(np.asarray([1.0]), p), [0.6])
        np.testing.assert_allclose(shrink(np.asarray([-1.0]), p), [-0.9])

    def test_per_channel_thresholds_broadcast(self):
        """(K, 1, 1) thresholds act channelwise."""
        rng = np.random.default_rng(42)
        v = rng.standard_normal((3, 5, 5))
        bp = np.asarray([0.1, 0.5, 0.9])[:, None, None]
        bm = np.asarray([0.2, 0.2, 0.2])[:, None, None]
        out = shrink(v, ThresholdPair(bp, bm))
        for k in range(3):
            np.testing.assert_array_equal(
                out[k], shrink_loops(v[k], float(bp[k, 0, 0]), 0.2))

    def test_rectifier_pair_is_relu(self):
        """The rectifier pair reproduces max(v, 0) exactly."""
        rng = np.random.default_rng(42)
        v = rng.standard_normal(1000)
        out = shrink(v, ThresholdPair.rectifier())
        np.testing.assert_array_equal(out, np.maximum(v, 0))

    def test_improper_raises(self):
        """An improper pair never reaches shrink: building it raises."""
        with pytest.raises(ImproperThresholdError):
            shrink(np.zeros(3), ThresholdPair(np.asarray(-0.5),
                                              np.asarray(0.1)))

    def test_negative_thresholds_leave_no_dead_zone(self):
        """beta_plus < 0 (still proper) makes small positives active."""
        p = ThresholdPair(np.asarray(-0.1), np.asarray(0.3))
        np.testing.assert_allclose(shrink(np.asarray([0.05]), p), [0.15])


class TestFeedbackDrive:
    """branch_code's additive drive terms, the two halves of the
    split-space feedback that unrolled inference hands Ops.branch_code."""

    def test_zero_drive_is_plain_coding(self):
        """c+ = c- = 0 reproduces the drive-free branch rule bitwise."""
        rng = np.random.default_rng(42)
        v = rng.standard_normal((3, 5, 5))
        plain = branch_code(v, 0.2, 0.2)
        driven = branch_code(v, 0.2, 0.2, np.zeros_like(v), np.zeros_like(v))
        np.testing.assert_array_equal(driven, plain)

    def test_positive_drive_widens_positive_support(self):
        """A positive c+ can only grow the positive active set."""
        rng = np.random.default_rng(42)
        v = rng.standard_normal((3, 5, 5))
        plain = branch_code(v, 0.3, 0.3)
        driven = branch_code(v, 0.3, 0.3, np.full_like(v, 0.1),
                             np.zeros_like(v))
        assert ((driven > 0) | ~(plain > 0)).all()

    def test_larger_arm_wins_when_both_are_active(self):
        """Drive can make both arms active; the larger magnitude wins."""
        out = branch_code(np.zeros(2), 0.1, 0.1, np.asarray([0.5, 0.2]),
                          np.asarray([-0.2, -0.5]))
        np.testing.assert_allclose(out, [0.4, -0.4])


class TestTwoReluIdentity:
    """shrink as a difference of two rectifier passes."""

    def test_exact_on_random_input(self):
        """shrink(v) == relu(v - bp) - relu(-(v + bm)) bitwise."""
        rng = np.random.default_rng(42)
        v = rng.standard_normal(4096).astype(np.float64)
        bp, bm = 0.35, 0.15
        lhs = shrink(v, ThresholdPair(np.asarray(bp), np.asarray(bm)))
        rhs = np.maximum(v - bp, 0.0) - np.maximum(-(v + bm), 0.0)
        np.testing.assert_array_equal(lhs, rhs)

    def test_exact_in_float32(self):
        """The identity also holds bitwise in single precision."""
        rng = np.random.default_rng(42)
        v = rng.standard_normal(4096).astype(np.float32)
        bp = np.float32(0.25)
        lhs = shrink(v, ThresholdPair(np.asarray(bp), np.asarray(bp)))
        rhs = np.maximum(v - bp, np.float32(0)) \
            - np.maximum(-(v + bp), np.float32(0))
        np.testing.assert_array_equal(lhs, rhs)


class TestCreluSplit:
    """Channel-doubling split into positive and negative parts."""

    def test_halves_reassemble_exactly(self):
        """plus-half + minus-half == input, bitwise."""
        rng = np.random.default_rng(42)
        t = rng.standard_normal((4, 6, 6)).astype(np.float32)
        halves = crelu_split(t)
        assert halves.shape == (8, 6, 6)
        np.testing.assert_array_equal(halves[:4] + halves[4:], t)

    def test_halves_have_disjoint_support(self):
        """No coefficient is active in both halves."""
        rng = np.random.default_rng(42)
        t = rng.standard_normal((2, 8, 8))
        halves = crelu_split(t)
        assert not ((halves[:2] != 0) & (halves[2:] != 0)).any()

    def test_batched_split_axis(self):
        """The split doubles the channel axis, not the batch axis."""
        rng = np.random.default_rng(42)
        t = rng.standard_normal((5, 3, 4, 4))
        assert crelu_split(t).shape == (5, 6, 4, 4)
