"""Closed-form coding: sphere identities, class-conditional thresholds,
agreement with the network's coding blocks, and the rescaling bridge to
the least-squares solution."""

import numpy as np
import pytest

from ebssc import tensor
from ebssc.coder import ClassBiasParams, class_thresholds, ebssc_encode, \
    ssc_encode, unit_scale_to_lsq
from ebssc.network import BlockSpec, NetworkSpec, build, forward
from ebssc.shrinkage import ThresholdPair, shrink


def _random_instance(rng, c=2, hw=7, k=3, ksz=3):
    x = rng.standard_normal((c, hw, hw))
    bank = rng.standard_normal((k, c, ksz, ksz))
    return x, bank


class TestSphereIdentities:
    """Properties of the closed-form unit-sphere code."""

    def test_code_norm_is_zero_or_one(self):
        """||z*|| is exactly 0 (dead input) or 1 (anything else)."""
        rng = np.random.default_rng(42)
        for _ in range(50):
            x, bank = _random_instance(rng)
            res = ssc_encode(x, bank, rng.uniform(0.05, 0.5))
            n = tensor.l2_norm(res.code)
            assert n == 0.0 or abs(n - 1.0) <= 1e-8

    def test_lambda_is_half_preprojection_norm(self):
        """The sphere multiplier equals half the shrunken norm."""
        rng = np.random.default_rng(42)
        for _ in range(50):
            x, bank = _random_instance(rng)
            res = ssc_encode(x, bank, 0.2)
            np.testing.assert_allclose(
                res.lambda_star, 0.5 * tensor.l2_norm(res.pre_projection),
                atol=1e-12)

    def test_signs_survive_projection(self):
        """Projection rescales but never flips a coefficient."""
        rng = np.random.default_rng(42)
        x, bank = _random_instance(rng)
        res = ssc_encode(x, bank, 0.1)
        np.testing.assert_array_equal(np.sign(res.code),
                                      np.sign(res.pre_projection))

    def test_zero_input_gives_zero_code(self):
        """All-dead shrinkage yields the zero code, not NaN."""
        bank = np.random.default_rng(42).standard_normal((3, 2, 3, 3))
        res = ssc_encode(np.zeros((2, 6, 6)), bank, 0.5)
        assert (res.code == 0).all()
        assert res.lambda_star == 0.0

    def test_optimal_energy_is_shrunken_norm(self):
        """The attained objective value is ||z_tilde||_2 = 2 lambda*."""
        rng = np.random.default_rng(42)
        x, bank = _random_instance(rng)
        res = ssc_encode(x, bank, 0.3)
        np.testing.assert_allclose(res.optimal_energy,
                                   tensor.l2_norm(res.pre_projection),
                                   rtol=1e-12)

    def test_encode_is_shrink_then_normalize(self):
        """ssc_encode composes correlate, shrink, and projection."""
        rng = np.random.default_rng(42)
        x, bank = _random_instance(rng)
        pair = ThresholdPair.symmetric(0.25)
        v = tensor.cross_correlate(x, bank, 0)
        zt = shrink(v, pair)
        res = ssc_encode(x, bank, pair)
        np.testing.assert_array_equal(res.pre_projection, zt)
        np.testing.assert_allclose(res.code, zt / tensor.l2_norm(zt),
                                   rtol=1e-12)


class TestClassBiasParams:
    """Validation and classwise threshold assembly."""

    def test_shapes_must_agree(self):
        """Mismatched arm shapes are rejected."""
        with pytest.raises(ValueError):
            ClassBiasParams(np.zeros((2, 3)), np.zeros((2, 4)), np.zeros(3))

    def test_offset_length_must_match_channels(self):
        """The shared offset is per-channel."""
        with pytest.raises(ValueError):
            ClassBiasParams(np.zeros((2, 3)), np.zeros((2, 3)), np.zeros(4))

    def test_tied_and_map_ranks(self):
        """(Y, K) arms are tied, per-channel (Y, K, 1, 1) thresholds;
        (Y, K, H, W) arms are spatial maps, kept whole."""
        tied = ClassBiasParams(np.zeros((2, 3)), np.zeros((2, 3)),
                               np.zeros(3))
        maps = ClassBiasParams(np.zeros((2, 3, 4, 4)),
                               np.zeros((2, 3, 4, 4)), np.zeros(3))
        for params, shape in ((tied, (2, 3, 1, 1)), (maps, (2, 3, 4, 4))):
            pair = class_thresholds(params)
            assert pair.beta_plus.shape == pair.beta_minus.shape == shape

    def test_class_thresholds_formula(self):
        """beta+[y] = w+[y] + b and beta-[y] = w-[y] - b, channelwise, for
        every class y at once."""
        rng = np.random.default_rng(42)
        params = ClassBiasParams(rng.uniform(0, 0.3, (4, 3)),
                                 rng.uniform(0, 0.3, (4, 3)),
                                 rng.uniform(-0.1, 0.1, 3))
        pair = class_thresholds(params)
        np.testing.assert_allclose(
            pair.beta_plus[..., 0, 0],
            np.asarray(params.w_hat_plus) + params.offset)
        np.testing.assert_allclose(
            pair.beta_minus[..., 0, 0],
            np.asarray(params.w_hat_minus) - params.offset)

    def test_spatial_maps_keep_their_grid(self):
        """Map-shaped arms produce full (Y, K, H, W) thresholds."""
        rng = np.random.default_rng(42)
        params = ClassBiasParams(rng.uniform(0, 0.3, (2, 3, 5, 5)),
                                 rng.uniform(0, 0.3, (2, 3, 5, 5)),
                                 rng.uniform(-0.1, 0.1, 3))
        pair = class_thresholds(params)
        assert pair.beta_plus.shape == (2, 3, 5, 5)
        np.testing.assert_allclose(
            pair.beta_plus,
            np.asarray(params.w_hat_plus)
            + np.asarray(params.offset)[:, None, None])

    def test_nonneg_arms_always_yield_proper_pairs(self):
        """Any offset keeps -beta_minus <= beta_plus when arms are >= 0:
        the ThresholdPair over every class constructs, which raises
        ImproperThresholdError on an improper pair."""
        rng = np.random.default_rng(42)
        for _ in range(100):
            params = ClassBiasParams(rng.uniform(0, 1, (3, 4)),
                                     rng.uniform(0, 1, (3, 4)),
                                     rng.uniform(-5, 5, 4))
            class_thresholds(params)


class TestEbsscEncode:
    """Class-conditional coding against its manual composition."""

    def test_matches_manual_thresholds(self):
        """Class y's slice of ebssc_encode is bitwise ssc_encode with class
        y's pair: code, shrunk code and multiplier."""
        rng = np.random.default_rng(42)
        x, bank = _random_instance(rng)
        params = ClassBiasParams(rng.uniform(0, 0.3, (4, 3)),
                                 rng.uniform(0, 0.3, (4, 3)),
                                 rng.uniform(-0.1, 0.1, 3))
        direct = ebssc_encode(x, bank, params)
        assert direct.code.shape == (4, 3, 5, 5)
        assert direct.lambda_star.shape == (4,)
        pair = class_thresholds(params)
        for y in range(4):
            manual = ssc_encode(x, bank, ThresholdPair(pair.beta_plus[y],
                                                       pair.beta_minus[y]))
            np.testing.assert_array_equal(direct.code[y], manual.code)
            np.testing.assert_array_equal(direct.pre_projection[y],
                                          manual.pre_projection)
            assert direct.lambda_star[y] == manual.lambda_star

    def test_label_changes_the_code(self):
        """Distinct class hypotheses give distinct codes generically."""
        rng = np.random.default_rng(42)
        x, bank = _random_instance(rng)
        params = ClassBiasParams(rng.uniform(0, 0.4, (2, 3)),
                                 rng.uniform(0, 0.4, (2, 3)),
                                 rng.uniform(-0.1, 0.1, 3))
        code = ebssc_encode(x, bank, params).code
        assert not np.array_equal(code[0], code[1])

    def test_label_is_not_a_parameter(self):
        """Padding is keyword-only, so a call that still passes a label
        raises instead of coding with the label as the padding."""
        rng = np.random.default_rng(42)
        x, bank = _random_instance(rng)
        params = ClassBiasParams(np.zeros((2, 3)), np.zeros((2, 3)),
                                 np.zeros(3))
        with pytest.raises(TypeError):
            ebssc_encode(x, bank, params, 0)


class TestForwardAgreement:
    """A one-block network codes exactly as the single-map encoders do:
    bitwise, over random instances and thresholds."""

    @staticmethod
    def _one_block(rng, kind, bias_maps=False, dtype=np.float64, batch=1):
        c, hw, k, ksz, pad = 2, 9, 4, 3, 1
        block = BlockSpec(kind, (k, c, ksz, ksz), pad=pad,
                          bias_maps=bias_maps)
        head = ("energy", 0) if kind == "ebssc" else ("linear", 0)
        spec = NetworkSpec(blocks=(block,), classifier=head, num_classes=3,
                           input_shape=(c, hw, hw))
        params = build(spec, seed=int(rng.integers(1 << 30)), dtype=dtype)
        arms = params["block0.w_plus"].shape
        params["block0.w_plus"] = rng.uniform(0, 0.5, arms).astype(dtype)
        params["block0.w_minus"] = rng.uniform(0, 0.5, arms).astype(dtype)
        params["block0.offset"] = rng.uniform(-0.2, 0.2, k).astype(dtype)
        x = rng.standard_normal((batch, c, hw, hw)).astype(dtype)
        return spec, params, x, pad

    def test_ssc_encode_is_the_forward_code(self):
        """ssc_encode's code equals the ssc block's code in forward."""
        rng = np.random.default_rng(7)
        for _ in range(40):
            spec, params, x, pad = self._one_block(rng, "ssc")
            wp, wm, off = (params[f"block0.{n}"][:, None, None]
                           for n in ("w_plus", "w_minus", "offset"))
            res = ssc_encode(x[0], params["block0.bank"],
                             ThresholdPair(wp + off, wm - off), pad=pad)
            fwd = forward(params, spec, x)
            np.testing.assert_array_equal(res.code, fwd.codes[0][0])

    @pytest.mark.parametrize("bias_maps", [False, True],
                             ids=["tied", "maps"])
    def test_ebssc_encode_is_each_forward_hypothesis(self, bias_maps):
        """ebssc_encode codes every hypothesis as forward does, in float32
        and float64: a (C, H, W) map gives forward's (Y, K, H, W) codes
        and (Y,) scores for that image, and a batch gives forward's
        (B, Y, K, H, W) codes and (B, Y) scores as whole arrays."""
        rng = np.random.default_rng(11)
        for dtype in (np.float32, np.float64):
            for trial in range(20):
                batch = 1 + trial % 3
                spec, params, x, pad = self._one_block(
                    rng, "ebssc", bias_maps, dtype, batch)
                cb = ClassBiasParams(params["block0.w_plus"],
                                     params["block0.w_minus"],
                                     params["block0.offset"])
                fwd = forward(params, spec, x)
                bank = params["block0.bank"]
                one = ebssc_encode(x[0], bank, cb, pad=pad)
                np.testing.assert_array_equal(one.code, fwd.codes[0][0])
                np.testing.assert_array_equal(one.optimal_energy,
                                              fwd.scores[0])
                many = ebssc_encode(x, bank, cb, pad=pad)
                assert many.code.dtype == dtype
                np.testing.assert_array_equal(many.code, fwd.codes[0])
                np.testing.assert_array_equal(many.optimal_energy,
                                              fwd.scores)


class TestUnitScaleToLsq:
    """Rescaling sphere solutions onto the least-squares optimum."""

    def test_reconstruction_is_scale_times_decode(self):
        """reconstruction == scale * reconstruct(code)."""
        rng = np.random.default_rng(42)
        x, bank = _random_instance(rng, c=1, hw=5, k=2)
        res = ssc_encode(x, bank, 0.025)
        out = unit_scale_to_lsq(res.code, x, bank, 0.05)
        np.testing.assert_allclose(
            out.reconstruction,
            out.scale * tensor.reconstruct(
                np.asarray(res.code, dtype=np.float64), bank, 0),
            rtol=1e-12)

    def test_degenerate_when_correlation_is_weak(self):
        """If <x, u> cannot beat the l1 cost, the optimum is z = 0."""
        rng = np.random.default_rng(42)
        x, bank = _random_instance(rng, c=1, hw=5, k=2)
        code = rng.standard_normal((2, 3, 3))
        code /= tensor.l2_norm(code)
        out = unit_scale_to_lsq(code, 1e-6 * x, bank, beta=10.0)
        assert out.degenerate
        assert out.scale == 0.0
        assert (out.reconstruction == 0).all()
