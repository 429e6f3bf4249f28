"""Stacked model behavior: shape chaining, the vectorized class axis,
unrolled refinement, and deconvolutional decoding."""

import numpy as np
import pytest

from ebssc import DataError, ShapeError
from ebssc.config import variant_spec
from ebssc.network import BlockSpec, NetworkSpec, block_shapes, build, \
    class_energy_breakdown, decode, decode_class_bias, decode_residual, \
    forward, unrolled_infer

import reference


def _toy_energy_spec(beta=0.15, bias_maps=False):
    """ssc -> maxpool -> ebssc on 1x8x8 inputs, three classes."""
    blocks = (BlockSpec("ssc", (4, 1, 3, 3), pad=1, beta=beta),
              BlockSpec("maxpool", (2,), stride=2, pad=0),
              BlockSpec("ebssc", (5, 8, 3, 3), pad=1, beta=beta,
                        bias_maps=bias_maps))
    return NetworkSpec(blocks=blocks, classifier=("energy", 2),
                       num_classes=3, input_shape=(1, 8, 8))


def _stacked_energy_spec(beta=0.15):
    """ssc -> ebssc -> ebssc on 1x6x6 inputs, three classes: the upper
    ebssc block inherits the class axis from the one below."""
    blocks = (BlockSpec("ssc", (4, 1, 3, 3), pad=1, beta=beta),
              BlockSpec("ebssc", (3, 8, 3, 3), pad=1, beta=beta),
              BlockSpec("ebssc", (2, 6, 3, 3), pad=1, beta=beta))
    return NetworkSpec(blocks=blocks, classifier=("energy", 1),
                       num_classes=3, input_shape=(1, 6, 6))


def _toy_linear_spec():
    blocks = (BlockSpec("relu", (4, 1, 3, 3), pad=1),
              BlockSpec("maxpool", (2,), stride=2, pad=0))
    return NetworkSpec(blocks=blocks, classifier=("linear", 1),
                       num_classes=3, input_shape=(1, 8, 8))


def _generic_params(spec, seed=0, dtype=np.float64):
    """Built parameters nudged off their symmetric initialization."""
    rng = np.random.default_rng(seed)
    params = build(spec, seed=seed, dtype=dtype)
    out = {}
    for name, p in params.items():
        if name.endswith((".w_plus", ".w_minus")):
            out[name] = (p + rng.uniform(0.01, 0.08, p.shape)).astype(dtype)
        elif name.endswith(".offset"):
            out[name] = (p + rng.uniform(-0.03, 0.03, p.shape)).astype(dtype)
        else:
            out[name] = p
    return out


class TestBlockShapes:
    """Shape chaining through conv, split, and pool blocks."""

    def test_digits_variant_chain(self):
        """Known shapes for the two-coding-block digit model."""
        spec = variant_spec("digits_ssc_ebc2")
        shapes = block_shapes(spec)
        assert shapes == [(24, 28, 28), (24, 14, 14), (48, 14, 14)]

    def test_seven_block_tower_chain(self):
        """Split kinds double the channels every conv block."""
        spec = variant_spec("crelu_lc7")
        shapes = block_shapes(spec)
        assert shapes[0] == (192, 32, 32)
        assert shapes[2] == (192, 16, 16)
        assert shapes[-1] == (384, 8, 8)

    def test_channel_mismatch_rejected(self):
        """A kernel whose input channels break the chain raises."""
        blocks = (BlockSpec("relu", (4, 1, 3, 3), pad=1),
                  BlockSpec("relu", (4, 7, 3, 3), pad=1))
        with pytest.raises(ShapeError) as info:
            NetworkSpec(blocks=blocks, classifier=("linear", 1),
                        num_classes=2, input_shape=(1, 8, 8))
        assert info.value.shape_a == (7,)
        assert info.value.shape_b == (4,)
        assert str(info.value).startswith("block 1 expects")


class TestSpecValidation:
    """Classifier/block compatibility rules."""

    def test_class_biased_blocks_need_energy_head(self):
        """An ebssc block under a linear head is rejected."""
        blocks = (BlockSpec("ebssc", (4, 1, 3, 3), pad=1, beta=0.1),)
        with pytest.raises(ValueError):
            NetworkSpec(blocks=blocks, classifier=("linear", 0),
                        num_classes=2, input_shape=(1, 8, 8))

    def test_energy_head_needs_class_biased_tail(self):
        """The energy head refuses plain conv blocks in its segment."""
        blocks = (BlockSpec("ssc", (4, 1, 3, 3), pad=1, beta=0.1),
                  BlockSpec("relu", (4, 8, 3, 3), pad=1))
        with pytest.raises(ValueError):
            NetworkSpec(blocks=blocks, classifier=("energy", 0),
                        num_classes=2, input_shape=(1, 8, 8))

    def test_classifier_index_range(self):
        """The classifier must point at an existing block."""
        blocks = (BlockSpec("relu", (4, 1, 3, 3), pad=1),)
        with pytest.raises(ValueError):
            NetworkSpec(blocks=blocks, classifier=("linear", 3),
                        num_classes=2, input_shape=(1, 8, 8))

    def test_unknown_classifier_kind(self):
        """Only linear and energy heads exist."""
        blocks = (BlockSpec("relu", (4, 1, 3, 3), pad=1),)
        with pytest.raises(ValueError):
            NetworkSpec(blocks=blocks, classifier=("svm", 0),
                        num_classes=2, input_shape=(1, 8, 8))


class TestBuild:
    """Parameter initialization."""

    def test_deterministic_in_seed(self):
        """Two builds from one seed agree bitwise."""
        spec = _toy_energy_spec()
        a = build(spec, seed=5)
        b = build(spec, seed=5)
        assert a.keys() == b.keys()
        for k in a:
            np.testing.assert_array_equal(a[k], b[k])

    def test_coding_thresholds_start_at_beta(self):
        """ssc arm widths initialize at the block's beta, offset at 0."""
        spec = _toy_energy_spec(beta=0.2)
        params = build(spec, seed=0)
        np.testing.assert_allclose(params["block0.w_plus"], 0.2)
        np.testing.assert_allclose(params["block0.offset"], 0.0)

    def test_class_arm_shapes(self):
        """Tied arms are (Y, K); spatial maps are (Y, K, H, W)."""
        tied = build(_toy_energy_spec(), seed=0)
        assert tied["block2.w_plus"].shape == (3, 5)
        maps = build(_toy_energy_spec(bias_maps=True), seed=0)
        assert maps["block2.w_plus"].shape == (3, 5, 4, 4)
        assert maps["block2.offset"].shape == (5,)

    def test_linear_head_weights(self):
        """The linear head flattens the classifier block's output."""
        params = build(_toy_linear_spec(), seed=0)
        assert params["classifier.w"].shape == (3, 4 * 4 * 4)

    def test_requested_dtype(self):
        """float64 builds produce float64 parameters throughout."""
        params = build(_toy_energy_spec(), seed=0, dtype=np.float64)
        assert all(p.dtype == np.float64 for p in params.values())


class TestForwardLinear:
    """The plain conv/pool path against loop references."""

    def test_scores_match_manual_computation(self):
        """conv + bias + relu + pool + flatten + matmul, by hand."""
        spec = _toy_linear_spec()
        params = build(spec, seed=3, dtype=np.float64)
        rng = np.random.default_rng(42)
        x = rng.standard_normal((2, 1, 8, 8))

        got = forward(params, spec, x).scores
        for i in range(2):
            v = reference.correlate_loops(x[i], params["block0.bank"], 1)
            v += params["block0.bias"][:, None, None]
            pooled, _ = reference.max_pool_loops(np.maximum(v, 0), 2, 2, 0)
            want = params["classifier.w"] @ pooled.ravel()
            np.testing.assert_allclose(got[i], want, atol=1e-10)


class TestForwardEnergy:
    """The vectorized class-hypothesis path."""

    def test_scores_shape_and_class_axis(self):
        """Scores are (B, Y); codes above the first ebssc gain a class
        axis while blocks below stay classless."""
        spec = _toy_energy_spec()
        params = _generic_params(spec)
        x = np.random.default_rng(42).standard_normal((2, 1, 8, 8))
        res = forward(params, spec, x)
        assert np.shape(res.scores) == (2, 3)
        assert res.class_axis_at == 2
        assert res.codes[0].shape == (2, 4, 8, 8)
        assert res.codes[2].shape == (2, 3, 5, 4, 4)

    def test_hypothesis_slice_matches_conditional_forward(self):
        """Running with y fixed equals slicing the vectorized run."""
        spec = _toy_energy_spec()
        params = _generic_params(spec)
        x = np.random.default_rng(42).standard_normal((2, 1, 8, 8))
        full = forward(params, spec, x)
        for y in range(3):
            cond = forward(params, spec, x, y=y)
            np.testing.assert_allclose(cond.codes[2], full.codes[2][:, y],
                                       atol=1e-12)

    def test_scores_equal_energy_breakdown_total(self):
        """forward scores decompose into code + class energy terms."""
        spec = _toy_energy_spec()
        params = _generic_params(spec)
        x = np.random.default_rng(42).standard_normal((2, 1, 8, 8))
        res = forward(params, spec, x)
        rep = class_energy_breakdown(params, spec, x)
        np.testing.assert_allclose(rep.e_total, res.scores, atol=1e-9)
        np.testing.assert_allclose(rep.e_code + rep.e_class, rep.e_total,
                                   rtol=1e-12)

    def test_spatial_bias_maps_run(self):
        """Per-location class arms produce the same shapes."""
        spec = _toy_energy_spec(bias_maps=True)
        params = _generic_params(spec)
        x = np.random.default_rng(42).standard_normal((1, 1, 8, 8))
        res = forward(params, spec, x)
        assert np.shape(res.scores) == (1, 3)

    def test_input_shape_checked(self):
        """An input whose (C, H, W) is not the spec's is refused."""
        spec = _toy_energy_spec()
        params = build(spec, seed=0)
        with pytest.raises(ShapeError):
            forward(params, spec, np.zeros((1, 1, 7, 8)))

    def test_non_finite_input_rejected(self):
        """One NaN pixel raises instead of scoring like a blank image."""
        spec = _toy_energy_spec()
        params = build(spec, seed=0)
        x = np.zeros((1, 1, 8, 8))
        x[0, 0, 3, 3] = np.nan
        with pytest.raises(DataError):
            forward(params, spec, x)

    def test_train_dropout_needs_rng(self):
        """Train-mode dropout without a generator is an error."""
        blocks = (BlockSpec("relu", (4, 1, 3, 3), pad=1, dropout_rate=0.0),
                  BlockSpec("relu", (4, 4, 3, 3), pad=1, dropout_rate=0.5))
        spec = NetworkSpec(blocks=blocks, classifier=("linear", 1),
                           num_classes=2, input_shape=(1, 6, 6))
        params = build(spec, seed=0)
        x = np.zeros((1, 1, 6, 6))
        with pytest.raises(ValueError):
            forward(params, spec, x, mode="train")
        # eval mode ignores dropout entirely
        forward(params, spec, x, mode="eval")


class TestUnrolledInfer:
    """Block-coordinate refinement over the coding segment."""

    def test_zero_sweeps_reproduce_forward(self):
        """T=0 equals the plain pass bitwise, also with stacked ebssc
        blocks."""
        for spec in (_toy_energy_spec(), _stacked_energy_spec()):
            params = _generic_params(spec)
            x = np.random.default_rng(42).standard_normal(
                (2,) + spec.input_shape)
            fwd = forward(params, spec, x)
            rolled = unrolled_infer(params, spec, x, T=0)
            np.testing.assert_array_equal(np.asarray(rolled.scores),
                                          np.asarray(fwd.scores))
            for i, z in fwd.codes.items():
                np.testing.assert_array_equal(np.asarray(rolled.codes[i]),
                                              np.asarray(z))

    def test_energy_trace_is_nondecreasing(self):
        """Every sweep may only raise the joint segment energy, also with
        stacked ebssc blocks."""
        for spec in (_toy_energy_spec(), _stacked_energy_spec()):
            params = _generic_params(spec, seed=11)
            x = np.random.default_rng(42).standard_normal(
                (3,) + spec.input_shape)
            rolled = unrolled_infer(params, spec, x, T=3)
            trace = np.asarray(rolled.energy_trace)
            assert trace.shape == (4, 3, 3)
            assert (np.diff(trace, axis=0) >= -1e-9).all()

    def test_train_mode_refuses_dropout_in_segment(self):
        """Refreshed correlations carry no dropout mask, so train-mode
        unrolling over a dropout coding block raises."""
        blocks = (BlockSpec("ssc", (4, 1, 3, 3), pad=1, beta=0.15),
                  BlockSpec("ebssc", (3, 8, 3, 3), pad=1, beta=0.15,
                            dropout_rate=0.5))
        spec = NetworkSpec(blocks=blocks, classifier=("energy", 1),
                           num_classes=3, input_shape=(1, 6, 6))
        params = build(spec, seed=0)
        x = np.zeros((1, 1, 6, 6))
        with pytest.raises(ValueError):
            unrolled_infer(params, spec, x, T=1, mode="train",
                           rng=np.random.default_rng(0))

    def test_depth_is_bounded(self):
        """Unroll depth outside 0..4 is rejected."""
        spec = _toy_energy_spec()
        params = build(spec, seed=0)
        with pytest.raises(ValueError):
            unrolled_infer(params, spec, np.zeros((1, 1, 8, 8)), T=5)

    def test_needs_two_coding_blocks(self):
        """A single coding block has nothing to coordinate."""
        blocks = (BlockSpec("ebssc", (4, 1, 3, 3), pad=1, beta=0.1),)
        spec = NetworkSpec(blocks=blocks, classifier=("energy", 0),
                           num_classes=2, input_shape=(1, 6, 6))
        params = build(spec, seed=0)
        with pytest.raises(ValueError):
            unrolled_infer(params, spec, np.zeros((1, 1, 6, 6)), T=1)


class TestDecode:
    """Deconvolutional mapping of codes back to input space."""

    def test_decoded_code_has_input_shape(self):
        """Reconstruct/unpool chains end at the input geometry."""
        spec = _toy_energy_spec()
        params = _generic_params(spec)
        x = np.random.default_rng(42).standard_normal((1, 1, 8, 8))
        res = forward(params, spec, x, y=0)
        img = decode(params, spec, res.codes[2], 2, res.switches)
        assert img.shape == (1, 1, 8, 8)
        assert np.isfinite(img).all()

    def test_decode_is_linear_in_the_code(self):
        """Frozen switches make decoding a linear map."""
        spec = _toy_energy_spec()
        params = _generic_params(spec)
        x = np.random.default_rng(42).standard_normal((1, 1, 8, 8))
        res = forward(params, spec, x, y=1)
        a = decode(params, spec, res.codes[2], 2, res.switches)
        b = decode(params, spec, 2.0 * res.codes[2], 2, res.switches)
        np.testing.assert_allclose(b, 2.0 * a, atol=1e-10)

    def test_decode_from_pool_block_rejected(self):
        """Only coding blocks carry decodable codes."""
        spec = _toy_energy_spec()
        params = build(spec, seed=0)
        with pytest.raises(ValueError):
            decode(params, spec, np.zeros((4, 4, 4)), 1, {})

    def test_class_bias_decode_shapes(self):
        """The threshold bias pattern decodes to an input-shaped map."""
        spec = _toy_energy_spec()
        params = _generic_params(spec)
        x = np.random.default_rng(42).standard_normal((1, 1, 8, 8))
        res = forward(params, spec, x, y=0)
        for y in range(3):
            img = decode_class_bias(params, spec, y, 2, res.switches)
            assert img.shape[-3:] == (1, 8, 8)

    def test_class_bias_decode_needs_biased_block(self):
        """ssc blocks carry no class bias to decode."""
        spec = _toy_energy_spec()
        params = build(spec, seed=0)
        with pytest.raises(ValueError):
            decode_class_bias(params, spec, 0, 0, {})

    def test_residual_decomposition(self):
        """decoded codes == residual + decoded class bias."""
        spec = _toy_energy_spec()
        params = _generic_params(spec)
        x = np.random.default_rng(42).standard_normal((1, 1, 8, 8))
        res = forward(params, spec, x, y=2)
        total = decode(params, spec, res.codes[2], 2, res.switches)
        bias = decode_class_bias(params, spec, 2, 2, res.switches)
        residual = decode_residual(params, spec, x, 2, 2)
        np.testing.assert_allclose(np.asarray(total),
                                   np.asarray(residual)
                                   + np.asarray(bias), atol=1e-10)
