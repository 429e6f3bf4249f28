"""Stacked model behavior: shape chaining, the vectorized class axis,
unrolled refinement, and deconvolutional decoding."""

import numpy as np
import pytest

from ebssc import ConfigError, DataError, ImproperThresholdError, \
    ShapeError, tensor
from ebssc.config import VARIANTS, parse_network, variant_spec
from ebssc.learn import evaluate
from ebssc.network import BlockSpec, NetworkSpec, block_shapes, build, \
    class_energy_breakdown, decode, decode_class_bias, decode_residual, \
    forward, param_shapes, unrolled_infer
from ebssc.coder import arm_thresholds
from ebssc.tape import Ops

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


def _stacked_pool_spec(beta=0.15):
    """maxpool -> ssc -> maxpool -> maxpool -> ebssc on 1x16x16 inputs,
    three classes: a pool at block 0 and two consecutive pools between
    the coding blocks."""
    blocks = (BlockSpec("maxpool", (2,), stride=2, pad=0),
              BlockSpec("ssc", (4, 1, 3, 3), pad=1, beta=beta),
              BlockSpec("maxpool", (2,), stride=2, pad=0),
              BlockSpec("maxpool", (3,), stride=2, pad=1),
              BlockSpec("ebssc", (3, 8, 3, 3), pad=1, beta=beta))
    return NetworkSpec(blocks=blocks, classifier=("energy", 4),
                       num_classes=3, input_shape=(1, 16, 16))


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

    def test_energy_head_covers_every_class_biased_block(self):
        """An ebssc block below the energy head's index would add its
        energy to a score that covers only the blocks from the index on:
        the spec is refused, and so is its network text."""
        blocks = (BlockSpec("ebssc", (2, 1, 3, 3), pad=1, beta=0.1),
                  BlockSpec("ssc", (2, 4, 3, 3), pad=1, beta=0.1),
                  BlockSpec("ebssc", (2, 4, 3, 3), pad=1, beta=0.1))
        with pytest.raises(ValueError, match="block 0 is ebssc"):
            NetworkSpec(blocks=blocks, classifier=("energy", 2),
                        num_classes=2, input_shape=(1, 8, 8))
        text = ("num_classes = 2\ninput = 1x8x8\nclassifier = energy:2\n"
                "block0 = ebssc kernel=2x1x3x3 pad=1\n"
                "block1 = ssc kernel=2x4x3x3 pad=1\n"
                "block2 = ebssc kernel=2x4x3x3 pad=1\n")
        with pytest.raises(ConfigError, match="block 0 is ebssc"):
            parse_network(text)

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

    @pytest.mark.parametrize("spec", [
        *(variant_spec(v) for v in VARIANTS), _toy_energy_spec(),
        _toy_energy_spec(bias_maps=True), _stacked_energy_spec(),
        _stacked_pool_spec(), _toy_linear_spec()],
        ids=[*VARIANTS, "toy_energy", "toy_energy_maps", "stacked_energy",
             "stacked_pool", "toy_linear"])
    def test_param_shapes_is_what_build_gives(self, spec):
        """The geometry table names every parameter ``build`` draws, with
        its shape, in ``build``'s order."""
        built = build(spec, seed=0)
        assert list(param_shapes(spec).items()) == [
            (name, arr.shape) for name, arr in built.items()]

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
        """Scores are (B, Y); codes from the first ebssc block on hold
        one entry per class at -4, blocks below a singleton."""
        spec = _toy_energy_spec()
        params = _generic_params(spec)
        x = np.random.default_rng(42).standard_normal((2, 1, 8, 8))
        res = forward(params, spec, x)
        assert np.shape(res.scores) == (2, 3)
        assert res.class_axis_at == 2
        assert res.codes[0].shape == (2, 1, 4, 8, 8)
        assert res.codes[2].shape == (2, 3, 5, 4, 4)

    @pytest.mark.parametrize("spec", [
        _toy_energy_spec(), _stacked_energy_spec(), _stacked_pool_spec(),
        NetworkSpec(blocks=(BlockSpec("ebssc", (2, 1, 3, 3), pad=1),
                            BlockSpec("maxpool", (2,), stride=2),
                            BlockSpec("ebssc", (3, 4, 3, 3), pad=1)),
                    classifier=("energy", 0), num_classes=3,
                    input_shape=(1, 8, 8))],
        ids=["toy", "stacked", "stacked_pool", "pool_above"])
    @pytest.mark.parametrize("lead", [(), (2,)], ids=["one", "batch"])
    def test_every_map_carries_the_class_axis(self, spec, lead):
        """Every code, correlation and pool switch of an energy network
        has x's rank plus one: the class axis at -4.  Codes and switches
        hold a singleton there below the first ebssc block and one entry
        per class from it on."""
        params = _generic_params(spec)
        x = np.random.default_rng(42).standard_normal(
            lead + spec.input_shape)
        res = forward(params, spec, x, switches=True)
        assert all(np.ndim(v) == x.ndim + 1
                   for v in res.correlations.values())
        outputs = list(res.codes.items()) + list(res.switches.items())
        for j, t in outputs:
            assert np.ndim(t) == x.ndim + 1
            assert np.shape(t)[-4] == (3 if res.carries_class_axis(j)
                                       else 1)

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
        energy = [i for i, b in enumerate(spec.blocks) if b.kind == "ebssc"]
        axes = (-3, -2, -1)
        np.testing.assert_allclose(
            rep.l1_of_code,
            sum(np.abs(res.codes[i]).sum(axis=axes) for i in energy),
            rtol=1e-12)
        np.testing.assert_allclose(
            rep.recon_inner,
            sum((res.correlations[i] * res.codes[i]).sum(axis=axes)
                for i in energy), rtol=1e-12)

    @pytest.mark.parametrize("spec", [
        _toy_energy_spec(), _toy_energy_spec(bias_maps=True),
        _stacked_energy_spec()], ids=["toy", "bias_maps", "stacked"])
    def test_scores_are_the_explicit_energy(self, spec):
        """Each energy block scores ||z~||_2, which is its explicit energy
        <v, z> - beta_plus.z+ + beta_minus.z- at the recorded code; the
        energy op without a norm evaluates that explicit form."""
        params = _generic_params(spec)
        x = np.random.default_rng(42).standard_normal(
            (2,) + spec.input_shape)
        fwd = forward(params, spec, x)
        explicit = 0.0
        for i, b in enumerate(spec.blocks):
            if b.kind != "ebssc":
                continue
            v = np.asarray(fwd.correlations[i], dtype=np.float64)
            bp, bm = (np.asarray(t, dtype=np.float64)
                      for t in fwd.thresholds[i])
            z = np.asarray(fwd.codes[i], dtype=np.float64)
            e = (v * z - bp * np.maximum(z, 0) + bm * np.minimum(z, 0)).sum(
                axis=(-3, -2, -1))
            op = Ops().energy(fwd.correlations[i], *fwd.thresholds[i],
                              fwd.codes[i])
            np.testing.assert_allclose(op, e, rtol=1e-12)
            explicit = explicit + e
        assert (explicit > 0).any()
        np.testing.assert_allclose(fwd.scores, explicit, rtol=1e-12,
                                   atol=1e-14)

    @pytest.mark.parametrize("arm, value", [
        pytest.param("block0.w_minus", -1.0, id="block0.w_minus"),
        pytest.param("block2.w_plus", -1.0, id="block2.w_plus"),
        pytest.param("block2.w_plus", np.nan, id="block2.w_plus-nan")])
    def test_improper_thresholds_rejected(self, arm, value):
        """An arm width that makes w_plus + w_minus < 0 at one
        coefficient, in an ssc or an ebssc block, is refused, and so is
        a NaN arm width, which would otherwise score its class NaN."""
        spec = _toy_energy_spec()
        params = build(spec, seed=0)
        p = params[arm].copy()
        p.flat[1] = value
        params[arm] = p
        with pytest.raises(ImproperThresholdError):
            forward(params, spec, np.zeros((1, 1, 8, 8)))

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

    def test_switches_only_when_asked(self):
        """An untaped pass records no pool switches unless asked, and
        asking changes no code or score."""
        for spec in (_toy_energy_spec(), variant_spec("digits_ssc_ebc2"),
                     _toy_linear_spec()):
            params = _generic_params(spec)
            x = np.random.default_rng(42).standard_normal(
                (3,) + spec.input_shape)
            plain = forward(params, spec, x)
            asked = forward(params, spec, x, switches=True)
            assert plain.switches == {}
            assert sorted(asked.switches) == [1]
            np.testing.assert_array_equal(plain.scores, asked.scores)
            assert sorted(plain.codes) == sorted(asked.codes)
            for i, z in asked.codes.items():
                np.testing.assert_array_equal(plain.codes[i], z)

    def test_scoring_callers_skip_switches(self, switch_requests):
        """Evaluation and the energy breakdown pool without switches;
        unrolling asks for them."""
        spec = variant_spec("digits_ssc_ebc2")
        params = _generic_params(spec)
        rng = np.random.default_rng(42)
        x = rng.random((3, 1, 28, 28))
        evaluate(params, spec, x, np.array([0, 1, 2]), batch_size=2)
        class_energy_breakdown(params, spec, x)
        assert switch_requests == [False] * 3
        unrolled_infer(params, spec, x, T=1)
        assert switch_requests[3:] == [True]

    def test_batch_one_equals_batched_in_float64(self):
        """Each image alone codes and scores bitwise as it does in a batch
        of 8, in float64 too, where block 0's codes (12x28x28) have more
        than 8192 coefficients."""
        spec = variant_spec("digits_ssc_ebc2")
        params = _generic_params(spec)
        x = np.random.default_rng(7).random((8, 1, 28, 28))
        batched = forward(params, spec, x)
        assert batched.codes[0].dtype == np.float64
        assert batched.codes[0][0].size > 8192
        for n in range(len(x)):
            alone = forward(params, spec, x[n:n + 1])
            np.testing.assert_array_equal(alone.scores,
                                          batched.scores[n:n + 1])
            for i, z in batched.codes.items():
                np.testing.assert_array_equal(alone.codes[i], z[n:n + 1])

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
        for spec in (_toy_energy_spec(), _stacked_energy_spec(),
                     _stacked_pool_spec()):
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
        for spec in (_toy_energy_spec(), _stacked_energy_spec(),
                     _stacked_pool_spec()):
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
        res = forward(params, spec, x, switches=True)
        switches = {j: res.hypothesis(0, j, sw)
                    for j, sw in res.switches.items()}
        img = decode(params, spec, res.codes[2][:, 0], 2, switches)
        assert img.shape == (1, 1, 8, 8)
        assert np.isfinite(img).all()

    def test_decode_is_linear_in_the_code(self):
        """Frozen switches make decoding a linear map."""
        spec = _toy_energy_spec()
        params = _generic_params(spec)
        x = np.random.default_rng(42).standard_normal((1, 1, 8, 8))
        res = forward(params, spec, x, switches=True)
        code = res.codes[2][:, 1]
        a = decode(params, spec, code, 2, res.switches)
        b = decode(params, spec, 2.0 * code, 2, res.switches)
        np.testing.assert_allclose(b, 2.0 * a, atol=1e-10)

    def test_decode_is_adjoint_of_the_frozen_up_path(self):
        """<decode(z), u> = <z, U(u)>, where U is the up path with the
        switches frozen: through a pool at block 0 and two consecutive
        pools, with the split halves duplicated."""
        spec = _stacked_pool_spec()
        params = _generic_params(spec)
        rng = np.random.default_rng(42)
        x = rng.standard_normal((2, 1, 16, 16))
        fwd = forward(params, spec, x, switches=True)
        sw = {j: fwd.hypothesis(0, j, s) for j, s in fwd.switches.items()}
        z = rng.standard_normal((2, 3, 2, 2))
        u = rng.standard_normal((2, 1, 16, 16))
        up = tensor.switch_gather(u, sw[0], 2, 2, 0)
        up = tensor.cross_correlate(up, params["block1.bank"], 1)
        up = np.concatenate([up, up], axis=-3)
        up = tensor.switch_gather(up, sw[2], 2, 2, 0)
        up = tensor.switch_gather(up, sw[3], 3, 2, 1)
        up = tensor.cross_correlate(up, params["block4.bank"], 1)
        img = decode(params, spec, z, 4, sw)
        assert img.shape == u.shape
        np.testing.assert_allclose(np.sum(img * u), np.sum(z * up),
                                   rtol=1e-12)

    def test_decode_from_pool_block_rejected(self):
        """Only coding blocks carry decodable codes."""
        spec = _toy_energy_spec()
        params = build(spec, seed=0)
        with pytest.raises(ValueError):
            decode(params, spec, np.zeros((4, 4, 4)), 1, {})

    def test_unasked_pass_cannot_decode_through_pools(self):
        """A pass run without switches=True holds no pool switches, and
        decoding through a pool says how to record them."""
        spec = _toy_energy_spec()
        params = _generic_params(spec)
        x = np.random.default_rng(42).standard_normal((1, 1, 8, 8))
        res = forward(params, spec, x)
        with pytest.raises(ValueError, match="switches=True"):
            decode(params, spec, res.codes[2][:, 0], 2, res.switches)

    def test_class_bias_decode_shapes(self):
        """Every class's threshold bias pattern decodes to an input-shaped
        map, with the class axis at -4."""
        spec = _toy_energy_spec()
        params = _generic_params(spec)
        x = np.random.default_rng(42).standard_normal((1, 1, 8, 8))
        res = forward(params, spec, x, switches=True)
        img = decode_class_bias(params, spec, 2, res.switches)
        assert img.shape == (1, 3, 1, 8, 8)

    def test_class_bias_decode_needs_biased_block(self):
        """ssc blocks carry no class bias to decode."""
        spec = _toy_energy_spec()
        params = build(spec, seed=0)
        with pytest.raises(ValueError):
            decode_class_bias(params, spec, 0, {})

    def test_residual_decomposition(self):
        """decoded codes == residual + decoded class bias, for every
        hypothesis at once."""
        spec = _toy_energy_spec()
        params = _generic_params(spec)
        x = np.random.default_rng(42).standard_normal((1, 1, 8, 8))
        res = forward(params, spec, x, switches=True)
        total = decode(params, spec, res.codes[2], 2, res.switches)
        bias = decode_class_bias(params, spec, 2, res.switches)
        residual = decode_residual(params, spec, x, 2)
        assert residual.shape == (1, 3, 1, 8, 8)
        np.testing.assert_allclose(total, residual + bias, atol=1e-10)

    def test_residual_takes_each_hypothesis_own_pool_switches(self):
        """Slice y of the whole-axis decodes is bitwise class y's own
        decode: codes[:, y] through hypothesis y's switches, minus class
        y's bias pattern.  Holds in float32 and float64, with the pool
        below the class axis (tied arms and bias maps) and with one above
        it (pooled per hypothesis)."""
        pool_above = NetworkSpec(
            blocks=(BlockSpec("ebssc", (2, 1, 3, 3), pad=1, beta=0.15),
                    BlockSpec("maxpool", (2,), stride=2, pad=0),
                    BlockSpec("ebssc", (3, 4, 3, 3), pad=1, beta=0.15)),
            classifier=("energy", 0), num_classes=3, input_shape=(1, 8, 8))
        for spec in (_toy_energy_spec(), _toy_energy_spec(bias_maps=True),
                     pool_above):
            for dtype in (np.float32, np.float64):
                params = _generic_params(spec, dtype=dtype)
                x = np.random.default_rng(42).standard_normal(
                    (2, 1, 8, 8)).astype(dtype)
                res = forward(params, spec, x, switches=True)
                bias = decode_class_bias(params, spec, 2, res.switches)
                residual = decode_residual(params, spec, x, 2)
                for y in range(3):
                    switches = {j: res.hypothesis(y, j, sw)
                                for j, sw in res.switches.items()}
                    own_bias = _class_bias_image(params, spec, y, 2,
                                                 switches)
                    own = decode(params, spec, res.codes[2][:, y], 2,
                                 switches) - own_bias
                    np.testing.assert_array_equal(
                        np.broadcast_to(bias, residual.shape)[:, y],
                        own_bias)
                    np.testing.assert_array_equal(residual[:, y], own)


def _class_bias_image(params, spec, y, at, switches):
    """Class y's bias pattern alone: its arms' mean shift, in float64,
    broadcast over block ``at``'s code and decoded."""
    wp, wm, off = (np.asarray(params[f"block{at}.{part}"], dtype=np.float64)
                   for part in ("w_plus", "w_minus", "offset"))
    bp, bm = arm_thresholds(Ops(), wp[y], wm[y], off)
    shift = (bm - bp) / 2.0
    hw = block_shapes(spec)[at][1:]
    return decode(params, spec, np.broadcast_to(shift, shift.shape[:-2] + hw),
                  at, switches)
