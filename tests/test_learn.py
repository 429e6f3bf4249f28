"""Supervised training: the softmax-energy loss, analytic gradients,
the optimizer with its properness projection, and the epoch loop."""

import math
import re

import numpy as np
import pytest

from ebssc import DataError, learn
from ebssc.config import variant_spec
from ebssc.data import digits_arrays
from ebssc.learn import OptimizerState, TrainConfig, adam_step, backward, \
    dataset_objective, evaluate, loss, project_nonneg, train
from ebssc.network import BlockSpec, NetworkSpec, build
from ebssc.oracle import finite_diff
from ebssc.tape import Node, Ops, Tape

from test_network import _stacked_energy_spec

METRIC_LINE = re.compile(r"^\d+,\d+,(train|test),\d+\.\d{6},\d+\.\d{6}$")


def _micro_spec():
    """ssc -> ebssc on 1x6x6 inputs, two classes, all float64-friendly."""
    blocks = (BlockSpec("ssc", (3, 1, 3, 3), pad=1, beta=0.2),
              BlockSpec("ebssc", (4, 6, 3, 3), pad=1, beta=0.2),)
    return NetworkSpec(blocks=blocks, classifier=("energy", 1),
                       num_classes=2, input_shape=(1, 6, 6))


def _generic_params(spec, seed=0):
    """float64 build nudged off the symmetric init (and off kinks)."""
    rng = np.random.default_rng(seed)
    params = build(spec, seed=seed, dtype=np.float64)
    out = {}
    for name, p in params.items():
        if name.endswith((".w_plus", ".w_minus")):
            out[name] = p + rng.uniform(0.02, 0.1, p.shape)
        elif name.endswith(".offset"):
            out[name] = p + rng.uniform(-0.04, 0.04, p.shape)
        else:
            out[name] = p
    return out


class TestLossValue:
    """The data term and the squared-norm penalty."""

    def test_symmetric_init_scores_log_num_classes(self):
        """Identical per-class arms make every score equal, so the loss
        is exactly log(num_classes)."""
        spec = variant_spec("digits_ssc_ebc2")
        params = build(spec, seed=0)
        rng = np.random.default_rng(42)
        x = rng.random((8, 1, 28, 28)).astype(np.float32)
        y = rng.integers(0, 10, 8)
        out, scores = loss(params, spec, x, y, TrainConfig(), mode="eval")
        np.testing.assert_allclose(float(out), math.log(10.0), atol=1e-5)
        spread = np.asarray(scores).max(axis=1) - np.asarray(scores).min(
            axis=1)
        np.testing.assert_allclose(spread, 0.0, atol=1e-5)

    def test_alpha_charges_banks_and_class_arms(self):
        """The L2 term covers banks and ebssc arms, nothing else."""
        spec = _micro_spec()
        params = _generic_params(spec)
        rng = np.random.default_rng(42)
        x = rng.standard_normal((2, 1, 6, 6))
        y = np.asarray([0, 1])
        base, _ = loss(params, spec, x, y, TrainConfig(alpha=0.0),
                       mode="eval")
        reg, _ = loss(params, spec, x, y, TrainConfig(alpha=0.5),
                      mode="eval")
        charged = sum((params[n] ** 2).sum() for n in params
                      if n.endswith(".bank")
                      or n in ("block1.w_plus", "block1.w_minus"))
        np.testing.assert_allclose(float(reg) - float(base),
                                   0.25 * charged, rtol=1e-9)


class TestBackward:
    """Analytic gradients against central finite differences."""

    @pytest.mark.parametrize("name", ["block0.bank", "block1.bank",
                                      "block1.w_plus", "block1.w_minus",
                                      "block1.offset", "block0.w_plus",
                                      "block0.offset"])
    def test_gradients_match_finite_differences(self, name):
        """Relative error below 1e-5 for every parameter group."""
        spec = _micro_spec()
        params = _generic_params(spec)
        rng = np.random.default_rng(42)
        x = rng.standard_normal((2, 1, 6, 6))
        y = np.asarray([0, 1])
        cfg = TrainConfig(alpha=0.01)

        grads, _, _ = backward(params, spec, x, y, cfg, mode="eval")

        def f(p):
            trial = dict(params)
            trial[name] = p
            out, _ = loss(trial, spec, x, y, cfg, mode="eval")
            return float(out)

        want = finite_diff(f, params[name].copy(), eps=1e-6)
        scale = max(np.abs(want).max(), 1e-8)
        assert np.abs(grads[name] - want).max() / scale < 1e-5

    def test_unrolled_gradients_match_finite_differences(self):
        """Through one unrolled sweep, relative error below 1e-5 for every
        parameter group.  The spec stacks two ebssc blocks, so the lower
        one is scored at a code refined with feedback, not at its own
        optimum, and its energy's gradient in that code counts."""
        spec = _stacked_energy_spec()
        params = _generic_params(spec)
        rng = np.random.default_rng(42)
        x = rng.standard_normal((2, 1, 6, 6))
        y = np.asarray([0, 2])
        cfg = TrainConfig(alpha=0.01, unroll_T=1)

        grads, _, _ = backward(params, spec, x, y, cfg, mode="eval")

        for name in sorted(params):
            def f(p):
                trial = dict(params)
                trial[name] = p
                out, _ = loss(trial, spec, x, y, cfg, mode="eval")
                return float(out)

            want = finite_diff(f, params[name].copy(), eps=1e-6)
            scale = max(np.abs(want).max(), 1e-8)
            assert np.abs(grads[name] - want).max() / scale < 1e-5, name

    def test_input_is_a_constant(self):
        """The input image is no tape node, also where the first block
        pools it and the next drops it out: those ops record nothing, and
        the parameters' gradients still match finite differences."""
        blocks = (BlockSpec("maxpool", (3,), pad=1, stride=1),
                  BlockSpec("ssc", (3, 1, 3, 3), pad=1, beta=0.2,
                            dropout_rate=0.5),
                  BlockSpec("ebssc", (4, 6, 3, 3), pad=1, beta=0.2))
        spec = NetworkSpec(blocks=blocks, classifier=("energy", 2),
                           num_classes=2, input_shape=(1, 6, 6))
        params = _generic_params(spec)
        x = np.random.default_rng(42).standard_normal((2, 1, 6, 6))
        y = np.asarray([0, 1])
        cfg = TrainConfig()

        def f(trial):
            out, _ = loss(trial, spec, x, y, cfg, mode="train",
                          rng=np.random.default_rng(1))
            return float(out)

        tape = Tape()
        ops = Ops(tape)
        leaves = {k: ops.leaf(p) for k, p in params.items()}
        total, _ = loss(leaves, spec, x, y, cfg, mode="train", ops=ops,
                        rng=np.random.default_rng(1))
        tape.backward(total)
        assert all(any(isinstance(p, Node) for p in n.parents)
                   for n in tape.nodes[len(leaves):])
        for name, leaf in leaves.items():
            want = finite_diff(lambda p: f({**params, name: p}),
                               params[name].copy(), eps=1e-6)
            scale = max(np.abs(want).max(), 1e-8)
            assert np.abs(leaf.grad - want).max() / scale < 1e-5, name

    @pytest.mark.parametrize("unroll_T, nodes", [(0, 34), (1, 45), (2, 54)])
    def test_tape_size(self, unroll_T, nodes):
        """The nodes one loss records on the digit model: the 8 parameter
        leaves (the input image is a constant, with no node), the
        feed-forward pass, the regularizer and the loss, plus each
        unrolled sweep's re-solves and refreshed correlations, and the
        last sweep's ebssc energies.  The top block is re-solved once per
        sweep, on its way up; a re-solve takes its feedback whole, and
        the rest of the energy trace stays off the tape.  Two nodes get
        no gradient at every depth: the top block's code and its z~ at
        T=0, which the closed-form score bypasses, and forward's score
        and its one energy term when unrolled scores replace them."""
        spec = variant_spec("digits_ssc_ebc2")
        params = build(spec, seed=0)
        rng = np.random.default_rng(42)
        x = rng.random((4, 1, 28, 28)).astype(np.float32)
        y = rng.integers(0, 10, 4)
        tape = Tape()
        ops = Ops(tape)
        leaves = {k: ops.leaf(p) for k, p in params.items()}
        total, _ = loss(leaves, spec, x, y,
                        TrainConfig(alpha=1e-4, unroll_T=unroll_T), ops=ops)
        assert len(tape.nodes) == nodes
        tape.backward(total)
        assert sum(n.grad is None for n in tape.nodes) == 2

    @pytest.mark.parametrize("unroll_T", [0, 1])
    def test_gradients_carry_their_node_dtype(self, unroll_T):
        """On the float32 digit model every node's gradient has its value's
        dtype, so the backward runs in float32, and ``backward`` still
        hands float64 gradients to ADAM.  They agree with a float64 rerun
        of the same weights within 1e-5 of each tensor's largest entry.
        The weights have taken a few ADAM steps: at ``build`` weights the
        class-symmetric start cancels block2.offset's gradient to
        rounding noise."""
        spec = variant_spec("digits_ssc_ebc2")
        params = build(spec, seed=0)
        images, y, _, _ = digits_arrays(10, 0, seed=5)
        x = images.astype(np.float32)[:, None] / 255.0
        cfg = TrainConfig(alpha=1e-4, learning_rate=0.01, unroll_T=unroll_T)
        state = OptimizerState.init_like(params)
        for _ in range(3):
            grads, _, _ = backward(params, spec, x, y, cfg, mode="eval")
            params, state = adam_step(params, grads, state, cfg)

        tape = Tape()
        ops = Ops(tape)
        leaves = {k: ops.leaf(p) for k, p in params.items()}
        total, _ = loss(leaves, spec, x, y, cfg, ops=ops, mode="eval")
        tape.backward(total)
        assert {p.dtype for p in params.values()} == {np.dtype(np.float32)}
        for n in tape.nodes:
            assert n.grad is None or n.grad.dtype == n.value.dtype

        grads, _, _ = backward(params, spec, x, y, cfg, mode="eval")
        wide, _, _ = backward({k: p.astype(np.float64)
                               for k, p in params.items()},
                              spec, x.astype(np.float64), y, cfg,
                              mode="eval")
        for name, g in grads.items():
            assert g.dtype == np.float64
            scale = np.abs(wide[name]).max()
            assert np.abs(g - wide[name]).max() < 1e-5 * scale, name

    def test_loss_value_and_scores_returned(self):
        """backward reports the same loss as a plain evaluation."""
        spec = _micro_spec()
        params = _generic_params(spec)
        rng = np.random.default_rng(42)
        x = rng.standard_normal((3, 1, 6, 6))
        y = np.asarray([0, 1, 0])
        cfg = TrainConfig()
        _, val, scores = backward(params, spec, x, y, cfg, mode="eval")
        plain, _ = loss(params, spec, x, y, cfg, mode="eval")
        np.testing.assert_allclose(val, float(plain), rtol=1e-12)
        assert scores.shape == (3, 2)


class TestAdamStep:
    """The bias-corrected update and the non-negativity projection."""

    def test_matches_reference_update(self):
        """One step reproduces the textbook ADAM formulas."""
        cfg = TrainConfig(learning_rate=0.01)
        p = {"w": np.asarray([1.0, -2.0, 3.0])}
        g = {"w": np.asarray([0.5, -0.5, 1.5])}
        state = OptimizerState.init_like(p)
        out, state = adam_step(p, g, state, cfg)

        m = 0.1 * g["w"]
        v = 0.001 * g["w"] ** 2
        want = p["w"] - 0.01 * (m / 0.1) / (np.sqrt(v / 0.001) + cfg.adam_eps)
        np.testing.assert_allclose(out["w"], want, rtol=1e-12)
        assert state.step == 1

    def test_projection_keeps_arms_nonnegative(self):
        """Arm widths never leave the positive orthant."""
        cfg = TrainConfig(learning_rate=10.0)
        p = {"block0.w_plus": np.asarray([0.01, 0.01])}
        g = {"block0.w_plus": np.asarray([1.0, -1.0])}
        state = OptimizerState.init_like(p)
        out, _ = adam_step(p, g, state, cfg)
        assert (out["block0.w_plus"] >= 0).all()

    def test_project_nonneg_on_dicts_and_bias_params(self):
        """The dict form clamps arms and leaves offsets alone."""
        d = project_nonneg({"a.w_plus": np.asarray([-1.0, 2.0]),
                            "a.offset": np.asarray([-3.0])})
        np.testing.assert_array_equal(d["a.w_plus"], [0.0, 2.0])
        np.testing.assert_array_equal(d["a.offset"], [-3.0])


class TestTrainConfig:
    """Validation of optimizer hyperparameters."""

    def test_bad_values_rejected(self):
        """Non-positive rates and out-of-range knobs raise."""
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=0.0)
        with pytest.raises(ValueError):
            TrainConfig(alpha=-1.0)
        with pytest.raises(ValueError):
            TrainConfig(batch_size=0)
        with pytest.raises(ValueError):
            TrainConfig(unroll_T=7)


class TestTrainLoop:
    """The epoch loop: metrics, determinism, and actual learning."""

    def test_metric_line_format(self, digits_small):
        """Every emitted line is epoch,iter,split,loss,error_rate."""
        xtr, ytr, xte, yte = digits_small
        spec = variant_spec("digits_ssc_ebc2")
        cfg = TrainConfig(epochs=2, batch_size=50, learning_rate=0.005,
                          seed=0)
        out = train(cfg, spec, xtr[:100], ytr[:100], xte[:100], yte[:100])
        assert len(out.metrics) == 4  # one train + one test line per epoch
        for line in out.metrics:
            assert METRIC_LINE.match(line), line
        assert out.metrics[0].startswith("1,2,train,")
        assert out.metrics[1].startswith("1,2,test,")

    def test_deterministic_in_seed(self, digits_small):
        """Two runs with one seed produce identical parameters."""
        xtr, ytr, _, _ = digits_small
        spec = variant_spec("digits_ssc_ebc2")
        cfg = TrainConfig(epochs=1, batch_size=50, seed=3)
        a = train(cfg, spec, xtr[:100], ytr[:100])
        b = train(cfg, spec, xtr[:100], ytr[:100])
        for k in a.params:
            np.testing.assert_array_equal(a.params[k], b.params[k])

    def test_loss_decreases(self, digits_small):
        """A few epochs on a small slice beat the symmetric start."""
        xtr, ytr, _, _ = digits_small
        spec = variant_spec("digits_ssc_ebc2")
        cfg = TrainConfig(epochs=3, batch_size=50, learning_rate=0.005,
                          seed=0)
        out = train(cfg, spec, xtr, ytr)
        first = float(out.metrics[0].split(",")[3])
        last = float(out.metrics[-1].split(",")[3])
        assert last < first < math.log(10.0) + 0.05

    def test_augmentation_hook_runs(self, digits_small):
        """A per-image augment function slots into the batch path."""
        xtr, ytr, _, _ = digits_small
        spec = variant_spec("digits_ssc_ebc2")
        cfg = TrainConfig(epochs=1, batch_size=50, seed=0)
        seen = []

        def jitter(im, rng):
            seen.append(im.shape)
            return im

        train(cfg, spec, xtr[:50], ytr[:50], augment_fn=jitter)
        assert seen and all(s == (1, 28, 28) for s in seen)

    def test_empty_training_split_is_a_data_error(self, digits_small):
        """No training images: a DataError, not a ZeroDivisionError in
        the epoch's mean loss."""
        xtr, ytr, _, _ = digits_small
        spec = variant_spec("digits_ssc_ebc2")
        with pytest.raises(DataError, match="empty"):
            train(TrainConfig(epochs=1, seed=0), spec, xtr[:0], ytr[:0])

    def test_empty_test_split_is_refused_before_training(
            self, digits_small, monkeypatch):
        """A given test split with no images is a DataError before the
        first step, not after a whole epoch of training is thrown away."""
        xtr, ytr, xte, yte = digits_small
        spec = variant_spec("digits_ssc_ebc2")
        steps = []
        monkeypatch.setattr(learn, "backward",
                            lambda *a, **k: steps.append(1))
        with pytest.raises(DataError, match="empty"):
            train(TrainConfig(epochs=1, seed=0), spec, xtr[:20], ytr[:20],
                  xte[:0], yte[:0])
        assert steps == []


class TestEvaluate:
    """Error-rate accounting and the whole-set objective."""

    def test_untrained_predicts_one_class(self, digits_small):
        """Equal scores argmax to class 0, so error is P(label != 0)."""
        xtr, ytr, _, _ = digits_small
        spec = variant_spec("digits_ssc_ebc2")
        params = build(spec, seed=0)
        err, tloss = evaluate(params, spec, xtr, ytr)
        np.testing.assert_allclose(err, (ytr != 0).mean(), atol=1e-12)
        np.testing.assert_allclose(tloss, math.log(10.0), atol=1e-5)

    def test_empty_split_is_a_data_error(self, digits_small):
        """No images to score: a DataError, not a ZeroDivisionError in
        the error rate."""
        _, _, xte, yte = digits_small
        spec = variant_spec("digits_ssc_ebc2")
        with pytest.raises(DataError, match="empty"):
            evaluate(build(spec, seed=0), spec, xte[:0], yte[:0])

    def test_empty_split_objective_is_a_data_error(self, digits_small):
        """The whole-set objective of no images is a DataError, as in
        evaluate, not a ZeroDivisionError."""
        _, _, xte, yte = digits_small
        spec = variant_spec("digits_ssc_ebc2")
        with pytest.raises(DataError, match="empty"):
            dataset_objective(build(spec, seed=0), spec, xte[:0], yte[:0],
                              TrainConfig())

    def test_dataset_objective_matches_single_batch(self, digits_small):
        """Batch-weighted averaging reproduces the whole-set loss."""
        xtr, ytr, _, _ = digits_small
        x, y = xtr[:40], ytr[:40]
        spec = variant_spec("digits_ssc_ebc2")
        params = build(spec, seed=0)
        cfg = TrainConfig(alpha=0.001)
        got = dataset_objective(params, spec, x, y, cfg, batch_size=16)
        whole, _ = loss(params, spec, x, y, cfg, mode="eval")
        np.testing.assert_allclose(got, float(whole), rtol=1e-6)
