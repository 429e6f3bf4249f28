"""End-to-end guarantees, checked against independent oracles.

Everything here states a promise the library makes — closed-form
optimality, algebraic identities, gradient exactness, training behavior
— together with the tolerance and, where it matters, the time budget.
"""

import time

import numpy as np
import pytest

from ebssc import (ClassBiasParams, ThresholdPair, TrainConfig, coder,
                   energy, learn, network, tensor)
from ebssc.config import parse_config, serialize_config, variant_spec
from ebssc.learn import (OptimizerState, adam_step, dataset_objective,
                         evaluate, train)
from ebssc.network import build, forward, unrolled_infer
from ebssc.oracle import finite_diff, ista_csc, pga_ssc, unit_recon_solve
from ebssc.shrinkage import crelu_split, shrink
from ebssc.tape import Ops


def _toy_energy_spec(beta=0.15):
    """Two coding blocks around a max-pool, scored by an energy head."""
    from ebssc.network import BlockSpec, NetworkSpec
    blocks = (BlockSpec("ssc", (4, 1, 3, 3), pad=1, beta=beta),
              BlockSpec("maxpool", (2,), stride=2, pad=0),
              BlockSpec("ebssc", (5, 8, 3, 3), pad=1, beta=beta))
    return NetworkSpec(blocks=blocks, classifier=("energy", 2),
                       num_classes=3, input_shape=(1, 8, 8))


def _generic_params(spec, seed=0, dtype=np.float64):
    """Built parameters nudged off their symmetric initialization."""
    params = build(spec, seed=seed, dtype=dtype)
    rng = np.random.default_rng(seed + 1)
    out = {}
    for name, p in params.items():
        p = np.asarray(p, dtype=dtype)
        if name.endswith((".w_plus", ".w_minus")):
            out[name] = p + rng.uniform(0.01, 0.08, p.shape)
        elif name.endswith(".offset"):
            out[name] = p + rng.uniform(-0.03, 0.03, p.shape)
        else:
            out[name] = p.copy()
    return out


class TestClosedFormCodingOptimality:
    """The one-shot coder solves its constrained problem exactly."""

    def test_matches_ball_ascent_on_random_instances(self):
        """Fifty random instances: the closed form ties the iterative
        ball solver to one part in 1e5, inside a minute."""
        rng = np.random.default_rng(11)
        t0 = time.monotonic()
        worst = 0.0
        for _ in range(50):
            h = int(rng.integers(5, 9))
            w = int(rng.integers(5, 9))
            k = int(rng.integers(1, 5))
            ksz = int(rng.integers(2, 4))
            pad = int(rng.integers(0, 2))
            x = rng.standard_normal((1, h, w))
            bank = rng.standard_normal((k, 1, ksz, ksz)) * 0.7
            bp = rng.uniform(0.02, 0.5, k)
            bm = np.maximum(rng.uniform(-0.05, 0.5, k), -bp + 0.01)
            pair = ThresholdPair(beta_plus=bp[:, None, None],
                                 beta_minus=bm[:, None, None])
            res = coder.ssc_encode(x, bank, pair, pad=pad)
            rep = pga_ssc(x, bank, pair, pad=pad, iters=4000)
            best = max(rep.objective_trace)
            scale = max(1.0, abs(res.optimal_energy))
            assert best <= res.optimal_energy + 1e-9 * scale
            worst = max(worst, (res.optimal_energy - best) / scale)
        assert worst <= 1e-5
        assert time.monotonic() - t0 < 60.0

    def test_sphere_identities_on_a_thousand_draws(self):
        """Norm in {0, 1}, multiplier = half the shrunk norm, signs
        preserved — on 1000 random encodes including dead ones."""
        rng = np.random.default_rng(12)
        for i in range(1000):
            x = rng.standard_normal((1, 5, 5))
            bank = rng.standard_normal((2, 1, 2, 2))
            beta = 50.0 if i % 25 == 0 else float(rng.uniform(0.01, 0.6))
            res = coder.ssc_encode(x, bank, ThresholdPair.symmetric(beta),
                                   pad=0)
            n = tensor.l2_norm(res.code)
            assert n == 0.0 or abs(n - 1.0) <= 1e-9
            assert res.lambda_star == pytest.approx(
                0.5 * tensor.l2_norm(res.pre_projection), abs=1e-12)
            assert np.array_equal(np.sign(res.code),
                                  np.sign(res.pre_projection))


class TestSphereLeastSquaresEquivalence:
    """Scaling the sphere-constrained solution reproduces the
    least-squares sparse coder's reconstruction."""

    def test_reconstructions_agree(self):
        """Twenty nondegenerate instances within 1e-4 relative, inside
        two minutes."""
        rng = np.random.default_rng(13)
        t0 = time.monotonic()
        done = 0
        for _ in range(40):
            if done == 20:
                break
            xs = rng.standard_normal((1, 5, 5))
            xs /= tensor.l2_norm(xs)
            bs = rng.standard_normal((2, 1, 3, 3)) * 0.8
            beta = 0.05
            unit = unit_recon_solve(xs, bs, beta / 2.0, pad=0)
            lsq = ista_csc(xs, bs, beta, pad=0, iters=20000, tol=1e-15)
            target = tensor.reconstruct(lsq.final_point, bs, pad=0)
            if unit.degenerate or tensor.l2_norm(target) < 1e-3:
                continue
            scaled = coder.unit_scale_to_lsq(unit.code, xs, bs, beta, pad=0)
            rel = tensor.l2_norm(scaled.reconstruction - target) \
                / tensor.l2_norm(target)
            assert rel <= 1e-4
            done += 1
        assert done == 20
        assert time.monotonic() - t0 < 120.0


class TestReparameterization:
    """Folding class biases into the thresholds leaves the total energy
    untouched."""

    def test_split_energies_match_joint_form(self):
        """Code + class energy equals the reparameterized energy to
        1e-10 on random parameters and codes."""
        rng = np.random.default_rng(14)
        for _ in range(25):
            x = rng.standard_normal((2, 6, 6))
            bank = rng.standard_normal((3, 2, 3, 3))
            z = rng.standard_normal((3, 6, 6))
            z *= rng.uniform(0.2, 1.0) / tensor.l2_norm(z)
            beta = float(rng.uniform(0.1, 0.9))
            params = ClassBiasParams(
                w_hat_plus=rng.uniform(0, 0.3, (4, 3)),
                w_hat_minus=rng.uniform(0, 0.3, (4, 3)),
                offset=rng.uniform(-0.15, 0.15, 3))
            y = int(rng.integers(0, 4))
            wp = beta - (np.asarray(params.w_hat_plus)[y] + params.offset)
            wm = (np.asarray(params.w_hat_minus)[y] - params.offset) - beta
            lhs = energy.e_code(x, z, bank, beta, pad=1) \
                + energy.e_class(z, wp, wm)
            rhs = energy.e_reparam(x, z, bank,
                                   np.asarray(params.w_hat_plus)[y],
                                   np.asarray(params.w_hat_minus)[y],
                                   params.offset, pad=1)
            assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs))


class TestRectifierReductions:
    """Shrinkage and its degenerate special cases, bit for bit."""

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_shrink_is_a_difference_of_two_relus(self, dtype):
        """shrink(v) == relu(v - bp) - relu(-(v + bm)) exactly."""
        rng = np.random.default_rng(15)
        v = rng.standard_normal((3, 7, 7)).astype(dtype)
        bp = rng.uniform(0.05, 0.4, (3, 1, 1)).astype(dtype)
        bm = rng.uniform(0.05, 0.4, (3, 1, 1)).astype(dtype)
        pair = ThresholdPair(beta_plus=bp, beta_minus=bm)
        two_relu = np.maximum(v - bp, 0) - np.maximum(-(v + bm), 0)
        np.testing.assert_array_equal(shrink(v, pair), two_relu)

    def test_zero_threshold_coding_is_normalized_crelu(self):
        """With zero thresholds the coder is projection onto the sphere,
        and its split halves are exactly the two rectifier branches."""
        rng = np.random.default_rng(16)
        x = rng.standard_normal((1, 6, 6))
        bank = rng.standard_normal((2, 1, 3, 3))
        res = coder.ssc_encode(x, bank, ThresholdPair.symmetric(0.0), pad=0)
        v = tensor.cross_correlate(x, bank, pad=0)
        np.testing.assert_array_equal(res.code, v / tensor.l2_norm(v))
        halves = crelu_split(res.code)
        np.testing.assert_array_equal(halves[:2], np.maximum(res.code, 0))
        np.testing.assert_array_equal(halves[2:], np.minimum(res.code, 0))

    def test_dropping_the_negative_half_gives_relu(self):
        """CReLU's positive branch is ReLU; both halves together restore
        the input exactly."""
        rng = np.random.default_rng(17)
        v = rng.standard_normal((4, 5, 5)).astype(np.float32)
        halves = crelu_split(v)
        np.testing.assert_array_equal(halves[:4], np.maximum(v, 0))
        np.testing.assert_array_equal(halves[:4] + halves[4:], v)


class TestFullModelGradients:
    """Analytic gradients of the training loss, against central
    differences, for every parameter tensor of a two-coder network."""

    def test_every_parameter_group(self):
        """Max-relative error below 1e-4 per group, inside two minutes."""
        spec = _toy_energy_spec()
        params = _generic_params(spec, seed=3)
        rng = np.random.default_rng(18)
        x = rng.standard_normal((2, 1, 8, 8))
        labels = np.asarray([0, 2])
        cfg = TrainConfig(alpha=0.01, learning_rate=1e-3)
        t0 = time.monotonic()
        grads, _, _ = learn.backward(params, spec, x, labels, cfg,
                                     mode="eval")
        for name in sorted(params):
            def f(p, name=name):
                probe = dict(params)
                probe[name] = p
                out, _ = learn.loss(probe, spec, x, labels, cfg,
                                    mode="eval")
                return float(out)

            fd = finite_diff(f, params[name], eps=1e-6)
            scale = max(np.abs(fd).max(), np.abs(grads[name]).max(), 1e-8)
            rel = np.abs(grads[name] - fd).max() / scale
            assert rel < 1e-4, f"{name}: relative error {rel:.2e}"
        assert time.monotonic() - t0 < 120.0


class TestPropernessUnderOptimization:
    """Projected ADAM can never drive the thresholds improper."""

    def test_thousand_random_steps_leave_thresholds_proper(self):
        """After 1000 projected steps on random gradients, every class
        hypothesis still has -beta_minus <= beta_plus everywhere."""
        spec = _toy_energy_spec()
        params = build(spec, seed=5, dtype=np.float64)
        state = OptimizerState.init_like(params)
        cfg = TrainConfig(learning_rate=0.05)
        rng = np.random.default_rng(19)
        for _ in range(1000):
            grads = {k: rng.standard_normal(np.shape(p))
                     for k, p in params.items()}
            params, state = adam_step(params, grads, state, cfg)
        for i, b in enumerate(spec.blocks):
            if b.kind in ("ssc", "ebssc"):
                # Every class's thresholds at once; the pair raises
                # ImproperThresholdError on any improper entry.
                ThresholdPair(*coder.arm_thresholds(
                    Ops(), params[f"block{i}.w_plus"],
                    params[f"block{i}.w_minus"], params[f"block{i}.offset"]))


class TestUnrollingMonotonicity:
    """Each block-coordinate sweep can only raise the joint energy."""

    def test_energy_trace_monotone_on_random_instances(self):
        """Twenty random two-coder instances, four sweeps each."""
        spec = _toy_energy_spec()
        for seed in range(20):
            params = _generic_params(spec, seed=seed)
            rng = np.random.default_rng(100 + seed)
            x = rng.standard_normal((2, 1, 8, 8))
            rolled = unrolled_infer(params, spec, x, T=4)
            trace = np.stack([np.asarray(e) for e in rolled.energy_trace])
            assert trace.shape[0] == 5
            assert (np.diff(trace, axis=0) >= -1e-9).all()

    def test_unrolled_training_reaches_a_lower_objective(self, digits_corpus):
        """On a 500-digit subset at matched epochs, training with one
        sweep of unrolling ends at or below the feed-forward objective."""
        xtr, ytr, _, _ = digits_corpus
        xtr, ytr = xtr[:500], ytr[:500]
        spec = variant_spec("digits_ssc_ebc2", beta=0.05)
        objectives = {}
        for depth in (0, 1):
            cfg = TrainConfig(alpha=1e-4, learning_rate=0.005,
                              batch_size=50, epochs=5, seed=0,
                              unroll_T=depth)
            outcome = train(cfg, spec, xtr, ytr)
            objectives[depth] = dataset_objective(outcome.params, spec,
                                                  xtr, ytr, cfg)
        assert objectives[1] <= objectives[0]


class TestDeskScaleLearning:
    """The desk-scale digit model actually learns."""

    def test_untrained_model_sits_at_chance(self, digits_corpus):
        """Symmetric initialization scores every class identically, so
        the error rate is the no-skill rate of the argmax tie-break."""
        _, _, xte, yte = digits_corpus
        spec = variant_spec("digits_ssc_ebc2", beta=0.05)
        params = build(spec, seed=0)
        err, _ = evaluate(params, spec, xte, yte)
        assert abs(err - 0.9) <= 0.03

    def test_reaches_ten_percent_error_within_budget(self, digits_corpus):
        """1000 training digits, ten epochs: at most 10% test error on
        the 10000-digit held-out set, within ten CPU-minutes."""
        xtr, ytr, xte, yte = digits_corpus
        spec = variant_spec("digits_ssc_ebc2", beta=0.05)
        cfg = TrainConfig(alpha=1e-4, learning_rate=0.005, batch_size=100,
                          epochs=10, seed=0)
        t0 = time.process_time()
        outcome = train(cfg, spec, xtr, ytr)
        err, _ = evaluate(outcome.params, spec, xte, yte)
        elapsed = time.process_time() - t0
        assert err <= 0.10
        assert elapsed < 600.0


class TestRoundTripsAndSelfChecks:
    """Operator adjointness, byte-stable persistence, and the built-in
    check command."""

    def test_correlation_reconstruction_adjointness(self):
        """<correlate(x), z> == <x, reconstruct(z)> to 1e-6 relative."""
        rng = np.random.default_rng(21)
        x = rng.standard_normal((2, 10, 10))
        bank = rng.standard_normal((4, 2, 3, 3))
        z = rng.standard_normal((4, 10, 10))
        lhs = tensor.inner(tensor.cross_correlate(x, bank, pad=1), z)
        rhs = tensor.inner(x, tensor.reconstruct(z, bank, pad=1))
        assert abs(lhs - rhs) <= 1e-6 * max(abs(lhs), abs(rhs))

    def test_checkpoint_bytes_are_stable(self, tmp_path):
        """save -> load -> save writes identical bytes."""
        from ebssc.checkpoint import (Checkpoint, load_checkpoint,
                                      save_checkpoint)
        spec = _toy_energy_spec()
        params = build(spec, seed=2)
        a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(str(a), Checkpoint(spec=spec, params=params,
                                           epoch=3, step=7))
        save_checkpoint(str(b), load_checkpoint(str(a)))
        assert a.read_bytes() == b.read_bytes()

    def test_config_round_trip_is_a_fixed_point(self):
        """parse -> serialize -> parse returns the same run config."""
        text = ("variant = digits_ssc_ebc2\n"
                "beta = 0.07\nlearning_rate = 0.0025\nepochs = 3\n"
                "augment = true\n")
        cfg = parse_config(text)
        once = serialize_config(cfg)
        again = parse_config(once)
        assert again == cfg
        assert serialize_config(again) == once

    def test_check_command_exits_clean(self, capsys):
        """The oracle self-check suite reports success."""
        from ebssc.cli import main
        assert main(["check"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out
