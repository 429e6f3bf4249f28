"""Reverse-mode differentiation: every recorded op is checked against
central finite differences, and traced values match the plain path."""

import numpy as np
import pytest

from ebssc import tensor
from ebssc.oracle import finite_diff
from ebssc.tape import Node, PlainOps, Tape, TapeOps


def _gradcheck(fn, x0, atol=1e-7):
    """Compare the taped gradient of ``fn(ops, leaf)`` with central
    differences of its PlainOps evaluation; also checks value agreement
    and that the untaped evaluation records no node.  Returns the taped
    gradient."""
    tape = Tape()
    ops = TapeOps(tape)
    leaf = ops.leaf(x0.astype(np.float64))
    out = fn(ops, leaf)
    tape.backward(out)

    def plain(x):
        p = PlainOps()
        value = fn(p, p.leaf(x))
        assert not isinstance(value, Node)
        return float(value)

    np.testing.assert_allclose(float(out.value), plain(x0), rtol=1e-12)
    got = np.zeros_like(x0) if leaf.grad is None else leaf.grad
    np.testing.assert_allclose(got, finite_diff(plain, x0), atol=atol)
    return got


def _away_from_kinks(v, thresholds, margin=0.01):
    """Nudge entries off shrinkage kinks so finite differences are valid."""
    out = v.copy()
    for t in thresholds:
        near = np.abs(out - t) < margin
        out[near] += 2 * margin
    return out


class TestLinearOps:
    """Structurally linear ops where the chain rule is exact."""

    def test_arithmetic_chain(self):
        """add/sub/mul/scale/add_n compose correctly."""
        rng = np.random.default_rng(42)
        a = rng.standard_normal((3, 4))
        b = rng.standard_normal((3, 4))

        def fn(ops, x):
            t = ops.add(ops.mul(x, ops.leaf(b)), ops.scale(x, -1.0))
            t = ops.add_n([t, ops.scale(x, 0.5), ops.sub(x, ops.leaf(b))])
            return ops.sum_all(t)

        _gradcheck(fn, a)

    def test_broadcast_gradients_unbroadcast(self):
        """Gradients of broadcast operands sum back to their shape."""
        rng = np.random.default_rng(42)
        row = rng.standard_normal((1, 5))
        full = rng.standard_normal((4, 5))

        def fn(ops, x):
            return ops.sum_all(ops.mul(x, ops.leaf(full)))

        _gradcheck(fn, row)

    def test_reshape(self):
        """Reshape routes gradients back to the original layout."""
        rng = np.random.default_rng(42)
        u = rng.standard_normal((2, 6))

        def fn(ops, x):
            return ops.sum_all(ops.mul(ops.reshape(x, (2, 6)), ops.leaf(u)))

        _gradcheck(fn, rng.standard_normal((3, 4)))

    def test_dropout_mask(self):
        """Dropout is multiplication by the sampled mask."""
        rng = np.random.default_rng(42)
        mask = (rng.random((3, 4, 4)) > 0.3) / 0.7

        def fn(ops, x):
            return ops.sum_all(ops.scale(x, mask))

        _gradcheck(fn, rng.standard_normal((3, 4, 4)))


class TestConvolutionOps:
    """Correlation and reconstruction, each side of the adjoint pair."""

    def test_correlate_wrt_input(self):
        """d<correlate(x, B), u>/dx matches finite differences."""
        rng = np.random.default_rng(42)
        bank = rng.standard_normal((3, 2, 3, 3))
        u = rng.standard_normal((3, 6, 6))

        def fn(ops, x):
            return ops.sum_all(ops.mul(
                ops.correlate(x, ops.leaf(bank), 1), ops.leaf(u)))

        _gradcheck(fn, rng.standard_normal((2, 6, 6)))

    def test_correlate_wrt_bank(self):
        """d<correlate(x, B), u>/dB matches finite differences."""
        rng = np.random.default_rng(42)
        x = rng.standard_normal((2, 6, 6))
        u = rng.standard_normal((3, 6, 6))

        def fn(ops, b):
            return ops.sum_all(ops.mul(
                ops.correlate(ops.leaf(x), b, 1), ops.leaf(u)))

        _gradcheck(fn, rng.standard_normal((3, 2, 3, 3)))

    def test_reconstruct_wrt_code(self):
        """d<reconstruct(z, B), u>/dz matches finite differences."""
        rng = np.random.default_rng(42)
        bank = rng.standard_normal((3, 2, 3, 3))
        u = rng.standard_normal((2, 6, 6))

        def fn(ops, z):
            return ops.sum_all(ops.mul(
                ops.reconstruct(z, ops.leaf(bank), 1), ops.leaf(u)))

        _gradcheck(fn, rng.standard_normal((3, 6, 6)))

    def test_reconstruct_wrt_bank(self):
        """d<reconstruct(z, B), u>/dB matches finite differences."""
        rng = np.random.default_rng(42)
        z = rng.standard_normal((3, 5, 5))
        u = rng.standard_normal((2, 5, 5))

        def fn(ops, b):
            return ops.sum_all(ops.mul(
                ops.reconstruct(ops.leaf(z), b, 1), ops.leaf(u)))

        _gradcheck(fn, rng.standard_normal((3, 2, 3, 3)))


class TestNonlinearOps:
    """Piecewise ops, probed away from their kinks."""

    def test_relu(self):
        """ReLU passes gradients on the active side only."""
        rng = np.random.default_rng(42)
        v = _away_from_kinks(rng.standard_normal((3, 4, 4)), [0.0])
        u = rng.standard_normal((3, 4, 4))

        def fn(ops, x):
            return ops.sum_all(ops.mul(ops.relu(x), ops.leaf(u)))

        _gradcheck(fn, v)

    def test_split(self):
        """The channel split is two masked identities stacked."""
        rng = np.random.default_rng(42)
        v = _away_from_kinks(rng.standard_normal((2, 4, 4)), [0.0])
        u = rng.standard_normal((4, 4, 4))

        def fn(ops, x):
            return ops.sum_all(ops.mul(ops.split(x), ops.leaf(u)))

        _gradcheck(fn, v)

    def test_branch_code_wrt_input(self):
        """Shrinkage gradients vanish in the dead zone, shift outside."""
        rng = np.random.default_rng(42)
        bp = np.full((3, 1, 1), 0.3)
        bm = np.full((3, 1, 1), 0.2)
        v = _away_from_kinks(rng.standard_normal((3, 4, 4)), [0.3, -0.2])
        u = rng.standard_normal((3, 4, 4))

        def fn(ops, x):
            return ops.sum_all(ops.mul(
                ops.branch_code(x, ops.leaf(bp), ops.leaf(bm)),
                ops.leaf(u)))

        _gradcheck(fn, v)

    def test_branch_code_wrt_thresholds(self):
        """Threshold gradients count active coefficients per channel."""
        rng = np.random.default_rng(42)
        v = _away_from_kinks(rng.standard_normal((3, 4, 4)), [0.3, -0.2])
        bm = np.full((3, 1, 1), 0.2)
        u = rng.standard_normal((3, 4, 4))

        def fn(ops, bp):
            return ops.sum_all(ops.mul(
                ops.branch_code(ops.leaf(v), ops.reshape(bp, (3, 1, 1)),
                                ops.leaf(bm)),
                ops.leaf(u)))

        _gradcheck(fn, np.full(3, 0.3))

    def test_branch_code_wrt_feedback(self):
        """Split-space feedback [c+; c-] of shape (2, Y, 2K, H, W), with v
        broadcast over the class axis as unrolling has it: the positive
        arm's mask reaches the first K channels, the negative arm's the
        last K.  Both arms stay off their kinks and off their ties."""
        rng = np.random.default_rng(42)
        k, margin = 3, 0.01
        bp = np.full((k, 1, 1), 0.3)
        bm = np.full((k, 1, 1), 0.2)
        v = rng.standard_normal((2, 1, k, 4, 4))
        fb = rng.standard_normal((2, 2, 2 * k, 4, 4))
        pos = _away_from_kinks(v - bp + fb[..., :k, :, :], [0.0], margin)
        neg = _away_from_kinks(v + bm + fb[..., k:, :, :], [0.0], margin)
        tie = (pos > 0) & (neg < 0) & (np.abs(pos + neg) < margin)
        pos[tie] += 2 * margin
        fb = np.concatenate([pos - (v - bp), neg - (v + bm)], axis=-3)
        u = rng.standard_normal((2, 2, k, 4, 4))

        def fn(ops, x):
            return ops.sum_all(ops.mul(
                ops.branch_code(ops.leaf(v), ops.leaf(bp), ops.leaf(bm),
                                feedback=x),
                ops.leaf(u)))

        got = _gradcheck(fn, fb)
        assert got[..., :k, :, :].any() and got[..., k:, :, :].any()

    @staticmethod
    def _branch_code_mask(v, bp, bm):
        """z_tilde and the gradient of sum(z_tilde) with respect to v."""
        tape = Tape()
        ops = TapeOps(tape)
        x = ops.leaf(v)
        z = ops.branch_code(x, ops.leaf(np.asarray(bp)),
                            ops.leaf(np.asarray(bm)))
        tape.backward(ops.sum_all(z))
        return z.value, x.grad

    def test_branch_code_mask_matches_active_set(self):
        """The backward mask is 1 exactly where z_tilde is nonzero."""
        v = np.random.default_rng(42).standard_normal(2000)
        z, mask = self._branch_code_mask(v, 0.3, 0.2)
        np.testing.assert_array_equal(mask != 0, z != 0)
        assert set(np.unique(mask)) == {0.0, 1.0}

    def test_branch_code_kinks_count_as_inactive(self):
        """At v == beta_plus, at v == -beta_minus and at NaN the
        subgradient convention picks 0."""
        _, mask = self._branch_code_mask(
            np.asarray([0.5, -0.5, np.nan, 0.7, -0.7]), 0.5, 0.5)
        np.testing.assert_array_equal(mask, [0.0, 0.0, 0.0, 1.0, 1.0])

    def test_normalize(self):
        """Sphere projection differentiates through the norm."""
        rng = np.random.default_rng(42)
        z = rng.standard_normal((2, 3, 3))
        u = rng.standard_normal((2, 3, 3))

        def fn(ops, x):
            return ops.sum_all(ops.mul(ops.normalize(x)[0], ops.leaf(u)))

        _gradcheck(fn, z, atol=1e-6)


class TestEnergyOp:
    """The closed-form coding energy ||z_tilde||_2 and its envelope
    gradient, over two class hypotheses: hypothesis 0 codes with
    (0.3, 0.2), hypothesis 1 shrinks everything to zero."""

    @staticmethod
    def _case():
        rng = np.random.default_rng(42)
        v = _away_from_kinks(rng.standard_normal((2, 2, 3, 4, 4)),
                             [0.3, -0.2])
        bp = np.stack([np.full((3, 1, 1), 0.3), np.full((3, 1, 1), 10.0)])
        bm = np.stack([np.full((3, 1, 1), 0.2), np.full((3, 1, 1), 10.0)])
        w = rng.standard_normal((2, 2))
        return v, bp, bm, w

    @staticmethod
    def _weighted_energy(ops, v, bp, bm, w):
        z, norm = ops.normalize(ops.branch_code(v, bp, bm))
        return ops.sum_all(ops.mul(ops.energy(v, bp, bm, z, norm),
                                   ops.leaf(w)))

    def test_value_is_the_norm_and_zero_when_all_shrunk(self):
        """The energy is ||z_tilde||_2 per hypothesis, exactly 0 for the
        hypothesis whose z_tilde is all zero."""
        v, bp, bm, _ = self._case()
        ops = PlainOps()
        zt = ops.branch_code(v, bp, bm)
        z, norm = ops.normalize(zt)
        e = ops.energy(v, bp, bm, z, norm)
        assert e.shape == (2, 2)
        np.testing.assert_allclose(
            e, np.sqrt((zt ** 2).sum(axis=(-3, -2, -1))), rtol=1e-12)
        assert (e[:, 0] > 0).all()
        assert (e[:, 1] == 0).all()

    def test_wrt_correlation(self):
        """d/dv is the code z; zero for the all-shrunk hypothesis."""
        v, bp, bm, w = self._case()
        got = _gradcheck(lambda ops, x: self._weighted_energy(
            ops, x, ops.leaf(bp), ops.leaf(bm), w), v)
        assert (got[:, 1] == 0).all()

    def test_wrt_upper_threshold(self):
        """d/dbeta_plus is -z+ summed over batch and locations."""
        v, bp, bm, w = self._case()
        got = _gradcheck(lambda ops, x: self._weighted_energy(
            ops, ops.leaf(v), x, ops.leaf(bm), w), bp)
        assert (got[1] == 0).all()

    def test_wrt_lower_threshold(self):
        """d/dbeta_minus is z- summed over batch and locations."""
        v, bp, bm, w = self._case()
        got = _gradcheck(lambda ops, x: self._weighted_energy(
            ops, ops.leaf(v), ops.leaf(bp), x, w), bm)
        assert (got[1] == 0).all()

    @staticmethod
    def _explicit_case():
        """A code that is no block's optimum, zero where |z| < 0.3, and
        the same code moved off zero for finite differences in z."""
        v, bp, bm, w = TestEnergyOp._case()
        z = np.random.default_rng(7).standard_normal(v.shape)
        off_kink = _away_from_kinks(z, [0.0])
        z[np.abs(z) < 0.3] = 0.0
        return v, bp, bm, z, off_kink, w

    @staticmethod
    def _weighted_explicit(ops, v, bp, bm, z, w):
        return ops.sum_all(ops.mul(ops.energy(v, bp, bm, z), ops.leaf(w)))

    def test_explicit_value(self):
        """Without a norm the value is <v, z> - beta_plus.z+ +
        beta_minus.z- at the given code, per hypothesis."""
        v, bp, bm, z, _, _ = self._explicit_case()
        e = PlainOps().energy(v, bp, bm, z)
        want = (v * z - bp * np.maximum(z, 0) + bm * np.minimum(z, 0)).sum(
            axis=(-3, -2, -1))
        assert e.shape == (2, 2) and e.dtype == np.float64
        np.testing.assert_allclose(e, want, rtol=1e-12)

    def test_explicit_wrt_correlation(self):
        """d/dv of the explicit form is the code z."""
        v, bp, bm, z, _, w = self._explicit_case()
        _gradcheck(lambda ops, x: self._weighted_explicit(
            ops, x, ops.leaf(bp), ops.leaf(bm), ops.leaf(z), w), v)

    def test_explicit_wrt_upper_threshold(self):
        """d/dbeta_plus of the explicit form is -z+."""
        v, bp, bm, z, _, w = self._explicit_case()
        _gradcheck(lambda ops, x: self._weighted_explicit(
            ops, ops.leaf(v), x, ops.leaf(bm), ops.leaf(z), w), bp)

    def test_explicit_wrt_lower_threshold(self):
        """d/dbeta_minus of the explicit form is z-."""
        v, bp, bm, z, _, w = self._explicit_case()
        _gradcheck(lambda ops, x: self._weighted_explicit(
            ops, ops.leaf(v), ops.leaf(bp), x, ops.leaf(z), w), bm)

    def test_explicit_wrt_code(self):
        """d/dz of the explicit form is v - beta_plus.[z > 0] +
        beta_minus.[z < 0], probed off z = 0; at z = 0 it is v."""
        v, bp, bm, z, off_kink, w = self._explicit_case()
        _gradcheck(lambda ops, x: self._weighted_explicit(
            ops, ops.leaf(v), ops.leaf(bp), ops.leaf(bm), x, w), off_kink)
        tape = Tape()
        ops = TapeOps(tape)
        code = ops.leaf(z)
        tape.backward(self._weighted_explicit(
            ops, ops.leaf(v), ops.leaf(bp), ops.leaf(bm), code, w))
        dead = z == 0
        assert dead.any()
        np.testing.assert_array_equal(
            code.grad[dead], (w[..., None, None, None] * v)[dead])


class TestEnergyLayouts:
    """Both energy forms over the other layouts the networks use: v with
    a singleton class axis against spatial class arm maps (Y, K, H, W),
    as the digit model's ebssc block has them (``bias_maps=True``), and
    per-channel (K,) arms with no class axis, as ssc blocks have them;
    and per-channel arms shared by every class, where the gradient
    contracts two leading axes at once.  The gradient contracts the code
    over the leading axes each target does not keep."""

    LAYOUTS = {"class_maps": ((2, 1, 3, 4, 4), (2, 3, 4, 4), (2, 2)),
               "channel_arms": ((2, 3, 4, 4), (3,), (2,)),
               "shared_arms": ((2, 2, 3, 4, 4), (3,), (2, 2))}

    @classmethod
    def _case(cls, layout, code_off_zero):
        """[v, beta_plus, beta_minus, z] and the weights w of the energies:
        thresholds drawn from two levels per arm, v off every kink, and a
        code that is zero where |z| < 0.3, or off zero everywhere for
        finite differences in z."""
        rng = np.random.default_rng(3)
        vshape, arms, lead = cls.LAYOUTS[layout]
        bp = rng.choice([0.3, 0.5], arms)
        bm = rng.choice([0.2, 0.4], arms)
        v = _away_from_kinks(rng.standard_normal(vshape),
                             [0.3, 0.5, -0.2, -0.4])
        z = rng.standard_normal(lead + vshape[-3:])
        if code_off_zero:
            z = _away_from_kinks(z, [0.0])
        else:
            z[np.abs(z) < 0.3] = 0.0
        return [v, bp, bm, z], rng.standard_normal(lead)

    @staticmethod
    def _weighted(ops, args, w, explicit):
        v, bp, bm, z = args
        if np.ndim(ops.value(bp)) == 1:
            bp, bm = (ops.reshape(t, np.shape(ops.value(t)) + (1, 1))
                      for t in (bp, bm))
        if explicit:
            e = ops.energy(v, bp, bm, z)
        else:
            code, norm = ops.normalize(ops.branch_code(v, bp, bm))
            e = ops.energy(v, bp, bm, code, norm)
        return ops.sum_all(ops.mul(e, ops.leaf(w)))

    def _check(self, layout, wrt, explicit):
        args, w = self._case(layout, code_off_zero=wrt == 3)

        def fn(ops, x):
            leaves = [x if i == wrt else ops.leaf(a)
                      for i, a in enumerate(args)]
            return self._weighted(ops, leaves, w, explicit)

        assert _gradcheck(fn, args[wrt]).any()

    @pytest.mark.parametrize("layout", sorted(LAYOUTS))
    @pytest.mark.parametrize("wrt", [0, 1, 2], ids=["v", "bp", "bm"])
    def test_closed_form(self, layout, wrt):
        """||z_tilde||_2: z for v, -z+ for beta_plus, z- for beta_minus."""
        self._check(layout, wrt, explicit=False)

    @pytest.mark.parametrize("layout", sorted(LAYOUTS))
    @pytest.mark.parametrize("wrt", [0, 1, 2, 3],
                             ids=["v", "bp", "bm", "z"])
    def test_explicit_form(self, layout, wrt):
        """<v, z> - beta_plus.z+ + beta_minus.z- at a code that is no
        block's optimum, including its gradient in z."""
        self._check(layout, wrt, explicit=True)


class TestPoolingOps:
    """Max pooling and its inverses with frozen switches."""

    def test_maxpool(self):
        """Gradients flow to each window's winner."""
        rng = np.random.default_rng(42)
        x = rng.standard_normal((2, 6, 6))
        u = rng.standard_normal((2, 3, 3))

        def fn(ops, t):
            pooled, _ = ops.maxpool(t, 2, 2, 0)
            return ops.sum_all(ops.mul(pooled, ops.leaf(u)))

        _gradcheck(fn, x)

    def test_switch_pool(self):
        """Gathering at frozen switches is linear in the input."""
        rng = np.random.default_rng(42)
        x = rng.standard_normal((2, 6, 6))
        _, sw = tensor.max_pool(x, 2, 2, 0, return_switches=True)
        u = rng.standard_normal((2, 3, 3))

        def fn(ops, t):
            return ops.sum_all(ops.mul(ops.switch_pool(t, sw, 2, 2, 0),
                                       ops.leaf(u)))

        _gradcheck(fn, rng.standard_normal((2, 6, 6)))

    def test_maxunpool(self):
        """Scattering through switches is linear in the values."""
        rng = np.random.default_rng(42)
        base = rng.standard_normal((2, 6, 6))
        _, sw = tensor.max_pool(base, 2, 2, 0, return_switches=True)
        u = rng.standard_normal((2, 6, 6))

        def fn(ops, z):
            return ops.sum_all(ops.mul(
                ops.maxunpool(z, sw, 2, 2, 0, (6, 6)), ops.leaf(u)))

        _gradcheck(fn, rng.standard_normal((2, 3, 3)))


class TestReductionsAndHead:
    """Reductions, the linear head, and the classification loss."""

    def test_sumsq(self):
        """d(sum x^2)/dx = 2x."""
        rng = np.random.default_rng(42)
        _gradcheck(lambda ops, x: ops.sumsq(x),
                   rng.standard_normal((3, 3)))

    def test_linear_wrt_features(self):
        """The linear head differentiates like a matmul."""
        rng = np.random.default_rng(42)
        w = rng.standard_normal((4, 6))
        u = rng.standard_normal((2, 4))

        def fn(ops, f):
            return ops.sum_all(ops.mul(ops.linear(f, ops.leaf(w)),
                                       ops.leaf(u)))

        _gradcheck(fn, rng.standard_normal((2, 6)))

    def test_linear_wrt_weights(self):
        """Weight gradients are outer products of features and upstream."""
        rng = np.random.default_rng(42)
        f = rng.standard_normal((2, 6))
        u = rng.standard_normal((2, 4))

        def fn(ops, w):
            return ops.sum_all(ops.mul(ops.linear(ops.leaf(f), w),
                                       ops.leaf(u)))

        _gradcheck(fn, rng.standard_normal((4, 6)))

    def test_softmax_xent_value(self):
        """The loss equals the mean negative log softmax probability."""
        rng = np.random.default_rng(42)
        scores = rng.standard_normal((5, 4))
        labels = rng.integers(0, 4, 5)
        p = PlainOps()
        got = p.softmax_xent(p.leaf(scores), labels)
        e = np.exp(scores - scores.max(axis=1, keepdims=True))
        probs = e / e.sum(axis=1, keepdims=True)
        want = -np.log(probs[np.arange(5), labels]).mean()
        np.testing.assert_allclose(got, want, rtol=1e-12)

    def test_softmax_xent_gradient(self):
        """Score gradients are (softmax - onehot) / batch."""
        rng = np.random.default_rng(42)
        labels = rng.integers(0, 4, 5)

        def fn(ops, s):
            return ops.softmax_xent(s, labels)

        _gradcheck(fn, rng.standard_normal((5, 4)), atol=1e-8)


class TestTapeMechanics:
    """Accumulation and reuse semantics of the tape itself."""

    def test_fanout_accumulates(self):
        """A value used twice receives the sum of both gradients."""
        rng = np.random.default_rng(42)
        x0 = rng.standard_normal((3, 3))

        def fn(ops, x):
            return ops.add(ops.sumsq(x), ops.sumsq(x))

        _gradcheck(fn, x0)

    def test_unused_leaf_has_no_gradient(self):
        """Leaves outside the graph keep grad = None."""
        tape = Tape()
        ops = TapeOps(tape)
        used = ops.leaf(np.ones(3))
        unused = ops.leaf(np.ones(3))
        tape.backward(ops.sumsq(used))
        assert unused.grad is None
        np.testing.assert_allclose(used.grad, 2 * np.ones(3))
