"""Reverse-mode differentiation: every recorded op is checked against
central finite differences, and traced values match the plain path."""

import numpy as np

from ebssc import tensor
from ebssc.oracle import finite_diff
from ebssc.tape import Node, PlainOps, Tape, TapeOps


def _gradcheck(fn, x0, atol=1e-7):
    """Compare the taped gradient of ``fn(ops, leaf)`` with central
    differences of its PlainOps evaluation; also checks value agreement
    and that the untaped evaluation records no node."""
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

    def test_chan_slice(self):
        """Slice gradients land on the sliced channels only."""
        rng = np.random.default_rng(42)
        u = rng.standard_normal((2, 4, 4))

        def fn(ops, x):
            return ops.sum_all(ops.mul(ops.chan_slice(x, 1, 3),
                                       ops.leaf(u)))

        _gradcheck(fn, rng.standard_normal((5, 4, 4)))

    def test_dropout_mask(self):
        """Dropout is multiplication by the sampled mask."""
        rng = np.random.default_rng(42)
        mask = (rng.random((3, 4, 4)) > 0.3) / 0.7

        def fn(ops, x):
            return ops.sum_all(ops.dropout(x, mask))

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

    def test_negpart(self):
        """min(x, 0) passes gradients on the negative side only."""
        rng = np.random.default_rng(42)
        v = _away_from_kinks(rng.standard_normal((3, 4, 4)), [0.0])
        u = rng.standard_normal((3, 4, 4))

        def fn(ops, x):
            return ops.sum_all(ops.mul(ops.negpart(x), ops.leaf(u)))

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

    def test_normalize(self):
        """Sphere projection differentiates through the norm."""
        rng = np.random.default_rng(42)
        z = rng.standard_normal((2, 3, 3))
        u = rng.standard_normal((2, 3, 3))

        def fn(ops, x):
            return ops.sum_all(ops.mul(ops.normalize(x), ops.leaf(u)))

        _gradcheck(fn, z, atol=1e-6)


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

    def test_sum_spatial(self):
        """Spatial sums keep the channel axis."""
        rng = np.random.default_rng(42)
        u = rng.standard_normal(3)

        def fn(ops, x):
            return ops.sum_all(ops.mul(ops.sum_spatial(x), ops.leaf(u)))

        _gradcheck(fn, rng.standard_normal((3, 4, 4)))

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
