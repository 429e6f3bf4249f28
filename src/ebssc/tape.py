"""Reverse-mode differentiation over the small op set the networks use.

Two interchangeable op providers expose the same method surface:

* ``PlainOps``  — straight numpy evaluation, used for inference.
* ``TapeOps``   — records every op on a ``Tape`` so that ``Tape.backward``
                  can push gradients from a scalar loss to the leaves.

Network code is written once against this surface, which keeps training
and evaluation numerically identical by construction.  Gradients follow
the forward pass's branch decisions: shrinkage masks are {0,1} (zero at
kinks and inside the dead zone), the unit-sphere projection uses the
Jacobian (I - z z') / ||z_tilde||, and max-pool routes through recorded
argmax switches.  Reductions that feed energies accumulate in float64.
"""

from __future__ import annotations

import numpy as np

from . import shrinkage, tensor

__all__ = ["Tape", "Node", "PlainOps", "TapeOps"]


def _unbroadcast(grad, shape):
    """Sum ``grad`` down to ``shape`` (inverse of numpy broadcasting)."""
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] > 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


class Node:
    """One recorded value; ``bwd`` maps the output gradient to the parents."""

    __slots__ = ("value", "grad", "parents", "bwd")

    def __init__(self, value, parents=(), bwd=None):
        self.value = value
        self.grad = None
        self.parents = parents
        self.bwd = bwd

    @property
    def shape(self):
        return self.value.shape

    @property
    def dtype(self):
        return self.value.dtype


class Tape:
    """Creation-ordered node list; reverse iteration is a topological sort."""

    def __init__(self):
        self.nodes = []

    def node(self, value, parents=(), bwd=None):
        n = Node(value, parents, bwd)
        self.nodes.append(n)
        return n

    def leaf(self, value):
        return self.node(np.asarray(value))

    def backward(self, root):
        """Accumulate d(root)/d(leaf) into every node's ``grad``."""
        if np.ndim(root.value) != 0:
            raise ValueError("backward expects a scalar root")
        for n in self.nodes:
            n.grad = None
        root.grad = np.asarray(1.0)
        for n in reversed(self.nodes):
            if n.grad is None or n.bwd is None:
                continue
            n.bwd(n.grad)


def _acc(node, g):
    node.grad = g if node.grad is None else node.grad + g


class PlainOps:
    """Numpy evaluation with the shared op surface."""

    recording = False

    @staticmethod
    def leaf(x):
        return np.asarray(x)

    @staticmethod
    def value(x):
        return x

    @staticmethod
    def add(a, b):
        return a + b

    @staticmethod
    def sub(a, b):
        return a - b

    @staticmethod
    def mul(a, b):
        return a * b

    @staticmethod
    def scale(a, c):
        return a * c

    @staticmethod
    def add_n(terms):
        out = terms[0]
        for t in terms[1:]:
            out = out + t
        return out

    @staticmethod
    def reshape(a, shape):
        return np.reshape(a, shape)

    @staticmethod
    def correlate(x, bank, pad):
        return tensor.cross_correlate(x, bank, pad)

    @staticmethod
    def reconstruct(z, bank, pad):
        return tensor.reconstruct(z, bank, pad)

    @staticmethod
    def branch_code(v, bp, bm, cp=None, cm=None):
        return shrinkage.branch_code(v, bp, bm, cp, cm)[0]

    @staticmethod
    def normalize(t):
        n = np.sqrt(np.sum(np.square(t, dtype=np.float64),
                           axis=(-3, -2, -1), keepdims=True))
        safe = np.where(n > 0, n, 1.0)
        return np.where(n > 0, t / safe, 0.0).astype(t.dtype, copy=False)

    @staticmethod
    def split(t):
        return np.concatenate([np.maximum(t, 0), np.minimum(t, 0)], axis=-3)

    @staticmethod
    def relu(t):
        return np.maximum(t, 0)

    @staticmethod
    def negpart(t):
        return np.minimum(t, 0)

    @staticmethod
    def maxpool(t, window, stride, pad):
        return tensor.max_pool(t, window, stride, pad, return_switches=True)

    @staticmethod
    def switch_pool(t, switches, window, stride, pad):
        return tensor.switch_gather(t, switches, window, stride, pad)

    @staticmethod
    def maxunpool(t, switches, window, stride, pad, out_hw):
        return tensor.max_unpool(t, switches, window, stride, pad, out_hw)

    @staticmethod
    def dropout(t, mask):
        return t * mask

    @staticmethod
    def chan_slice(t, start, stop):
        return t[..., start:stop, :, :]

    @staticmethod
    def sum_spatial(t):
        return np.sum(t, axis=(-3, -2, -1), dtype=np.float64)

    @staticmethod
    def sum_all(t):
        return np.sum(t, dtype=np.float64)

    @staticmethod
    def sumsq(t):
        return np.sum(np.square(t, dtype=np.float64))

    @staticmethod
    def linear(features, w):
        return features @ w.T

    @staticmethod
    def softmax_xent(scores, labels):
        s = np.asarray(scores, dtype=np.float64)
        m = s.max(axis=-1, keepdims=True)
        lse = m[..., 0] + np.log(np.exp(s - m).sum(axis=-1))
        picked = np.take_along_axis(s, labels[:, None], axis=-1)[:, 0]
        return float(np.mean(lse - picked))


class TapeOps:
    """Tape-recording twin of ``PlainOps``."""

    recording = True

    def __init__(self, tape):
        self.tape = tape

    def leaf(self, x):
        return self.tape.leaf(x)

    @staticmethod
    def value(node):
        return node.value

    def add(self, a, b):
        def bwd(g):
            _acc(a, _unbroadcast(g, a.shape))
            _acc(b, _unbroadcast(g, b.shape))
        return self.tape.node(a.value + b.value, (a, b), bwd)

    def sub(self, a, b):
        def bwd(g):
            _acc(a, _unbroadcast(g, a.shape))
            _acc(b, -_unbroadcast(g, b.shape))
        return self.tape.node(a.value - b.value, (a, b), bwd)

    def mul(self, a, b):
        def bwd(g):
            _acc(a, _unbroadcast(g * b.value, a.shape))
            _acc(b, _unbroadcast(g * a.value, b.shape))
        return self.tape.node(a.value * b.value, (a, b), bwd)

    def scale(self, a, c):
        def bwd(g):
            _acc(a, g * c)
        return self.tape.node(a.value * c, (a,), bwd)

    def add_n(self, terms):
        def bwd(g):
            for t in terms:
                _acc(t, _unbroadcast(g, t.shape))
        value = terms[0].value
        for t in terms[1:]:
            value = value + t.value
        return self.tape.node(value, tuple(terms), bwd)

    def reshape(self, a, shape):
        old = a.shape

        def bwd(g):
            _acc(a, np.reshape(g, old))
        return self.tape.node(np.reshape(a.value, shape), (a,), bwd)

    def correlate(self, x, bank, pad):
        kernel_hw = bank.value.shape[-2:]

        def bwd(g):
            _acc(x, tensor.reconstruct(g, bank.value, pad))
            _acc(bank, tensor.correlate_bank_grad(x.value, g, kernel_hw, pad))
        return self.tape.node(tensor.cross_correlate(x.value, bank.value, pad),
                              (x, bank), bwd)

    def reconstruct(self, z, bank, pad):
        def bwd(g):
            _acc(z, tensor.cross_correlate(g, bank.value, pad))
            _acc(bank, tensor.correlate_bank_grad(g, z.value,
                                                  bank.value.shape[-2:], pad))
        return self.tape.node(tensor.reconstruct(z.value, bank.value, pad),
                              (z, bank), bwd)

    def branch_code(self, v, bp, bm, cp=None, cm=None):
        cpv = None if cp is None else cp.value
        cmv = None if cm is None else cm.value
        z, pos, neg = shrinkage.branch_code(
            v.value, bp.value, bm.value, cpv, cmv)
        parents = (v, bp, bm) + tuple(p for p in (cp, cm) if p is not None)

        def bwd(g):
            active = g * (pos | neg)
            _acc(v, _unbroadcast(active, v.shape))
            _acc(bp, _unbroadcast(-(g * pos), bp.shape))
            _acc(bm, _unbroadcast(g * neg, bm.shape))
            if cp is not None:
                _acc(cp, _unbroadcast(g * pos, cp.shape))
            if cm is not None:
                _acc(cm, _unbroadcast(g * neg, cm.shape))
        return self.tape.node(z, parents, bwd)

    def normalize(self, t):
        n = np.sqrt(np.sum(np.square(t.value, dtype=np.float64),
                           axis=(-3, -2, -1), keepdims=True))
        safe = np.where(n > 0, n, 1.0)
        out = np.where(n > 0, t.value / safe, 0.0).astype(t.dtype, copy=False)

        def bwd(g):
            radial = np.sum(g * out, axis=(-3, -2, -1), keepdims=True)
            _acc(t, np.where(n > 0, (g - out * radial) / safe, 0.0))
        return self.tape.node(out, (t,), bwd)

    def split(self, t):
        k = t.shape[-3]
        pos = t.value > 0
        neg = t.value < 0
        out = np.concatenate([np.maximum(t.value, 0),
                              np.minimum(t.value, 0)], axis=-3)

        def bwd(g):
            gp = np.take(g, range(k), axis=-3)
            gm = np.take(g, range(k, 2 * k), axis=-3)
            _acc(t, gp * pos + gm * neg)
        return self.tape.node(out, (t,), bwd)

    def relu(self, t):
        mask = t.value > 0

        def bwd(g):
            _acc(t, g * mask)
        return self.tape.node(np.maximum(t.value, 0), (t,), bwd)

    def negpart(self, t):
        mask = t.value < 0

        def bwd(g):
            _acc(t, g * mask)
        return self.tape.node(np.minimum(t.value, 0), (t,), bwd)

    def maxpool(self, t, window, stride, pad):
        out, switches = tensor.max_pool(t.value, window, stride, pad,
                                        return_switches=True)
        out_hw = t.shape[-2:]

        def bwd(g):
            _acc(t, tensor.max_unpool(g, switches, window, stride, pad,
                                      out_hw))
        return self.tape.node(out, (t,), bwd), switches

    def switch_pool(self, t, switches, window, stride, pad):
        out_hw = t.shape[-2:]

        def bwd(g):
            _acc(t, tensor.max_unpool(g, switches, window, stride, pad,
                                      out_hw))
        return self.tape.node(
            tensor.switch_gather(t.value, switches, window, stride, pad),
            (t,), bwd)

    def maxunpool(self, t, switches, window, stride, pad, out_hw):
        def bwd(g):
            _acc(t, tensor.switch_gather(g, switches, window, stride, pad))
        return self.tape.node(
            tensor.max_unpool(t.value, switches, window, stride, pad, out_hw),
            (t,), bwd)

    def dropout(self, t, mask):
        def bwd(g):
            _acc(t, g * mask)
        return self.tape.node(t.value * mask, (t,), bwd)

    def chan_slice(self, t, start, stop):
        sliced = t.value[..., start:stop, :, :]
        target = sliced.shape

        def bwd(g):
            g = _unbroadcast(np.asarray(g), target)
            full = np.zeros(t.shape, dtype=g.dtype)
            full[..., start:stop, :, :] = g
            _acc(t, full)
        return self.tape.node(sliced, (t,), bwd)

    def sum_spatial(self, t):
        shape = t.shape

        def bwd(g):
            _acc(t, np.broadcast_to(g[..., None, None, None], shape))
        return self.tape.node(
            np.sum(t.value, axis=(-3, -2, -1), dtype=np.float64), (t,), bwd)

    def sum_all(self, t):
        shape = t.shape

        def bwd(g):
            _acc(t, np.broadcast_to(g, shape))
        return self.tape.node(np.sum(t.value, dtype=np.float64), (t,), bwd)

    def sumsq(self, t):
        def bwd(g):
            _acc(t, 2.0 * g * t.value)
        return self.tape.node(np.sum(np.square(t.value, dtype=np.float64)),
                              (t,), bwd)

    def linear(self, features, w):
        def bwd(g):
            _acc(features, g @ w.value)
            _acc(w, g.reshape(-1, g.shape[-1]).T
                 @ features.value.reshape(-1, features.shape[-1]))
        return self.tape.node(features.value @ w.value.T, (features, w), bwd)

    def softmax_xent(self, scores, labels):
        s = np.asarray(scores.value, dtype=np.float64)
        m = s.max(axis=-1, keepdims=True)
        e = np.exp(s - m)
        p = e / e.sum(axis=-1, keepdims=True)
        lse = m[..., 0] + np.log(e.sum(axis=-1))
        picked = np.take_along_axis(s, labels[:, None], axis=-1)[:, 0]
        batch = labels.shape[0]

        def bwd(g):
            delta = p.copy()
            np.subtract.at(delta, (np.arange(batch), labels), 1.0)
            _acc(scores, float(g) * delta / batch)
        return self.tape.node(np.float64(np.mean(lse - picked)),
                              (scores,), bwd)
