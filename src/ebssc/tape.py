"""Reverse-mode differentiation over the small op set the networks use.

``Ops`` is the one op surface.  Each op computes its value from plain
arrays (a recorded ``Node`` is read through its ``value``) and states its
backward rule next to that forward rule:

* ``Ops()``      — untaped: every op returns a plain numpy value; used for
                   inference.
* ``Ops(tape)``  — taped: every op also records a ``Node`` on ``tape`` so
                   that ``Tape.backward`` can push gradients from a scalar
                   loss to the leaves.

Network code is written once against this surface, and both uses run the
same forward expressions, so training and evaluation are numerically
identical by construction.  Gradients follow the forward pass's branch
decisions: shrinkage masks are {0,1} (zero at kinks and inside the dead
zone), the unit-sphere projection uses the Jacobian
(I - z z') / ||z_tilde||, and max-pool routes through recorded argmax
switches.  A backward rule reads its parents' recorded values; what it
keeps from record time is the branch and sign masks and the pooling
switches.  Reductions that feed energies accumulate in float64.
"""

from __future__ import annotations

import numpy as np

from . import shrinkage, tensor

__all__ = ["Tape", "Node", "Ops", "PlainOps", "TapeOps"]


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


class Tape:
    """Creation-ordered node list; reverse iteration is a topological sort."""

    def __init__(self):
        self.nodes = []

    def node(self, value, parents=(), bwd=None):
        n = Node(value, parents, bwd)
        self.nodes.append(n)
        return n

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


def _val(x):
    return x.value if isinstance(x, Node) else x


class Ops:
    """The op surface; records on ``tape`` when one is given."""

    def __init__(self, tape=None):
        self.tape = tape

    def _out(self, value, parents, bwd):
        if self.tape is None:
            return value
        return self.tape.node(value, parents, bwd)

    def leaf(self, x):
        return self._out(np.asarray(x), (), None)

    value = staticmethod(_val)

    def add(self, a, b):
        def bwd(g):
            _acc(a, _unbroadcast(g, a.shape))
            _acc(b, _unbroadcast(g, b.shape))
        return self._out(_val(a) + _val(b), (a, b), bwd)

    def sub(self, a, b):
        def bwd(g):
            _acc(a, _unbroadcast(g, a.shape))
            _acc(b, -_unbroadcast(g, b.shape))
        return self._out(_val(a) - _val(b), (a, b), bwd)

    def mul(self, a, b):
        def bwd(g):
            _acc(a, _unbroadcast(g * b.value, a.shape))
            _acc(b, _unbroadcast(g * a.value, b.shape))
        return self._out(_val(a) * _val(b), (a, b), bwd)

    def scale(self, a, c):
        def bwd(g):
            _acc(a, g * c)
        return self._out(_val(a) * c, (a,), bwd)

    def add_n(self, terms):
        def bwd(g):
            for t in terms:
                _acc(t, _unbroadcast(g, t.shape))
        value = _val(terms[0])
        for t in terms[1:]:
            value = value + _val(t)
        return self._out(value, tuple(terms), bwd)

    def reshape(self, a, shape):
        def bwd(g):
            _acc(a, np.reshape(g, a.shape))
        return self._out(np.reshape(_val(a), shape), (a,), bwd)

    def correlate(self, x, bank, pad):
        def bwd(g):
            _acc(x, tensor.reconstruct(g, bank.value, pad))
            _acc(bank, tensor.correlate_bank_grad(x.value, g, bank.shape[-2:],
                                                  pad))
        return self._out(tensor.cross_correlate(_val(x), _val(bank), pad),
                         (x, bank), bwd)

    def reconstruct(self, z, bank, pad):
        def bwd(g):
            _acc(z, tensor.cross_correlate(g, bank.value, pad))
            _acc(bank, tensor.correlate_bank_grad(g, z.value, bank.shape[-2:],
                                                  pad))
        return self._out(tensor.reconstruct(_val(z), _val(bank), pad),
                         (z, bank), bwd)

    def branch_code(self, v, bp, bm, cp=None, cm=None):
        z, pos, neg = shrinkage.branch_code(
            _val(v), _val(bp), _val(bm), _val(cp), _val(cm))
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
        return self._out(z, parents, bwd)

    def normalize(self, t):
        tv = _val(t)
        n = np.sqrt(np.sum(np.square(tv, dtype=np.float64),
                           axis=(-3, -2, -1), keepdims=True))
        safe = np.where(n > 0, n, 1.0)
        out = np.where(n > 0, tv / safe, 0.0).astype(tv.dtype, copy=False)

        def bwd(g):
            radial = np.sum(g * out, axis=(-3, -2, -1), keepdims=True)
            _acc(t, np.where(n > 0, (g - out * radial) / safe, 0.0))
        return self._out(out, (t,), bwd)

    # split, relu and negpart take their sign masks at record time, and
    # only when taped.  Forming the masks inside backward instead allocates
    # fresh buffers there: 12-23% more page faults per training step and
    # ~5% less digits-train throughput, for ~3 MB less peak memory.
    def split(self, t):
        tv = _val(t)
        pos, neg = (None, None) if self.tape is None else (tv > 0, tv < 0)

        def bwd(g):
            k = t.shape[-3]
            gp = np.take(g, range(k), axis=-3)
            gm = np.take(g, range(k, 2 * k), axis=-3)
            _acc(t, gp * pos + gm * neg)
        return self._out(np.concatenate([np.maximum(tv, 0),
                                         np.minimum(tv, 0)], axis=-3),
                         (t,), bwd)

    def relu(self, t):
        mask = None if self.tape is None else _val(t) > 0

        def bwd(g):
            _acc(t, g * mask)
        return self._out(np.maximum(_val(t), 0), (t,), bwd)

    def negpart(self, t):
        mask = None if self.tape is None else _val(t) < 0

        def bwd(g):
            _acc(t, g * mask)
        return self._out(np.minimum(_val(t), 0), (t,), bwd)

    def maxpool(self, t, window, stride, pad):
        """Returns (pooled, switches); the switches stay a plain array."""
        out, switches = tensor.max_pool(_val(t), window, stride, pad,
                                        return_switches=True)

        def bwd(g):
            _acc(t, tensor.max_unpool(g, switches, window, stride, pad,
                                      t.shape[-2:]))
        return self._out(out, (t,), bwd), switches

    def switch_pool(self, t, switches, window, stride, pad):
        def bwd(g):
            _acc(t, tensor.max_unpool(g, switches, window, stride, pad,
                                      t.shape[-2:]))
        return self._out(
            tensor.switch_gather(_val(t), switches, window, stride, pad),
            (t,), bwd)

    def maxunpool(self, t, switches, window, stride, pad, out_hw):
        def bwd(g):
            _acc(t, tensor.switch_gather(g, switches, window, stride, pad))
        return self._out(
            tensor.max_unpool(_val(t), switches, window, stride, pad, out_hw),
            (t,), bwd)

    def dropout(self, t, mask):
        def bwd(g):
            _acc(t, g * mask)
        return self._out(_val(t) * mask, (t,), bwd)

    def chan_slice(self, t, start, stop):
        sliced = _val(t)[..., start:stop, :, :]

        def bwd(g):
            g = _unbroadcast(np.asarray(g), sliced.shape)
            full = np.zeros(t.shape, dtype=g.dtype)
            full[..., start:stop, :, :] = g
            _acc(t, full)
        return self._out(sliced, (t,), bwd)

    def sum_spatial(self, t):
        def bwd(g):
            _acc(t, np.broadcast_to(g[..., None, None, None], t.shape))
        return self._out(
            np.sum(_val(t), axis=(-3, -2, -1), dtype=np.float64), (t,), bwd)

    def sum_all(self, t):
        def bwd(g):
            _acc(t, np.broadcast_to(g, t.shape))
        return self._out(np.sum(_val(t), dtype=np.float64), (t,), bwd)

    def sumsq(self, t):
        def bwd(g):
            _acc(t, 2.0 * g * t.value)
        return self._out(np.sum(np.square(_val(t), dtype=np.float64)),
                         (t,), bwd)

    def linear(self, features, w):
        def bwd(g):
            _acc(features, g @ w.value)
            _acc(w, g.reshape(-1, g.shape[-1]).T
                 @ features.value.reshape(-1, features.shape[-1]))
        return self._out(_val(features) @ _val(w).T, (features, w), bwd)

    def softmax_xent(self, scores, labels):
        s = np.asarray(_val(scores), dtype=np.float64)
        m = s.max(axis=-1, keepdims=True)
        lse = m[..., 0] + np.log(np.exp(s - m).sum(axis=-1))
        picked = np.take_along_axis(s, labels[:, None], axis=-1)[:, 0]

        def bwd(g):
            e = np.exp(s - m)
            delta = e / e.sum(axis=-1, keepdims=True)
            batch = labels.shape[0]
            np.subtract.at(delta, (np.arange(batch), labels), 1.0)
            _acc(scores, float(g) * delta / batch)
        return self._out(np.float64(np.mean(lse - picked)), (scores,), bwd)


# The two historical names stay as aliases, not subclasses: the benchmark
# tracer patches ``branch_code`` and ``normalize`` in each name's own class
# ``__dict__``, so a subclass that only inherits them would fail its lookup.
# Through the alias both patches land on ``Ops``, and each call is one span.
PlainOps = TapeOps = Ops
