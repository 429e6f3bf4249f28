"""Supervised training of coding networks.

The objective is a softmax over per-class energies: each example pays

    -score(x, y_true) + log sum_ybar exp score(x, ybar)

plus (alpha/2) times the squared norms of the filter banks and the class
arm widths.  Scores come from the same forward (or unrolled) graph used
at inference, recorded on a tape, so backpropagation differentiates the
actual computation: shrinkage masks, the unit-sphere projection, pooling
switches, and — when unroll_T > 0 — the coordinate-ascent sweeps.

After every ADAM step the arm widths are clamped at zero, which keeps
every class's shrinkage thresholds proper by construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .coder import ClassBiasParams
from .network import forward, unrolled_infer
from .tape import Ops, Tape

__all__ = ["TrainConfig", "OptimizerState", "TrainOutcome", "loss",
           "backward", "adam_step", "project_nonneg", "train", "evaluate",
           "dataset_objective"]


@dataclass(frozen=True)
class TrainConfig:
    alpha: float = 0.0
    learning_rate: float = 1e-3
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
    batch_size: int = 100
    epochs: int = 10
    unroll_T: int = 0
    seed: int = 0

    def __post_init__(self):
        if min(self.learning_rate, self.adam_beta1, self.adam_beta2,
               self.adam_eps) <= 0:
            raise ValueError("optimizer rates must be positive")
        if self.alpha < 0:
            raise ValueError("alpha must be non-negative")
        if self.batch_size < 1 or self.epochs < 0:
            raise ValueError("batch_size >= 1 and epochs >= 0 required")
        if not 0 <= self.unroll_T <= 4:
            raise ValueError("unroll_T must lie in 0..4")


@dataclass
class OptimizerState:
    """ADAM moment accumulators, one pair per parameter tensor."""

    m: dict
    v: dict
    step: int = 0

    @classmethod
    def init_like(cls, params):
        return cls(m={k: np.zeros_like(p) for k, p in params.items()},
                   v={k: np.zeros_like(p) for k, p in params.items()})


def _regularized(spec, name):
    """The squared-norm penalty covers filter banks and the class arm
    widths of ebssc blocks (not offsets, biases, or the linear head)."""
    if name.endswith(".bank"):
        return True
    if name.endswith((".w_plus", ".w_minus")):
        idx = int(name.split(".")[0][len("block"):])
        return spec.blocks[idx].kind == "ebssc"
    return False


def loss(params, spec, images, labels, cfg, mode="train", ops=None,
         rng=None, leaves=None):
    """Mean softmax-energy loss over a batch, plus the L2 term.

    Returns (loss, scores); both are tape nodes when ``ops`` records.
    """
    if ops is None:
        ops = Ops()
    if leaves is None:
        leaves = {k: ops.leaf(p) for k, p in params.items()}
    labels = np.asarray(labels)
    if cfg.unroll_T == 0:
        scores = forward(params, spec, images, mode=mode, ops=ops, rng=rng,
                         leaves=leaves).scores
    else:
        scores = unrolled_infer(params, spec, images, T=cfg.unroll_T,
                                mode=mode, ops=ops, rng=rng,
                                leaves=leaves).scores
    total = ops.softmax_xent(scores, labels)
    if cfg.alpha > 0:
        reg = ops.add_n([ops.sumsq(leaves[n]) for n in sorted(leaves)
                         if _regularized(spec, n)])
        total = ops.add(total, ops.scale(reg, cfg.alpha / 2.0))
    return total, scores


def backward(params, spec, images, labels, cfg, mode="train", rng=None):
    """Gradients of ``loss`` for every parameter, via a fresh tape.

    Returns (grads, loss value, scores array).
    """
    tape = Tape()
    ops = Ops(tape)
    leaves = {k: ops.leaf(p) for k, p in params.items()}
    out, scores = loss(params, spec, images, labels, cfg, mode=mode,
                       ops=ops, rng=rng, leaves=leaves)
    tape.backward(out)
    grads = {}
    for name, leaf in leaves.items():
        g = leaf.grad
        grads[name] = (np.zeros_like(params[name]) if g is None
                       else np.asarray(g, dtype=np.float64))
    return grads, float(out.value), np.asarray(scores.value)


def adam_step(params, grads, state, cfg):
    """Bias-corrected ADAM update followed by the positive-orthant
    projection of the arm widths.  Returns (new params, state)."""
    state.step += 1
    t = state.step
    b1, b2 = cfg.adam_beta1, cfg.adam_beta2
    corr1 = 1.0 - b1 ** t
    corr2 = 1.0 - b2 ** t
    out = {}
    for name, p in params.items():
        g = np.asarray(grads.get(name, 0.0), dtype=np.float64)
        m = state.m[name] = b1 * state.m[name] + (1 - b1) * g
        v = state.v[name] = b2 * state.v[name] + (1 - b2) * g * g
        step = cfg.learning_rate * (m / corr1) / (np.sqrt(v / corr2)
                                                  + cfg.adam_eps)
        out[name] = (p - step).astype(p.dtype)
    return project_nonneg(out), state


def project_nonneg(params):
    """Clamp arm widths at zero.

    Accepts either a full parameter dict (clamps every *.w_plus/
    *.w_minus entry) or a single ClassBiasParams (clamps its arms,
    leaves the offset untouched).
    """
    if isinstance(params, ClassBiasParams):
        return ClassBiasParams(
            w_hat_plus=np.maximum(params.w_hat_plus, 0),
            w_hat_minus=np.maximum(params.w_hat_minus, 0),
            offset=params.offset)
    out = dict(params)
    for name, p in params.items():
        if name.endswith((".w_plus", ".w_minus")):
            out[name] = np.maximum(p, 0)
    return out


@dataclass
class TrainOutcome:
    params: dict
    state: OptimizerState
    metrics: list = field(default_factory=list)
    rng: object = None


def _batches(n, batch_size, order):
    for lo in range(0, n, batch_size):
        yield order[lo:lo + batch_size]


def evaluate(params, spec, images, labels, batch_size=200, unroll_T=0):
    """(error rate, mean data loss) over a labelled set, eval mode."""
    n = len(labels)
    wrong = 0
    total_loss = 0.0
    ops = Ops()
    for idx in _batches(n, batch_size, np.arange(n)):
        xb = images[idx]
        if unroll_T == 0:
            scores = forward(params, spec, xb).scores
        else:
            scores = unrolled_infer(params, spec, xb, T=unroll_T).scores
        scores = np.asarray(scores, dtype=np.float64)
        pred = scores.argmax(axis=-1)
        wrong += int((pred != labels[idx]).sum())
        total_loss += ops.softmax_xent(scores, labels[idx]) * len(idx)
    return wrong / n, total_loss / n


def dataset_objective(params, spec, images, labels, cfg, batch_size=200):
    """Full training objective (data term + regularizer) in eval mode.

    The example-weighted mean of per-batch losses reproduces the exact
    whole-set objective because the regularizer is constant per batch.
    """
    n = len(labels)
    total = 0.0
    for idx in _batches(n, batch_size, np.arange(n)):
        out, _ = loss(params, spec, images[idx], labels[idx], cfg,
                      mode="eval")
        total += float(out) * len(idx)
    return total / n


def train(cfg, spec, train_images, train_labels, test_images=None,
          test_labels=None, params=None, augment_fn=None, log=None):
    """Run ``cfg.epochs`` of shuffled minibatch ADAM.

    Metric lines `epoch,iter,split,loss,error_rate` are appended to the
    outcome and passed to ``log`` as produced.  Deterministic in
    ``cfg.seed``: data order, dropout masks, and augmentation all draw
    from one seeded generator.
    """
    rng = np.random.default_rng(cfg.seed)
    if params is None:
        from .network import build
        params = build(spec, seed=cfg.seed)
    state = OptimizerState.init_like(params)
    outcome = TrainOutcome(params=params, state=state, rng=rng)
    n = len(train_labels)
    it = 0

    def emit(line):
        outcome.metrics.append(line)
        if log is not None:
            log(line)

    for epoch in range(1, cfg.epochs + 1):
        order = rng.permutation(n)
        epoch_loss = 0.0
        epoch_wrong = 0
        for idx in _batches(n, cfg.batch_size, order):
            xb = train_images[idx]
            yb = train_labels[idx]
            if augment_fn is not None:
                xb = np.stack([augment_fn(im, rng) for im in xb])
            grads, batch_loss, scores = backward(
                outcome.params, spec, xb, yb, cfg, mode="train", rng=rng)
            outcome.params, state = adam_step(outcome.params, grads, state,
                                              cfg)
            it += 1
            epoch_loss += batch_loss * len(idx)
            epoch_wrong += int((scores.argmax(axis=-1) != yb).sum())
        emit(f"{epoch},{it},train,{epoch_loss / n:.6f},"
             f"{epoch_wrong / n:.6f}")
        if test_images is not None:
            err, tloss = evaluate(outcome.params, spec, test_images,
                                  test_labels, unroll_T=cfg.unroll_T)
            emit(f"{epoch},{it},test,{tloss:.6f},{err:.6f}")
    outcome.state = state
    return outcome
