"""Block-structured coding networks.

A network is an ordered list of blocks — rectifier baselines (``relu``,
``crelu``, ``crelu_sn``), coding blocks (``ssc``, ``ebssc``), and
``maxpool`` — terminated by exactly one classifier:

* ``("linear", at)``   — flatten block ``at``'s output into a bias-free
                         linear map onto class scores;
* ``("energy", from)`` — blocks from index ``from`` on are class-
                         conditional coders, and the score of class y is
                         the summed coding energy <v, z> - P_y(z) of those
                         blocks under hypothesis y.

Every coding block emits split codes (positive and negative parts as
separate channels), so coding and crelu-family blocks double the channel
count seen by the next block.  Forward passes are written against the op
surface in ``tape``: pass ``Ops(tape)`` to record gradients, or nothing
for plain evaluation.

``unrolled_infer`` turns the feed-forward pass into block-coordinate
ascent on the joint coding objective of the trailing coding blocks: each
sweep re-solves every block's code in closed form, with the linear term
augmented by the reconstruction fed back from the block above.  Pooling
decisions are frozen to the initial forward pass's switches, so every
update is an exact coordinate maximization and the joint energy can only
go up.

``forward`` owns each coding block's state.  It records the block's
correlation v and the thresholds (beta_plus, beta_minus) it coded with,
and so alone decides where the class-hypothesis axis sits; unrolling and
``class_energy_breakdown`` start from that record instead of rebuilding
it.  A recorded v carries the forward pass's dropout mask, which the
correlations an unrolled sweep refreshes cannot, so train-mode unrolling
refuses coding segments that use dropout.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import tensor
from .coder import ClassBiasParams, class_thresholds
from .errors import DataError, ShapeError
from .tape import Ops

__all__ = ["BlockSpec", "NetworkSpec", "ForwardResult", "UnrollResult",
           "build", "block_shapes", "forward", "unrolled_infer",
           "decode", "decode_class_bias", "decode_residual",
           "class_energy_breakdown", "PARAM_INIT_ARM", "PARAM_INIT_OFFSET"]

CONV_KINDS = ("relu", "crelu", "crelu_sn", "ssc", "ebssc")
POOL_KINDS = ("maxpool",)
CODING_KINDS = ("ssc", "ebssc")
SPLIT_KINDS = ("crelu", "crelu_sn", "ssc", "ebssc")

PARAM_INIT_ARM = 0.01
PARAM_INIT_OFFSET = 0.05


@dataclass(frozen=True)
class BlockSpec:
    """One block. Conv kinds use kernel=(K, C, kh, kw); maxpool uses
    kernel=(window,) with stride/pad giving the pool geometry.  ``beta``
    sets the initial threshold level of coding blocks; ``bias_maps``
    switches an ebssc block's class arm widths from per-channel scalars
    to full spatial maps."""

    kind: str
    kernel: tuple
    pad: int = 0
    stride: int = 1
    dropout_rate: float = 0.0
    beta: float = 0.0
    bias_maps: bool = False

    def __post_init__(self):
        if self.kind not in CONV_KINDS + POOL_KINDS:
            raise ValueError(f"unknown block kind {self.kind!r}")
        if self.kind in CONV_KINDS:
            if len(self.kernel) != 4:
                raise ValueError(
                    f"{self.kind} kernel must be (K, C, kh, kw), "
                    f"got {self.kernel}")
            if self.stride != 1:
                raise ValueError("conv blocks support stride 1 only")
        else:
            if len(self.kernel) != 1:
                raise ValueError(
                    f"pool kernel must be (window,), got {self.kernel}")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ValueError("dropout_rate must lie in [0, 1)")

    @property
    def out_channels(self):
        k = self.kernel[0]
        return 2 * k if self.kind in SPLIT_KINDS else k


@dataclass(frozen=True)
class NetworkSpec:
    """Block list + classifier wiring + input geometry."""

    blocks: tuple
    classifier: tuple
    num_classes: int
    input_shape: tuple

    def __post_init__(self):
        object.__setattr__(self, "blocks", tuple(self.blocks))
        head, idx = self.classifier
        if head not in ("linear", "energy"):
            raise ValueError(f"unknown classifier kind {head!r}")
        if not 0 <= idx < len(self.blocks):
            raise ValueError("classifier block index out of range")
        if head == "energy":
            for i, b in enumerate(self.blocks[idx:], start=idx):
                if b.kind in CONV_KINDS and b.kind != "ebssc":
                    raise ValueError(
                        "energy classifier requires trailing conv blocks "
                        f"to be ebssc; block {i} is {b.kind}")
            if not any(b.kind == "ebssc" for b in self.blocks[idx:]):
                raise ValueError("energy classifier covers no ebssc block")
        else:
            if any(b.kind == "ebssc" for b in self.blocks):
                raise ValueError(
                    "ebssc blocks require the energy classifier")
        block_shapes(self)  # validates channel chaining


def block_shapes(spec):
    """Output (C, H, W) per block; raises on channel mismatches."""
    c, h, w = spec.input_shape
    shapes = []
    for i, b in enumerate(spec.blocks):
        if b.kind in CONV_KINDS:
            k, cin, kh, kw = b.kernel
            if cin != c:
                raise ShapeError(f"block {i} expects {cin} input channels, "
                                 f"previous emits {c}", (cin,), (c,))
            h = h - kh + 1 + 2 * b.pad
            w = w - kw + 1 + 2 * b.pad
            if h < 1 or w < 1:
                raise ValueError(f"block {i} output collapsed to {h}x{w}")
            c = b.out_channels
        else:
            win = b.kernel[0]
            h = tensor.pool_output_size(h, win, b.stride, b.pad)
            w = tensor.pool_output_size(w, win, b.stride, b.pad)
        shapes.append((c, h, w))
    return shapes


def _code_hw(spec, i):
    cin, h, w = ((spec.input_shape,) + tuple(block_shapes(spec)))[i]
    b = spec.blocks[i]
    return (h - b.kernel[2] + 1 + 2 * b.pad, w - b.kernel[3] + 1 + 2 * b.pad)


def build(spec, seed, dtype=np.float32):
    """Initialize parameters: banks ~ N(0, 2/fan_in); coding thresholds
    from each block's beta (arm widths = beta, offset 0); ebssc class arms
    at small constants.  Deterministic in ``seed``."""
    rng = np.random.default_rng(seed)
    params = {}
    shapes = block_shapes(spec)
    y = spec.num_classes
    for i, b in enumerate(spec.blocks):
        if b.kind not in CONV_KINDS:
            continue
        k, cin, kh, kw = b.kernel
        fan_in = cin * kh * kw
        params[f"block{i}.bank"] = (
            rng.standard_normal((k, cin, kh, kw))
            * np.sqrt(2.0 / fan_in)).astype(dtype)
        if b.kind in ("relu", "crelu", "crelu_sn"):
            params[f"block{i}.bias"] = np.zeros(k, dtype=dtype)
        elif b.kind == "ssc":
            params[f"block{i}.w_plus"] = np.full(k, b.beta, dtype=dtype)
            params[f"block{i}.w_minus"] = np.full(k, b.beta, dtype=dtype)
            params[f"block{i}.offset"] = np.zeros(k, dtype=dtype)
        else:
            hw = _code_hw(spec, i) if b.bias_maps else ()
            shape = (y, k) + hw
            params[f"block{i}.w_plus"] = np.full(shape, PARAM_INIT_ARM,
                                                 dtype=dtype)
            params[f"block{i}.w_minus"] = np.full(shape, PARAM_INIT_ARM,
                                                  dtype=dtype)
            params[f"block{i}.offset"] = np.full(k, PARAM_INIT_OFFSET,
                                                 dtype=dtype)
    head, idx = spec.classifier
    if head == "linear":
        c, h, w = shapes[idx]
        feat = c * h * w
        params["classifier.w"] = (
            rng.standard_normal((spec.num_classes, feat))
            * np.sqrt(2.0 / feat)).astype(dtype)
    return params


@dataclass
class ForwardResult:
    """Per-block outputs plus everything decoding, training, unrolling and
    the energy breakdown reuse.  For each coding block i, ``correlations[i]``
    is its v (class axis included from ``class_axis_at`` on, dropout mask
    applied in train mode) and ``thresholds[i]`` its (beta_plus,
    beta_minus); both are arrays under ``Ops()`` and tape nodes under
    ``Ops(tape)``."""

    outputs: list
    codes: dict
    pre_projections: dict
    switches: dict
    correlations: dict = field(default_factory=dict)
    thresholds: dict = field(default_factory=dict)
    scores: object = None
    class_axis_at: int = -1


def _class_biases(params, spec, i):
    b = spec.blocks[i]
    wp = params[f"block{i}.w_plus"]
    wm = params[f"block{i}.w_minus"]
    off = params[f"block{i}.offset"]
    if b.kind == "ssc":
        wp, wm = wp[None], wm[None]
    return ClassBiasParams(w_hat_plus=wp, w_hat_minus=wm, offset=off)


def _threshold_nodes(ops, leaves, spec, i, y):
    """Broadcastable (beta_plus, beta_minus) for block i: the full class
    stack when y is None, one class's row otherwise."""
    b = spec.blocks[i]
    wp, wm = leaves[f"block{i}.w_plus"], leaves[f"block{i}.w_minus"]
    off = leaves[f"block{i}.offset"]
    k = b.kernel[0]
    if b.kind == "ssc":
        wp = ops.reshape(wp, (k, 1, 1))
        wm = ops.reshape(wm, (k, 1, 1))
        offr = ops.reshape(off, (k, 1, 1))
        return ops.add(wp, offr), ops.sub(wm, offr)
    ncls = spec.num_classes
    maps = np.shape(ops.value(wp))[2:]
    shape = (ncls, k) + (maps if maps else (1, 1))
    if y is None:
        wp = ops.reshape(wp, shape)
        wm = ops.reshape(wm, shape)
        offr = ops.reshape(off, (1, k, 1, 1))
        return ops.add(wp, offr), ops.sub(wm, offr)
    pair = class_thresholds(_class_biases(
        {k2: ops.value(v) for k2, v in leaves.items()}, spec, i), y)
    return ops.leaf(pair.beta_plus), ops.leaf(pair.beta_minus)


def _dropout_mask(rng, t_value, rate, class_axis):
    shape = list(t_value.shape)
    if class_axis:
        shape[-4] = 1
    keep = rng.random(shape) >= rate
    return (keep / (1.0 - rate)).astype(t_value.dtype)


def _insert_class_axis(ops, t):
    shape = np.shape(ops.value(t))
    return ops.reshape(t, shape[:-3] + (1,) + shape[-3:])


def _score_term(ops, v, bp, bm, z):
    """<v, z> - beta_plus' z+ + beta_minus' z-  (the block's energy)."""
    drive = ops.sum_spatial(ops.mul(v, z))
    pos = ops.sum_spatial(ops.mul(bp, ops.relu(z)))
    neg = ops.sum_spatial(ops.mul(bm, ops.negpart(z)))
    return ops.add(ops.sub(drive, pos), neg)


def forward(params, spec, x, y=None, mode="eval", ops=None, rng=None,
            leaves=None):
    """Run the network. With the energy classifier and y=None, the class
    hypothesis axis is vectorized: activations from the first ebssc block
    on gain a leading class dimension and scores cover every class.

    Raises ShapeError when x's trailing (C, H, W) is not the spec's input
    shape, and DataError when x holds a non-finite value."""
    x = np.asarray(x)
    if x.shape[-3:] != tuple(spec.input_shape):
        raise ShapeError("input does not match the network",
                         x.shape[-3:], tuple(spec.input_shape))
    if not np.isfinite(x).all():
        raise DataError("input holds non-finite values")
    if ops is None:
        ops = Ops()
    if leaves is None:
        leaves = {name: ops.leaf(p) for name, p in params.items()}
    if mode not in ("train", "eval"):
        raise ValueError(f"mode must be train or eval, got {mode!r}")
    head, head_idx = spec.classifier

    t = ops.leaf(x)
    res = ForwardResult(outputs=[], codes={}, pre_projections={},
                        switches={})
    score_terms = []
    class_axis = False

    for i, b in enumerate(spec.blocks):
        if (mode == "train" and b.kind in CONV_KINDS
                and b.dropout_rate > 0.0):
            if rng is None:
                raise ValueError("train-mode dropout needs an rng")
            mask = _dropout_mask(rng, ops.value(t), b.dropout_rate,
                                 class_axis)
            t = ops.dropout(t, mask)

        if b.kind in POOL_KINDS:
            t, sw = ops.maxpool(t, b.kernel[0], b.stride, b.pad)
            res.switches[i] = sw
        elif b.kind == "relu":
            v = ops.correlate(t, leaves[f"block{i}.bank"], b.pad)
            v = ops.add(v, ops.reshape(leaves[f"block{i}.bias"],
                                       (b.kernel[0], 1, 1)))
            t = ops.relu(v)
        elif b.kind in ("crelu", "crelu_sn"):
            v = ops.correlate(t, leaves[f"block{i}.bank"], b.pad)
            v = ops.add(v, ops.reshape(leaves[f"block{i}.bias"],
                                       (b.kernel[0], 1, 1)))
            if b.kind == "crelu_sn":
                v = ops.normalize(v)
            t = ops.split(v)
        else:
            v = ops.correlate(t, leaves[f"block{i}.bank"], b.pad)
            if b.kind == "ebssc" and y is None and not class_axis:
                v = _insert_class_axis(ops, v)
                class_axis = True
                res.class_axis_at = i
            bp, bm = _threshold_nodes(ops, leaves, spec, i, y)
            zt = ops.branch_code(v, bp, bm)
            z = ops.normalize(zt)
            res.correlations[i] = v
            res.thresholds[i] = (bp, bm)
            res.pre_projections[i] = zt
            res.codes[i] = z
            if b.kind == "ebssc":
                score_terms.append(_score_term(ops, v, bp, bm, z))
            t = ops.split(z)
        res.outputs.append(t)

    if head == "linear":
        feat = res.outputs[head_idx]
        shape = np.shape(ops.value(feat))
        flat = ops.reshape(feat, shape[:-3] + (-1,))
        res.scores = ops.linear(flat, leaves["classifier.w"])
    elif y is None:
        res.scores = ops.add_n(score_terms)
    return res


def _coding_segment(spec):
    """Indices of the trailing run of ssc/ebssc blocks (pools allowed
    in between) that unrolling treats as one joint objective."""
    start = len(spec.blocks)
    for i in reversed(range(len(spec.blocks))):
        kind = spec.blocks[i].kind
        if kind in CODING_KINDS or kind in POOL_KINDS:
            start = i
        else:
            break
    coding = [i for i in range(start, len(spec.blocks))
              if spec.blocks[i].kind in CODING_KINDS]
    if len(coding) < 2:
        raise ValueError("unrolling needs >= 2 trailing coding blocks")
    return coding


@dataclass
class UnrollResult:
    """Final codes of the unrolled segment plus the per-sweep energies."""

    codes: dict
    scores: object
    energy_trace: list = field(default_factory=list)
    forward_result: object = None


def _segment_energy(ops, states):
    """Joint segment energy: sum of <v, z> - P(z) over coding blocks.
    Returns (total, the ebssc blocks' terms).

    Blocks below the first class-conditional one contribute a term with
    no class axis; those are given a trailing singleton so the sum
    broadcasts to one energy per class hypothesis."""
    terms = [_score_term(ops, st["v"], st["bp"], st["bm"], st["z"])
             for st in states]
    width = max(t.shape[-1] if len(t.shape) > 1 else 1 for t in terms)
    total = None
    for term in terms:
        if len(term.shape) == 1 and width > 1:
            term = ops.reshape(term, term.shape + (1,))
        total = term if total is None else ops.add(total, term)
    return total, [term for st, term in zip(states, terms)
                   if st["spec"].kind == "ebssc"]


def unrolled_infer(params, spec, x, T, y=None, mode="eval", ops=None,
                   rng=None, leaves=None):
    """T sweeps of block-coordinate ascent over the trailing coding
    blocks.  T=0 reproduces forward() exactly; each sweep updates codes
    top-down with reconstruction feedback, then bottom-up refreshing each
    block's linear term from the codes below.  The reported energy trace
    is the joint segment energy after the initial pass and each sweep, and
    the scores are the ebssc terms of the last one.  Train mode refuses a
    coding segment with dropout (see the module docstring)."""
    if not 0 <= T <= 4:
        raise ValueError(f"unroll depth must be in 0..4, got {T}")
    if ops is None:
        ops = Ops()
    if leaves is None:
        leaves = {name: ops.leaf(p) for name, p in params.items()}
    segment = _coding_segment(spec)
    if mode == "train" and any(spec.blocks[i].dropout_rate > 0
                               for i in segment):
        raise ValueError("train-mode unrolling does not support dropout "
                         "in the coding segment")
    fwd = forward(params, spec, x, y=y, mode=mode, ops=ops, rng=rng,
                  leaves=leaves)

    # Start from forward's per-block state; freeze the pool path between.
    states = []
    for pos, i in enumerate(segment):
        b = spec.blocks[i]
        above = segment[pos + 1] if pos + 1 < len(segment) else i + 1
        pools = [(j, spec.blocks[j], fwd.switches[j])
                 for j in range(i + 1, above)
                 if spec.blocks[j].kind in POOL_KINDS]
        bp, bm = fwd.thresholds[i]
        states.append({"block": i, "spec": b, "v": fwd.correlations[i],
                       "bp": bp, "bm": bm, "z": fwd.codes[i],
                       "pools": pools, "k": b.kernel[0]})

    def resolve(pos, feedback):
        st = states[pos]
        if feedback is None:
            zt = ops.branch_code(st["v"], st["bp"], st["bm"])
        else:
            cp, cm = feedback
            if len(st["v"].shape) < len(cp.shape):
                # Class-conditional feedback reached a block coded before
                # the class axis existed; lift its linear term so every
                # later use broadcasts per class hypothesis.
                st["v"] = _insert_class_axis(ops, st["v"])
            zt = ops.branch_code(st["v"], st["bp"], st["bm"], cp, cm)
        st["z"] = ops.normalize(zt)

    def feedback_into(pos):
        """Split-space bonus terms for block `pos` from the block above."""
        upper = states[pos + 1]
        ub = upper["spec"]
        r = ops.reconstruct(upper["z"], leaves[f"block{upper['block']}.bank"],
                            ub.pad)
        for j, bj, sw in reversed(states[pos]["pools"]):
            hw = _pre_pool_hw(spec, j)
            r = ops.maxunpool(r, sw, bj.kernel[0], bj.stride, bj.pad, hw)
        k = states[pos]["k"]
        return ops.chan_slice(r, 0, k), ops.chan_slice(r, k, 2 * k)

    def refresh_v(pos):
        """Recompute block `pos`'s linear term from the code below."""
        below = states[pos - 1]
        t = ops.split(below["z"])
        for j, bj, sw in below["pools"]:
            t = ops.switch_pool(t, sw, bj.kernel[0], bj.stride, bj.pad)
        st = states[pos]
        st["v"] = ops.correlate(t, leaves[f"block{st['block']}.bank"],
                                st["spec"].pad)

    last = len(states) - 1
    trace = []
    for sweep in range(T + 1):
        if sweep > 0:
            for pos in range(last, -1, -1):
                resolve(pos, feedback_into(pos) if pos < last else None)
            for pos in range(1, last + 1):
                refresh_v(pos)
                resolve(pos, feedback_into(pos) if pos < last else None)
        total, energy_terms = _segment_energy(ops, states)
        trace.append(np.asarray(ops.value(total), dtype=np.float64))

    scores = (ops.add_n(energy_terms) if y is None and energy_terms
              else None)
    codes = {st["block"]: st["z"] for st in states}
    return UnrollResult(codes=codes, scores=scores, energy_trace=trace,
                        forward_result=fwd)


def _pre_pool_hw(spec, j):
    shapes = block_shapes(spec)
    prev = shapes[j - 1] if j > 0 else spec.input_shape
    return prev[1], prev[2]


def decode(params, spec, code, from_block, switches):
    """Map a coding block's code back to input space: reconstruct through
    each filter bank, un-pool through recorded switches, and collapse
    split channels by summation (the adjoint of the fixed-sign split)."""
    if spec.blocks[from_block].kind not in CODING_KINDS:
        raise ValueError(f"block {from_block} is not a coding block")
    t = np.asarray(code)
    for i in range(from_block, -1, -1):
        b = spec.blocks[i]
        if b.kind in POOL_KINDS:
            if i not in switches:
                raise ValueError(f"missing pool switches for block {i}")
            hw = _pre_pool_hw(spec, i)
            t = tensor.max_unpool(t, switches[i], b.kernel[0], b.stride,
                                  b.pad, hw)
            continue
        if i != from_block:
            k = b.kernel[0]
            if b.kind in SPLIT_KINDS:
                t = t[..., :k, :, :] + t[..., k:, :, :]
        t = tensor.reconstruct(t, params[f"block{i}.bank"], b.pad)
    return t


def decode_class_bias(params, spec, y, at_block, switches):
    """Decode the class-y threshold bias pattern of block ``at_block``
    as if it were that block's activation: the per-coefficient mean shift
    (w_hat_minus - w_hat_plus)/2 - offset, broadcast over code locations."""
    b = spec.blocks[at_block]
    if b.kind != "ebssc":
        raise ValueError(f"block {at_block} has no class bias")
    wp = np.asarray(params[f"block{at_block}.w_plus"][y], dtype=np.float64)
    wm = np.asarray(params[f"block{at_block}.w_minus"][y], dtype=np.float64)
    off = np.asarray(params[f"block{at_block}.offset"], dtype=np.float64)
    if wp.ndim == 1:
        field_ = (wm - wp) / 2.0 - off
        hw = _code_hw(spec, at_block)
        pattern = np.broadcast_to(field_[:, None, None],
                                  (field_.shape[0],) + hw).copy()
    else:
        pattern = (wm - wp) / 2.0 - off[:, None, None]
    return decode(params, spec, pattern, at_block, switches)


def decode_residual(params, spec, x, y, at_block):
    """Decode block ``at_block``'s codes under hypothesis y, minus the
    decoded class-bias contribution."""
    fwd = forward(params, spec, x, y=y)
    code = fwd.codes[at_block]
    img = decode(params, spec, code, at_block, fwd.switches)
    bias_img = decode_class_bias(params, spec, y, at_block, fwd.switches)
    return img - bias_img


def class_energy_breakdown(params, spec, x):
    """Split every class hypothesis's score into the class-independent
    code term and the class-bias term, summed over the energy blocks.

    Each block contributes <v, z> minus the signed offset term b.sum(z)
    to e_code and -w_hat_plus.z_plus + w_hat_minus.z_minus to e_class;
    their sum equals forward()'s score for that hypothesis.  v and z are
    the ones forward() recorded.
    """
    from .energy import EnergyBreakdown
    fwd = forward(params, spec, x)
    pieces = np.zeros((4,) + np.shape(fwd.scores))
    for i, b in enumerate(spec.blocks):
        if b.kind != "ebssc":
            continue
        v = fwd.correlations[i]
        z = fwd.codes[i].astype(np.float64)
        zp, zm = np.maximum(z, 0.0), np.minimum(z, 0.0)
        cb = _class_biases(params, spec, i)
        wp, wm, off = cb.w_hat_plus, cb.w_hat_minus, cb.offset
        if wp.ndim == 2:
            wp, wm = wp[..., None, None], wm[..., None, None]
        sums = (-3, -2, -1)
        pieces[0] += (v * z).sum(axis=sums)
        pieces[1] += (z * off[:, None, None]).sum(axis=sums)
        pieces[2] += (wp * zp).sum(axis=sums) - (wm * zm).sum(axis=sums)
        pieces[3] += np.abs(z).sum(axis=sums)
    return EnergyBreakdown(e_code=pieces[0] - pieces[1],
                           e_class=-pieces[2],
                           e_total=pieces[0] - pieces[1] - pieces[2],
                           l1_of_code=pieces[3], recon_inner=pieces[0])
