"""Block-structured coding networks.

A network is an ordered list of blocks — rectifier baselines (``relu``,
``crelu``, ``crelu_sn``), coding blocks (``ssc``, ``ebssc``), and
``maxpool`` — terminated by exactly one classifier:

* ``("linear", at)``   — flatten block ``at``'s output into a bias-free
                         linear map onto class scores;
* ``("energy", from)`` — blocks from index ``from`` on are class-
                         conditional coders, and the score of class y is
                         the summed optimal coding energy
                         max <v, z> - P_y(z) over the unit ball of those
                         blocks under hypothesis y.  That optimum is
                         ||z_tilde||_2, so a block scores the norm its
                         projection computes.

Every coding block emits split codes (positive and negative parts as
separate channels), so coding and crelu-family blocks double the channel
count seen by the next block.  Forward passes are written against the op
surface in ``tape``: pass ``Ops(tape)`` with ``params`` mapping each name
to its leaf node on that tape to record the parameters' gradients (the
input is a constant, with none), or nothing (and plain arrays) for
evaluation.  ``forward`` shrinks with the one-arm closed form,
which needs proper thresholds (-beta_minus <= beta_plus), so it refuses
parameters that violate that.

``unrolled_infer`` turns the feed-forward pass into block-coordinate
ascent on the joint coding objective of the trailing coding blocks: each
sweep re-solves every block's code in closed form, with the linear term
augmented by the reconstruction fed back from the block above.  Pooling
decisions are frozen to the initial forward pass's switches, so every
update is an exact coordinate maximization and the joint energy can only
go up.  The trace evaluates that energy at every sweep with ``Ops.energy``
without a norm: explicitly, as <v, z> - beta_plus.z+ + beta_minus.z-,
because a code refined with feedback is not its own block's optimum.

With the energy classifier every map carries the class-hypothesis axis
at -4: ``forward`` gives the input a singleton there, which the first
ebssc block's class thresholds broadcast to one entry per class, so maps
from below and above that block broadcast against each other as they are.

``forward`` owns each coding block's state.  It records the block's
correlation v and the thresholds (beta_plus, beta_minus) it coded with;
unrolling and ``class_energy_breakdown`` start from that record instead
of rebuilding it.  A recorded v carries the forward pass's dropout mask,
which the correlations an unrolled sweep refreshes cannot, so train-mode
unrolling refuses coding segments that use dropout.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import tensor
from .coder import arm_thresholds
from .energy import EnergyBreakdown
from .errors import DataError, ImproperThresholdError, ShapeError
from .shrinkage import ThresholdPair
from .tape import Ops

__all__ = ["BlockSpec", "NetworkSpec", "ForwardResult", "UnrollResult",
           "build", "block_shapes", "forward", "coding_segment",
           "unrolled_infer", "decode", "decode_class_bias", "decode_residual",
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
    (>= 0) sets an ssc block's initial arm widths only: ``build`` starts
    ebssc class arms at PARAM_INIT_ARM whatever beta says, and other kinds
    ignore it.  ``bias_maps`` switches an ebssc block's class arm widths
    from per-channel scalars to full spatial maps."""

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
            if self.pad < 0:
                raise ValueError(f"conv padding must be non-negative, "
                                 f"got {self.pad}")
        else:
            if len(self.kernel) != 1:
                raise ValueError(
                    f"pool kernel must be (window,), got {self.kernel}")
        if min(self.kernel) < 1:
            raise ValueError(
                f"kernel dimensions must be positive, got {self.kernel}")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ValueError("dropout_rate must lie in [0, 1)")
        if not self.beta >= 0.0:
            raise ValueError("beta must be non-negative: ssc blocks start "
                             "with both arm widths at beta")

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
        if self.num_classes < 1:
            raise ValueError(f"num_classes must be positive, got "
                             f"{self.num_classes}")
        if min(self.input_shape) < 1:
            raise ValueError(f"input dimensions must be positive, got "
                             f"{self.input_shape}")
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
        covered = idx if head == "energy" else len(self.blocks)
        for i, b in enumerate(self.blocks[:covered]):
            if b.kind == "ebssc":
                raise ValueError(
                    "ebssc blocks must lie in the energy classifier's "
                    f"range; block {i} is ebssc, classifier is {head}:{idx}")
        block_shapes(self)  # validates channel chaining


def block_shapes(spec):
    """Output (C, H, W) per block; raises on channel mismatches, invalid
    pool geometry and outputs that collapse below 1x1."""
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
            c = b.out_channels
        else:
            win = b.kernel[0]
            h = tensor.pool_output_size(h, win, b.stride, b.pad)
            w = tensor.pool_output_size(w, win, b.stride, b.pad)
        if h < 1 or w < 1:
            raise ValueError(f"block {i} output collapsed to {h}x{w}")
        shapes.append((c, h, w))
    return shapes


def build(spec, seed, dtype=np.float32):
    """Initialize parameters: banks ~ N(0, 2/fan_in); ssc thresholds
    from the block's beta (arm widths = beta, offset 0); ebssc class arms
    at PARAM_INIT_ARM, whatever the block's beta.  Deterministic in
    ``seed``."""
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
            shape = (y, k) + (shapes[i][1:] if b.bias_maps else ())
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
    """Scores plus the per-block state that decoding, training, unrolling
    and the energy breakdown reuse.  For each coding block i,
    ``codes[i]`` is its code z, ``correlations[i]`` its v (dropout mask
    applied in train mode) and ``thresholds[i]`` its (beta_plus,
    beta_minus); all are arrays under ``Ops()`` and tape nodes under
    ``Ops(tape)``.  ``class_axis_at`` is the first ebssc block, or -1.
    ``switches[j]`` holds pool block j's argmax switches when
    ``forward`` was asked for them (``switches=True``), and is empty
    otherwise."""

    codes: dict = field(default_factory=dict)
    switches: dict = field(default_factory=dict)
    correlations: dict = field(default_factory=dict)
    thresholds: dict = field(default_factory=dict)
    scores: object = None
    class_axis_at: int = -1

    def carries_class_axis(self, j):
        """Whether block j's outputs (codes, switches) hold one entry per
        class hypothesis at -4: from the first ebssc block on."""
        return 0 <= self.class_axis_at <= j

    def hypothesis(self, y, j, t):
        """Class hypothesis y of block j's output t (a code or pool
        switches): the slice at -4, a singleton shared by every hypothesis
        below the first ebssc block.  Linear heads have no class axis."""
        if self.class_axis_at < 0:
            return t
        return t[..., y if self.carries_class_axis(j) else 0, :, :, :]


def forward(params, spec, x, mode="eval", ops=None, rng=None,
            switches=False):
    """Run the network.  With the energy classifier the class hypothesis
    axis is vectorized: x gains a singleton axis at -4, which the first
    ebssc block broadcasts to one entry per class, and scores cover every
    class.  One hypothesis y is ``ForwardResult.hypothesis`` of those
    activations and column y of the scores.  Each energy block adds its
    optimal coding energy
    ||z~||_2 to the score, where z~ is the pre-projection code, so a
    hypothesis whose z~ is all zero at a block has a zero code there and
    that block adds 0.

    ``switches=True`` records each pool block's argmax switches in the
    result, for callers that decode or unroll through them.  Scoring never
    reads them, so by default an untaped pass does not compute them (they
    cost about three times the pooling itself); a taped pass computes them
    inside its pool nodes either way, for the backward pass.

    Raises ShapeError when x's trailing (C, H, W) is not the spec's input
    shape, DataError when x holds a non-finite value, and
    ImproperThresholdError when a coding block's thresholds are not a
    proper pair (``ThresholdPair.proper``): the closed-form shrink is exact
    only for proper pairs."""
    x = np.asarray(x)
    if x.shape[-3:] != tuple(spec.input_shape):
        raise ShapeError("input does not match the network",
                         x.shape[-3:], tuple(spec.input_shape))
    if not np.isfinite(x).all():
        raise DataError("input holds non-finite values")
    if ops is None:
        ops = Ops()
    if mode not in ("train", "eval"):
        raise ValueError(f"mode must be train or eval, got {mode!r}")
    head, head_idx = spec.classifier
    if head == "energy":
        x = x.reshape(x.shape[:-3] + (1,) + x.shape[-3:])

    t = x
    res = ForwardResult()
    score_terms = []
    last = len(spec.blocks) - 1

    for i, b in enumerate(spec.blocks):
        if (mode == "train" and b.kind in CONV_KINDS
                and b.dropout_rate > 0.0):
            if rng is None:
                raise ValueError("train-mode dropout needs an rng")
            # One mask per input map, shared by every class hypothesis.
            tv, rate = ops.value(t), b.dropout_rate
            keep = rng.random(x.shape[:-3] + tv.shape[-3:]) >= rate
            t = ops.scale(t, (keep / (1.0 - rate)).astype(tv.dtype))

        if b.kind in POOL_KINDS:
            t, sw = ops.maxpool(t, b.kernel[0], b.stride, b.pad, switches)
            if switches:
                res.switches[i] = sw
        elif b.kind == "relu":
            v = ops.correlate(t, params[f"block{i}.bank"], b.pad)
            v = ops.add(v, ops.reshape(params[f"block{i}.bias"],
                                       (b.kernel[0], 1, 1)))
            t = ops.relu(v)
        elif b.kind in ("crelu", "crelu_sn"):
            v = ops.correlate(t, params[f"block{i}.bank"], b.pad)
            v = ops.add(v, ops.reshape(params[f"block{i}.bias"],
                                       (b.kernel[0], 1, 1)))
            if b.kind == "crelu_sn":
                v = ops.normalize(v)[0]
            t = ops.split(v)
        else:
            v = ops.correlate(t, params[f"block{i}.bank"], b.pad)
            if b.kind == "ebssc" and res.class_axis_at < 0:
                res.class_axis_at = i
            bp, bm = arm_thresholds(ops, params[f"block{i}.w_plus"],
                                    params[f"block{i}.w_minus"],
                                    params[f"block{i}.offset"])
            if not ThresholdPair.proper(ops.value(bp), ops.value(bm)):
                raise ImproperThresholdError(
                    f"block {i} thresholds are not proper: NaN or "
                    "-beta_minus > beta_plus")
            z, norm = ops.normalize(ops.branch_code(v, bp, bm))
            res.correlations[i] = v
            res.thresholds[i] = (bp, bm)
            res.codes[i] = z
            if b.kind == "ebssc":
                score_terms.append(ops.energy(v, bp, bm, z, norm))
            # Nothing reads the energy head's last output.
            if head == "linear" or i < last:
                t = ops.split(z)
        if head == "linear" and i == head_idx:
            feat = t

    if head == "linear":
        shape = np.shape(ops.value(feat))
        flat = ops.reshape(feat, shape[:-3] + (-1,))
        res.scores = ops.linear(flat, params["classifier.w"])
    else:
        res.scores = ops.add_n(score_terms)
    return res


def coding_segment(spec):
    """Indices of the trailing run of ssc/ebssc blocks (pools allowed
    in between) that unrolling treats as one joint objective.  Raises
    ValueError when that run holds fewer than two coding blocks."""
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


def unrolled_infer(params, spec, x, T, mode="eval", ops=None, rng=None):
    """T sweeps of block-coordinate ascent over the trailing coding
    blocks.  T=0 reproduces forward() exactly; each sweep updates codes
    top-down with reconstruction feedback, then bottom-up refreshing each
    block's linear term from the codes below.  The reported energy trace
    is the joint segment energy after the initial pass and each sweep,
    evaluated explicitly every time (``Ops.energy`` without a norm) and
    summed off the tape; scores are the last sweep's ebssc terms, the
    only trace terms recorded on a tape, or forward()'s closed-form
    scores when T=0.  Train mode refuses a coding segment with dropout
    (see the module docstring)."""
    if not 0 <= T <= 4:
        raise ValueError(f"unroll depth must be in 0..4, got {T}")
    if ops is None:
        ops = Ops()
    segment = coding_segment(spec)
    if mode == "train" and any(spec.blocks[i].dropout_rate > 0
                               for i in segment):
        raise ValueError("train-mode unrolling does not support dropout "
                         "in the coding segment")
    fwd = forward(params, spec, x, mode=mode, ops=ops, rng=rng,
                  switches=True)
    shapes = block_shapes(spec)

    # Start from forward's record, keyed by block.
    v = {i: fwd.correlations[i] for i in segment}
    z = {i: fwd.codes[i] for i in segment}

    def resolve(i, above):
        """Re-solve block i's code, with feedback from block ``above``."""
        r = None if above is None else _descend(
            ops, params, spec, z[above], above, fwd.switches, shapes)
        z[i] = ops.normalize(ops.branch_code(v[i], *fwd.thresholds[i],
                                             r))[0]

    def refresh(i, below):
        """Recompute block i's linear term from the code of ``below``
        through the frozen pools between them."""
        t = ops.split(z[below])
        for j in range(below + 1, i):
            b = spec.blocks[j]
            t = ops.switch_pool(t, fwd.switches[j], b.kernel[0], b.stride,
                                b.pad)
        v[i] = ops.correlate(t, params[f"block{i}.bank"], spec.blocks[i].pad)

    above = dict(zip(segment, segment[1:] + [None]))
    # Only the last sweep's ebssc terms are scores; the rest stay untaped.
    scored = {i for i in segment if T > 0 and spec.blocks[i].kind == "ebssc"}
    plain = Ops()
    trace = []
    for sweep in range(T + 1):
        if sweep > 0:
            # The top block already holds the code of its current v, from
            # forward or the last bottom-up step, so top-down starts below.
            for i in reversed(segment[:-1]):
                resolve(i, above[i])
            for below, i in zip(segment, segment[1:]):
                refresh(i, below)
                resolve(i, above[i])
        terms = [(ops if sweep == T and i in scored else plain).energy(
                     v[i], *fwd.thresholds[i], z[i]) for i in segment]
        trace.append(np.asarray(sum(ops.value(term) for term in terms),
                                dtype=np.float64))

    if T == 0:
        return UnrollResult(codes={i: fwd.codes[i] for i in segment},
                            scores=fwd.scores, energy_trace=trace)
    energy_terms = [term for i, term in zip(segment, terms) if i in scored]
    scores = ops.add_n(energy_terms) if energy_terms else None
    return UnrollResult(codes=z, scores=scores, energy_trace=trace)


def _descend(ops, params, spec, t, i, switches, shapes):
    """Reconstruct code t through block i's bank, then un-pool it through
    the pool blocks directly below block i along their recorded switches:
    t's image in the output space of the conv block below (or the
    input).  ``shapes`` is ``block_shapes(spec)``."""
    t = ops.reconstruct(t, params[f"block{i}.bank"], spec.blocks[i].pad)
    for j in range(i - 1, -1, -1):
        b = spec.blocks[j]
        if b.kind not in POOL_KINDS:
            break
        if j not in switches:
            raise ValueError(f"missing pool switches for block {j}; "
                             "forward records them with switches=True")
        hw = (shapes[j - 1] if j > 0 else spec.input_shape)[1:]
        t = ops.maxunpool(t, switches[j], b.kernel[0], b.stride, b.pad, hw)
    return t


def decode(params, spec, code, from_block, switches):
    """Map a coding block's code back to input space: reconstruct through
    each filter bank, un-pool through recorded switches, and collapse
    split channels by summation (the adjoint of the fixed-sign split)."""
    if spec.blocks[from_block].kind not in CODING_KINDS:
        raise ValueError(f"block {from_block} is not a coding block")
    ops, shapes = Ops(), block_shapes(spec)
    t = _descend(ops, params, spec, np.asarray(code), from_block, switches,
                 shapes)
    for i in range(from_block - 1, -1, -1):
        b = spec.blocks[i]
        if b.kind in CONV_KINDS:
            k = b.kernel[0]
            if b.kind in SPLIT_KINDS:
                t = t[..., :k, :, :] + t[..., k:, :, :]
            t = _descend(ops, params, spec, t, i, switches, shapes)
    return t


def decode_class_bias(params, spec, at_block, switches):
    """Decode block ``at_block``'s class bias patterns, every class at
    once (class axis at -4): the mean shift (beta_minus - beta_plus)/2 of
    each class's thresholds (``arm_thresholds`` in float64), broadcast
    over code locations.  ``switches`` is forward's record, unsliced."""
    if spec.blocks[at_block].kind != "ebssc":
        raise ValueError(f"block {at_block} has no class bias")
    wp, wm, off = (np.asarray(params[f"block{at_block}.{part}"],
                              dtype=np.float64)
                   for part in ("w_plus", "w_minus", "offset"))
    bp, bm = arm_thresholds(Ops(), wp, wm, off)
    shift = (bm - bp) / 2.0
    hw = block_shapes(spec)[at_block][1:]
    return decode(params, spec, np.broadcast_to(shift, shift.shape[:-2] + hw),
                  at_block, switches)


def decode_residual(params, spec, x, at_block):
    """Decode block ``at_block``'s codes minus their class bias patterns,
    for every hypothesis from one forward pass (class axis at -4)."""
    fwd = forward(params, spec, x, switches=True)
    img = decode(params, spec, fwd.codes[at_block], at_block, fwd.switches)
    return img - decode_class_bias(params, spec, at_block, fwd.switches)


def class_energy_breakdown(params, spec, x):
    """Split every class hypothesis's score into the class-independent
    code term and the class-bias term, summed over the energy blocks.

    Each block's energy ``Ops.energy`` at the code forward() recorded is
    its term of e_total, which equals forward()'s score for that
    hypothesis.  e_code is <v, z> minus the signed offset term b.sum(z);
    e_class, -w_hat_plus.z_plus + w_hat_minus.z_minus, is the rest.
    """
    return _energy_breakdown(params, spec, forward(params, spec, x))


def _energy_breakdown(params, spec, fwd):
    """``class_energy_breakdown`` of the pass ``fwd`` already ran."""
    ops = Ops()
    e_total, recon, offset, l1 = np.zeros((4,) + np.shape(fwd.scores))
    sums = (-3, -2, -1)
    for i, b in enumerate(spec.blocks):
        if b.kind != "ebssc":
            continue
        v, z = fwd.correlations[i], fwd.codes[i]
        e_total += ops.energy(v, *fwd.thresholds[i], z)
        z = z.astype(np.float64)
        recon += (v * z).sum(axis=sums)
        offset += (z * params[f"block{i}.offset"][:, None, None]).sum(
            axis=sums)
        l1 += np.abs(z).sum(axis=sums)
    e_code = recon - offset
    return EnergyBreakdown(e_code=e_code, e_class=e_total - e_code,
                           e_total=e_total, l1_of_code=l1,
                           recon_inner=recon)
