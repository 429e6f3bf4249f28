"""Per-layer spans and counters, recorded from outside the library.

A ``Tracer`` replaces the public functions of each ebssc layer with
timing wrappers while it is installed, and restores the originals when
it is removed, so an untraced call runs the library exactly as shipped.
Each wrapped call is a span (id, parent id, name, start, end); spans are
kept in memory and written out when the run ends.  A span's self time is
its duration minus the time its direct child spans cover.

Counts that do not depend on the clock are taken at the same
boundaries: GEMM flops and im2col/col2im buffer bytes are *computed* from
argument shapes (they are not hardware counters), the share of nonzero
pre-projection coefficients is read off the coder's output, and tape
size and dead nodes are read off the tape after ``Tape.backward``.
"""

from __future__ import annotations

import json
import math
import os
import time
from collections import defaultdict

import numpy as np

from ebssc import checkpoint, data, learn, network, tape, tensor

CONV_KERNELS = ("cross_correlate", "reconstruct", "correlate_bank_grad")
POOL_KERNELS = ("max_pool", "max_unpool", "switch_gather")
NETWORK_CALLS = ("forward", "unrolled_infer", "class_energy_breakdown")


def _prod(shape):
    return math.prod(int(d) for d in shape)


def _itemsize(*arrays):
    return np.result_type(*arrays).itemsize


# Count functions take the wrapped function's own arguments.

def _count_correlate(counts, x, bank, pad=0):
    *lead, c, h, w = np.shape(x)
    k, _, kh, kw = np.shape(bank)
    cols = _prod(lead) * (h + 2 * pad - kh + 1) * (w + 2 * pad - kw + 1)
    counts["tensor.cross_correlate.gflop"] += 2e-9 * cols * k * c * kh * kw
    counts["tensor.cross_correlate.im2col_mb"] += (
        1e-6 * cols * c * kh * kw * _itemsize(x))


def _count_reconstruct(counts, z, bank, pad=0):
    *lead, k, hz, wz = np.shape(z)
    _, c, kh, kw = np.shape(bank)
    cols = _prod(lead) * hz * wz
    counts["tensor.reconstruct.gflop"] += 2e-9 * cols * k * c * kh * kw
    counts["tensor.reconstruct.im2col_mb"] += (
        1e-6 * cols * c * kh * kw * _itemsize(z, bank))


def _count_bank_grad(counts, x, upstream, kernel_hw, pad=0):
    xs, us = np.shape(x), np.shape(upstream)
    kh, kw = kernel_hw
    c = xs[-3]
    k, ho, wo = us[-3:]
    lead = _prod(np.broadcast_shapes(xs[:-3], us[:-3]))
    counts["tensor.correlate_bank_grad.gflop"] += (
        2e-9 * lead * k * ho * wo * c * kh * kw)
    counts["tensor.correlate_bank_grad.im2col_mb"] += (
        1e-6 * _prod(xs[:-3]) * ho * wo * c * kh * kw * _itemsize(x))


def _after_branch_code(counts, out, *_args):
    z = getattr(out, "value", out)
    counts["coder.nonzero"] += np.count_nonzero(z)
    counts["coder.coefficients"] += z.size


def _after_backward(counts, _out, tape_, *_args):
    nodes = tape_.nodes
    counts["tape.nodes"] += len(nodes)
    counts["tape.dead"] += sum(1 for n in nodes if n.grad is None)


def _after_save(counts, _out, path, *_args):
    counts["checkpoint.bytes"] += os.path.getsize(path)


def _patch_points():
    """(owner, attribute, span name, count-before, count-after) for every
    layer boundary the benchmark measures.  Names imported into another
    module (``learn`` imports ``forward``) are patched there too."""
    points = []
    counters = {"cross_correlate": _count_correlate,
                "reconstruct": _count_reconstruct,
                "correlate_bank_grad": _count_bank_grad}
    for name in CONV_KERNELS + POOL_KERNELS:
        points.append((tensor, name, f"tensor.{name}", counters.get(name),
                       None))
    for ops in (tape.PlainOps, tape.TapeOps):
        points.append((ops, "branch_code", "coder.branch_code", None,
                       _after_branch_code))
        points.append((ops, "normalize", "coder.normalize", None, None))
    points.append((learn, "loss", "tape.record", None, None))
    points.append((tape.Tape, "backward", "tape.backward", None,
                   _after_backward))
    points.append((learn, "adam_step", "learn.adam_step", None, None))
    for name in NETWORK_CALLS:
        points.append((network, name, f"network.{name}", None, None))
        if hasattr(learn, name):
            points.append((learn, name, f"network.{name}", None, None))
    points.append((checkpoint, "save_checkpoint", "checkpoint.save", None,
                   _after_save))
    points.append((checkpoint, "load_checkpoint", "checkpoint.load", None,
                   None))
    points.append((data, "digits_arrays", "data.digits_arrays", None, None))
    return points


class Tracer:
    """Spans and counters for one phase of a run."""

    def __init__(self):
        self.spans = []
        self.stats = defaultdict(lambda: [0, 0.0, 0.0])  # calls, busy, child
        self.counts = defaultdict(float)
        self._stack = []
        self._next_id = 0
        self._patches = []
        for owner, attr, name, before, after in _patch_points():
            raw = owner.__dict__[attr]
            static = isinstance(raw, staticmethod)
            fn = raw.__func__ if static else raw
            wrapped = self._wrap(fn, name, before, after)
            self._patches.append(
                (owner, attr, raw, staticmethod(wrapped) if static
                 else wrapped))

    def _wrap(self, fn, name, before, after):
        stack, stats, counts, spans = (self._stack, self.stats, self.counts,
                                       self.spans)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if before is not None:
                before(counts, *args, **kwargs)
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else -1
            frame = [span_id, 0.0]  # id, time covered by child spans
            stack.append(frame)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                st = stats[name]
                st[0] += 1
                st[1] += end - start
                st[2] += frame[1]
                if stack:
                    stack[-1][1] += end - start
                spans.append((span_id, parent, name, start, end))
            if after is not None:
                after(counts, out, *args)
            return out

        traced.__wrapped__ = fn
        return traced

    def install(self):
        for owner, attr, _raw, wrapped in self._patches:
            setattr(owner, attr, wrapped)

    def remove(self):
        for owner, attr, raw, _wrapped in self._patches:
            setattr(owner, attr, raw)

    def calls(self, name):
        return self.stats[name][0] if name in self.stats else 0

    def busy(self, name):
        return self.stats[name][1] if name in self.stats else 0.0

    def self_time(self, name):
        if name not in self.stats:
            return 0.0
        _, busy, child = self.stats[name]
        return busy - child

    def dump(self, path, origin):
        """Write spans as JSON lines, times in seconds from ``origin``."""
        with open(path, "w") as fh:
            for span_id, parent, name, start, end in self.spans:
                fh.write(json.dumps({"id": span_id, "parent": parent,
                                     "name": name,
                                     "start": round(start - origin, 9),
                                     "end": round(end - origin, 9)}) + "\n")


def _per(value, n):
    return value / n if n else 0.0


def layer_metrics(setup, loop, loop_ops, overhead_share):
    """Per-layer metrics: loop figures per traced op, set-up figures per
    call.  ``setup`` and ``loop`` are the tracers of the two phases."""
    m = {}
    for name in CONV_KERNELS + POOL_KERNELS:
        span = f"tensor.{name}"
        m[f"{span}.calls"] = (_per(loop.calls(span), loop_ops), "calls/op")
        m[f"{span}.busy_s"] = (_per(loop.busy(span), loop_ops), "s/op")
    for name in CONV_KERNELS:
        for count, unit in (("gflop", "GFLOP/op"), ("im2col_mb", "MB/op")):
            key = f"tensor.{name}.{count}"
            m[key] = (_per(loop.counts[key], loop_ops), unit)
    for name in ("branch_code", "normalize"):
        m[f"coder.{name}.busy_s"] = (
            _per(loop.busy(f"coder.{name}"), loop_ops), "s/op")
    m["coder.active_fraction"] = (
        _per(loop.counts["coder.nonzero"], loop.counts["coder.coefficients"]),
        "share")
    m["tape.record_s"] = (_per(loop.busy("tape.record"), loop_ops), "s/op")
    m["tape.backward_s"] = (_per(loop.busy("tape.backward"), loop_ops),
                            "s/op")
    m["tape.nodes_per_step"] = (
        _per(loop.counts["tape.nodes"], loop.calls("tape.backward")),
        "nodes/step")
    m["tape.dead_node_share"] = (
        _per(loop.counts["tape.dead"], loop.counts["tape.nodes"]), "share")
    m["learn.adam_step.busy_s"] = (
        _per(loop.busy("learn.adam_step"), loop_ops), "s/op")
    for name in NETWORK_CALLS:
        span = f"network.{name}"
        m[f"{span}.busy_s"] = (_per(loop.busy(span), loop_ops), "s/op")
        m[f"{span}.self_s"] = (_per(loop.self_time(span), loop_ops), "s/op")
    m["checkpoint.save_s"] = (
        _per(setup.busy("checkpoint.save"), setup.calls("checkpoint.save")),
        "s")
    m["checkpoint.load_s"] = (
        _per(setup.busy("checkpoint.load"), setup.calls("checkpoint.load")),
        "s")
    m["checkpoint.bytes"] = (
        _per(setup.counts["checkpoint.bytes"],
             setup.calls("checkpoint.save")), "B")
    m["data.digits_arrays_s"] = (
        _per(setup.busy("data.digits_arrays"),
             setup.calls("data.digits_arrays")), "s")
    m["trace.overhead_share"] = (overhead_share, "share")
    return m
