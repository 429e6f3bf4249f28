"""The benchmark's workloads.

Each workload generates its inputs from the run's seed, sets up what the
library needs (a digit corpus, a model restored through a checkpoint),
then issues closed-loop operations from a single client: the next op
starts only when the previous one has returned.  Every op is followed by
correctness checks that run outside the timed region; an op that raises
or fails a check counts as failed.

The eval and serve workloads classify with a fixed model: the desk model
trained by ``configs/digits_1k.cfg`` on the library's own synthetic digit
corpus (corpus seed 1234).  It is trained once per source tree in a
child process and cached as a checkpoint under ``perfbench/out``; the
run's seed only chooses the digits it is asked to classify.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import subprocess
import sys
import zlib

import numpy as np

from ebssc import checkpoint, data, learn, network
from ebssc.config import parse_config

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")

DIGITS_CFG = os.path.join(ROOT, "configs", "digits_1k.cfg")
FIXTURE_CORPUS_SEED = 1234

UNROLL_T = 2
# The acceptance test's slack on the unrolled energy trace.
ENERGY_SLACK = 1e-9
# Codes are unit norm up to float32 rounding of a float64 norm.
NORM_TOL = 1e-5


class CheckFailed(Exception):
    """An op returned, but its output breaks a stated guarantee."""


@dataclasses.dataclass(frozen=True)
class Size:
    """How much work one run does.  ``min_ops`` ops run even when the
    time is up (a training schedule, or enough requests for a p99)."""

    setup_reps: int
    warmup: int
    min_ops: int
    batch: int
    pool: int = 0
    n_train: int = 0
    n_test: int = 0


def _read_cfg(path):
    with open(path) as fh:
        return parse_config(fh.read())


def stream_seed(workload, seed):
    """Seed of a workload's input stream, distinct per workload."""
    return zlib.crc32(f"{workload}/{seed}".encode())


def _as_batch(images):
    """uint8 (N, H, W) -> float32 (N, 1, H, W) in [0, 1]."""
    return images.astype(np.float32)[:, None] / 255.0


def _round_trip(ckpt, scratch):
    path = os.path.join(scratch, "round-trip.ckpt")
    checkpoint.save_checkpoint(path, ckpt)
    restored = checkpoint.load_checkpoint(path)
    os.remove(path)
    return restored


def _same_arrays(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return (a.dtype == b.dtype and a.shape == b.shape
            and a.tobytes() == b.tobytes())


def check_round_trip(original, restored):
    """A restored checkpoint must equal the saved one bit for bit."""
    if restored.spec != original.spec:
        raise CheckFailed("checkpoint round trip changed the network")
    if original.params.keys() != restored.params.keys() or not all(
            _same_arrays(original.params[k], restored.params[k])
            for k in original.params):
        raise CheckFailed("checkpoint round trip changed the parameters")


def check_unit_codes(codes):
    for block, z in codes.items():
        z = np.asarray(z, dtype=np.float64)
        norms = np.sqrt(np.sum(z * z, axis=(-3, -2, -1)))
        bad = (norms != 0.0) & (np.abs(norms - 1.0) > NORM_TOL)
        if bad.any():
            raise CheckFailed(f"block {block} code norm {norms[bad][0]!r} "
                              "is neither 0 nor 1")


def check_train_step(params, loss_value):
    if not np.isfinite(loss_value):
        raise CheckFailed(f"training loss {loss_value!r} is not finite")
    for name, p in params.items():
        if name.endswith((".w_plus", ".w_minus")) and np.min(p) < 0:
            raise CheckFailed(f"{name} has a negative arm width")


# --- the cached desk model ----------------------------------------------

def _fixture_path(smoke):
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src", "ebssc")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                h.update(name.encode() + fh.read())
    with open(DIGITS_CFG, "rb") as fh:
        h.update(fh.read())
    h.update(b"smoke" if smoke else b"full")
    return os.path.join(OUT, f"desk-model-{h.hexdigest()[:16]}.ckpt")


def build_fixture(smoke):
    """Train the desk model and write it where ``fixture`` looks."""
    cfg = _read_cfg(DIGITS_CFG)
    tcfg = cfg.train_config()
    n_train = 1000
    if smoke:
        tcfg = dataclasses.replace(tcfg, epochs=1)
        n_train = 100
    xtr, ytr, _, _ = data.digits_arrays(n_train, 0, seed=FIXTURE_CORPUS_SEED)
    spec = cfg.network_spec()
    outcome = learn.train(tcfg, spec, _as_batch(xtr), ytr)
    path = _fixture_path(smoke)
    tmp = f"{path}.{os.getpid()}.tmp"
    checkpoint.save_checkpoint(tmp, checkpoint.Checkpoint(
        spec=spec, params=outcome.params, opt_state=outcome.state,
        epoch=tcfg.epochs, step=outcome.state.step,
        rng_state=outcome.rng.bit_generator.state))
    os.replace(tmp, path)


def fixture(smoke):
    """Path of the desk-model checkpoint, training it first if needed.
    Training runs in a child process so it leaves no trace in this
    process's memory figures."""
    path = _fixture_path(smoke)
    if not os.path.exists(path):
        os.makedirs(OUT, exist_ok=True)
        cmd = [sys.executable, os.path.join(HERE, "run.py"),
               "--build-fixture"] + (["--smoke"] if smoke else [])
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
    return path


# --- workloads ------------------------------------------------------------

class Workload:
    """A workload: its name, the name its rate is reported under, sizes."""

    name = ""
    rate_name = ""
    full: Size
    smoke: Size

    def inputs(self, seed, size, scratch, smoke):
        """Untimed: what the client brings, made from the seed."""
        raise NotImplementedError

    def setup(self, inputs, size, scratch):
        """Timed as set-up; returns state with a ``round_trip`` pair."""
        raise NotImplementedError

    def op(self, state, i):
        """Timed: one closed-loop call; returns (items, output)."""
        raise NotImplementedError

    def check(self, state, op_id, out):
        """Untimed: raise CheckFailed when ``out`` breaks a guarantee."""

    def finish(self, state, ledger):
        """Untimed: checks over the whole run; returns report lines."""
        return []


class _Cycle:
    """Closed-loop batches drawn in order from a fixed pool of inputs."""

    def __init__(self, n, batch):
        self.n, self.batch, self.pos = n, batch, 0

    def next(self):
        idx = (self.pos + np.arange(self.batch)) % self.n
        self.pos = (self.pos + self.batch) % self.n
        return idx


class _Epochs:
    """Shuffled training batches: a fresh permutation every epoch."""

    def __init__(self, n, batch, rng):
        self.n, self.batch, self.rng = n, batch, rng
        self.queue = np.empty(0, dtype=np.int64)

    def next(self):
        if len(self.queue) < self.batch:
            self.queue = np.concatenate([self.queue,
                                         self.rng.permutation(self.n)])
        idx, self.queue = self.queue[:self.batch], self.queue[self.batch:]
        return idx


class DigitsTrain(Workload):
    """The desk model trained from scratch for a fixed schedule, then
    scored on held-out digits.  Model and regularization come from the
    desk config; batch and rate are scaled so the schedule fits one run
    and still reaches a low error."""

    name = "digits-train"
    rate_name = "train_samples_per_s"
    batch_rate = 0.01
    full = Size(setup_reps=5, warmup=2, min_ops=60, batch=20,
                n_train=1000, n_test=500)
    smoke = Size(setup_reps=1, warmup=1, min_ops=3, batch=10,
                 n_train=40, n_test=20)

    def inputs(self, seed, size, scratch, smoke):
        return stream_seed(self.name, seed)

    def setup(self, seed, size, scratch):
        cfg = _read_cfg(DIGITS_CFG)
        tcfg = dataclasses.replace(cfg.train_config(), batch_size=size.batch,
                                   learning_rate=self.batch_rate, seed=seed)
        xtr, ytr, xte, yte = data.digits_arrays(size.n_train, size.n_test,
                                                seed=seed)
        spec = cfg.network_spec()
        params = network.build(spec, seed=seed)
        ckpt = checkpoint.Checkpoint(spec=spec, params=params)
        restored = _round_trip(ckpt, scratch)
        rng = np.random.default_rng(seed)
        return {"round_trip": (ckpt, restored), "spec": spec, "cfg": tcfg,
                "params": restored.params, "x": _as_batch(xtr), "y": ytr,
                "xte": _as_batch(xte), "yte": yte, "rng": rng,
                "opt": learn.OptimizerState.init_like(restored.params),
                "batches": _Epochs(len(ytr), size.batch, rng),
                "schedule": size.min_ops, "scratch": scratch}

    def op(self, state, i):
        idx = state["batches"].next()
        grads, loss_value, _ = learn.backward(
            state["params"], state["spec"], state["x"][idx], state["y"][idx],
            state["cfg"], mode="train", rng=state["rng"])
        state["params"], state["opt"] = learn.adam_step(
            state["params"], grads, state["opt"], state["cfg"])
        if i + 1 == state["schedule"]:
            state["final"] = state["params"]
        return len(idx), loss_value

    def check(self, state, op_id, out):
        check_train_step(state["params"], out)

    def finish(self, state, ledger):
        # A failed schedule step leaves no snapshot; score where it got to.
        final = state.get("final", state["params"])
        op_id = ledger.new_op()
        try:
            ckpt = checkpoint.Checkpoint(spec=state["spec"], params=final)
            check_round_trip(ckpt, _round_trip(ckpt, state["scratch"]))
        except CheckFailed as exc:
            ledger.fail(op_id, str(exc))
        err, loss_value = learn.evaluate(final, state["spec"], state["xte"],
                                         state["yte"])
        return [("test_error", err, "share"),
                ("test_loss", loss_value, "nats"),
                ("schedule_steps", state["schedule"], "steps"),
                ("heldout_images", len(state["yte"]), "count")]


class _Restored(Workload):
    """Shared set-up of the workloads that classify with the desk model."""

    def inputs(self, seed, size, scratch, smoke):
        return stream_seed(self.name, seed), fixture(smoke)

    def setup(self, inputs, size, scratch):
        seed, path = inputs
        _, _, images, labels = data.digits_arrays(0, size.pool, seed=seed)
        ckpt = checkpoint.load_checkpoint(path)
        restored = _round_trip(ckpt, scratch)
        return {"round_trip": (ckpt, restored), "spec": restored.spec,
                "params": restored.params, "x": _as_batch(images),
                "y": labels, "cycle": _Cycle(len(labels), size.batch),
                "right": 0, "seen": 0}

    def _score(self, state, idx, scores):
        pred = np.asarray(scores).argmax(axis=-1)
        state["right"] += int((pred == state["y"][idx]).sum())
        state["seen"] += len(idx)
        return pred

    def finish(self, state, ledger):
        return [("heldout_accuracy", state["right"] / max(state["seen"], 1),
                 "share")]


class DigitsEval(_Restored):
    """Batched feed-forward classification (``evaluate`` at unroll_T=0)."""

    name = "digits-eval"
    rate_name = "eval_images_per_s"
    full = Size(setup_reps=5, warmup=2, min_ops=10, batch=100, pool=1000)
    smoke = Size(setup_reps=1, warmup=1, min_ops=2, batch=10, pool=20)

    def op(self, state, i):
        idx = state["cycle"].next()
        fwd = network.forward(state["params"], state["spec"], state["x"][idx])
        return len(idx), (idx, fwd)

    def check(self, state, op_id, out):
        idx, fwd = out
        check_unit_codes(fwd.codes)
        self._score(state, idx, fwd.scores)


class DigitsUnroll(_Restored):
    """Batched classification after ``UNROLL_T`` coordinate-ascent sweeps."""

    name = "digits-unroll"
    rate_name = "unroll_images_per_s"
    full = Size(setup_reps=5, warmup=1, min_ops=10, batch=10, pool=200)
    smoke = Size(setup_reps=1, warmup=1, min_ops=2, batch=5, pool=10)

    def op(self, state, i):
        idx = state["cycle"].next()
        res = network.unrolled_infer(state["params"], state["spec"],
                                     state["x"][idx], T=UNROLL_T)
        return len(idx), (idx, res)

    def check(self, state, op_id, out):
        idx, res = out
        trace = np.stack([np.asarray(e, dtype=np.float64)
                          for e in res.energy_trace])
        drop = np.diff(trace, axis=0).min()
        if drop < -ENERGY_SLACK:
            raise CheckFailed(f"unrolled energy fell by {-drop!r}")
        check_unit_codes(res.codes)
        self._score(state, idx, res.scores)


class DigitsServe(_Restored):
    """Batch-1 requests: what ``ebssc encode --class all`` computes, in
    process — the codes from ``forward`` plus the per-class energy
    breakdown.  Enough requests run that ten fall beyond the p99."""

    name = "digits-serve"
    rate_name = "requests_per_s"
    full = Size(setup_reps=5, warmup=20, min_ops=1020, batch=1, pool=500)
    smoke = Size(setup_reps=1, warmup=2, min_ops=6, batch=1, pool=10)

    def setup(self, inputs, size, scratch):
        state = super().setup(inputs, size, scratch)
        state["order"] = np.random.default_rng(inputs[0]).permutation(
            size.pool)
        state["served"] = {}
        return state

    def op(self, state, i):
        j = int(state["order"][i % len(state["order"])])
        x = state["x"][j:j + 1]
        fwd = network.forward(state["params"], state["spec"], x)
        breakdown = network.class_energy_breakdown(state["params"],
                                                   state["spec"], x)
        return 1, (j, fwd, breakdown)

    def check(self, state, op_id, out):
        j, fwd, breakdown = out
        check_unit_codes(fwd.codes)
        scores = np.asarray(fwd.scores, dtype=np.float64)
        # Float32 codes against the float64 breakdown: a few ulps of the
        # largest term.
        tol = 1e-5 * max(1.0, float(np.abs(breakdown.recon_inner).max()))
        gap = float(np.abs(breakdown.e_total - scores).max())
        if gap > tol:
            raise CheckFailed(f"energy breakdown misses the score by {gap!r}")
        state["served"][op_id] = (j, int(self._score(state, [j], scores)[0]))

    def finish(self, state, ledger):
        served = state["served"]
        wanted = sorted({j for j, _ in served.values()})
        batched = {}
        for lo in range(0, len(wanted), 100):
            idx = wanted[lo:lo + 100]
            fwd = network.forward(state["params"], state["spec"],
                                  state["x"][idx])
            batched.update(zip(idx, np.asarray(fwd.scores).argmax(axis=-1)))
        for op_id, (j, pred) in served.items():
            if batched[j] != pred:
                ledger.fail(op_id, f"digit {j}: batch-1 prediction {pred} "
                                   f"differs from batched {batched[j]}")
        return super().finish(state, ledger)


WORKLOADS = {w.name: w for w in (DigitsTrain(), DigitsEval(), DigitsUnroll(),
                                 DigitsServe())}
