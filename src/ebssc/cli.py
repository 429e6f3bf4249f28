"""Command-line entry point.

Subcommands: train, eval, encode, decode, check.  Exit codes are part of
the contract: 0 success, 1 usage error (bad flags, unknown config keys),
2 data error (missing or malformed files), 3 check-suite failure.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import data as data_mod
from .checkpoint import (Checkpoint, load_checkpoint, save_checkpoint,
                         write_tensor_file)
from .config import parse_config
from .errors import CheckpointError, ConfigError, DataError
from .imaging import emit_image_grid
from .learn import evaluate, train
from .network import (CODING_KINDS, _energy_breakdown, coding_segment,
                      decode, decode_class_bias, decode_residual, forward)
from .oracle import run_check_suite

__all__ = ["main"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_CHECK = 3


class _UsageExit(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse that signals usage errors instead of sys.exit(2)."""

    def error(self, message):
        raise _UsageExit(f"{self.prog}: {message}")


def _build_parser():
    p = _Parser(prog="ebssc", description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="command", required=True)

    t = sub.add_parser("train", help="train a model from a config file")
    t.add_argument("--config", required=True)
    t.add_argument("--data", required=True)
    t.add_argument("--out", required=True)

    e = sub.add_parser("eval", help="report test error of a checkpoint")
    e.add_argument("--ckpt", required=True)
    e.add_argument("--data", required=True)
    e.add_argument("--unroll", type=int, default=0, choices=range(5),
                   help="coordinate-ascent sweeps at inference (0-4)")

    n = sub.add_parser("encode",
                       help="dump code tensors and the per-class energy "
                            "breakdown for one image")
    n.add_argument("--ckpt", required=True)
    n.add_argument("--image", required=True,
                   help="PPM file, or an IDX image file (see --index)")
    n.add_argument("--index", type=int, default=0,
                   help="record to take when --image is an IDX file")
    n.add_argument("--out", default=None,
                   help="output tensor file (default <image>.codes)")

    d = sub.add_parser("decode",
                       help="emit a reconstruction / class-bias / "
                            "residual image grid from one layer")
    d.add_argument("--ckpt", required=True)
    d.add_argument("--image", required=True)
    d.add_argument("--index", type=int, default=0)
    d.add_argument("--layer", type=int, required=True,
                   help="coding block index to decode from")
    d.add_argument("--mode", choices=("recon", "bias", "residual"),
                   required=True)
    d.add_argument("--out", required=True, help="output PPM path")

    sub.add_parser("check", help="run the oracle check suite")
    return p


def _load_split(spec, directory, split):
    """The digit IDX files for a one-channel model, CIFAR-10 binaries
    otherwise."""
    if spec.input_shape[0] == 1:
        return data_mod.load_digits_dir(directory, split)
    names = ([f"data_batch_{i}.bin" for i in range(1, 6)]
             if split == "train" else ["test_batch.bin"])
    return data_mod.load_cifar10_bin(
        [os.path.join(directory, n) for n in names])


def _cmd_train(args):
    with open(args.config) as fh:
        cfg = parse_config(fh.read())
    spec = cfg.network_spec()
    train_ds = _load_split(spec, args.data, "train")
    test_ds = _load_split(spec, args.data, "test")
    if cfg.subset:
        train_ds = data_mod.Dataset(images=train_ds.images[:cfg.subset],
                                    labels=train_ds.labels[:cfg.subset],
                                    class_names=train_ds.class_names)
    stats = None
    if cfg.whiten:
        train_ds, stats = data_mod.preprocess(train_ds)
        test_ds, _ = data_mod.preprocess(test_ds, stats)
    tcfg = cfg.train_config()
    augment_fn = data_mod.augment if cfg.augment else None

    lines = []

    def log(line):
        lines.append(line)
        print(line)

    outcome = train(tcfg, spec, train_ds.images, train_ds.labels,
                    test_ds.images, test_ds.labels, augment_fn=augment_fn,
                    log=log)
    with open(args.out + ".metrics.csv", "w") as fh:
        fh.write("epoch,iter,split,loss,error_rate\n")
        fh.write("\n".join(lines) + "\n")
    save_checkpoint(args.out, Checkpoint(
        spec=spec, params=outcome.params, opt_state=outcome.state,
        epoch=tcfg.epochs, step=outcome.state.step,
        rng_state=outcome.rng.bit_generator.state, whitening=stats))
    err, _ = evaluate(outcome.params, spec, test_ds.images, test_ds.labels,
                      unroll_T=tcfg.unroll_T)
    print(f"final_test_error = {err:.6f}")
    return EXIT_OK


def _cmd_eval(args):
    ckpt = load_checkpoint(args.ckpt)
    if args.unroll:
        try:
            coding_segment(ckpt.spec)
        except ValueError as exc:
            raise _UsageExit(f"--unroll {args.unroll}: {exc}") from None
    test_ds = _load_split(ckpt.spec, args.data, "test")
    images = test_ds.images
    if ckpt.whitening is not None:
        images = data_mod.whiten(images, ckpt.whitening)
    err, loss_val = evaluate(ckpt.params, ckpt.spec, images, test_ds.labels,
                             unroll_T=args.unroll)
    print(f"test_error = {err:.6f}")
    print(f"test_loss = {loss_val:.6f}")
    return EXIT_OK


def _load_image(path, index, spec, whitening):
    with open(path, "rb") as fh:
        head = fh.read(2)
    if head in (b"P5", b"P6"):
        from .imaging import load_ppm
        img = load_ppm(path)
    else:
        arr = data_mod.load_idx(path)
        if arr.ndim != 3:
            raise DataError(f"{path}: not an image file")
        if not 0 <= index < len(arr):
            raise DataError(f"index {index} out of range for {len(arr)} "
                            "images")
        img = arr[index][None]
    c, h, w = spec.input_shape
    if img.shape != (c, h, w):
        raise DataError(f"image shape {img.shape} does not match the "
                        f"model input {(c, h, w)}")
    batch = img[None].astype(np.float32)
    if whitening is not None:
        batch = data_mod.whiten(batch, whitening)
    return batch


def _cmd_encode(args):
    ckpt = load_checkpoint(args.ckpt)
    x = _load_image(args.image, args.index, ckpt.spec, ckpt.whitening)
    fwd = forward(ckpt.params, ckpt.spec, x)
    tensors = {}
    for i, b in enumerate(ckpt.spec.blocks):
        if b.kind not in CODING_KINDS:
            continue
        code = np.asarray(fwd.codes[i])[0]
        if fwd.carries_class_axis(i):
            for y, code_y in enumerate(code):
                tensors[f"code.block{i}.class{y}"] = code_y
        else:
            tensors[f"code.block{i}"] = fwd.hypothesis(0, i, code)
    if ckpt.spec.classifier[0] == "energy":
        bd = _energy_breakdown(ckpt.params, ckpt.spec, fwd)
        for name in ("e_code", "e_class", "e_total", "l1_of_code",
                     "recon_inner"):
            tensors[f"energy.{name}"] = getattr(bd, name)[0]
    else:
        tensors["scores"] = np.asarray(fwd.scores)[0]
    out = args.out or args.image + ".codes"
    write_tensor_file(out, tensors)
    print(f"wrote {len(tensors)} tensors to {out}")
    return EXIT_OK


def _zero_class_bias(params, spec):
    out = dict(params)
    for i, b in enumerate(spec.blocks):
        if b.kind == "ebssc":
            for part in ("w_plus", "w_minus", "offset"):
                out[f"block{i}.{part}"] = np.zeros_like(
                    params[f"block{i}.{part}"])
    return out


def _cmd_decode(args):
    ckpt = load_checkpoint(args.ckpt)
    spec = ckpt.spec
    x = _load_image(args.image, args.index, spec, ckpt.whitening)
    layer = args.layer
    if not (0 <= layer < len(spec.blocks)
            and spec.blocks[layer].kind in CODING_KINDS):
        coding = [i for i, b in enumerate(spec.blocks)
                  if b.kind in CODING_KINDS]
        raise _UsageExit(f"--layer must be a coding block, one of {coding}")
    if args.mode != "recon" and spec.blocks[layer].kind != "ebssc":
        raise _UsageExit(f"--mode {args.mode} needs an energy block; block "
                         f"{layer} is {spec.blocks[layer].kind}")

    if args.mode == "recon":
        neutral = _zero_class_bias(ckpt.params, spec)
        fwd = forward(neutral, spec, x, switches=True)
        # every hypothesis codes alike with zero class bias; take the first
        code = fwd.hypothesis(0, layer, np.asarray(fwd.codes[layer])[0])
        switches = {k: fwd.hypothesis(0, k, v[0])
                    for k, v in fwd.switches.items()}
        grid = [[decode(ckpt.params, spec, code, layer, switches)]]
    elif args.mode == "bias":
        fwd = forward(ckpt.params, spec, x, switches=True)
        switches = {k: v[0] for k, v in fwd.switches.items()}
        grid = [list(decode_class_bias(ckpt.params, spec, layer, switches))]
    else:
        grid = [list(decode_residual(ckpt.params, spec, x, layer)[0])]
    emit_image_grid(grid, args.out)
    print(f"wrote {args.out}")
    return EXIT_OK


def _cmd_check(_args):
    results = run_check_suite()
    width = max(len(name) for name, _, _ in results)
    ok_all = True
    for name, ok, detail in results:
        ok_all &= ok
        print(f"{name:<{width}}  {'PASS' if ok else 'FAIL'}  {detail}")
    return EXIT_OK if ok_all else EXIT_CHECK


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        handler = {"train": _cmd_train, "eval": _cmd_eval,
                   "encode": _cmd_encode, "decode": _cmd_decode,
                   "check": _cmd_check}[args.command]
        return handler(args)
    except _UsageExit as exc:
        print(exc, file=sys.stderr)
        return EXIT_USAGE
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DataError, CheckpointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
