"""Decode what each class hypothesis adds to the code.

Trains a small model briefly, then renders two PPM galleries through
the deconvolutional decoder: the per-class threshold-bias patterns
(what the classifier wants to see for each digit), and the residual
decomposition of one test image under every hypothesis.
"""

import argparse

import numpy as np

from ebssc import TrainConfig, digits_arrays, variant_spec
from ebssc.imaging import emit_image_grid
from ebssc.learn import train
from ebssc.network import decode_class_bias, decode_residual, forward


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--epochs", type=int, default=3)
    ap.add_argument("--bias-out", default="class_bias.ppm")
    ap.add_argument("--residual-out", default="residuals.ppm")
    args = ap.parse_args()

    xtr, ytr, xte, yte = digits_arrays(500, 10, seed=1234)
    xtr = xtr.astype(np.float32)[:, None] / 255.0
    xte = xte.astype(np.float32)[:, None] / 255.0

    spec = variant_spec("digits_ssc_ebc2", beta=0.05)
    cfg = TrainConfig(alpha=1e-4, learning_rate=0.005, batch_size=50,
                      epochs=args.epochs, seed=0)
    print(f"training {args.epochs} epochs on 500 digits ...")
    outcome = train(cfg, spec, xtr, ytr)
    params = outcome.params

    # The top block is the energy block; index it by kind, not position.
    at = max(i for i, b in enumerate(spec.blocks) if b.kind == "ebssc")

    x = xte[:1]
    fwd = forward(params, spec, x, switches=True)
    bias = decode_class_bias(params, spec, at, fwd.switches)
    emit_image_grid([list(bias[0, :, 0])], args.bias_out)
    print(f"class-bias gallery -> {args.bias_out}")

    resid = decode_residual(params, spec, x, at)
    emit_image_grid([list(resid[0, :, 0])], args.residual_out)
    scores = np.asarray(fwd.scores)[0]
    print(f"residual gallery   -> {args.residual_out} "
          f"(true label {yte[0]}, argmax {int(scores.argmax())})")


if __name__ == "__main__":
    main()
