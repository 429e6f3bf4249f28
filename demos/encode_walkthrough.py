"""The closed-form coder, step by step on one image.

Walks a single digit through correlate -> shrink -> normalize and
verifies, numerically, that the one-shot answer is the optimum of the
constrained coding problem (the iterative ball solver cannot beat it).
Then switches the same block into class-conditional mode and shows how
each label hypothesis bends the thresholds and the resulting energy.
"""

import sys

import numpy as np

from ebssc import (ClassBiasParams, ThresholdPair, class_thresholds,
                   digits_arrays, ebssc_encode, ssc_encode, tensor)
from ebssc.oracle import pga_ssc

# The ascent oracle may beat the closed form by rounding only: at most
# this share of the optimal energy.
ASCENT_SLACK = 1e-9


def main():
    xtr, ytr, _, _ = digits_arrays(10, 10, seed=7)
    x = xtr[0].astype(np.float32)[None] / 255.0  # (1, 28, 28)
    print(f"input digit: {ytr[0]}, ink fraction "
          f"{float((x > 0.2).mean()):.3f}")

    rng = np.random.default_rng(0)
    bank = rng.normal(0.0, 0.2, (8, 1, 5, 5))
    pair = ThresholdPair.symmetric(0.05)

    res = ssc_encode(x, bank, pair, pad=2)
    v = tensor.cross_correlate(x, bank, pad=2)
    print(f"\ncorrelation field:  {v.shape}, |v| max {np.abs(v).max():.3f}")
    nz = int(np.count_nonzero(res.pre_projection))
    print(f"after shrinkage:    {nz}/{res.pre_projection.size} "
          f"coefficients survive")
    print(f"code norm:          {tensor.l2_norm(res.code):.12f}")
    print(f"multiplier:         lambda* = {res.lambda_star:.6f} "
          f"(= half the shrunk norm)")
    print(f"optimal energy:     {res.optimal_energy:.6f}")

    # The ascent oracle climbs toward the same optimum from zero.
    rep = pga_ssc(x, bank, pair, pad=2, iters=1500)
    ascent = max(rep.objective_trace)
    print(f"ball-ascent best:   {ascent:.6f} "
          f"after {rep.iterations} iterations")
    beaten = ascent - res.optimal_energy > ASCENT_SLACK * abs(
        res.optimal_energy)
    if beaten:
        print("CLOSED FORM BEATEN: the ascent oracle found a higher energy")

    # Class-conditional coding: one threshold pair per hypothesis.
    params = ClassBiasParams(
        w_hat_plus=rng.uniform(0.0, 0.1, (10, 8)),
        w_hat_minus=rng.uniform(0.0, 0.1, (10, 8)),
        offset=rng.uniform(-0.05, 0.05, 8))
    print("\nper-class energies under the same bank:")
    enc = ebssc_encode(x, bank, params, pad=2)
    beta_plus = class_thresholds(params).beta_plus
    for y in range(10):
        bp = float(beta_plus[y].mean())
        print(f"  class {y}: energy {enc.optimal_energy[y]:8.4f}   "
              f"mean beta_plus {bp:+.4f}")
    return 1 if beaten else 0


if __name__ == "__main__":
    sys.exit(main())
