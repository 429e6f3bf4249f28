"""Watch the joint energy climb during unrolled inference.

A single feed-forward pass codes each block greedily against the layer
below.  Unrolling revisits the stack: every sweep re-solves each coding
block with reconstruction feedback from the block above, and the joint
energy of the whole segment can only go up.  This prints the trace.
"""

import sys

import numpy as np

from ebssc import digits_arrays, variant_spec
from ebssc.network import build, unrolled_infer


def main():
    spec = variant_spec("digits_ssc_ebc2", beta=0.05)
    params = build(spec, seed=0, dtype=np.float64)

    # A freshly built model biases every class identically; jitter the
    # arms a little so the hypotheses actually disagree.
    rng = np.random.default_rng(1)
    for name, p in params.items():
        if name.endswith((".w_plus", ".w_minus")):
            params[name] = p + rng.uniform(0.0, 0.02, p.shape)

    xtr, ytr, _, _ = digits_arrays(10, 10, seed=99)
    x = xtr[:4].astype(np.float64)[:, None] / 255.0

    rolled = unrolled_infer(params, spec, x, T=4)
    trace = np.stack([np.asarray(e) for e in rolled.energy_trace])

    # trace[t] is (batch, classes); summarize over hypotheses.
    print("joint segment energy, batch item 0 (one column per class):")
    for t, row in enumerate(trace[:, 0, :]):
        label = "feed-forward" if t == 0 else f"after sweep {t}"
        cells = "  ".join(f"{val:9.5f}" for val in row)
        print(f"  {label:>13s}: {cells}")

    gains = np.diff(trace, axis=0)
    print(f"\nsmallest per-sweep gain anywhere: {gains.min():.3e}")
    print(f"largest:                          {gains.max():.3e}")
    if (gains >= -1e-9).all():
        print("every entry is non-negative: monotone ascent, as promised.")
        return 0
    print("MONOTONICITY VIOLATED")
    return 1


if __name__ == "__main__":
    sys.exit(main())
