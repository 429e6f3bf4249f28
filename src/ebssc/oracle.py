"""Independent iterative solvers used to cross-check the closed forms.

Nothing in this module may call the closed-form coder; these routines take
the long way around on purpose:

* ``ista_csc``          — proximal gradient descent on the least-squares
                          sparse coding objective ||x - Dz||^2 + beta||z||_1.
* ``pga_ssc``           — proximal ascent on the unit-ball coding objective
                          <v, z> - P(z), using small steps so convergence is
                          genuinely iterative.
* ``unit_recon_solve``  — the reconstruction-sphere problem
                          max <x, Dz> - beta||z||_1 s.t. ||Dz||_2 = 1,
                          solved by bisecting the quadratic multiplier of a
                          Lagrangian family whose inner problems are ISTA
                          instances.

Each solver traces its objective; a trace that moves the wrong way by more
than 1e-9 raises OracleDivergenceError rather than returning garbage.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import tensor
from .errors import OracleDivergenceError
from .shrinkage import ThresholdPair, shrink

__all__ = ["OracleReport", "UnitReconResult", "ista_csc", "pga_ssc",
           "unit_recon_solve", "finite_diff", "run_check_suite"]

MONOTONE_SLACK = 1e-9


@dataclass
class OracleReport:
    """Trace and outcome of one iterative solve."""

    final_point: np.ndarray
    objective_trace: list = field(default_factory=list)
    converged: bool = False
    iterations: int = 0


MAX_CODE_SIZE = 4096


def _code_shape(x, bank, pad):
    k, _, kh, kw = bank.shape
    h, w = x.shape[-2], x.shape[-1]
    shape = (k, h - kh + 1 + 2 * pad, w - kw + 1 + 2 * pad)
    size = int(np.prod(shape))
    if size > MAX_CODE_SIZE:
        raise ValueError(
            f"oracle limited to code sizes <= {MAX_CODE_SIZE}, got {size}")
    return shape


def _dense_operator(bank, shape, pad):
    """The reconstruction map as a dense (input size, code size) matrix,
    built by reconstructing the code-space identity 512 rows at a time,
    which bounds the temporaries at the code-size cap."""
    size = int(np.prod(shape))
    rows = []
    for i in range(0, size, 512):
        eye = np.eye(min(512, size - i), size, k=i)
        r = tensor.reconstruct(eye.reshape((-1,) + shape), bank, pad)
        rows.append(r.reshape(len(eye), -1))
    return np.concatenate(rows).T


def ista_csc(x, bank, beta, pad=0, iters=2000, tol=1e-12, z0=None):
    """Minimize ||x - Dz||^2 + beta*||z||_1 by ISTA with step 1/(2*lmax),
    iterating on the dense operator D with the exact lmax = ||D||_2^2."""
    x = np.asarray(x, dtype=np.float64)
    bank = np.asarray(bank, dtype=np.float64)
    shape = _code_shape(x, bank, pad)
    d = _dense_operator(bank, shape, pad)
    lam = np.linalg.norm(d, 2) ** 2
    step = 1.0 / (2.0 * max(lam, 1e-12) * 1.05)
    pair = ThresholdPair.symmetric(step * float(beta))

    if z0 is None:
        z = np.zeros(shape)
    else:
        z = np.array(z0, dtype=np.float64)
        if z.shape != shape:
            raise ValueError(f"warm start shape {z.shape} does not match "
                             f"the code shape {shape}")
    z = z.ravel()
    target = x.ravel()
    resid = d @ z - target
    report = OracleReport(final_point=z.reshape(shape))
    prev = np.inf
    for it in range(iters):
        z = shrink(z - (2.0 * step) * (resid @ d), pair)
        resid = d @ z - target
        obj = float(resid @ resid + float(beta) * np.abs(z).sum())
        report.objective_trace.append(obj)
        if obj > prev + MONOTONE_SLACK:
            raise OracleDivergenceError(
                f"ISTA objective rose at iteration {it}: {prev} -> {obj}")
        if abs(prev - obj) < tol * max(1.0, abs(obj)):
            report.converged = True
            report.iterations = it + 1
            break
        prev = obj
    else:
        report.iterations = iters
    report.final_point = z.reshape(shape)
    return report


def pga_ssc(x, bank, thresholds, pad=0, iters=500, step=0.1, tol=1e-12):
    """Maximize <v, z> - P(z) over the unit ball by proximal ascent.

    One step maps z to the ball projection of shrink(z + step*v) with
    thresholds scaled by step; for any positive step this is a proximal
    point iteration on a concave objective and must be monotone.
    """
    if not isinstance(thresholds, ThresholdPair):
        thresholds = ThresholdPair.symmetric(float(thresholds))
    v = tensor.cross_correlate(
        np.asarray(x, dtype=np.float64), np.asarray(bank, dtype=np.float64),
        pad)
    bp = np.asarray(thresholds.beta_plus, dtype=np.float64)
    bm = np.asarray(thresholds.beta_minus, dtype=np.float64)
    scaled = ThresholdPair(beta_plus=step * bp, beta_minus=step * bm)

    def objective(z):
        pos = np.maximum(z, 0)
        neg = np.minimum(z, 0)
        pen = (bp * pos).sum(dtype=np.float64) \
            - (np.where(np.isfinite(bm), bm, 0.0) * neg).sum(dtype=np.float64)
        return float((v * z).sum(dtype=np.float64) - pen)

    z = np.zeros_like(v)
    report = OracleReport(final_point=z)
    best = -np.inf
    best_z = z
    prev = objective(z)
    report.objective_trace.append(prev)
    for it in range(iters):
        w = shrink(z + step * v, scaled)
        n = tensor.l2_norm(w)
        z = w / n if n > 1.0 else w
        obj = objective(z)
        report.objective_trace.append(obj)
        if obj < prev - MONOTONE_SLACK:
            raise OracleDivergenceError(
                f"proximal ascent objective fell at iteration {it}: "
                f"{prev} -> {obj}")
        if obj > best:
            best, best_z = obj, z
        if abs(obj - prev) < tol * max(1.0, abs(obj)):
            report.converged = True
            report.iterations = it + 1
            break
        prev = obj
    else:
        report.iterations = iters
    report.final_point = best_z
    return report


@dataclass(frozen=True)
class UnitReconResult:
    """Solution of the reconstruction-sphere problem."""

    code: np.ndarray
    reconstruction: np.ndarray
    multiplier: float
    norm_gap: float
    converged: bool
    degenerate: bool


def _penalized_code(x, bank, beta, mu, pad, iters=20000, tol=1e-14, z0=None):
    """Inner Lagrangian solve: argmin mu*||Dz||^2 - <x,Dz> + beta||z||_1,
    rewritten as the ISTA objective mu*(||Dz - x/(2mu)||^2 + (beta/mu)|z|)."""
    target = x / (2.0 * mu)
    rep = ista_csc(target, bank, beta / mu, pad=pad, iters=iters, tol=tol,
                   z0=z0)
    return rep.final_point


def unit_recon_solve(x, bank, beta, pad=0, bisect_iters=200, norm_tol=1e-6):
    """Maximize <x, Dz> - beta*||z||_1 subject to ||Dz||_2 = 1.

    The reconstruction norm of the Lagrangian solution is non-increasing in
    the quadratic multiplier mu, so mu is found by bracketing + bisection.
    Instances where even tiny mu keeps ||Dz|| < 1 are degenerate (the
    unconstrained optimum is z = 0) and reported as such.
    """
    x = np.asarray(x, dtype=np.float64)
    bank = np.asarray(bank, dtype=np.float64)

    warm = [None]  # successive mu values are close; reuse the last solve

    def recon_norm(mu):
        z = _penalized_code(x, bank, beta, mu, pad, z0=warm[0])
        warm[0] = z
        return z, tensor.l2_norm(tensor.reconstruct(z, bank, pad))

    mu_hi = 1.0
    z_hi, n_hi = recon_norm(mu_hi)
    grow = 0
    while n_hi > 1.0 and grow < 60:
        mu_hi *= 2.0
        z_hi, n_hi = recon_norm(mu_hi)
        grow += 1

    mu_lo = mu_hi / 2.0
    z_lo, n_lo = recon_norm(mu_lo)
    shrink_steps = 0
    while n_lo < 1.0 and shrink_steps < 40:
        mu_lo /= 2.0
        z_lo, n_lo = recon_norm(mu_lo)
        shrink_steps += 1
    if n_lo < 1.0:
        zero = np.zeros(_code_shape(x, bank, pad))
        return UnitReconResult(code=zero,
                               reconstruction=np.zeros_like(x),
                               multiplier=mu_lo, norm_gap=1.0,
                               converged=True, degenerate=True)

    z, n = z_lo, n_lo
    for _ in range(bisect_iters):
        mu = 0.5 * (mu_lo + mu_hi)
        z, n = recon_norm(mu)
        if abs(n - 1.0) <= norm_tol:
            break
        if n > 1.0:
            mu_lo = mu
        else:
            mu_hi = mu
    else:
        mu = 0.5 * (mu_lo + mu_hi)

    if n <= 0:
        zero = np.zeros(_code_shape(x, bank, pad))
        return UnitReconResult(code=zero, reconstruction=np.zeros_like(x),
                               multiplier=mu, norm_gap=1.0,
                               converged=False, degenerate=True)
    code = z / n
    recon = tensor.reconstruct(code, bank, pad)
    return UnitReconResult(code=code, reconstruction=recon, multiplier=mu,
                           norm_gap=abs(n - 1.0),
                           converged=abs(n - 1.0) <= norm_tol,
                           degenerate=False)


def finite_diff(f, x, eps=1e-5):
    """Central-difference gradient of a scalar function of an ndarray."""
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    flat = x.ravel()
    gflat = g.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        hi = f(x)
        flat[i] = orig - eps
        lo = f(x)
        flat[i] = orig
        gflat[i] = (hi - lo) / (2.0 * eps)
    return g


def run_check_suite(seed=0):
    """Numerical self-checks for the install; returns (name, ok, detail)."""
    from . import coder, energy
    from .shrinkage import crelu_split

    rng = np.random.default_rng(seed)
    results = []

    def record(name, ok, detail):
        results.append((name, bool(ok), detail))

    # Correlation / reconstruction adjointness.
    x = rng.standard_normal((2, 8, 8))
    bank = rng.standard_normal((3, 2, 3, 3))
    z = rng.standard_normal((3, 8, 8))
    lhs = tensor.inner(tensor.cross_correlate(x, bank, pad=1), z)
    rhs = tensor.inner(x, tensor.reconstruct(z, bank, pad=1))
    record("adjointness", abs(lhs - rhs) <= 1e-6, f"gap={abs(lhs - rhs):.3e}")

    # Closed form at least matches the iterative ball solver.
    pair = ThresholdPair.symmetric(0.3)
    res = coder.ssc_encode(x, bank, pair, pad=1)
    rep = pga_ssc(x, bank, pair, pad=1, iters=2000)
    gap = rep.objective_trace[-1] - res.optimal_energy
    record("closed_form_vs_ascent", gap <= 1e-7, f"ascent-closed={gap:.3e}")

    # Shrinkage equals a difference of two rectifier passes.
    v = rng.standard_normal(512)
    p = ThresholdPair.symmetric(0.25)
    two_relu = np.maximum(v - 0.25, 0) - np.maximum(-(v + 0.25), 0)
    record("two_relu_identity", np.array_equal(shrink(v, p), two_relu),
           "exact")

    # Reparameterized energy agrees with code + class energies.
    params = coder.ClassBiasParams(
        w_hat_plus=rng.uniform(0, 0.2, (2, 3)),
        w_hat_minus=rng.uniform(0, 0.2, (2, 3)),
        offset=rng.uniform(-0.1, 0.1, 3))
    y = 1
    enc = coder.ebssc_encode(x, bank, params, pad=1)
    code, z_tilde, lam = enc.code[y], enc.pre_projection[y], enc.lambda_star[y]
    beta = 0.5
    wp = beta - (np.asarray(params.w_hat_plus)[y] + params.offset)
    wm = (np.asarray(params.w_hat_minus)[y] - params.offset) - beta
    lhs = energy.e_code(x, code, bank, beta, pad=1) \
        + energy.e_class(code, wp, wm)
    rhs = energy.e_reparam(x, code, bank,
                           np.asarray(params.w_hat_plus)[y],
                           np.asarray(params.w_hat_minus)[y],
                           params.offset, pad=1)
    record("reparam_identity", abs(lhs - rhs) <= 1e-10,
           f"gap={abs(lhs - rhs):.3e}")

    # Unit-sphere code properties.
    n = tensor.l2_norm(code)
    ok_norm = abs(n - 1.0) <= 1e-8 or n == 0.0
    ok_lam = abs(lam - 0.5 * tensor.l2_norm(z_tilde)) <= 1e-12
    record("sphere_identities", ok_norm and ok_lam,
           f"norm={n:.8f} lambda={lam:.6f}")

    # Sphere-constrained solve matches the least-squares solver.
    xs = rng.standard_normal((1, 5, 5))
    xs /= tensor.l2_norm(xs)
    bs = rng.standard_normal((2, 1, 3, 3)) * 0.8
    beta = 0.05
    unit = unit_recon_solve(xs, bs, beta / 2.0, pad=0)
    lsq = ista_csc(xs, bs, beta, pad=0, iters=20000, tol=1e-15)
    scaled = coder.unit_scale_to_lsq(unit.code, xs, bs, beta, pad=0)
    target = tensor.reconstruct(lsq.final_point, bs, pad=0)
    gap = tensor.l2_norm(scaled.reconstruction - target)
    ok = (not unit.degenerate) and gap <= 1e-4
    record("sphere_vs_lsq", ok, f"recon gap={gap:.3e}")

    # Split preserves content: plus + minus reassembles the input.
    t = rng.standard_normal((4, 6, 6)).astype(np.float32)
    halves = crelu_split(t)
    back = halves[:4] + halves[4:]
    record("split_reassembly", np.array_equal(back, t), "exact")
    return results
