"""Energy bookkeeping: the code/class decomposition, the offset
reparameterization, and the least-squares objective."""

import numpy as np
import pytest

from ebssc import tensor
from ebssc.coder import ClassBiasParams, ebssc_encode
from ebssc.energy import e_class, e_code, e_reparam, lsq_objective


def _unit_code(rng, shape):
    z = rng.standard_normal(shape)
    return z / tensor.l2_norm(z)


class TestECode:
    """The label-independent part of the energy."""

    def test_definition(self):
        """e_code == <x, reconstruct(z)> - beta * ||z||_1."""
        rng = np.random.default_rng(42)
        x = rng.standard_normal((2, 6, 6))
        bank = rng.standard_normal((3, 2, 3, 3))
        z = _unit_code(rng, (3, 4, 4))
        got = e_code(x, z, bank, 0.3)
        want = tensor.inner(x, tensor.reconstruct(z, bank, 0)) \
            - 0.3 * np.abs(z).sum()
        np.testing.assert_allclose(got, want, rtol=1e-12)

    def test_rejects_code_outside_unit_ball(self):
        """Codes beyond the sphere have no defined energy here."""
        rng = np.random.default_rng(42)
        z = 2.0 * _unit_code(rng, (2, 3, 3))
        with pytest.raises(ValueError):
            e_code(np.zeros((1, 5, 5)), z, np.zeros((2, 1, 3, 3)), 0.1)


class TestEClass:
    """The classwise bias term over split code parts."""

    def test_per_channel_weights(self):
        """w+ meets z+ = max(z, 0) and w- meets z- = min(z, 0)."""
        rng = np.random.default_rng(42)
        z = _unit_code(rng, (3, 4, 4))
        wp = rng.uniform(-0.5, 0.5, 3)
        wm = rng.uniform(-0.5, 0.5, 3)
        got = e_class(z, wp, wm)
        want = (wp[:, None, None] * np.maximum(z, 0)).sum() \
            + (wm[:, None, None] * np.minimum(z, 0)).sum()
        np.testing.assert_allclose(got, want, rtol=1e-12)

    def test_map_weights(self):
        """(K, H, W) weights score each location separately."""
        rng = np.random.default_rng(42)
        z = _unit_code(rng, (2, 4, 4))
        wp = rng.standard_normal((2, 4, 4))
        wm = rng.standard_normal((2, 4, 4))
        got = e_class(z, wp, wm)
        want = (wp * np.maximum(z, 0)).sum() + (wm * np.minimum(z, 0)).sum()
        np.testing.assert_allclose(got, want, rtol=1e-12)

    def test_weight_rank_validation(self):
        """Rank-2 weights are neither tied nor maps."""
        with pytest.raises(ValueError):
            e_class(np.zeros((2, 3, 3)), np.zeros((2, 3)), np.zeros((2, 3)))


class TestReparameterization:
    """Offset-plus-arm-widths form versus the plain two-term energy."""

    def test_identity_on_random_draws(self):
        """e_code + e_class(excess weights) == e_reparam to 1e-10."""
        rng = np.random.default_rng(42)
        x = rng.standard_normal((2, 8, 8))
        bank = rng.standard_normal((3, 2, 3, 3))
        beta = 0.5
        for _ in range(25):
            params = ClassBiasParams(rng.uniform(0, 0.2, (2, 3)),
                                     rng.uniform(0, 0.2, (2, 3)),
                                     rng.uniform(-0.1, 0.1, 3))
            y = int(rng.integers(2))
            code = ebssc_encode(x, bank, params, pad=1).code[y]
            wp = beta - (np.asarray(params.w_hat_plus)[y] + params.offset)
            wm = (np.asarray(params.w_hat_minus)[y] - params.offset) - beta
            lhs = e_code(x, code, bank, beta, pad=1) \
                + e_class(code, wp, wm)
            rhs = e_reparam(x, code, bank,
                            np.asarray(params.w_hat_plus)[y],
                            np.asarray(params.w_hat_minus)[y],
                            params.offset, pad=1)
            np.testing.assert_allclose(lhs, rhs, atol=1e-10)

    def test_offset_term_uses_signed_sum(self):
        """The b-term charges sum(z), not ||z||_1."""
        rng = np.random.default_rng(42)
        x = rng.standard_normal((1, 5, 5))
        bank = rng.standard_normal((2, 1, 3, 3))
        z = _unit_code(rng, (2, 3, 3))
        off = np.asarray([0.3, -0.2])
        base = e_reparam(x, z, bank, np.zeros((2,)), np.zeros((2,)),
                         np.zeros(2))
        got = e_reparam(x, z, bank, np.zeros((2,)), np.zeros((2,)), off)
        want = base - (off[:, None, None] * z).sum()
        np.testing.assert_allclose(got, want, rtol=1e-10)


class TestLsqObjective:
    """Squared error plus l1 penalty, the iterative oracle's target."""

    def test_definition(self):
        """||x - Dz||^2 + beta*||z||_1 with no half factor."""
        rng = np.random.default_rng(42)
        x = rng.standard_normal((1, 6, 6))
        bank = rng.standard_normal((2, 1, 3, 3))
        z = rng.standard_normal((2, 4, 4))
        resid = x - tensor.reconstruct(z, bank, 0)
        want = (resid ** 2).sum() + 0.2 * np.abs(z).sum()
        np.testing.assert_allclose(lsq_objective(x, z, bank, 0.2), want,
                                   rtol=1e-12)

    def test_zero_code(self):
        """The zero code scores the plain squared input norm."""
        x = np.ones((1, 4, 4))
        got = lsq_objective(x, np.zeros((1, 2, 2)), np.ones((1, 1, 3, 3)),
                            1.0)
        np.testing.assert_allclose(got, 16.0)
