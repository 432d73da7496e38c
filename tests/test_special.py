"""Special-function accuracy against high-precision and quadrature oracles."""

import warnings

import mpmath
import numpy as np
import pytest
from scipy import integrate

from polyaflow import special


class TestLogGamma:
    def test_known_values(self):
        assert special.log_gamma(1.0) == pytest.approx(0.0, abs=1e-12)
        assert special.log_gamma(2.0) == pytest.approx(0.0, abs=1e-12)
        assert special.log_gamma(5.0) == pytest.approx(np.log(24.0), abs=1e-11)
        assert special.log_gamma(0.5) == pytest.approx(0.5 * np.log(np.pi), abs=1e-11)

    def test_against_mpmath(self):
        rng = np.random.default_rng(7)
        xs = np.concatenate([
            rng.uniform(1e-3, 0.5, 50),
            rng.uniform(0.5, 10.0, 100),
            rng.uniform(10.0, 5e3, 50),
        ])
        ours = special.log_gamma(xs)
        exact = np.array([float(mpmath.loggamma(x)) for x in xs])
        # absolute for small magnitudes, relative for the growing tail
        err = np.abs(ours - exact) / np.maximum(1.0, np.abs(exact))
        assert err.max() < 1e-10

    def test_recurrence(self):
        rng = np.random.default_rng(3)
        x = rng.uniform(0.1, 20.0, 200)
        lhs = special.log_gamma(x + 1.0)
        rhs = special.log_gamma(x) + np.log(x)
        np.testing.assert_allclose(lhs, rhs, atol=5e-12, rtol=1e-12)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            special.log_gamma(0.0)
        with pytest.raises(ValueError):
            special.log_gamma(np.array([1.0, -2.0]))


class TestDigamma:
    def test_known_values(self):
        # psi(1) = -euler_gamma, psi(1/2) = -2 ln 2 - euler_gamma
        assert special.digamma(1.0) == pytest.approx(-0.5772156649015329, abs=1e-11)
        assert special.digamma(0.5) == pytest.approx(-1.9635100260214235, abs=1e-11)

    def test_against_mpmath(self):
        rng = np.random.default_rng(11)
        xs = np.concatenate([
            rng.uniform(1e-4, 1.0, 80),
            rng.uniform(1.0, 50.0, 80),
            rng.uniform(50.0, 1e4, 40),
        ])
        ours = special.digamma(xs)
        exact = np.array([float(mpmath.digamma(x)) for x in xs])
        assert np.abs(ours - exact).max() < 1e-10

    def test_recurrence(self):
        rng = np.random.default_rng(5)
        x = rng.uniform(0.05, 30.0, 300)
        np.testing.assert_allclose(
            special.digamma(x + 1.0), special.digamma(x) + 1.0 / x, atol=1e-10
        )

    def test_shapes(self):
        assert isinstance(special.digamma(2.0), float)
        out = special.digamma(np.ones((3, 4)))
        assert out.shape == (3, 4)


class TestTrigamma:
    def test_known_value(self):
        # psi'(1) = pi^2 / 6
        assert special.trigamma(1.0) == pytest.approx(np.pi**2 / 6.0, abs=1e-11)

    def test_against_mpmath(self):
        rng = np.random.default_rng(13)
        xs = np.concatenate([rng.uniform(1e-3, 1.0, 60), rng.uniform(1.0, 200.0, 60)])
        ours = special.trigamma(xs)
        exact = np.array([float(mpmath.psi(1, x)) for x in xs])
        assert np.abs(ours - exact).max() < 1e-9

    def test_recurrence(self):
        x = np.linspace(0.2, 12.0, 77)
        np.testing.assert_allclose(
            special.trigamma(x + 1.0), special.trigamma(x) - 1.0 / x**2, atol=1e-10
        )


class TestLogBeta:
    def test_exact_cases(self):
        assert special.log_beta(1.0, 1.0) == pytest.approx(0.0, abs=1e-12)
        assert special.log_beta(2.0, 1.0) == pytest.approx(np.log(0.5), abs=1e-12)
        assert special.log_beta(2.0, 2.0) == pytest.approx(np.log(1.0 / 6.0), abs=1e-12)

    def test_against_quadrature(self):
        # B(a,b) = integral_0^1 t^(a-1) (1-t)^(b-1) dt, adaptive quadrature oracle
        for a, b in [(3.5, 0.7), (0.3, 0.4), (5.0, 9.0), (1.5, 2.5)]:
            val, err = integrate.quad(
                lambda t: t ** (a - 1.0) * (1.0 - t) ** (b - 1.0), 0.0, 1.0
            )
            assert err < 1e-6 * val
            assert special.log_beta(a, b) == pytest.approx(np.log(val), abs=1e-7)

    def test_symmetry_and_arrays(self):
        rng = np.random.default_rng(17)
        a = rng.uniform(0.2, 8.0, (4, 5))
        b = rng.uniform(0.2, 8.0, (4, 5))
        np.testing.assert_allclose(special.log_beta(a, b), special.log_beta(b, a), atol=1e-11)


def masked_inv_softplus(y):
    """inv_softplus as boolean-mask scatters: the formula the one-pass version must match."""
    arr = np.asarray(y, dtype=np.float64)
    out = np.atleast_1d(arr.astype(np.float64, copy=True))
    big = out > 30.0
    out[big] = out[big] + np.log1p(-np.exp(-out[big]))
    out[~big] = np.log(np.expm1(out[~big]))
    out = out.reshape(arr.shape)
    return float(out) if np.ndim(y) == 0 else out


def where_inv_softplus(y):
    """inv_softplus as it was before it split its branches: both on every entry."""
    arr = np.asarray(y, dtype=np.float64)
    hi = np.maximum(arr, 30.0)
    lo = np.minimum(arr, 30.0)
    out = np.where(arr > 30.0, hi + np.log1p(-np.exp(-hi)), np.log(np.expm1(lo)))
    return float(out) if np.ndim(y) == 0 else out


class TestSoftplusFamily:
    def test_softplus_values(self):
        assert special.softplus(0.0) == pytest.approx(np.log(2.0), abs=1e-15)
        assert special.softplus(800.0) == pytest.approx(800.0)
        assert special.softplus(-800.0) == pytest.approx(0.0, abs=1e-300)

    def test_inv_softplus_roundtrip(self):
        y = np.array([1e-8, 0.1, 1.0, 20.0, 35.0, 800.0])
        np.testing.assert_allclose(special.softplus(special.inv_softplus(y)), y, rtol=1e-12)
        assert special.inv_softplus(special.softplus(3.7)) == pytest.approx(3.7, abs=1e-12)

    def test_inv_softplus_bitwise_equals_masked_formula(self):
        rng = np.random.default_rng(23)
        at_30 = [30.0, np.nextafter(30.0, 0.0), np.nextafter(30.0, 60.0)]
        y = np.concatenate([np.exp(rng.uniform(-700.0, 700.0, 200_000)), at_30,
                            [5e-324, 1e-310, 1.7e308]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = special.inv_softplus(y)
        assert got.tobytes() == masked_inv_softplus(y).tobytes()
        for value in [*at_30, 5e-324, 1.7e308, 2.5]:
            got = special.inv_softplus(value)
            assert type(got) is float and got == masked_inv_softplus(value)
            assert special.inv_softplus(np.array(value)) == got
        got = special.inv_softplus([[0.5, 31.0]])
        assert got.shape == (1, 2)
        assert got.tobytes() == masked_inv_softplus(np.array([[0.5, 31.0]])).tobytes()

    def test_inv_softplus_bitwise_equals_both_branch_formula(self):
        edges = [30.0, np.nextafter(30.0, 0.0), np.nextafter(30.0, 60.0), 5e-324, 1e-310,
                 np.nextafter(2.2250738585072014e-308, 0.0), 1e300]
        y = np.concatenate([edges, np.geomspace(1e-12, 1e4, 4998)]).reshape(-1, 5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert special.inv_softplus(y).tobytes() == where_inv_softplus(y).tobytes()
            for value in edges:
                assert special.inv_softplus(value) == where_inv_softplus(value)

    @pytest.mark.parametrize("bad", [0.0, -1.0, np.nan, -np.inf])
    def test_inv_softplus_rejects_non_positive(self, bad):
        with pytest.raises(ValueError, match="strictly positive"):
            special.inv_softplus(np.array([1.0, bad]))
        with pytest.raises(ValueError, match="strictly positive"):
            special.inv_softplus(bad)

    def test_sigmoid_tails(self):
        assert special.sigmoid(0.0) == pytest.approx(0.5)
        assert special.sigmoid(800.0) == pytest.approx(1.0)
        assert special.sigmoid(-800.0) == pytest.approx(0.0, abs=1e-300)
        assert np.isfinite(special.log_sigmoid(-800.0))
        assert special.log_sigmoid(-800.0) == pytest.approx(-800.0)
        assert special.log_sigmoid(0.0) == pytest.approx(-np.log(2.0))
