"""Distribution correctness: densities vs quadrature, samplers vs CDF oracles, KLs."""

import numpy as np
import pytest
from scipy import integrate, special as sps, stats

from polyaflow import autodiff as ad
from polyaflow.distributions import (
    BetaDist,
    DiagGaussian,
    LogisticDist,
    beta_kl,
    beta_kl_vars,
    gaussian_kl,
    sample_beta,
)

from helpers import check_gradients


class TestBetaDensity:
    def test_uniform_case(self):
        d = BetaDist(1.0, 1.0)
        assert d.log_pdf(0.3) == pytest.approx(0.0, abs=1e-12)
        assert d.mean() == pytest.approx(0.5)
        assert d.variance() == pytest.approx(1.0 / 12.0)

    def test_variance_concentrates(self):
        # matched alphas at 100 give variance 1/804
        d = BetaDist(100.0, 100.0)
        assert d.variance() == pytest.approx(1.0 / 804.0, rel=1e-12)
        assert d.variance() == pytest.approx(0.00124378, rel=1e-4)

    def test_density_normalized_by_quadrature(self):
        rng = np.random.default_rng(2)
        for _ in range(5):
            a, b = rng.uniform(0.4, 6.0, 2)
            d = BetaDist(a, b)
            val, _ = integrate.quad(lambda y: np.exp(d.log_pdf(y)), 0.0, 1.0)
            assert val == pytest.approx(1.0, abs=1e-6)

    def test_against_unnormalized_quadrature(self):
        # oracle: numerically normalized y^(a-1)(1-y)^(b-1)
        a, b = 2.7, 0.9
        norm, _ = integrate.quad(lambda t: t ** (a - 1) * (1 - t) ** (b - 1), 0, 1)
        d = BetaDist(a, b)
        for y in [0.05, 0.3, 0.77, 0.99]:
            direct = (a - 1) * np.log(y) + (b - 1) * np.log1p(-y) - np.log(norm)
            assert d.log_pdf(y) == pytest.approx(direct, abs=1e-8)

    def test_domain_errors(self):
        d = BetaDist(2.0, 3.0)
        for bad in [0.0, 1.0, -0.5, 1.5]:
            with pytest.raises(ValueError):
                d.log_pdf(bad)
        with pytest.raises(ValueError):
            BetaDist(0.0, 1.0)


class TestBetaSampler:
    def test_ks_against_cdf_oracle(self):
        # empirical CDF against the regularized incomplete beta
        rng = np.random.default_rng(123)
        for a, b in [(2.0, 5.0), (0.5, 0.5), (1.0, 1.0), (7.5, 0.4)]:
            draws = BetaDist(a, b).sample(rng, 20000)
            draws = np.sort(draws)
            emp = np.arange(1, draws.size + 1) / draws.size
            cdf = sps.betainc(a, b, draws)
            ks = np.abs(emp - cdf).max()
            assert ks < 1.63 / np.sqrt(draws.size), f"KS too large for Beta({a},{b})"

    def test_moments(self):
        rng = np.random.default_rng(77)
        d = BetaDist(3.0, 4.0)
        draws = d.sample(rng, 100000)
        assert draws.mean() == pytest.approx(d.mean(), abs=0.003)
        assert draws.var() == pytest.approx(d.variance(), abs=0.001)

    def test_support_clamped(self):
        rng = np.random.default_rng(5)
        draws = BetaDist(0.05, 0.05).sample(rng, 5000)
        assert draws.min() >= 1e-12
        assert draws.max() <= 1.0 - 1e-12

    def test_scalar_draw(self):
        rng = np.random.default_rng(0)
        y = BetaDist(2.0, 2.0).sample(rng)
        assert isinstance(y, float)
        assert 0.0 < y < 1.0

    def test_deterministic_given_seed(self):
        a = BetaDist(1.7, 3.3).sample(np.random.default_rng(9), 100)
        b = BetaDist(1.7, 3.3).sample(np.random.default_rng(9), 100)
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("a", [1e-3, 1e-8, 1e-100, 1e-310])
    def test_tiny_parameters_stay_finite(self, a):
        # both boosted Gamma variates underflow to 0 here unless drawn in log space
        draws = BetaDist(a, a).sample(np.random.default_rng(4), 5000)
        assert np.all(np.isfinite(draws))
        assert np.all((draws > 0.0) & (draws < 1.0))
        # Beta(a, a) with a -> 0 puts half its mass near each endpoint
        assert abs(np.mean(draws < 0.5) - 0.5) < 0.05

    def test_vectorized_parameters(self):
        rng = np.random.default_rng(12)
        alpha = np.array([[0.3, 2.0, 9.0], [1.0, 1e-3, 4.0]])
        beta = np.array([[0.7, 5.0, 1.0], [1.0, 2.0, 1e-3]])
        draws = np.stack([sample_beta(alpha, beta, rng) for _ in range(20000)])
        assert draws.shape == (20000, 2, 3)
        assert np.all((draws > 0.0) & (draws < 1.0))
        np.testing.assert_allclose(draws.mean(axis=0), alpha / (alpha + beta), atol=0.01)


class TestBetaKL:
    def test_reference_value(self):
        # KL(Beta(2,1) || Beta(1,1)) = ln 2 - 1/2
        assert beta_kl(BetaDist(2.0, 1.0), BetaDist(1.0, 1.0)) == pytest.approx(
            np.log(2.0) - 0.5, abs=1e-12
        )

    def test_identical_is_zero(self):
        for a, b in [(1.0, 1.0), (3.3, 0.7), (12.0, 5.0)]:
            assert abs(beta_kl(BetaDist(a, b), BetaDist(a, b))) < 1e-12

    def test_against_quadrature(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            a, b, c, d = rng.uniform(0.5, 8.0, 4)
            p, q = BetaDist(a, b), BetaDist(c, d)
            val, _ = integrate.quad(
                lambda y: np.exp(p.log_pdf(y)) * (p.log_pdf(y) - q.log_pdf(y)), 1e-12, 1 - 1e-12
            )
            assert beta_kl(p, q) == pytest.approx(val, abs=1e-6)

    def test_nonnegative(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            a, b, c, d = rng.uniform(0.3, 10.0, 4)
            assert beta_kl(BetaDist(a, b), BetaDist(c, d)) >= -1e-13

    def test_vars_version_matches_and_differentiates(self):
        rng = np.random.default_rng(44)
        ap = rng.uniform(0.5, 5.0, (2, 3))
        bp = rng.uniform(0.5, 5.0, (2, 3))
        tape = ad.Tape()
        va, vb = tape.leaf(ap), tape.leaf(bp)
        kl = beta_kl_vars(va, vb, 1.0, 1.0)
        expected = np.array(
            [[beta_kl(BetaDist(a, b), BetaDist(1.0, 1.0)) for a, b in zip(ra, rb)]
             for ra, rb in zip(ap, bp)]
        )
        np.testing.assert_allclose(kl.value, expected, atol=1e-10)

        def build(tape, leaves):
            return beta_kl_vars(leaves[0], leaves[1], 2.0, 3.0).sum()

        check_gradients(build, [ap, bp], tol=1e-4)


class TestGaussian:
    def test_log_pdf_matches_scipy(self):
        rng = np.random.default_rng(3)
        mean = rng.standard_normal(3)
        var = rng.uniform(0.5, 2.0, 3)
        d = DiagGaussian(mean, var)
        x = rng.standard_normal((10, 3))
        oracle = stats.multivariate_normal(mean, np.diag(var)).logpdf(x)
        np.testing.assert_allclose(d.log_pdf(x), oracle, atol=1e-10)

    def test_kl_reference(self):
        # KL(N(1,1) || N(0,1)) = 0.5
        p = DiagGaussian([1.0], [1.0])
        q = DiagGaussian([0.0], [1.0])
        assert gaussian_kl(p, q) == pytest.approx(0.5, abs=1e-12)

    def test_kl_identical_zero_and_quadrature(self):
        rng = np.random.default_rng(15)
        mean = rng.standard_normal(4)
        var = rng.uniform(0.2, 3.0, 4)
        p = DiagGaussian(mean, var)
        assert gaussian_kl(p, p) == pytest.approx(0.0, abs=1e-12)

        q = DiagGaussian(mean + rng.standard_normal(4) * 0.5, var * rng.uniform(0.5, 2.0, 4))
        # per-dimension quadrature adds up for diagonal Gaussians
        total = 0.0
        for j in range(4):
            pj = stats.norm(p.mean[j], np.sqrt(p.variance[j]))
            qj = stats.norm(q.mean[j], np.sqrt(q.variance[j]))
            val, _ = integrate.quad(
                lambda x: pj.pdf(x) * (pj.logpdf(x) - qj.logpdf(x)), -30, 30
            )
            total += val
        assert gaussian_kl(p, q) == pytest.approx(total, abs=1e-8)

    def test_validation(self):
        with pytest.raises(ValueError):
            DiagGaussian([0.0], [0.0])
        with pytest.raises(ValueError):
            gaussian_kl(DiagGaussian([0.0], [1.0]), DiagGaussian([0.0, 0.0], [1.0, 1.0]))


class TestLogistic:
    def test_mode_value(self):
        # density at the location is 1/(4s)
        for s in [0.5, 1.0, 2.0]:
            d = LogisticDist(0.3, s)
            assert d.log_pdf(0.3) == pytest.approx(np.log(1.0 / (4.0 * s)), abs=1e-12)

    def test_matches_scipy_and_normalizes(self):
        d = LogisticDist(-0.7, 1.3)
        xs = np.linspace(-25, 25, 41)
        oracle = stats.logistic(-0.7, 1.3).logpdf(xs)
        np.testing.assert_allclose(d.log_pdf(xs), oracle, atol=1e-10)
        val, _ = integrate.quad(lambda x: np.exp(d.log_pdf(x)), -80, 80)
        assert val == pytest.approx(1.0, abs=1e-9)

    def test_extreme_args_stable(self):
        d = LogisticDist()
        assert np.isfinite(d.log_pdf(800.0))
        assert np.isfinite(d.log_pdf(-800.0))

    def test_sampler_ks(self):
        rng = np.random.default_rng(10)
        draws = LogisticDist(1.0, 0.5).sample(rng, 20000)
        draws = np.sort(draws)
        emp = np.arange(1, draws.size + 1) / draws.size
        cdf = stats.logistic(1.0, 0.5).cdf(draws)
        assert np.abs(emp - cdf).max() < 1.63 / np.sqrt(draws.size)
