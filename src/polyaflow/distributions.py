"""Beta, diagonal-Gaussian, and logistic distributions with closed-form KLs.

The Beta sampler draws the logs of two Gamma variates by the
Marsaglia-Tsang squeeze method and returns sigmoid(log G1 - log G2) =
G1 / (G1 + G2), so the only randomness primitives consumed from numpy's
Generator are uniforms and normals.  Below shape 1 the standard boost
G(a) = G(a + 1) U^(1/a) is applied in log space: at tiny shapes both
variates would underflow to 0 and their ratio would be 0/0, but their
logs stay finite.  The sampler is vectorized over arrays of parameters,
one draw per entry.
"""

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import special

_EPS = 1e-12


def _log_gamma_variates(shape, rng):
    """log of one Gamma(shape_i, 1) draw per entry of the positive array `shape`.

    Marsaglia & Tsang (2000), vectorized over entries; below shape 1 the
    boost log G(a) = log G(a + 1) + log(U) / a keeps tiny shapes finite.
    """
    shape = np.asarray(shape, dtype=np.float64)
    if not np.all(shape > 0.0):
        raise ValueError("gamma shape must be positive")
    boost = shape < 1.0
    d = (np.where(boost, shape + 1.0, shape) - 1.0 / 3.0).reshape(-1)
    c = 1.0 / np.sqrt(9.0 * d)

    out = np.empty(d.size)
    todo = np.arange(d.size)
    while todo.size:
        x = rng.standard_normal(todo.size)
        v = (1.0 + c[todo] * x) ** 3
        u = rng.random(todo.size)
        ok = v > 0.0
        x2 = x * x
        with np.errstate(divide="ignore", invalid="ignore"):
            squeeze = u < 1.0 - 0.0331 * x2 * x2
            slower = np.log(u) < 0.5 * x2 + d[todo] * (1.0 - v + np.log(np.where(ok, v, 1.0)))
        accept = ok & (squeeze | slower)
        done = todo[accept]
        out[done] = np.log(d[done] * v[accept])
        todo = todo[~accept]
    out = out.reshape(shape.shape)
    if boost.any():
        # 1 - U lies in (0, 1], so |log(1 - U)| <= 37; flooring the divisor at
        # 1e-306 keeps the term finite for subnormal shapes (softplus of raw
        # below about -708), so a Beta draw never meets -inf - (-inf)
        log_u = np.log1p(-rng.random(int(boost.sum())))
        out[boost] += log_u / np.maximum(shape[boost], 1e-306)
    return out


def sample_beta(alpha, beta, rng):
    """One Beta(alpha_i, beta_i) draw per entry of the broadcast parameter arrays.

    Draws lie in [1e-12, 1 - 1e-12]; parameters must be strictly positive.
    """
    alpha, beta = np.broadcast_arrays(np.asarray(alpha, dtype=np.float64),
                                      np.asarray(beta, dtype=np.float64))
    log_g = _log_gamma_variates(np.stack([alpha, beta]), rng)
    return np.clip(special.sigmoid(log_g[0] - log_g[1]), _EPS, 1.0 - _EPS)


@dataclass(frozen=True)
class BetaDist:
    """Beta(alpha, beta) on (0, 1)."""

    alpha: float
    beta: float

    def __post_init__(self):
        if self.alpha <= 0.0 or self.beta <= 0.0:
            raise ValueError("Beta parameters must be strictly positive")

    def log_pdf(self, y):
        y = np.asarray(y, dtype=np.float64)
        if np.any((y <= 0.0) | (y >= 1.0)):
            raise ValueError("Beta log_pdf requires y in the open interval (0, 1)")
        out = (
            (self.alpha - 1.0) * np.log(y)
            + (self.beta - 1.0) * np.log1p(-y)
            - special.log_beta(self.alpha, self.beta)
        )
        return float(out) if np.ndim(y) == 0 else out

    def mean(self):
        return self.alpha / (self.alpha + self.beta)

    def variance(self):
        s = self.alpha + self.beta
        return self.alpha * self.beta / (s * s * (s + 1.0))

    def sample(self, rng, size=None):
        """Draw via two Gamma variates; output clamped to [1e-12, 1 - 1e-12]."""
        n = 1 if size is None else int(np.prod(size))
        y = sample_beta(np.full(n, self.alpha), np.full(n, self.beta), rng)
        return float(y[0]) if size is None else y.reshape(size)


def beta_kl(p, q):
    """KL(Beta(a,b) || Beta(c,d)) in closed form: `beta_kl_vars` evaluated."""
    return float(ad.evaluate(lambda tape, v: beta_kl_vars(v["a"], v["b"], q.alpha, q.beta),
                             {"a": p.alpha, "b": p.beta}))


def beta_kl_vars(alpha_p, beta_p, alpha_q, beta_q):
    """Tape version of beta_kl, elementwise over Var arrays of matching shape.

    The second pair may be Vars or plain arrays/floats (lifted as
    constants); gradients flow through the first pair.
    """
    tape = alpha_p.tape
    aq = alpha_q if isinstance(alpha_q, ad.Var) else tape.constant(alpha_q)
    bq = beta_q if isinstance(beta_q, ad.Var) else tape.constant(beta_q)
    log_beta_p = ad.lgamma(alpha_p) + ad.lgamma(beta_p) - ad.lgamma(alpha_p + beta_p)
    log_beta_q = ad.lgamma(aq) + ad.lgamma(bq) - ad.lgamma(aq + bq)
    psi_ab = ad.digamma(alpha_p + beta_p)
    return (
        log_beta_q
        - log_beta_p
        + (alpha_p - aq) * (ad.digamma(alpha_p) - psi_ab)
        + (beta_p - bq) * (ad.digamma(beta_p) - psi_ab)
    )


@dataclass(frozen=True)
class DiagGaussian:
    """Gaussian with diagonal covariance; mean and variance are (D,) arrays."""

    mean: np.ndarray
    variance: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "mean", np.atleast_1d(np.asarray(self.mean, dtype=np.float64)))
        object.__setattr__(
            self, "variance", np.atleast_1d(np.asarray(self.variance, dtype=np.float64))
        )
        if self.mean.shape != self.variance.shape:
            raise ValueError("mean and variance must have matching shapes")
        if np.any(self.variance <= 0.0):
            raise ValueError("variance must be strictly positive")

    @property
    def dims(self):
        return self.mean.shape[0]

    def log_pdf(self, x):
        """Log density; x is (D,) or (N, D), returns float or (N,)."""
        x = np.asarray(x, dtype=np.float64)
        single = x.ndim == 1
        pts = np.atleast_2d(x)
        z2 = (pts - self.mean) ** 2 / self.variance
        out = -0.5 * (z2.sum(axis=1) + np.log(2.0 * np.pi * self.variance).sum())
        return float(out[0]) if single else out

    def sample(self, rng, n):
        return self.mean + np.sqrt(self.variance) * rng.standard_normal((n, self.dims))


def gaussian_kl(p, q):
    """KL between diagonal Gaussians of equal dimension, in closed form."""
    if p.dims != q.dims:
        raise ValueError("dimension mismatch")
    ratio = p.variance / q.variance
    gap = (q.mean - p.mean) ** 2 / q.variance
    return 0.5 * float(np.sum(np.log(q.variance) - np.log(p.variance) - 1.0 + ratio + gap))


@dataclass(frozen=True)
class LogisticDist:
    """Logistic(location, scale) on the real line."""

    location: float = 0.0
    scale: float = 1.0

    def __post_init__(self):
        if self.scale <= 0.0:
            raise ValueError("scale must be strictly positive")

    def log_pdf(self, x):
        """Stable evaluation: -u - 2*softplus(-u) - log(s), u = (x - loc)/s."""
        x = np.asarray(x, dtype=np.float64)
        u = (x - self.location) / self.scale
        out = -u - 2.0 * special.softplus(-u) - np.log(self.scale)
        return float(out) if np.ndim(x) == 0 else out

    def sample(self, rng, size=None):
        u = rng.random(size)
        return self.location + self.scale * (np.log(u) - np.log1p(-u))
