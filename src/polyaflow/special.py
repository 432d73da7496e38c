"""Special functions on positive reals: log-gamma, digamma, trigamma, log-beta.

Everything here is implemented directly (Lanczos approximation for the
log-gamma, recurrence shifts plus asymptotic series for the psi functions)
so the runtime depends on numpy alone.  All functions are elementwise,
operate in float64, accept scalars or arrays, and require strictly
positive arguments.
"""

import numpy as np

# Lanczos coefficients, g = 7, 9 terms.
_LANCZOS_G = 7.0
_LANCZOS_COEF = np.array([
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
])

_HALF_LOG_TWO_PI = 0.5 * np.log(2.0 * np.pi)

# Asymptotic tail of psi(x): coefficients of x^{-2k}, i.e. -B_{2k}/(2k).
_DIGAMMA_TAIL = (
    -1.0 / 12.0,
    1.0 / 120.0,
    -1.0 / 252.0,
    1.0 / 240.0,
    -1.0 / 132.0,
    691.0 / 32760.0,
    -1.0 / 12.0,
)

# Asymptotic tail of psi'(x): coefficients of x^{-(2k+1)}, i.e. B_{2k}.
_TRIGAMMA_TAIL = (
    1.0 / 6.0,
    -1.0 / 30.0,
    1.0 / 42.0,
    -1.0 / 30.0,
    5.0 / 66.0,
    -691.0 / 2730.0,
    7.0 / 6.0,
)

_PSI_SHIFT = 6.0


def _as_positive_array(x, name):
    arr = np.asarray(x, dtype=np.float64)
    if arr.size and not np.all(arr > 0.0):
        raise ValueError(f"{name} requires strictly positive arguments")
    return arr


def _restore(out, like):
    return float(out) if np.ndim(like) == 0 else out


def _log_gamma_core(x):
    # Lanczos series, reliable for x >= 0.5.
    acc = np.full_like(x, _LANCZOS_COEF[0])
    for i in range(1, len(_LANCZOS_COEF)):
        acc = acc + _LANCZOS_COEF[i] / (x - 1.0 + i)
    t = x + _LANCZOS_G - 0.5
    return _HALF_LOG_TWO_PI + (x - 0.5) * np.log(t) - t + np.log(acc)


def log_gamma(x):
    """Natural log of the gamma function for x > 0.

    Uses the 9-term Lanczos approximation (g = 7); arguments below 0.5 are
    lifted once through ln Gamma(x) = ln Gamma(x + 1) - ln x so the series
    is only evaluated on its comfortable range.
    """
    arr = _as_positive_array(x, "log_gamma")
    small = arr < 0.5
    lifted = np.where(small, arr + 1.0, arr)
    out = _log_gamma_core(lifted)
    if np.any(small):
        out = np.where(small, out - np.log(np.where(small, arr, 1.0)), out)
    return _restore(out, x)


def digamma(x):
    """psi(x) = d/dx ln Gamma(x) for x > 0.

    The recurrence psi(x) = psi(x + 1) - 1/x shifts the argument up to 6,
    where the de Moivre asymptotic series is accurate to well under 1e-10
    absolute error.
    """
    arr = _as_positive_array(x, "digamma")
    work = np.atleast_1d(arr.copy())
    acc = np.zeros_like(work)
    mask = work < _PSI_SHIFT
    while np.any(mask):
        acc[mask] -= 1.0 / work[mask]
        work[mask] += 1.0
        mask = work < _PSI_SHIFT
    inv2 = 1.0 / (work * work)
    tail = np.zeros_like(work)
    power = inv2
    for c in _DIGAMMA_TAIL:
        tail += c * power
        power = power * inv2
    out = (acc + np.log(work) - 0.5 / work + tail).reshape(arr.shape)
    return _restore(out, x)


def trigamma(x):
    """psi'(x), the derivative of digamma, for x > 0.

    Uses psi'(x) = psi'(x + 1) + 1/x^2 to shift up to 6 and then the
    asymptotic series 1/x + 1/(2 x^2) + sum B_{2k} x^{-(2k+1)}.
    """
    arr = _as_positive_array(x, "trigamma")
    work = np.atleast_1d(arr.copy())
    acc = np.zeros_like(work)
    mask = work < _PSI_SHIFT
    while np.any(mask):
        acc[mask] += 1.0 / (work[mask] * work[mask])
        work[mask] += 1.0
        mask = work < _PSI_SHIFT
    inv = 1.0 / work
    inv2 = inv * inv
    tail = np.zeros_like(work)
    power = inv2 * inv
    for c in _TRIGAMMA_TAIL:
        tail += c * power
        power = power * inv2
    out = (acc + inv + 0.5 * inv2 + tail).reshape(arr.shape)
    return _restore(out, x)


def log_beta(a, b):
    """ln B(a, b) = ln Gamma(a) + ln Gamma(b) - ln Gamma(a + b), elementwise."""
    a_arr = _as_positive_array(a, "log_beta")
    b_arr = _as_positive_array(b, "log_beta")
    out = log_gamma(a_arr) + log_gamma(b_arr) - log_gamma(a_arr + b_arr)
    if np.ndim(a) == 0 and np.ndim(b) == 0:
        return float(out)
    return out


def softplus(x):
    """Numerically stable log(1 + e^x), elementwise."""
    x = np.asarray(x, dtype=np.float64)
    out = np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))
    return _restore(out, x) if np.ndim(x) == 0 else out


def inv_softplus(y):
    """Inverse of softplus on y > 0: log(e^y - 1), stable for large y."""
    arr = np.asarray(y, dtype=np.float64)
    if arr.size and not np.all(arr > 0.0):
        raise ValueError("inv_softplus requires strictly positive arguments")
    # each branch runs on its own side of 30 only, so neither can overflow
    big = arr > 30.0
    small = ~big
    out = np.empty(arr.shape)
    hi, lo = arr[big], arr[small]
    tail = np.exp(-hi)
    np.negative(tail, out=tail)
    np.log1p(tail, out=tail)
    out[big] = hi + tail
    np.expm1(lo, out=lo)
    out[small] = np.log(lo, out=lo)
    return float(out) if np.ndim(y) == 0 else out


def sigmoid(x):
    """Logistic function, stable on both tails."""
    x = np.asarray(x, dtype=np.float64)
    z = np.where(x >= 0.0, -x, x)      # z <= 0, exp is safe
    ez = np.exp(z)
    out = np.where(x >= 0.0, 1.0 / (1.0 + ez), ez / (1.0 + ez))
    return float(out) if np.ndim(x) == 0 else out


def log_sigmoid(x):
    """log(sigmoid(x)) = -softplus(-x), stable on both tails."""
    x = np.asarray(x, dtype=np.float64)
    out = -(np.maximum(-x, 0.0) + np.log1p(np.exp(-np.abs(x))))
    return float(out) if np.ndim(x) == 0 else out
