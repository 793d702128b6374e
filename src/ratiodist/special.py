"""Self-contained special functions used by the ratio-distribution engines.

The error function is implemented in-package rather than taken from a math
library so that its accuracy is under our control on every platform: the
closed-form ratio densities push erf into expressions where a relative error
above ~1e-15 is visible in cross-method comparisons.

Every function here maps a float to a float and an array to an array of its
shape, point by point.  Two classical representations are combined:

* Maclaurin series (|x| <= 1.2), 22 terms in Horner form::

      erf(x) = (2/sqrt(pi)) * sum_{n>=0} (-1)^n x^(2n+1) / (n! (2n+1))

  On this range the leading term dominates, so the alternating sum loses
  at most a couple of ulps to cancellation.

* Continued fraction for the complementary function (x > 1.2), evaluated
  bottom-up from depth ceil((12/x + 2)^2), below 4e-17 of truncation::

      sqrt(pi) exp(x^2) erfc(x) = 1/(x+) (1/2)/(x+) (1)/(x+) (3/2)/(x+) ...

  Here erf(x) = 1 - erfc(x) amplifies nothing: the ratio erfc/erf is below
  0.11 for x > 1.2, so the continued fraction may err by an order of
  magnitude more than the target without the composed result noticing.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from .errors import AccuracyWarning, InvalidParamsError, OverflowRangeError

TWO_OVER_SQRT_PI = 1.1283791670955126  # 2/sqrt(pi)
SQRT_HALF_PI = 1.2533141373155003      # sqrt(pi/2)
INV_SQRT_PI = 0.5641895835477563       # 1/sqrt(pi)
INV_SQRT_2 = 0.7071067811865476        # 1/sqrt(2)

_SERIES_CUTOFF = 1.2
# (-1)^n / (n! (2n+1)) for n = 21 down to 1; the n = 0 term is added last
_SERIES_COEFFS = tuple((-1) ** n / (math.factorial(n) * (2 * n + 1)) for n in range(21, 0, -1))

# exp(x^2/2) overflows double precision just above x^2/2 = 709.78
_KUMMER_MAX_HALF_QSQ = 700.0


def points(x, name: str) -> np.ndarray:
    """x as a float array; NaN raises InvalidParamsError naming the function."""
    z = np.asarray(x, dtype=float)
    if np.isnan(z).any():
        raise InvalidParamsError(f"{name} is undefined for NaN input")
    return z


def like(x, values: np.ndarray):
    """values as a float when x is a scalar, else as an array of x's shape."""
    return float(values) if np.ndim(x) == 0 else values


def clamp_cdf(raw: np.ndarray) -> np.ndarray:
    """CDF values clamped to [0, 1]; AccuracyWarning when one lies outside
    by more than 1e-8, which an adequate integration never gives."""
    out = (raw < -1e-8) | (raw > 1.0 + 1e-8)
    if out.any():
        warnings.warn(
            f"CDF value {float(raw[out].flat[0])!r} exceeds [0, 1] by more than 1e-8 before "
            "clamping; the integration grid or tolerance is likely inadequate",
            AccuracyWarning,
            stacklevel=3,
        )
    return np.minimum(np.maximum(raw, 0.0), 1.0)


def _series(x: np.ndarray) -> np.ndarray:
    # erf(x), 0 <= x <= 1.2
    x2 = x * x
    s = _SERIES_COEFFS[0]
    for c in _SERIES_COEFFS[1:]:
        s = s * x2 + c
    return TWO_OVER_SQRT_PI * (x + x * x2 * s)


def _erfc_cf(x: np.ndarray) -> np.ndarray:
    # erfc(x), x > 1.2 (1-D), each point to its own depth; sorted by x the
    # depths do not increase, so the points still in at step n are a prefix
    order = np.argsort(x)
    xs = x[order]
    depth = np.ceil(np.square(12.0 / xs + 2.0))
    steps = np.arange(depth[0], 0.0, -1.0)
    f = xs.copy()
    for n, k in zip(steps.tolist(), np.searchsorted(-depth, -steps, side="right").tolist()):
        f[:k] = xs[:k] + 0.5 * n / f[:k]
    out = np.empty_like(x)
    out[order] = np.exp(-xs * xs) * INV_SQRT_PI / f
    return out


def _erf_erfc(x, name: str):
    """x as an array, and erf(|x|) where |x| <= 1.2 (mask small), erfc(|x|) elsewhere."""
    z = points(x, name)
    a = np.abs(z.ravel())
    small = a <= _SERIES_CUTOFF
    v = np.empty_like(a)
    v[small] = _series(a[small])
    if not small.all():
        v[~small] = _erfc_cf(a[~small])
    return z, small.reshape(z.shape), v.reshape(z.shape)


def erf(x):
    """Error function, odd by construction, relative error <= 1e-15; erf(+/-inf) = +/-1."""
    z, small, v = _erf_erfc(x, "erf")
    return like(x, np.copysign(np.where(small, v, 1.0 - v), z))


def erfc(x):
    """Complementary error function 1 - erf(x), accurate in the right tail."""
    z, small, v = _erf_erfc(x, "erfc")
    return like(x, np.where(small, 1.0 - np.copysign(v, z), np.where(z > 0.0, v, 2.0 - v)))


def std_normal_cdf(x):
    """Standard normal CDF Phi(x) = erfc(-x/sqrt(2))/2.

    Routing through erfc keeps the left tail fully accurate: Phi(-8) is a
    genuine 6.2e-16, not a cancellation residue of 1 - (1 - eps).
    """
    return 0.5 * erfc(-points(x, "std_normal_cdf") * INV_SQRT_2)


def kummer_1f1_half(q):
    """Kummer confluent hypergeometric 1F1(1; 1/2; q^2/2) for real q.

    Uses the closed form

        1F1(1; 1/2; q^2/2) = sqrt(pi/2) q erf(q/sqrt(2)) exp(q^2/2) + 1

    which is even in q because q*erf(q/sqrt(2)) is a product of two odd
    factors.  The value is >= 1 for all real q.

    Raises OverflowRangeError when q^2/2 > 700, where exp overflows double
    precision.  Callers that need the product with a compensating decaying
    exponential must combine the exponents before exponentiating instead of
    calling this function.
    """
    z = points(q, "kummer_1f1_half")
    half_qsq = 0.5 * z * z
    over = half_qsq > _KUMMER_MAX_HALF_QSQ
    if over.any():
        raise OverflowRangeError(
            f"exp(q^2/2) overflows for |q| > {math.sqrt(2 * _KUMMER_MAX_HALF_QSQ):.3f}; "
            f"got q={float(z[over].flat[0])!r}"
        )
    return like(q, SQRT_HALF_PI * z * erf(z * INV_SQRT_2) * np.exp(half_qsq) + 1.0)
