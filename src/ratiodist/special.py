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

* A fixed-depth table for the complementary function (x > 1.2).  In
  y = 1/x on (0, 1/1.2], the scaled function

      g(y) = x sqrt(pi) exp(x^2) erfc(x)

  is smooth and tends to 1 at y = 0.  The table splits (0, 1/1.2] into 32
  equal pieces and holds one degree-7 polynomial per piece, in power form
  in the piece's local variable u in [-1, 1], interpolated at the 8
  Chebyshev points of the piece.  A point costs one Horner sweep:

      erfc(x) = exp(-x x) g(y) y / sqrt(pi),

  so x = inf gives exactly 0.  It stays within 2e-15 relative of the
  continued fraction that builds it (a test holds it so).

  The fraction is A&S 7.1.14, evaluated bottom-up from depth
  ceil((12/x + 2)^2), below 4e-17 of truncation::

      sqrt(pi) exp(x^2) erfc(x) = 1/(x+) (1/2)/(x+) (1)/(x+) (3/2)/(x+) ...

  It only builds the table: it runs once, on the first call that needs
  erfc past 1.2, at the table's 256 nodes.

  Here erf(x) = 1 - erfc(x) amplifies nothing: the ratio erfc/erf is below
  0.11 for x > 1.2, so the complementary function may err by an order of
  magnitude more than the target without the composed result noticing.
"""

from __future__ import annotations

import functools
import math
import warnings
from typing import Callable, Tuple

import numpy as np

from .errors import AccuracyWarning, InvalidParamsError

TWO_OVER_SQRT_PI = 1.1283791670955126  # 2/sqrt(pi)
SQRT_HALF_PI = 1.2533141373155003      # sqrt(pi/2)
INV_SQRT_PI = 0.5641895835477563       # 1/sqrt(pi)
INV_SQRT_2 = 0.7071067811865476        # 1/sqrt(2)
SQRT_TWO_PI = 2.5066282746310002       # sqrt(2 pi)

_SERIES_CUTOFF = 1.2
# (-1)^n / (n! (2n+1)) for n = 21 down to 1; the n = 0 term is added last
_SERIES_COEFFS = tuple((-1) ** n / (math.factorial(n) * (2 * n + 1)) for n in range(21, 0, -1))

# the erfc table: equal pieces of y = 1/x on (0, 1/1.2], one polynomial of
# this degree on each
_TABLE_PIECES = 32
_TABLE_DEGREE = 7
_PIECE_WIDTH = 1.0 / (_SERIES_CUTOFF * _TABLE_PIECES)

# bvn_cdf: Genz's switch to the high-correlation expansion, and the |h|, |k|
# past which Phi2 changes by less than Phi(-40) ~ 4e-350
_BVN_HIGH_RHO = 0.925
_BVN_CLIP = 40.0


def _gauss_legendre_20():
    """20-point Gauss-Legendre nodes on (0, 1) and weights summing to 1, read only.

    The positive nodes on (-1, 1) and their weights are those of
    numpy.polynomial.legendre.leggauss(20), digit for digit (a test keeps
    them so); importing numpy.polynomial would cost ~1.7 MiB of memory.
    """
    x = np.array([0.07652652113349734, 0.22778585114164507, 0.37370608871541955,
                  0.5108670019508271, 0.636053680726515, 0.7463319064601508,
                  0.8391169718222188, 0.912234428251326, 0.9639719272779138,
                  0.993128599185095])
    w = np.array([0.15275338713072628, 0.14917298647260424, 0.1420961093183824,
                  0.1316886384491769, 0.1181945319615186, 0.1019301198172407,
                  0.08327674157670471, 0.06267204833410879, 0.040601429800386446,
                  0.017614007139150893])
    u = 0.5 * (1.0 + np.concatenate([-x[::-1], x]))
    w = 0.5 * np.concatenate([w[::-1], w])
    u.flags.writeable = w.flags.writeable = False
    return u, w


_GL_U, _GL_W = _gauss_legendre_20()

def points(x, name: str) -> np.ndarray:
    """x as a float array; NaN raises InvalidParamsError naming the function."""
    z = np.asarray(x, dtype=float)
    if np.isnan(z).any():
        raise InvalidParamsError(f"{name} is undefined for NaN input")
    return z


def like(x, values: np.ndarray):
    """values as a float when x is a scalar, else as an array of x's shape."""
    return float(values) if np.ndim(x) == 0 else values


def at_finite(xx: np.ndarray, f: Callable[[np.ndarray], np.ndarray],
              limits: Tuple[float, float]) -> np.ndarray:
    """f of xx's finite entries, flattened, and limits[0] at -inf and
    limits[1] at +inf, in xx's shape; f is called on finite points only."""
    flat = xx.ravel()
    finite = np.isfinite(flat)
    if finite.all():
        return f(flat).reshape(xx.shape)
    out = np.where(flat < 0.0, *limits)
    if finite.any():
        out[finite] = f(flat[finite])
    return out.reshape(xx.shape)


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


def _scaled_erfc_cf(x: np.ndarray) -> np.ndarray:
    # x sqrt(pi) exp(x^2) erfc(x) = x/f by the continued fraction, f its
    # denominator, x > 1.2 finite (1-D), each point to its own depth; sorted
    # by x the depths do not increase, so the points still in at step n are a
    # prefix
    order = np.argsort(x)
    xs = x[order]
    depth = np.ceil(np.square(12.0 / xs + 2.0))
    steps = np.arange(depth[0], 0.0, -1.0)
    f = xs.copy()
    for n, k in zip(steps.tolist(), np.searchsorted(-depth, -steps, side="right").tolist()):
        f[:k] = xs[:k] + 0.5 * n / f[:k]
    out = np.empty_like(x)
    out[order] = xs / f
    return out


@functools.cache
def _erfc_table() -> np.ndarray:
    """(degree + 1, pieces) power-form coefficients of g on every piece,
    highest power first, read only; built on first use.

    On piece j, y = (j + (1 + u)/2) w for w the piece width.  g is
    interpolated at the Chebyshev points u_k = cos((2k + 1) pi / 16), its
    Chebyshev coefficients are c_m = (2/8) sum_k g(u_k) T_m(u_k) (c_0 halved),
    and the basis T_m goes to powers of u by T_{m+1} = 2u T_m - T_{m-1}.
    """
    m = np.arange(_TABLE_DEGREE + 1)
    angles = np.pi * (2 * m + 1) / (2 * m.size)
    y = (np.arange(_TABLE_PIECES)[:, None] + 0.5 * (1.0 + np.cos(angles))) * _PIECE_WIDTH
    g = _scaled_erfc_cf(1.0 / y.ravel()).reshape(y.shape)
    # sum_k T_m(u_k) = 0 for m >= 1, so the sums may run over g less its
    # piece mean: that keeps their rounding at the size of g's variation over
    # the piece, where over g itself it reached 3e-15 of g at the piece ends
    mean = g.mean(axis=1)
    # products summed by broadcasting: a first matmul would set up BLAS
    # buffers worth about 1 MiB of peak memory for these 32 x 8 sums
    cheb = ((g - mean[:, None])[:, None, :] * np.cos(np.outer(m, angles))).sum(axis=2)
    cheb *= 2.0 / m.size
    cheb[:, 0] = 0.5 * cheb[:, 0] + mean
    basis = np.zeros((m.size, m.size))  # row i: T_i in powers u^0 .. u^7
    basis[0, 0] = basis[1, 1] = 1.0
    for i in range(2, m.size):
        basis[i, 1:] = 2.0 * basis[i - 1, :-1]
        basis[i] -= basis[i - 2]
    power = (cheb[:, :, None] * basis).sum(axis=1)  # (pieces, powers u^0 .. u^7)
    table = np.ascontiguousarray(power[:, ::-1].T)
    table.flags.writeable = False
    return table


def _scaled_erfc_table(x: np.ndarray) -> np.ndarray:
    # x sqrt(pi) exp(x^2) erfc(x) by the table, x > 1.2 (1-D); 1 at x = inf
    s = (1.0 / x) * (1.0 / _PIECE_WIDTH)
    j = np.minimum(s.astype(np.intp), _TABLE_PIECES - 1)
    u = 2.0 * (s - j) - 1.0
    rows = _erfc_table()[:, j]
    g = rows[0]
    for c in rows[1:]:
        g = g * u + c
    return g


def _erf_erfc(x, name: str):
    """x as an array, and erf(|x|) where |x| <= 1.2 (mask small), erfc(|x|) elsewhere."""
    z = points(x, name)
    a = np.abs(z.ravel())
    small = a <= _SERIES_CUTOFF
    v = np.empty_like(a)
    v[small] = _series(a[small])
    if not small.all():
        t = a[~small]
        # exp(-x x)/sqrt(pi) first, so a subnormal erfc is rounded as the
        # fraction's exp(-x x)/(sqrt(pi) f) is
        v[~small] = np.exp(-t * t) * INV_SQRT_PI * (_scaled_erfc_table(t) / t)
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


def bvn_cdf(h, k, rho, rho_c=None):
    """Bivariate normal probability Phi2(h, k; rho) = P(X <= h, Y <= k) of
    standard normals X, Y with correlation rho, to about 1e-16 absolute.

    Genz (2004, Statistics and Computing 14) as his bvnu, the upper orthant
    of (-X, -Y) at (-h, -k): for |rho| < 0.925, 20-point Gauss-Legendre over
    arcsin(rho) of Sheppard's integral plus Phi(h) Phi(k); for |rho| >=
    0.925, Drezner and Wesolowsky's (1990) expansion in sqrt(1 - rho^2) as
    Genz refines it, added to Phi(min(h, k)) (rho > 0) or to the strip
    between the two marginals (rho < 0).  The branches are chosen per point;
    every Phi of a call is one std_normal_cdf call.

    rho_c = sqrt(1 - rho^2) may be passed when the caller knows it better
    than rho does: near |rho| = 1 the result depends on it, not on rho, and
    1 - rho^2 formed from a rounded rho loses its digits.  rho = +/-1 with
    rho_c = 0 gives the degenerate limits.  |h| or |k| above 40 is treated
    as 40, which moves Phi2 by less than Phi(-40) ~ 4e-350, so +/-inf is
    exact.  Arguments broadcast to one shape; all floats give a float.
    """
    r = points(rho, "bvn_cdf")
    if (np.abs(r) > 1.0).any():
        raise InvalidParamsError("bvn_cdf needs |rho| <= 1")
    rc = np.sqrt((1.0 - r) * (1.0 + r)) if rho_c is None else points(rho_c, "bvn_cdf")
    if (rc < 0.0).any():
        raise InvalidParamsError("bvn_cdf needs rho_c >= 0")
    hh, kk, r, rc = np.broadcast_arrays(points(h, "bvn_cdf"), points(k, "bvn_cdf"), r, rc)
    shape = hh.shape
    # Genz's upper-orthant limits; the high branch works at |rho| on (dh, kp)
    dh, dk = (-np.clip(v.ravel(), -_BVN_CLIP, _BVN_CLIP) for v in (hh, kk))
    r, rc = r.ravel(), rc.ravel()
    neg = r < 0.0
    kp = np.where(neg, -dk, dk)
    gap = np.abs(dh - kp)
    live = rc > 0.0
    a = np.where(live, rc, 1.0)
    with np.errstate(over="ignore"):
        gap_a = gap / a
    n = dh.shape[0]
    ph, pk, pmh, pmk, pgap = std_normal_cdf(
        np.concatenate([dh, dk, -dh, -dk, -gap_a])).reshape(5, n)
    u, w = _GL_U, _GL_W
    out = np.empty(n)

    low = np.abs(r) < _BVN_HIGH_RHO
    if low.any():
        asr = np.arcsin(r[low])
        hk, hs = dh[low] * dk[low], 0.5 * (dh[low] ** 2 + dk[low] ** 2)
        sn = np.sin(asr[:, None] * u)
        f = np.exp((sn * hk[:, None] - hs[:, None]) / (1.0 - sn * sn))
        out[low] = (f * w).sum(axis=1) * asr / (2.0 * math.pi) + pmh[low] * pmk[low]

    high = ~low
    if high.any():
        a, g, ga, hk = a[high], gap[high], gap_a[high], (dh * kp)[high]
        as_, bs = a * a, g * g
        c, d = (4.0 - hk) / 8.0, (12.0 - hk) / 16.0
        with np.errstate(over="ignore"):
            e0 = -0.5 * (ga * ga + hk)
            bvn = np.where(e0 > -100.0, a * np.exp(np.maximum(e0, -100.0))
                           * (1.0 - c * (bs - as_) * (1.0 - d * bs / 5.0) / 3.0
                              + c * d * as_ * as_ / 5.0), 0.0)
            bvn -= (np.where(hk > -100.0, np.exp(-0.5 * np.maximum(hk, -100.0)), 0.0)
                    * SQRT_TWO_PI * pgap[high] * g * (1.0 - c * bs * (1.0 - d * bs / 5.0) / 3.0))
            # the remainder, integrated over x in (0, sqrt(1 - rho^2))
            x = a[:, None] * u
            xs = x * x
            e = -0.5 * ((g[:, None] / x) ** 2 + hk[:, None])
            rs = np.sqrt(1.0 - xs)
            sp = 1.0 + c[:, None] * xs * (1.0 + d[:, None] * xs)
            ep = np.exp(-0.5 * hk[:, None] * xs / (1.0 + rs) ** 2) / rs
            f = np.where(e > -100.0, np.exp(np.maximum(e, -100.0)) * (sp - ep), 0.0)
        bvn = np.where(live[high], (a * (f * w).sum(axis=1) - bvn) / (2.0 * math.pi), 0.0)
        dh_h, kp_h, neg_h = dh[high], kp[high], neg[high]
        pkp = np.where(neg_h, pmk[high], pk[high])   # Phi(kp)
        pmkp = np.where(neg_h, pk[high], pmk[high])  # Phi(-kp)
        # rho < 0: P(X > dh) - P(X > dh, -Y > kp), the strip between the marginals
        strip = np.where(dh_h < 0.0, pkp - ph[high], pmh[high] - pmkp)
        out[high] = np.where(~neg_h, bvn + np.minimum(pmh[high], pmkp),
                             np.where(dh_h >= kp_h, -bvn, strip - bvn))
    res = np.clip(out, 0.0, 1.0).reshape(shape)
    return float(res) if res.ndim == 0 else res

