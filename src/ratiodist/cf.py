"""Characteristic-function layer: inversion, ratio densities, moments.

One-dimensional inversion uses the Gil-Pelaez (1951) formulas::

    f(x) = (1/pi) int_0^inf Re[e^{-itx} phi(t)] dt
    F(x) = 1/2 - (1/pi) int_0^inf Im[e^{-itx} phi(t)] / t dt

evaluated by half-line double-exponential quadrature.  Both take a float
(giving a float) or a NumPy array of points (giving an array of its shape);
each point is a row of one batch of the DE sweep.

The ratio W = X1/X2 is inverted in two dimensions following Broda and Kan
(2013).  With the joint CF phi(s, tau) the density is

    f_W(w) = (1/pi^2) int_0^inf int_R Re[(1/t) d phi/d tau (s, -t - ws)] ds dt

and for independent factors the tau-partial collapses to phi1(s) phi2'(tau).
The companion CDF formula integrates over the positive quadrant::

    F_W(r) = 1/2 + (1/pi^2) int_0^inf int_0^inf
             Re[phi(s, t - rs) - phi(s, -t - rs)] / (s t) ds dt.

Both double integrals are discretized on a midpoint-offset trapezoidal grid
t_i = h_i (nu_i + 1/2); the half offset keeps every node strictly away from
the 1/s and 1/t poles, so no special pole handling is needed.  Sums run in a
fixed order (nu_2 outer, nu_1 inner, ascending, pairwise within numpy) so
results are bit-reproducible across runs.

Moment estimates come from eighth-order central-difference stencils applied
to the CF at the origin, exploiting Hermitian symmetry so only four
evaluations on the positive axis are needed per stencil.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

from .errors import (
    AccuracyWarning,
    GridError,
    IntegrandError,
    InvalidParamsError,
    UndecayedCFError,
)
from .normal_ratio import BivNormalParams
from .quadrature import QuadratureConfig, integrate_half_lines
from .special import like, points

_DECAY_THRESHOLD = 1e-14
_DERIV_H = 1e-4
_GP_CFG = QuadratureConfig(rel_tol=1e-12, abs_floor=1e-13)


@dataclass(frozen=True)
class CharFn:
    """A characteristic function with optional derivative and decay hint.

    phi and dphi map a NumPy array of t to the complex values, same shape;
    this module calls them on arrays only, and the inversions and auto_grid
    check phi on an array.  decay_scale, when present, is a t beyond which
    |phi| stays below 1e-14; it lets auto_grid skip the numeric decay search.
    """

    phi: Callable[[np.ndarray], np.ndarray]
    dphi: Optional[Callable[[np.ndarray], np.ndarray]] = None
    decay_scale: Optional[float] = None
    label: str = ""


@dataclass(frozen=True)
class JointCharFn:
    """A bivariate characteristic function and its second-argument partial.

    Both take two broadcastable NumPy arrays and return their broadcast shape.
    """

    phi2d: Callable[[np.ndarray, np.ndarray], np.ndarray]
    dphi2d_dt2: Callable[[np.ndarray, np.ndarray], np.ndarray]
    label: str = ""


@dataclass(frozen=True)
class Grid2DConfig:
    """Midpoint-offset trapezoidal grid for the 2D inversion sums.

    Nodes are t1 = h1 (nu1 + 1/2) for nu1 in [-N, N] and t2 = h2 (nu2 + 1/2)
    for nu2 in [0, N]; the CDF formula uses [0, N] on both axes.
    """

    N: int
    h1: float
    h2: float

    def __post_init__(self) -> None:
        if self.N < 1 or int(self.N) != self.N:
            raise GridError(f"N must be a positive integer, got {self.N!r}")
        if not (self.h1 > 0.0 and math.isfinite(self.h1)):
            raise GridError(f"h1 must be positive and finite, got {self.h1!r}")
        if not (self.h2 > 0.0 and math.isfinite(self.h2)):
            raise GridError(f"h2 must be positive and finite, got {self.h2!r}")


def _check_cf(cf: CharFn) -> None:
    """phi must map an array to a same-shape array, with phi(0) = 1."""
    name = cf.label or "characteristic function"
    try:
        v = np.asarray(cf.phi(np.zeros(1)))
    except TypeError as exc:
        raise InvalidParamsError(f"phi must accept NumPy arrays; {name} raised: {exc}") from exc
    if v.shape != (1,):
        raise InvalidParamsError(
            f"phi must map an array to an array of the same shape; {name} returned shape {v.shape}"
        )
    if abs(complex(v[0]) - 1.0) > 1e-8:
        raise InvalidParamsError(f"phi(0) must equal 1, got {complex(v[0])!r} for {name}")


def normal_cf(mu: float, sigma: float) -> CharFn:
    """CF of N(mu, sigma^2): exp(i mu t - sigma^2 t^2 / 2)."""
    if not (math.isfinite(mu) and sigma > 0.0 and math.isfinite(sigma)):
        raise InvalidParamsError(f"normal CF needs finite mu, sigma > 0, got ({mu!r}, {sigma!r})")
    s2 = sigma * sigma

    def phi(t):
        return np.exp(1j * mu * t - 0.5 * s2 * t * t)

    def dphi(t):
        return (1j * mu - s2 * t) * np.exp(1j * mu * t - 0.5 * s2 * t * t)

    # |phi| = exp(-sigma^2 t^2/2) crosses 1e-14 at sqrt(2 ln 1e14)/sigma
    decay = math.sqrt(2.0 * math.log(1e14)) / sigma
    return CharFn(phi, dphi, decay, f"normal_cf({mu}, {sigma})")


def chi_square_cf(k: int) -> CharFn:
    """CF of chi-square with k degrees of freedom: (1 - 2it)^(-k/2)."""
    if not (math.isfinite(k) and k >= 1 and int(k) == k):
        raise InvalidParamsError(f"chi-square CF needs integer k >= 1, got {k!r}")
    k = int(k)

    def phi(t):
        return (1.0 - 2j * t) ** (-0.5 * k)

    def dphi(t):
        return 1j * k * (1.0 - 2j * t) ** (-0.5 * k - 1.0)

    # |phi| = (1+4t^2)^(-k/4) = 1e-14  =>  t = sqrt((1e14^(4/k) - 1)/4)
    decay = math.sqrt((10.0 ** (56.0 / k) - 1.0) / 4.0)
    return CharFn(phi, dphi, decay, f"chi_square_cf({k})")


def cauchy_cf(x0: float = 0.0, gamma: float = 1.0) -> CharFn:
    """CF of the Cauchy law with location x0 and scale gamma."""
    if not (math.isfinite(x0) and gamma > 0.0 and math.isfinite(gamma)):
        raise InvalidParamsError(f"Cauchy CF needs finite x0, gamma > 0, got ({x0!r}, {gamma!r})")

    def phi(t):
        return np.exp(1j * x0 * t - gamma * np.abs(t))

    # |t| kink at 0: no global closed-form derivative is attached
    decay = math.log(1e14) / gamma
    return CharFn(phi, None, decay, f"cauchy_cf({x0}, {gamma})")


def _gil_pelaez(cf: CharFn, x, part: Callable[[np.ndarray, np.ndarray], np.ndarray],
                name: str, cfg: QuadratureConfig) -> np.ndarray:
    """int_0^inf part(e^{-itx} phi(t)) dt at every point of x, each point one row."""
    _check_cf(cf)
    xx = points(x, name)
    xs = xx.ravel()[:, None]
    value = integrate_half_lines(lambda idx, t: part(np.exp(-1j * t * xs[idx]) * cf.phi(t), t),
                                 xs.shape[0], cfg)
    return value.reshape(xx.shape)


def gil_pelaez_pdf(cf: CharFn, x, cfg: QuadratureConfig = _GP_CFG):
    """Density at x from one CF by half-line DE quadrature.

    The default cfg is tuned for rapidly decaying CFs.  A CF with only
    polynomial decay leaves the transformed integrand oscillatory over many
    scales; pass a looser tolerance (around 1e-8) and max_levels of 16-17.
    """
    value = _gil_pelaez(cf, x, lambda z, t: z.real, "gil_pelaez_pdf", cfg)
    return like(x, value / math.pi)


def gil_pelaez_cdf(cf: CharFn, x, cfg: QuadratureConfig = _GP_CFG):
    """CDF at x from one CF; clamped to [0, 1] with excursion warning.

    See gil_pelaez_pdf for the tolerance caveat on slowly decaying CFs.
    """
    raw = 0.5 - _gil_pelaez(cf, x, lambda z, t: z.imag / t, "gil_pelaez_cdf", cfg) / math.pi
    out = (raw < -1e-8) | (raw > 1.0 + 1e-8)
    if out.any():
        warnings.warn(
            f"CDF value {float(raw[out].flat[0])!r} exceeds [0, 1] by more than 1e-8 before "
            "clamping; the integration grid or tolerance is likely inadequate",
            AccuracyWarning,
            stacklevel=2,
        )
    return like(x, np.minimum(np.maximum(raw, 0.0), 1.0))


def bivariate_normal_joint_cf(p: BivNormalParams) -> JointCharFn:
    """Joint CF of a correlated normal pair, with its second-argument partial."""
    m1, m2, s1, s2, rho = p.mu1, p.mu2, p.sigma1, p.sigma2, p.rho
    v1, v2, cov = s1 * s1, s2 * s2, rho * s1 * s2

    def phi2d(s, t):
        q = v1 * s * s + 2.0 * cov * s * t + v2 * t * t
        return np.exp(1j * (m1 * s + m2 * t) - 0.5 * q)

    def dphi2d_dt2(s, t):
        return (1j * m2 - cov * s - v2 * t) * phi2d(s, t)

    return JointCharFn(phi2d, dphi2d_dt2, f"bivariate_normal_joint_cf({p!r})")


def product_joint_cf(cf1: CharFn, cf2: CharFn) -> JointCharFn:
    """Joint CF of an independent pair: phi(s, t) = phi1(s) phi2(t)."""
    _check_cf(cf1)
    _check_cf(cf2)

    def phi2d(s, t):
        return cf1.phi(np.asarray(s, dtype=float)) * cf2.phi(np.asarray(t, dtype=float))

    def dphi2d_dt2(s, t):
        t = np.asarray(t, dtype=float)
        h = _DERIV_H  # a CF without dphi gets the central difference
        d2 = cf2.dphi(t) if cf2.dphi is not None else (cf2.phi(t + h) - cf2.phi(t - h)) / (2.0 * h)
        return cf1.phi(np.asarray(s, dtype=float)) * d2

    return JointCharFn(phi2d, dphi2d_dt2, f"product({cf1.label}, {cf2.label})")


def broda_kan_pdf_indep(
    cf1: CharFn,
    cf2: CharFn,
    x,
    cfg: Optional[Grid2DConfig] = None,
):
    """Ratio density of X1/X2 at x from the two marginal CFs.

    broda_kan_pdf_joint on their product joint CF: the midpoint trapezoidal
    sum of Re[phi1(t1) phi2'(-(x t1 + t2)) / t2] over t1 in (-T1, T1),
    t2 in (0, T2); cfg defaults to auto_grid(cf1, cf2).
    """
    return broda_kan_pdf_joint(product_joint_cf(cf1, cf2), x, cfg or auto_grid(cf1, cf2))


def _grid_sums(x, name: str, cfg: Grid2DConfig, cells: Callable[[float], np.ndarray]):
    """h1 h2 / pi^2 times the sum of a point's grid cells, at every point of
    x; one point's (2N+1)(N+1) complex cells at a time bound the memory."""
    xx = points(x, name)
    total = np.array([cells(v).sum(axis=1).sum() for v in xx.ravel().tolist()])
    bad = ~np.isfinite(total)
    if bad.any():
        raise IntegrandError(f"2D inversion sum is not finite at {float(xx.ravel()[bad][0])!r}")
    return cfg.h1 * cfg.h2 * total.reshape(xx.shape) / (math.pi * math.pi)


def broda_kan_pdf_joint(jcf: JointCharFn, w, cfg: Grid2DConfig):
    """Ratio density at w from a joint CF of (X1, X2), correlated allowed."""
    t1 = cfg.h1 * (np.arange(-cfg.N, cfg.N + 1, dtype=float) + 0.5)
    t2 = cfg.h2 * (np.arange(0, cfg.N + 1, dtype=float) + 0.5)

    def cells(x: float) -> np.ndarray:
        return (jcf.dphi2d_dt2(t1[None, :], -(t2[:, None] + x * t1[None, :])) / t2[:, None]).real

    return like(w, _grid_sums(w, "broda_kan_pdf_joint", cfg, cells))


def broda_kan_cdf(jcf: JointCharFn, r, cfg: Grid2DConfig):
    """Ratio CDF at r from a joint CF, positive-quadrant inversion sum."""
    nu = np.arange(0, cfg.N + 1, dtype=float) + 0.5
    s = (cfg.h1 * nu)[None, :]
    t = (cfg.h2 * nu)[:, None]

    def cells(x: float) -> np.ndarray:
        return (jcf.phi2d(s, t - x * s) - jcf.phi2d(s, -t - x * s)).real / (s * t)

    raw = 0.5 + _grid_sums(r, "broda_kan_cdf", cfg, cells)
    out = (raw < -1e-8) | (raw > 1.0 + 1e-8)
    if out.any():
        warnings.warn(
            f"CDF value {float(raw[out].flat[0])!r} exceeds [0, 1] by more than 1e-8 before "
            "clamping; the integration grid is likely inadequate",
            AccuracyWarning,
            stacklevel=2,
        )
    return like(r, np.minimum(np.maximum(raw, 0.0), 1.0))


# eighth-order central-difference stencils; Hermitian symmetry folds the
# negative axis onto the positive one (Im is odd, Re is even)
_MU_COEFFS = (8.0 / 5.0, -2.0 / 5.0, 8.0 / 105.0, -1.0 / 140.0)
_MU2_CENTER = 205.0 / 72.0
_MU2_COEFFS = (-16.0 / 5.0, 2.0 / 5.0, -16.0 / 315.0, 1.0 / 280.0)


def cf_moments(cf: CharFn, h: float = _DERIV_H) -> Tuple[float, float]:
    """Mean and variance estimated from the CF near the origin.

    mu = Im phi'(0) and E[X^2] = -phi''(0) are approximated with
    eighth-order stencils at step h; returns (mu_hat, sigma2_hat).
    """
    if h <= 0.0:
        raise InvalidParamsError(f"step h must be positive, got {h!r}")
    vals = np.asarray(cf.phi(h * np.array([1.0, 2.0, 3.0, 4.0]))).tolist()
    mu = sum(c * v.imag for c, v in zip(_MU_COEFFS, vals)) / h
    mu2 = (_MU2_CENTER + sum(c * v.real for c, v in zip(_MU2_COEFFS, vals))) / (h * h)
    return mu, mu2 - mu * mu


def six_sigma_interval(
    cf1: CharFn,
    cf2: CharFn,
    k: float = 6.0,
    pdf_probe: Optional[Callable[[float], float]] = None,
    max_doublings: int = 30,
) -> Tuple[float, float]:
    """Evaluation interval for X1/X2 from CF-based moments.

    Normally mean +/- k practical standard deviations of the ratio, in the
    product form sigma^2 = (sigma1^2 + mean^2 sigma2^2) / mu2^2 which stays
    finite when mu1 = 0.  When the denominator mean is indistinguishable
    from 0 (|mu2| <= 1e-6 sigma2) the ratio mean is meaningless, so the
    fallback takes the union of the constituents' k-sigma intervals and, if
    a pdf_probe is supplied, doubles the half-width until the probed density
    falls below 1e-10 at both ends (capped at max_doublings; heavy-tailed
    ratios would otherwise extend without bound).
    """
    if k <= 0.0:
        raise InvalidParamsError(f"k must be positive, got {k!r}")
    mu1, var1 = cf_moments(cf1)
    mu2, var2 = cf_moments(cf2)
    sd1, sd2 = math.sqrt(max(var1, 0.0)), math.sqrt(max(var2, 0.0))
    if abs(mu2) > 1e-6 * sd2:
        mean = mu1 / mu2
        sd = math.sqrt(var1 + mean * mean * var2) / abs(mu2)
        return (mean - k * sd, mean + k * sd)
    lo = min(mu1 - k * sd1, mu2 - k * sd2)
    hi = max(mu1 + k * sd1, mu2 + k * sd2)
    if pdf_probe is not None:
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        for _ in range(max_doublings):
            if pdf_probe(mid - half) < 1e-10 and pdf_probe(mid + half) < 1e-10:
                break
            half *= 2.0
        else:
            warnings.warn(
                "interval extension hit the doubling cap before the density "
                "fell below 1e-10; endpoints may sit in a heavy tail",
                AccuracyWarning,
                stacklevel=2,
            )
        lo, hi = mid - half, mid + half
    return lo, hi


def cf_decay_range(cf: CharFn, threshold: float = _DECAY_THRESHOLD) -> float:
    """Smallest t found with |phi(t)| < threshold, by scan plus bisection.

    Uses the closed-form decay_scale when the CF carries one and the
    threshold is the standard 1e-14.  Raises UndecayedCFError when |phi|
    still exceeds the threshold at t = 1e6; such a CF needs an explicit
    grid.  The search assumes the modulus envelope decays monotonically,
    which holds for the smooth CFs used here.
    """
    if not (0.0 < threshold < 1.0):
        raise InvalidParamsError(f"threshold must lie in (0, 1), got {threshold!r}")
    if cf.decay_scale is not None and threshold == _DECAY_THRESHOLD:
        return cf.decay_scale
    ts = np.geomspace(1e-3, 1e6, 200)
    below = np.abs(cf.phi(ts)) < threshold
    if not below.any():
        raise UndecayedCFError(
            f"|phi| did not fall below {threshold!r} up to t = 1e6 for "
            f"{cf.label or 'this CF'}; supply an explicit Grid2DConfig"
        )
    i = int(np.argmax(below))
    lo, hi = (float(ts[i - 1]) if i else 0.0), float(ts[i])
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if abs(cf.phi(np.array([mid]))[0]) < threshold:
            hi = mid
        else:
            lo = mid
    return hi


def auto_grid(
    cf1: CharFn,
    cf2: CharFn,
    n: int = 500,
    h_max: float = 0.05,
) -> Grid2DConfig:
    """Grid2DConfig sized from the decay ranges of the two CFs.

    The inner range T_1 is where |phi_1| falls below 1e-14.  The outer
    range must cover the second factor's argument -(x*t1 + t2), whose mass
    sits on a diagonal strip offset by up to the whole inner range, so
    T_2 adds the two decay ranges.  Both are capped at h_max * n so that
    the step h_i = T_i / n never exceeds h_max: slowly decaying CFs
    (chi-square tails shrink only polynomially) would otherwise produce
    steps far too coarse for the oscillatory integrand, and beyond the
    cap the 1/t2 factor has already suppressed the truncated tail.
    """
    if n < 1 or int(n) != n:
        raise GridError(f"n must be a positive integer, got {n!r}")
    if h_max <= 0.0:
        raise GridError(f"h_max must be positive, got {h_max!r}")
    _check_cf(cf1)
    _check_cf(cf2)
    d1 = cf_decay_range(cf1)
    d2 = cf_decay_range(cf2)
    t1 = min(d1, h_max * n)
    t2 = min(d1 + d2, h_max * n)
    return Grid2DConfig(N=int(n), h1=t1 / n, h2=t2 / n)
