"""Ratio and product densities of independent variables by Mellin convolution.

For independent X1, X2 with densities f1, f2 the density of the ratio and of
the product are one-dimensional integrals::

    ratio   (f1 / f2)(t) = integral f1(x t) f2(x) |x| dx
    product (f1 * f2)(t) = integral f1(x) f2(t/x) / |x| dx

Both kernels are non-smooth at x = 0, so each integral is split there and the
two sides are handled by separate double-exponential transforms, keeping the
integrand analytic on each piece.  Support hints shrink the integration
interval before any density is evaluated; a guard wrapper additionally pins
the densities to zero outside their declared support so roundoff at interval
endpoints can never probe them out of domain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple, Union

import numpy as np

from .errors import InvalidParamsError, SingularProductError
from .quadrature import (
    ChebInterpolant,
    DETransform,
    QuadratureConfig,
    cheb_build,
    cheb_eval_many,
    de_integrate,
)

_DEFAULT_CFG = QuadratureConfig(rel_tol=1e-10, abs_floor=1e-280)


@dataclass(frozen=True)
class Support:
    """Closed interval (possibly unbounded) outside which a density is zero."""

    lo: float
    hi: float

    def __post_init__(self) -> None:
        if math.isnan(self.lo) or math.isnan(self.hi) or not self.lo < self.hi:
            raise InvalidParamsError(f"support needs lo < hi, got ({self.lo!r}, {self.hi!r})")

    @classmethod
    def real_line(cls) -> "Support":
        return cls(-math.inf, math.inf)

    @classmethod
    def half_line(cls, origin: float = 0.0) -> "Support":
        return cls(origin, math.inf)

    @classmethod
    def finite(cls, lo: float, hi: float) -> "Support":
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise InvalidParamsError("finite support needs finite endpoints")
        return cls(lo, hi)

    def contains(self, x: float) -> bool:
        return self.lo <= x <= self.hi


@dataclass(frozen=True)
class DensityFn:
    """A probability density together with its support hint."""

    f: Callable[[float], float]
    support: Support
    label: str = ""


@dataclass(frozen=True)
class Direct:
    """Evaluate the convolution integral independently at every grid point."""


@dataclass(frozen=True)
class Chebyshev:
    """Build one barycentric interpolant from n_nodes direct evaluations."""

    n_nodes: int = 257


GridAccel = Union[Direct, Chebyshev]


def normal_density(mu: float = 0.0, sigma: float = 1.0) -> DensityFn:
    if not (math.isfinite(mu) and sigma > 0.0 and math.isfinite(sigma)):
        raise InvalidParamsError(f"normal density needs finite mu, sigma > 0, got ({mu!r}, {sigma!r})")
    inv = 1.0 / sigma
    norm = inv / math.sqrt(2.0 * math.pi)

    def f(x: float) -> float:
        z = (x - mu) * inv
        return norm * math.exp(-0.5 * z * z)

    return DensityFn(f, Support.real_line(), f"normal({mu}, {sigma})")


def chi_square_density(k: float) -> DensityFn:
    if not (k > 0.0 and math.isfinite(k)):
        raise InvalidParamsError(f"chi-square needs k > 0, got {k!r}")
    half_k = 0.5 * k
    log_norm = half_k * math.log(2.0) + math.lgamma(half_k)

    def f(x: float) -> float:
        if x <= 0.0:
            # k = 2 is the lone finite nonzero boundary value
            return 0.5 if (x == 0.0 and k == 2.0) else 0.0
        return math.exp((half_k - 1.0) * math.log(x) - 0.5 * x - log_norm)

    return DensityFn(f, Support.half_line(0.0), f"chisq({k})")


def uniform_density(lo: float = 0.0, hi: float = 1.0) -> DensityFn:
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise InvalidParamsError(f"uniform needs finite lo < hi, got ({lo!r}, {hi!r})")
    height = 1.0 / (hi - lo)

    def f(x: float) -> float:
        return height if lo <= x <= hi else 0.0

    return DensityFn(f, Support.finite(lo, hi), f"uniform({lo}, {hi})")


def _guarded(df: DensityFn) -> Callable[[float], float]:
    lo, hi, f = df.support.lo, df.support.hi, df.f

    def g(x: float) -> float:
        if x < lo or x > hi:
            return 0.0
        return f(x)

    return g


def _intersect(a: Tuple[float, float], b: Tuple[float, float]) -> Tuple[float, float]:
    return max(a[0], b[0]), min(a[1], b[1])


def _integrate_signed_interval(
    g: Callable[[float], float],
    lo: float,
    hi: float,
    cfg: QuadratureConfig,
) -> float:
    """Integrate g over (lo, hi), an interval lying within one half-axis."""
    if not lo < hi:
        return 0.0
    if lo == -math.inf:
        return de_integrate(lambda y: g(-y), DETransform.half_line(-hi), cfg).value
    if hi == math.inf:
        return de_integrate(g, DETransform.half_line(lo), cfg).value
    return de_integrate(g, DETransform.finite(lo, hi), cfg).value


def _ratio_preimage(sup1: Support, t: float) -> Tuple[float, float]:
    # the set {x : t*x is inside sup1}; vacuous for t = 0 (constant factor f1(0))
    if t > 0.0:
        return sup1.lo / t, sup1.hi / t
    if t < 0.0:
        return sup1.hi / t, sup1.lo / t
    return -math.inf, math.inf


def ratio_pdf(
    f1: DensityFn,
    f2: DensityFn,
    t: float,
    cfg: QuadratureConfig = _DEFAULT_CFG,
) -> float:
    """Density of X1/X2 at t for independent X1 ~ f1, X2 ~ f2.

    Evaluates integral f1(x t) f2(x) |x| dx, split at x = 0 because |x| is
    not analytic there.
    """
    if not math.isfinite(t):
        raise InvalidParamsError(f"evaluation point must be finite, got {t!r}")
    g1, g2 = _guarded(f1), _guarded(f2)
    pre = _ratio_preimage(f1.support, t)

    def integrand_pos(x: float) -> float:
        return g1(x * t) * g2(x) * x

    def integrand_neg(y: float) -> float:  # y = -x > 0
        return g1(-y * t) * g2(-y) * y

    lo_p, hi_p = _intersect(_intersect((0.0, math.inf), (f2.support.lo, f2.support.hi)), pre)
    pos = _integrate_signed_interval(integrand_pos, lo_p, hi_p, cfg)
    lo_n, hi_n = _intersect(_intersect((-math.inf, 0.0), (f2.support.lo, f2.support.hi)), pre)
    # reflect the negative-x piece onto (0, inf)
    neg = _integrate_signed_interval(integrand_neg, -hi_n, -lo_n, cfg) if lo_n < hi_n else 0.0
    return pos + neg


def _product_x_interval(
    t: float, sup2: Support, positive_side: bool
) -> Tuple[float, float]:
    """The x-interval on one half-axis where t/x falls inside sup2."""
    # on a fixed side u = t/x keeps one sign and is monotone in x
    u_sign = 1.0 if (t > 0.0) == positive_side else -1.0
    if u_sign > 0.0:
        ulo, uhi = _intersect((0.0, math.inf), (sup2.lo, sup2.hi))
    else:
        ulo, uhi = _intersect((-math.inf, 0.0), (sup2.lo, sup2.hi))
    if not ulo < uhi:
        return 0.0, 0.0
    side = 1.0 if positive_side else -1.0
    # u = 0 maps to the far end of the side; u = +/-inf maps to x = 0
    a = side * math.inf if ulo == 0.0 else t / ulo
    b = side * math.inf if uhi == 0.0 else t / uhi
    if math.isinf(ulo):
        a = 0.0
    if math.isinf(uhi):
        b = 0.0
    return (a, b) if a <= b else (b, a)


def product_pdf(
    f1: DensityFn,
    f2: DensityFn,
    t: float,
    cfg: QuadratureConfig = _DEFAULT_CFG,
) -> float:
    """Density of X1*X2 at t for independent X1 ~ f1, X2 ~ f2.

    Evaluates integral f1(x) f2(t/x) / |x| dx, split at x = 0.  At t = 0 the
    integrand carries a 1/|x| factor with nothing to tame it when both
    supports reach 0, and the product density may genuinely diverge there
    (the normal-normal product grows like -log|t|); that case raises
    SingularProductError instead of returning a number.
    """
    if not math.isfinite(t):
        raise InvalidParamsError(f"evaluation point must be finite, got {t!r}")
    if t == 0.0 and f1.support.contains(0.0) and f2.support.contains(0.0):
        raise SingularProductError(
            "product density at 0 may be singular when both supports include 0"
        )
    g1, g2 = _guarded(f1), _guarded(f2)

    def integrand_pos(x: float) -> float:
        return g1(x) * g2(t / x) / x

    def integrand_neg(y: float) -> float:  # y = -x > 0
        return g1(-y) * g2(-t / y) / y

    total = 0.0
    lo_p, hi_p = _intersect((f1.support.lo, f1.support.hi), (0.0, math.inf))
    if t != 0.0:
        lo_p, hi_p = _intersect((lo_p, hi_p), _product_x_interval(t, f2.support, True))
    total += _integrate_signed_interval(integrand_pos, lo_p, hi_p, cfg)
    lo_n, hi_n = _intersect((f1.support.lo, f1.support.hi), (-math.inf, 0.0))
    if t != 0.0:
        lo_n, hi_n = _intersect((lo_n, hi_n), _product_x_interval(t, f2.support, False))
    if lo_n < hi_n:
        total += _integrate_signed_interval(integrand_neg, -hi_n, -lo_n, cfg)
    return total


def ratio_pdf_grid(
    f1: DensityFn,
    f2: DensityFn,
    grid: Sequence[float],
    cfg: QuadratureConfig = _DEFAULT_CFG,
    accel: GridAccel = Direct(),
) -> np.ndarray:
    """Ratio density over an ordered grid, directly or via one interpolant.

    Chebyshev acceleration samples ratio_pdf at n_nodes Lobatto points over
    [min(grid), max(grid)] and evaluates the barycentric interpolant at the
    grid; for smooth densities this trades thousands of quadratures for a
    few hundred with no visible accuracy loss.
    """
    pts = np.asarray(grid, dtype=float)
    if pts.size == 0:
        raise InvalidParamsError("grid must be nonempty")
    if np.any(np.diff(pts) < 0.0):
        raise InvalidParamsError("grid must be sorted ascending")

    def eval_at(t: float) -> float:
        return ratio_pdf(f1, f2, t, cfg)

    if isinstance(accel, Chebyshev):
        if pts[0] == pts[-1]:
            return np.full(pts.shape, eval_at(float(pts[0])))
        interp = cheb_build(eval_at, float(pts[0]), float(pts[-1]), accel.n_nodes)
        return cheb_eval_many(interp, pts)
    if not isinstance(accel, Direct):
        raise InvalidParamsError(f"unknown acceleration mode {accel!r}")
    return np.array([eval_at(float(t)) for t in pts])


def ratio_interpolant(
    f1: DensityFn,
    f2: DensityFn,
    lo: float,
    hi: float,
    n_nodes: int = 257,
    cfg: QuadratureConfig = _DEFAULT_CFG,
) -> ChebInterpolant:
    """Reusable Chebyshev interpolant of the ratio density on [lo, hi]."""
    return cheb_build(lambda t: ratio_pdf(f1, f2, t, cfg), lo, hi, n_nodes)
