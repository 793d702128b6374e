"""Ratio and product densities of independent variables by Mellin convolution.

For independent X1, X2 with densities f1, f2 the density of the ratio and of
the product are one-dimensional integrals::

    ratio   (f1 / f2)(t) = integral f1(x t) f2(x) |x| dx
    product (f1 * f2)(t) = integral f1(x) f2(t/x) / |x| dx

Both kernels are non-smooth at x = 0, so each integral is split there and the
two pieces are handled by separate double-exponential transforms, keeping the
integrand analytic on each piece; the negative piece is reflected onto x > 0.
Support hints shrink the integration interval before any density is
evaluated; a guard wrapper additionally pins the densities to zero outside
their declared support so roundoff at interval endpoints can never probe them
out of domain.

Every piece of every evaluation point is one row of the array DE sweep
(quadrature.integrate_rows): a grid is integrated in equal blocks of about
_BLOCK_POINTS points, each block in one sweep per map kind, and a single
point is a block of one.  Rows are independent, so a point's value does not
depend on the grid it is evaluated in.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence, Tuple, Union

import numpy as np

from .errors import InvalidParamsError, SingularProductError
from .quadrature import (
    ChebInterpolant,
    QuadratureConfig,
    cheb_build,
    cheb_eval_many,
    integrate_rows,
)

_DEFAULT_CFG = QuadratureConfig(rel_tol=1e-10, abs_floor=1e-280)
# about this many points per sweep; bounds the (rows x nodes) arrays of a level
_BLOCK_POINTS = 64

Density = Callable[[np.ndarray], np.ndarray]


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

    def inner_point(self) -> float:
        """A point inside the support."""
        if math.isfinite(self.lo) and math.isfinite(self.hi):
            return 0.5 * (self.lo + self.hi)
        if math.isfinite(self.lo):
            return self.lo + 1.0
        if math.isfinite(self.hi):
            return self.hi - 1.0
        return 0.0


@dataclass(frozen=True)
class DensityFn:
    """A probability density together with its support hint.

    f maps a NumPy array of points (any shape) to the density values, same
    shape; the quadrature evaluates it on whole arrays of nodes.  It is
    checked once, on a one-element array at a point inside the support.
    """

    f: Density
    support: Support
    label: str = ""

    def __post_init__(self) -> None:
        name = self.label or "density"
        try:
            v = np.asarray(self.f(np.array([self.support.inner_point()])))
        except TypeError as exc:
            raise InvalidParamsError(f"f must accept NumPy arrays; {name} raised: {exc}") from exc
        if v.shape != (1,):
            raise InvalidParamsError(
                f"f must map an array to an array of the same shape; "
                f"{name} returned shape {v.shape}"
            )


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

    def f(x):
        z = (x - mu) * inv
        return norm * np.exp(-0.5 * z * z)

    return DensityFn(f, Support.real_line(), f"normal({mu}, {sigma})")


def chi_square_density(k: float) -> DensityFn:
    if not (k > 0.0 and math.isfinite(k)):
        raise InvalidParamsError(f"chi-square needs k > 0, got {k!r}")
    half_k = 0.5 * k
    log_norm = half_k * math.log(2.0) + math.lgamma(half_k)
    # k = 2 is the lone finite nonzero boundary value
    at_zero = 0.5 if k == 2.0 else 0.0

    def f(x):
        inside = x > 0.0
        y = np.where(inside, x, 1.0)
        v = np.exp((half_k - 1.0) * np.log(y) - 0.5 * y - log_norm)
        return np.where(inside, v, np.where(x == 0.0, at_zero, 0.0))

    return DensityFn(f, Support.half_line(0.0), f"chisq({k})")


def uniform_density(lo: float = 0.0, hi: float = 1.0) -> DensityFn:
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise InvalidParamsError(f"uniform needs finite lo < hi, got ({lo!r}, {hi!r})")
    height = 1.0 / (hi - lo)

    def f(x):
        return np.where((x >= lo) & (x <= hi), height, 0.0)

    return DensityFn(f, Support.finite(lo, hi), f"uniform({lo}, {hi})")


def _guarded(df: DensityFn) -> Density:
    lo, hi, f = df.support.lo, df.support.hi, df.f
    if lo == -math.inf and hi == math.inf:
        return f

    def g(x):
        # f sees only points of its support; the others are pinned to 0
        return np.where((x >= lo) & (x <= hi), f(np.clip(x, lo, hi)), 0.0)

    return g


def _intersect(a: Tuple[float, float], b: Tuple[float, float]) -> Tuple[float, float]:
    return max(a[0], b[0]), min(a[1], b[1])


def _integrate_pieces(
    f1: DensityFn,
    f2: DensityFn,
    product: bool,
    t: np.ndarray,
    lo: np.ndarray,
    hi: np.ndarray,
    cfg: QuadratureConfig,
) -> np.ndarray:
    """The Mellin kernel at every point of t, given each piece's x-interval.

    lo[:n], hi[:n] bound the positive piece of the n points and lo[n:],
    hi[n:] the negative piece reflected onto x > 0; an empty interval
    contributes 0.  Each piece is one row of the DE sweep.
    """
    g1, g2 = _guarded(f1), _guarded(f2)
    n = t.shape[0]
    sign = np.repeat(np.array([1.0, -1.0]), n)[:, None]
    tt = np.concatenate([t, t])[:, None]
    values = np.zeros(2 * n)
    nonempty = lo < hi
    half = hi == math.inf
    for kind, rows in (("half", nonempty & half), ("finite", nonempty & ~half)):
        k = np.flatnonzero(rows)
        if k.size == 0:
            continue
        s, u = sign[k], tt[k]

        def kernel(idx, x, s=s, u=u):
            z = x * s[idx]
            if product:
                return g1(z) * g2((s[idx] * u[idx]) / x) / x
            return g1(z * u[idx]) * g2(z) * x

        values[k] = integrate_rows(kernel, kind, lo[k], hi[k], cfg).value
    return values[:n] + values[n:]


def _ratio_values(f1: DensityFn, f2: DensityFn, ts: np.ndarray,
                  cfg: QuadratureConfig) -> np.ndarray:
    """Ratio density at every point of ts (finite), in blocks of points."""
    out = np.empty(ts.shape[0])
    lo1, hi1 = f1.support.lo, f1.support.hi
    lo2, hi2 = f2.support.lo, f2.support.hi
    # equal blocks of about _BLOCK_POINTS points
    size = -(-ts.shape[0] // max(1, round(ts.shape[0] / _BLOCK_POINTS)))
    for i in range(0, ts.shape[0], size):
        t = ts[i:i + size]
        # the set {x : t*x is inside sup1}; vacuous for t = 0 (constant factor f1(0))
        with np.errstate(divide="ignore", invalid="ignore"):
            a, b = lo1 / t, hi1 / t
        pre_lo = np.where(t > 0.0, a, np.where(t < 0.0, b, -math.inf))
        pre_hi = np.where(t > 0.0, b, np.where(t < 0.0, a, math.inf))
        # positive piece, then the negative one reflected onto x > 0
        lo = np.concatenate([np.maximum(max(0.0, lo2), pre_lo),
                             -np.minimum(min(0.0, hi2), pre_hi)])
        hi = np.concatenate([np.minimum(hi2, pre_hi), -np.maximum(lo2, pre_lo)])
        out[i:i + size] = _integrate_pieces(f1, f2, False, t, lo, hi, cfg)
    return out


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
    return float(_ratio_values(f1, f2, np.array([float(t)]), cfg)[0])


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
    lo_p, hi_p = _intersect((f1.support.lo, f1.support.hi), (0.0, math.inf))
    lo_n, hi_n = _intersect((f1.support.lo, f1.support.hi), (-math.inf, 0.0))
    if t != 0.0:
        lo_p, hi_p = _intersect((lo_p, hi_p), _product_x_interval(t, f2.support, True))
        lo_n, hi_n = _intersect((lo_n, hi_n), _product_x_interval(t, f2.support, False))
    value = _integrate_pieces(f1, f2, True, np.array([t]), np.array([lo_p, -hi_n]),
                              np.array([hi_p, -lo_n]), cfg)
    return float(value[0])


def ratio_pdf_grid(
    f1: DensityFn,
    f2: DensityFn,
    grid: Sequence[float],
    cfg: QuadratureConfig = _DEFAULT_CFG,
    accel: GridAccel = Direct(),
) -> np.ndarray:
    """Ratio density over an ordered grid, directly or via one interpolant.

    Chebyshev acceleration samples the ratio density at n_nodes Lobatto
    points over [min(grid), max(grid)] and evaluates the barycentric
    interpolant at the grid; for smooth densities this trades thousands of
    quadratures for a few hundred with no visible accuracy loss.
    """
    pts = np.asarray(grid, dtype=float)
    if pts.size == 0:
        raise InvalidParamsError("grid must be nonempty")
    if not np.all(np.isfinite(pts)):
        raise InvalidParamsError("grid points must be finite")
    if np.any(np.diff(pts) < 0.0):
        raise InvalidParamsError("grid must be sorted ascending")
    if isinstance(accel, Chebyshev):
        if pts[0] == pts[-1]:
            return np.full(pts.shape, _ratio_values(f1, f2, pts[:1], cfg)[0])
        return cheb_eval_many(
            ratio_interpolant(f1, f2, float(pts[0]), float(pts[-1]), accel.n_nodes, cfg), pts
        )
    if not isinstance(accel, Direct):
        raise InvalidParamsError(f"unknown acceleration mode {accel!r}")
    return _ratio_values(f1, f2, pts, cfg)


def ratio_interpolant(
    f1: DensityFn,
    f2: DensityFn,
    lo: float,
    hi: float,
    n_nodes: int = 257,
    cfg: QuadratureConfig = _DEFAULT_CFG,
) -> ChebInterpolant:
    """Reusable Chebyshev interpolant of the ratio density on [lo, hi]."""
    return cheb_build(lambda ts: _ratio_values(f1, f2, ts, cfg), lo, hi, n_nodes)
