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

One rule builds both pieces for either kernel.  The integration variable x
is X2 for the ratio and X1 for the product; the other factor sits at c x
(ratio) or c / x (product), with c = t on the x > 0 piece and c = -t on the
reflected piece.  With [m_lo, m_hi] the magnitudes of the other factor's
support on c's side of 0, x runs over [m_lo, m_hi] / |c| for the ratio and
over |c| / [m_hi, m_lo] for the product, cut to the support of x on the
piece's side; at c = 0 the other factor does not constrain x.

Every nonempty piece of every evaluation point is one row of one batch of
the array DE sweep (quadrature.integrate_rows); the piece's x-interval picks
the map and the sweep blocks the rows itself.  A point's two pieces are
adjacent rows.  Rows are independent, so a point's value does not depend on
the grid it is evaluated in.  The sweep gives rows that share an interval
identical nodes, so when every row of a call spans one interval and none is
mapped onto its mode (below), the factor that does not depend on the point,
f2 for the ratio and f1 for the product, is evaluated once per integrand
call on each distinct node row (x, and -x for the reflected piece) and
broadcast; the product keeps its order, (f1 f2) x or (f1 f2) / x, so every
value is the one a full evaluation gives.  A non-finite integrand value
raises IntegrandError naming the evaluation point t and the node x, and a
row that runs out of levels NonConvergenceError naming t.

The half-line map puts its nodes at unit scale around lo + 1, which steps
over narrow mass far from there (N(500,1)/N(500,1) at t = 1) or pays for it
in refinement levels.  So a row on (lo, oo) whose factors both carry
moments (m1, v1), (m2, v2) takes a Gaussian hint of its integrand: a
precision p, a mode m, signed as the piece, and a width p^(-1/2)::

    ratio   f1(t x) f2(x) |x|:   p = t^2/v1 + 1/v2,  m = +/-(t m1/v1 + m2/v2)/p
    product f1(x) f2(t/x) / |x|: p = 1/v1 + q,       m = +/-(m1/v1 + q t/m2)/p

For the product, t/x is linearized about x0 = t/m2, so f2(t/x) acts as a
normal in x of mean x0 and precision q = m2^4/(v2 t^2); the hint is taken
only where that normal and f1 overlap, (m1 - x0)^2 q <= 64 (v1 q + 1),
since for two far-apart bumps m falls between them.  When m lies at least
8 widths above lo, the row names the sweep's power map with c = m - lo and
sc = width/c: its t = 0 node lands on the mode and the node spacing there
scales with the width.  Every other row (finite pieces, laws without
moments, mass near lo) keeps the half-line map, node for node.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from .errors import (IntegrandError, InvalidParamsError, NonConvergenceError,
                     SingularProductError, raise_at_point)
from .quadrature import (
    ChebInterpolant,
    QuadratureConfig,
    cheb_build,
    cheb_eval_many,
    check_n_nodes,
    integrate_rows,
)
from .special import like, points

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
    moments, when present, is the exact (mean, variance) of the law, bit-equal
    to CharFn.moments of the family's CF; the CLI sizes the --auto-interval
    window of a --num/--den or --dist spec from it (and cuts the window to
    the support), and ratio_pdf and product_pdf place the nodes of a piece
    whose mass lies far from its origin by it.  A law without them (Cauchy)
    leaves it None.
    """

    f: Density
    support: Support
    label: str = ""
    moments: Optional[Tuple[float, float]] = None

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
class Chebyshev:
    """Build one barycentric interpolant from n_nodes direct evaluations (2^k + 1, k >= 2)."""

    n_nodes: int = 257

    def __post_init__(self) -> None:
        check_n_nodes(self.n_nodes)



def normal_density(mu: float = 0.0, sigma: float = 1.0) -> DensityFn:
    if not (math.isfinite(mu) and sigma > 0.0 and math.isfinite(sigma)):
        raise InvalidParamsError(f"normal density needs finite mu, sigma > 0, got ({mu!r}, {sigma!r})")
    inv = 1.0 / sigma
    norm = inv / math.sqrt(2.0 * math.pi)

    def f(x):
        z = (x - mu) * inv
        return norm * np.exp(-0.5 * z * z)

    return DensityFn(f, Support.real_line(), f"normal({mu}, {sigma})", (mu, sigma * sigma))


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

    return DensityFn(f, Support.half_line(0.0), f"chisq({k})", (float(k), 2.0 * k))


def uniform_density(lo: float = 0.0, hi: float = 1.0) -> DensityFn:
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise InvalidParamsError(f"uniform needs finite lo < hi, got ({lo!r}, {hi!r})")
    height = 1.0 / (hi - lo)

    def f(x):
        return np.where((x >= lo) & (x <= hi), height, 0.0)

    return DensityFn(f, Support.finite(lo, hi), f"uniform({lo}, {hi})",
                     (0.5 * (lo + hi), (hi - lo) ** 2 / 12.0))


def cauchy_density(x0: float = 0.0, gamma: float = 1.0) -> DensityFn:
    if not (math.isfinite(x0) and gamma > 0.0 and math.isfinite(gamma)):
        raise InvalidParamsError(f"Cauchy density needs finite x0, gamma > 0, got ({x0!r}, {gamma!r})")
    inv = 1.0 / gamma
    norm = inv / math.pi

    def f(x):
        z = (x - x0) * inv
        return norm / (1.0 + z * z)

    return DensityFn(f, Support.real_line(), f"cauchy({x0}, {gamma})")


def _guarded(df: DensityFn) -> Density:
    lo, hi, f = df.support.lo, df.support.hi, df.f
    if lo == -math.inf and hi == math.inf:
        return f

    def g(x):
        # f sees only points of its support; the others are pinned to 0
        return np.where((x >= lo) & (x <= hi), f(np.clip(x, lo, hi)), 0.0)

    return g


_SIDES = np.array([1.0, -1.0])


def _magnitudes(s: Support) -> np.ndarray:
    """|X| bounds of s on the positive (row 0) and the negative (row 1) side
    of 0; a side that s misses is [0, 0]."""
    return np.array([[max(0.0, s.lo), max(0.0, s.hi)], [max(0.0, -s.hi), max(0.0, -s.lo)]])


def _pieces(f1: DensityFn, f2: DensityFn, product: bool,
            t: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Both pieces of every point of t by the piece rule of the module
    docstring: the x-intervals lo, hi, where entry 2i is point i's x > 0
    piece and entry 2i+1 its x < 0 piece reflected onto x > 0."""
    var, other = (f1, f2) if product else (f2, f1)
    v, o = _magnitudes(var.support), _magnitudes(other.support)
    c = t[:, None] * _SIDES
    neg = c < 0.0
    m_lo, m_hi = np.where(neg, o[1, 0], o[0, 0]), np.where(neg, o[1, 1], o[0, 1])
    a = np.abs(c)
    with np.errstate(divide="ignore", invalid="ignore"):
        x_lo, x_hi = (a / m_hi, a / m_lo) if product else (m_lo / a, m_hi / a)
    free = a == 0.0
    lo = np.maximum(v[:, 0], np.where(free, 0.0, x_lo))
    hi = np.minimum(v[:, 1], np.where(free, math.inf, x_hi))
    return lo.ravel(), hi.ravel()


# a row is mapped onto its mode only when the mode lies this many
# widths above the row's origin: the Gaussian mass below the origin is then
# e^(-8^2/2) = e^(-32) of the whole, so moving the nodes off it loses nothing
_MODE_WIDTHS = 8.0


def _mode_rows(f1: DensityFn, f2: DensityFn, product: bool, t: np.ndarray,
               side: np.ndarray, lo: np.ndarray, hi: np.ndarray):
    """The power map (c, sc) of every row, by the Gaussian hint of the module
    docstring: c = m - lo and sc = width/c on the rows mapped onto their
    mode, c = 0 on the others; side is the sign of each row's piece.
    Returns None when no row is mapped.
    """
    if f1.moments is None or f2.moments is None:
        return None
    (m1, v1), (m2, v2) = f1.moments, f2.moments
    if not (0.0 < v1 < math.inf and 0.0 < v2 < math.inf):
        return None
    # for a ratio and lo >= 0, (m - lo)^2 p <= m1^2/v1 + m2^2/v2
    # (Cauchy-Schwarz): below the gate there, no row of the call is mapped
    if not (product or m1 * m1 / v1 + m2 * m2 / v2 >= _MODE_WIDTHS ** 2):
        return None
    with np.errstate(all="ignore"):
        if product:
            q = m2 ** 4 / (v2 * t * t)
            p = 1.0 / v1 + q
            c = side * (m1 / v1 + q * t / m2) / p - lo
            # f1 and the linearized f2 must overlap, or the mode falls between them
            near = (m1 - t / m2) ** 2 * q <= _MODE_WIDTHS ** 2 * (v1 * q + 1.0)
        else:
            p = t * t / v1 + 1.0 / v2
            c = side * (t * (m1 / v1) + m2 / v2) / p - lo
            near = True
        gated = near & (hi == math.inf) & (c > 0.0) & (c * c * p >= _MODE_WIDTHS ** 2)
        if not gated.any():
            return None
        return np.where(gated, c, 0.0), 1.0 / (c * np.sqrt(p))


def _integrate_pieces(f1: DensityFn, f2: DensityFn, product: bool, t: np.ndarray,
                      cfg: QuadratureConfig) -> np.ndarray:
    """The Mellin kernel at every point of t (finite, 1-D), one batch of rows.

    A point's two pieces are adjacent rows, its x > 0 piece first; an empty
    piece contributes 0.  Each nonempty piece is one row of the DE sweep.
    When no row is mapped and every row spans one interval, the point-free
    factor is evaluated on one node row per piece sign of each call.
    A row that _mode_rows maps takes the sweep's power map onto its mode.
    """
    g1, g2 = _guarded(f1), _guarded(f2)
    lo, hi = _pieces(f1, f2, product, t)
    k = np.flatnonzero(lo < hi)
    s = np.where(k % 2, -1.0, 1.0)[:, None]
    u = t[k // 2, None]
    lo, hi = lo[k], hi[k]

    def kernel(idx, x, free=None):
        # free, when given, is the point-free factor at these nodes
        z = x * s[idx]
        if product:
            return (g1(z) if free is None else free) * g2((s[idx] * u[idx]) / x) / x
        return g1(z * u[idx]) * (g2(z) if free is None else free) * x

    power = _mode_rows(f1, f2, product, u[:, 0], s[:, 0], lo, hi)
    if power is None and k.shape[0] > 2 and (lo == lo[0]).all() and (hi == hi[0]).all():
        # one interval: every call's rows share one row of x (integrate_rows),
        # so the point-free factor needs one node row per piece sign
        g = g1 if product else g2
        piece = k % 2
        signs = _SIDES[:, None] if piece.any() and not piece.all() else s[:1]

        def integrand(idx, x):
            if x.shape[0] <= 2:
                return kernel(idx, x)
            free = g(x[:1] * signs)
            return kernel(idx, x, free[piece[idx]] if free.shape[0] == 2 else free)
    else:
        integrand = kernel

    values = np.zeros(2 * t.shape[0])
    try:
        values[k] = integrate_rows(integrand, lo, hi, cfg, power).value
    except (IntegrandError, NonConvergenceError) as exc:
        raise_at_point(exc, f"{'product' if product else 'ratio'} density", "t", u[:, 0],
                       "quadrature node ")
    return values[0::2] + values[1::2]


def _finite_points(t, name: str) -> np.ndarray:
    tt = points(t, name)
    if not np.isfinite(tt).all():
        raise InvalidParamsError(f"{name} needs finite evaluation points")
    return tt


def ratio_pdf(
    f1: DensityFn,
    f2: DensityFn,
    t,
    cfg: QuadratureConfig = QuadratureConfig(),
):
    """Density of X1/X2 at t for independent X1 ~ f1, X2 ~ f2.

    Evaluates integral f1(x t) f2(x) |x| dx, split at x = 0 because |x| is
    not analytic there.  t is a float (giving a float) or an array of finite
    points (giving an array of its shape).
    """
    tt = _finite_points(t, "ratio_pdf")
    return like(t, _integrate_pieces(f1, f2, False, tt.ravel(), cfg).reshape(tt.shape))


def product_pdf(
    f1: DensityFn,
    f2: DensityFn,
    t,
    cfg: QuadratureConfig = QuadratureConfig(),
):
    """Density of X1*X2 at t for independent X1 ~ f1, X2 ~ f2.

    Evaluates integral f1(x) f2(t/x) / |x| dx, split at x = 0; t is a float or
    an array of finite points, as for ratio_pdf.  At t = 0 the integrand
    carries a 1/|x| factor with nothing to tame it when both supports reach
    0, and the product density may genuinely diverge there (the normal-normal
    product grows like -log|t|); a point 0 then raises SingularProductError
    instead of returning a number.
    """
    tt = _finite_points(t, "product_pdf")
    if f1.support.contains(0.0) and f2.support.contains(0.0) and (tt == 0.0).any():
        raise SingularProductError(
            "product density at 0 may be singular when both supports include 0"
        )
    return like(t, _integrate_pieces(f1, f2, True, tt.ravel(), cfg).reshape(tt.shape))


def ratio_pdf_grid(
    f1: DensityFn,
    f2: DensityFn,
    grid: Sequence[float],
    cfg: QuadratureConfig = QuadratureConfig(),
    accel: Optional[Chebyshev] = None,
) -> np.ndarray:
    """Ratio density over an ordered grid, directly or via one interpolant.

    accel None evaluates the convolution integral at every grid point.
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
    if accel is None:
        return _integrate_pieces(f1, f2, False, pts, cfg)
    if not isinstance(accel, Chebyshev):
        raise InvalidParamsError(f"unknown acceleration mode {accel!r}")
    if pts[0] == pts[-1]:
        return np.full(pts.shape, _integrate_pieces(f1, f2, False, pts[:1], cfg)[0])
    return cheb_eval_many(
        ratio_interpolant(f1, f2, float(pts[0]), float(pts[-1]), accel.n_nodes, cfg), pts
    )


def ratio_interpolant(
    f1: DensityFn,
    f2: DensityFn,
    lo: float,
    hi: float,
    n_nodes: int = 257,
    cfg: QuadratureConfig = QuadratureConfig(),
) -> ChebInterpolant:
    """Reusable Chebyshev interpolant of the ratio density on [lo, hi]."""
    return cheb_build(lambda ts: _integrate_pieces(f1, f2, False, ts, cfg), lo, hi, n_nodes)
