"""Characteristic-function layer: inversion, ratio densities, moments.

One-dimensional inversion uses the Gil-Pelaez (1951) formulas::

    f(x) = (1/pi) int_0^inf Re[e^{-itx} phi(t)] dt
    F(x) = 1/2 - (1/pi) int_0^inf Im[e^{-itx} phi(t)] / t dt

evaluated by half-line double-exponential quadrature.  Both take a float
(giving a float) or a NumPy array of points (giving an array of its shape);
each finite point is a row of one batch of the DE sweep.  At +-inf every
inversion here gives the limits, a density 0 and a CDF 0 and 1, with no CF
evaluated.

The ratio W = X1/X2 is inverted in two dimensions following Broda and Kan
(2013).  With the joint CF phi(s, tau) and its tau-partial d2phi, the
Hermitian identity d2phi(-s, -tau) = -conj d2phi(s, tau) folds the density's
half plane s in R onto the positive quadrant, where the CDF formula already
lives::

    f_W(w) = (1/pi^2) int_0^inf int_0^inf
             Re[d2phi(s, -t - ws) - d2phi(s, t - ws)] / t ds dt,
    F_W(r) = 1/2 + (1/pi^2) int_0^inf int_0^inf
             Re[phi(s, t - rs) - phi(s, -t - rs)] / (s t) ds dt.

For independent factors d2phi collapses to phi1(s) phi2'(tau).  Both double
integrals are discretized on one midpoint-offset trapezoidal lattice
s = h1 (nu1 + 1/2), t = h2 (nu2 + 1/2), nu1, nu2 in [0, N]; the half offset
keeps every node strictly away from the 1/s and 1/t poles, so no special
pole handling is needed.  Under W -> -W (X1 -> -X1) the two CF values of
each cell trade places, conjugated and negated, so the sums keep
f_{-W}(-x) = f_W(x) and F_{-W}(-x) = 1 - F_W(x) up to the rounding of the
CF.  A point's lattice is evaluated in blocks of _BLOCK_ROWS t rows (about
0.5 MB of complex cells, so a block's temporaries stay in cache); each row
is summed over nu1 by NumPy (pairwise), and the point's row sums are then
summed in ascending nu2 order, again pairwise.  Blocking changes no cell and
no sum, so results are bit-identical to one whole-lattice sum and
bit-reproducible across runs.

A joint CF's pair (cf1, cf2, d) says that X1 - d X2 ~ cf1 is independent of
X2 ~ cf2: d = 0 for product_joint_cf, d = cov/var2 for the bivariate normal
(Marsaglia 2006, "Ratios of normal variables").  The pair's joint CF is
phi(s, tau - d s), so its cell at x - d is the cell of (X1, X2) at x, and the
pair is summed at x - d in O(N) per point.  Its cells factor as phi1(s)
times a function of u = x s, so

    f_W(x) = (h1 h2/pi^2) sum_s Re[phi1(s) H(x s)],
    H(u) = sum_t [phi2'(t - u) - phi2'(-t - u)] / (-t),

and the CDF is the same with phi1(s)/s, phi2 and 1/t.  H does not depend
on x: _inner_table tabulates it for u >= 0 by FFT, in blocks fixed by the
lattice, and every x s reads it by _TABLE_P-node barycentric Lagrange
interpolation, with H(-u) = conj H(u) (-conj H(u) for the CDF), so W -> -W
stays exact.  The reads go one stencil tap at a time, each tap over every
(point, s) pair of a chunk of _TABLE_CELLS.  A point whose interpolation
error estimate exceeds _TABLE_TOL of its own scale (as a kink in phi2 makes
it), or whose table would reach past _TABLE_REACH t lattices, is summed
directly on the lattice.  So each value depends on the joint CF, the grid
and its point alone: a grid equals its float calls bit for bit, and the sums
agree with the direct lattice sum to about 1e-15 of the peak.

Moment estimates come from eighth-order central-difference stencils applied
to the CF at the origin, exploiting Hermitian symmetry so only four
evaluations on the positive axis are needed per stencil; a second stencil
at twice the step checks the first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

from .errors import (
    GridError,
    IntegrandError,
    InvalidParamsError,
    NonConvergenceError,
    RatioDistError,
    UndecayedCFError,
    raise_at_point,
)
from .normal_ratio import BivNormalParams, sd_window
from .quadrature import QuadratureConfig, integrate_rows
from .special import at_finite, clamp_cdf, like, points

_DECAY_THRESHOLD = 1e-14
_H_MAX = 0.05  # auto_grid's largest lattice step
_BLOCK_ROWS = 64  # t rows per block: 64 x 501 complex cells is ~0.5 MB, an L2's worth
_MOMENT_H = 1e-3  # cf_moments' step: at 1e-4 rounding (~eps / h^2) swamps the eighth-order stencil
_TABLE_P = 16  # barycentric Lagrange nodes per read of the tabulated inner sum H
_TABLE_Q = 4  # offset sub-lattices: the table of H has spacing h2 / _TABLE_Q
_TABLE_TOL = 1e-12  # a point whose interpolation error estimate exceeds this x peak sums directly
_TABLE_REACH = 64  # |x| T1 past this many t lattices: the table would cost more than the direct sum
_TABLE_CELLS = 8192  # (point, s) pairs per read: 16 points at N = 500; 4096 ran slower, 12288 no faster
# barycentric weights at stencil tap i: (-1)^i C(P - 1, i); (-1)^i C(P - 3, i - 1) on inner taps
_BARY = np.array([[(-1.0) ** i * math.comb(_TABLE_P - 1, i),
                   (-1.0) ** i * math.comb(_TABLE_P - 3, i - 1) if i else 0.0]
                  for i in range(_TABLE_P)])[:, :, None, None]
_GP_CFG = QuadratureConfig(rel_tol=1e-12, abs_floor=1e-13)


@dataclass(frozen=True)
class CharFn:
    """A characteristic function with optional derivative and hints.

    phi and dphi map a NumPy array of t to the complex values, same shape;
    this module calls them on arrays only.  phi is checked once, when the
    CharFn is built: it must take an array, return the same shape and give
    phi(0) = 1, or InvalidParamsError is raised.  decay_scale, when present,
    is a t beyond which |phi| stays below 1e-14; it lets auto_grid skip the
    numeric decay search.  moments, when present, is the exact (mean,
    variance) of the law, which six_sigma_interval reads instead of
    cf_moments; it is bit-equal to DensityFn.moments of the family's
    density, which the CLI's --num/--den and --dist windows read.
    """

    phi: Callable[[np.ndarray], np.ndarray]
    dphi: Optional[Callable[[np.ndarray], np.ndarray]] = None
    decay_scale: Optional[float] = None
    label: str = ""
    moments: Optional[Tuple[float, float]] = None

    def __post_init__(self) -> None:
        name = self.label or "characteristic function"
        try:
            v = np.asarray(self.phi(np.zeros(1)))
        except TypeError as exc:
            raise InvalidParamsError(f"phi must accept NumPy arrays; {name} raised: {exc}") from exc
        if v.shape != (1,):
            raise InvalidParamsError(f"phi must map an array to an array of the same shape; "
                                     f"{name} returned shape {v.shape}")
        if abs(complex(v[0]) - 1.0) > 1e-8:
            raise InvalidParamsError(f"phi(0) must equal 1, got {complex(v[0])!r} for {name}")


@dataclass(frozen=True)
class JointCharFn:
    """A bivariate characteristic function and its second-argument partial.

    Both take two broadcastable NumPy arrays and return their broadcast shape.
    pair, when present, is (cf1, cf2, d) with X1 - d X2 ~ cf1 independent of
    X2 ~ cf2; the Broda-Kan sums then sum that pair at x - d, and call phi2d
    or dphi2d_dt2 only when the pair lacks what the sum needs.
    """

    phi2d: Callable[[np.ndarray, np.ndarray], np.ndarray]
    dphi2d_dt2: Callable[[np.ndarray, np.ndarray], np.ndarray]
    label: str = ""
    pair: Optional[Tuple["CharFn", "CharFn", float]] = None


@dataclass(frozen=True)
class Grid2DConfig:
    """Midpoint-offset trapezoidal grid for the 2D inversion sums.

    Nodes are s = h1 (nu1 + 1/2) and t = h2 (nu2 + 1/2) for nu1, nu2 in
    [0, N], the same positive-quadrant lattice for the density and the CDF.
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
    return CharFn(phi, dphi, decay, f"normal_cf({mu}, {sigma})", (mu, s2))


def chi_square_cf(k: int) -> CharFn:
    """CF of chi-square with k degrees of freedom: (1 - 2it)^(-k/2).

    Evaluated as w^(k//2), times sqrt(w) for odd k, with w = 1/(1 - 2it):
    |w| <= 1 and NumPy's complex division scales its operands, so nothing
    overflows for any finite t (the complex power of 1 - 2it overflows to
    NaN once |t| passes ~1e77 for k >= 8), and an odd k costs one complex
    sqrt per value instead of a complex log and exp.
    """
    if not (math.isfinite(k) and k >= 1 and int(k) == k):
        raise InvalidParamsError(f"chi-square CF needs integer k >= 1, got {k!r}")
    k = int(k)
    half, odd = divmod(k, 2)

    def w_power(t, n: int):
        """w^n, times sqrt(w) for odd k, computed in place in one array."""
        t = np.asarray(t, dtype=float)
        w = np.empty(t.shape, dtype=complex)  # 1 - 2it without a complex cast of t
        w.real = 1.0
        w.imag = -2.0 * t
        np.divide(1.0, w, out=w)
        if not odd:
            return np.power(w, n, out=w)
        root = np.sqrt(w)  # principal root: Re w > 0
        return np.multiply(np.power(w, n, out=w), root, out=w)

    def phi(t):
        return w_power(t, half)

    def dphi(t):  # phi' = i k w phi
        out = w_power(t, half + 1)
        out *= 1j * k
        return out

    # |phi| = (1+4t^2)^(-k/4) = 1e-14  =>  t = sqrt((1e14^(4/k) - 1)/4)
    decay = math.sqrt((10.0 ** (56.0 / k) - 1.0) / 4.0)
    return CharFn(phi, dphi, decay, f"chi_square_cf({k})", (float(k), 2.0 * k))


def cauchy_cf(x0: float = 0.0, gamma: float = 1.0) -> CharFn:
    """CF of the Cauchy law with location x0 and scale gamma.

    The law has no moments, and phi has a kink at t = 0; its derivative
    (i x0 - gamma sign t) phi is exact away from 0.
    """
    if not (math.isfinite(x0) and gamma > 0.0 and math.isfinite(gamma)):
        raise InvalidParamsError(f"Cauchy CF needs finite x0, gamma > 0, got ({x0!r}, {gamma!r})")

    def phi(t):
        return np.exp(1j * x0 * t - gamma * np.abs(t))

    def dphi(t):
        return (1j * x0 - gamma * np.sign(t)) * phi(t)

    decay = math.log(1e14) / gamma
    return CharFn(phi, dphi, decay, f"cauchy_cf({x0}, {gamma})")


def _gil_pelaez(cf: CharFn, x, part: Callable[[np.ndarray, np.ndarray], np.ndarray],
                name: str, cfg: QuadratureConfig, limits: Tuple[float, float]) -> np.ndarray:
    """(1/pi) int_0^inf part(e^{-itx} phi(t)) dt at every finite point of x,
    each point one row, and limits at -inf and +inf, evaluating no CF.

    Every row spans (0, oo), so the rows of each integrand call share one
    row of t (integrate_rows) and phi is evaluated on that row alone.  A
    sweep's IntegrandError or NonConvergenceError is raised again naming x.
    """

    def rows(flat: np.ndarray) -> np.ndarray:
        xs = flat[:, None]
        origin = np.zeros(xs.shape[0])
        try:
            return integrate_rows(
                lambda idx, t: part(np.exp(-1j * t * xs[idx]) * cf.phi(t[:1]), t),
                origin, origin + math.inf, cfg).value / math.pi
        except (IntegrandError, NonConvergenceError) as exc:
            raise_at_point(exc, name, "x", flat, "CF argument t=")

    return at_finite(points(x, name), rows, limits)


def gil_pelaez_pdf(cf: CharFn, x, cfg: QuadratureConfig = _GP_CFG):
    """Density at x from one CF by half-line DE quadrature.

    The default cfg is tuned for rapidly decaying CFs.  A CF with only
    polynomial decay leaves the transformed integrand oscillatory over many
    scales; pass a looser tolerance (around 1e-8) and max_levels of 16-17.
    """
    return like(x, _gil_pelaez(cf, x, lambda z, t: z.real, "gil_pelaez_pdf", cfg, (0.0, 0.0)))


def gil_pelaez_cdf(cf: CharFn, x, cfg: QuadratureConfig = _GP_CFG):
    """CDF at x from one CF; clamped to [0, 1] with excursion warning.

    See gil_pelaez_pdf for the tolerance caveat on slowly decaying CFs.
    """
    raw = 0.5 - _gil_pelaez(cf, x, lambda z, t: z.imag / t, "gil_pelaez_cdf", cfg, (0.5, -0.5))
    return like(x, clamp_cdf(raw))


def bivariate_normal_joint_cf(p: BivNormalParams) -> JointCharFn:
    """Joint CF of a correlated normal pair, with its second-argument partial.

    Its pair is built here, once: normal_cf raises InvalidParamsError when
    rounding at |rho| -> 1 leaves X1 - d X2 no variance.
    """
    m1, m2, v1, v2 = p.mu1, p.mu2, p.sigma1 * p.sigma1, p.sigma2 * p.sigma2
    cov = p.rho * p.sigma1 * p.sigma2
    d = cov / v2
    pair = (normal_cf(m1 - d * m2, math.sqrt(max(v1 - d * cov, 0.0))),
            normal_cf(m2, math.sqrt(v2)), d)

    def phi2d(s, t):
        q = v1 * s * s + 2.0 * cov * s * t + v2 * t * t
        return np.exp(1j * (m1 * s + m2 * t) - 0.5 * q)

    def dphi2d_dt2(s, t):
        return (1j * m2 - cov * s - v2 * t) * phi2d(s, t)

    return JointCharFn(phi2d, dphi2d_dt2, f"bivariate_normal_joint_cf({p!r})", pair)


def product_joint_cf(cf1: CharFn, cf2: CharFn) -> JointCharFn:
    """Joint CF of an independent pair: phi(s, t) = phi1(s) phi2(t).

    The result records the pair (cf1, cf2, 0.0), so the Broda-Kan sums read
    the inner sum off the table of the lattice.  Its partial
    phi1(s) phi2'(t), which the density needs, raises InvalidParamsError
    when cf2 has no dphi; the CDF needs phi2d only.
    """
    label = f"product({cf1.label}, {cf2.label})"

    def phi2d(s, t):
        return cf1.phi(np.asarray(s, dtype=float)) * cf2.phi(np.asarray(t, dtype=float))

    def dphi2d_dt2(s, t):
        if cf2.dphi is None:
            raise InvalidParamsError(f"a ratio density needs dphi of the denominator's CF, "
                                     f"which {cf2.label or 'this CF'} lacks")
        return cf1.phi(np.asarray(s, dtype=float)) * cf2.dphi(np.asarray(t, dtype=float))

    return JointCharFn(phi2d, dphi2d_dt2, label, (cf1, cf2, 0.0))


def broda_kan_pdf_indep(
    cf1: CharFn,
    cf2: CharFn,
    x,
    cfg: Optional[Grid2DConfig] = None,
):
    """Ratio density of X1/X2 at x from the two marginal CFs.

    broda_kan_pdf_joint on their product joint CF: the midpoint trapezoidal
    sum of Re[phi1(s) (phi2'(-t - x s) - phi2'(t - x s))] / t over the
    positive quadrant s in (0, T1), t in (0, T2); cfg defaults to
    auto_grid(cf1, cf2).
    """
    return broda_kan_pdf_joint(product_joint_cf(cf1, cf2), x, cfg or auto_grid(cf1, cf2))


def _broda_kan(jcf: JointCharFn, w, cfg: Grid2DConfig, density: bool):
    """The folded Broda-Kan sum at every finite point of w: f_W when density
    is set, F_W - 1/2 otherwise; at +-inf their limits, 0 and +-1/2, with no
    CF evaluated.

    Both are h1 h2 / pi^2 times the lattice sum of
    Re[G(s, t - x s) - G(s, -t - x s)] / d, with G = dphi2d_dt2 and d = -t
    for the density, G = phi2d and d = s t for the CDF; a pair is summed at
    x - d on the table, falling back to its cells G = cf1.phi(s) g(tau), g
    = cf2.dphi or cf2.phi.  A point's blocks of t rows each give their rows'
    sums over nu1; the point's row sums are concatenated and summed in one
    call, so the total does not depend on the block size.
    """
    xx = points(w, "broda_kan_pdf_joint" if density else "broda_kan_cdf")
    nu = np.arange(0, cfg.N + 1, dtype=float) + 0.5
    s, t = cfg.h1 * nu, cfg.h2 * nu
    pair = jcf.pair
    tabled = pair is not None and (pair[1].dphi is not None or not density)
    if tabled:
        cf1, cf2, d = pair
        g = cf2.dphi if density else cf2.phi
        cf = lambda u, tau: cf1.phi(u) * g(tau)
    else:
        cf = jcf.dphi2d_dt2 if density else jcf.phi2d
    ss = s[None, :]
    blocks = [slice(lo, lo + _BLOCK_ROWS) for lo in range(0, t.size, _BLOCK_ROWS)]

    def row_sums(x: float, rows: slice) -> np.ndarray:
        tt = t[rows, None]
        cells = (cf(ss, tt - x * ss) - cf(ss, -tt - x * ss)).real
        return (cells / (-tt if density else ss * tt)).sum(axis=1)

    def direct(xs: np.ndarray) -> np.ndarray:
        return np.array([np.concatenate([row_sums(x, rows) for rows in blocks]).sum()
                         for x in xs.tolist()])

    def sums(x: np.ndarray) -> np.ndarray:
        total = _tabled_sums(cf1, cf2, x - d, s, cfg, density, direct) if tabled else direct(x)
        bad = ~np.isfinite(total)
        if bad.any():
            raise IntegrandError(f"2D inversion sum is not finite at {float(x[bad][0])!r}")
        return cfg.h1 * cfg.h2 * total / (math.pi * math.pi)

    return at_finite(xx, sums, (0.0, 0.0) if density else (-0.5, 0.5))


def _inner_table(cf2: CharFn, n: int, h2: float, nodes: int, density: bool) -> np.ndarray:
    """The inner sum H at u = i h2/Q for i = 0 .. nodes - 1 (or a few more).

    Over the whole t lattice t_j = h2 (j + 1/2), j in [-n-1, n], the folded
    inner sums are H(u) = -sum_j phi2'(t_j - u) / t_j (density) and
    H(u) = sum_j phi2(t_j - u) / t_j (CDF).  Sub-lattice r holds the nodes
    u = k h2 + r h2/Q, where t_j - u = h2 (j - k + 1/2) - r h2/Q: H there is
    one discrete convolution of the samples g(h2 (m + 1/2) - r h2/Q) with
    the odd kernel 1/t_j, done by overlap-save FFTs of a length M fixed by n:
    each block of b = M - 2n - 1 nodes k is one FFT of the M samples it
    reads, at their absolute indices m, so entry i depends on the lattice
    alone, not on the call.  Returned in node order i = k Q + r.
    """
    from numpy import fft  # here, not at module level: importing it costs every CLI start ~1.6 ms

    q = _TABLE_Q
    m = 1 << (4 * n + 2).bit_length()
    b = m - 2 * n - 1  # nodes per block and sub-lattice: M - b = 2n + 1 samples overlap
    first = -(n + b) - b * np.arange(-(-nodes // (q * b)))  # block B's first sample index
    arg = h2 * (first[:, None] + np.arange(m) + 0.5) - (h2 / q) * np.arange(q)[:, None, None]
    kernel = fft.fft(1.0 / (h2 * (np.arange(2 * n + 2) - (n + 0.5))), m)
    g = cf2.dphi if density else cf2.phi
    conv = fft.ifft(fft.fft(g(arg), axis=-1) * kernel, axis=-1)
    # H at u = (B b + k) h2 + r h2/Q is -+conv[r, B, 2n + b - k] for k = 0 .. b-1
    table = conv[:, :, m - 1:2 * n:-1].transpose(1, 2, 0).ravel()
    return table if density else -table


def _tabled_sums(cf1: CharFn, cf2: CharFn, xs: np.ndarray, s: np.ndarray, cfg: Grid2DConfig,
                 density: bool, direct: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    """The folded lattice sums of an independent pair, read off the table of H.

    Each point is sum_s Re[c(s) H(x s)], c = phi1(s) for the density and
    phi1(s)/s for the CDF, with H from _inner_table read by P-node
    barycentric Lagrange interpolation; H(-u) is conj H(u) (density) or
    -conj H(u) (CDF), so only u >= 0 is tabulated.  A point whose estimate
    sum_s |c| |H_P - H_(P-2)| exceeds _TABLE_TOL times its scale (its own
    sum_s |c| |H| for the density, the sum that makes F = 1 for the CDF),
    or whose |x| s reaches past _TABLE_REACH times the t lattice, takes
    direct instead.
    """
    c = cf1.phi(s) if density else cf1.phi(s) / s
    c_re, c_im, c_abs = c.real, c.imag, np.abs(c)
    step, centre = cfg.h2 / _TABLE_Q, _TABLE_P // 2 - 1
    ax = np.abs(xs)
    near = np.flatnonzero(ax * s[-1] <= _TABLE_REACH * cfg.h2 * (cfg.N + 0.5))
    total, est = np.empty(xs.size), np.full(xs.size, math.inf)
    # the CDF's scale is 1: F - 1/2 is h1 h2 / pi^2 times the sum
    scale = np.full(xs.size, math.pi ** 2 / (cfg.h1 * cfg.h2))
    if near.size:
        # the widest point's last stencil ends _TABLE_P - centre - 1 nodes past its cell
        nodes = int(ax[near].max() * s[-1] / step) + _TABLE_P - centre
        table = _inner_table(cf2, cfg.N, cfg.h2, nodes, density)
        lead = np.conj(table[centre:0:-1])  # H at u = -centre step .. -step
        ext = np.concatenate([lead if density else -lead, table])  # ext[centre + i]: H at i step
        chunk = min(max(1, _TABLE_CELLS // s.size), near.size)
        # one set of work arrays for all chunks: made anew at each tap, they cost page faults
        work = np.zeros((3, 2, chunk, s.size), dtype=complex), np.empty((2, chunk, s.size))
        for lo in range(0, near.size, chunk):
            rows = near[lo:lo + chunk]
            pos = ax[rows, None] * s / step
            first = np.floor(pos)
            hit = pos == first  # u on a node reads the node, and divides by no 0
            theta, first = np.where(hit, 0.5, pos - first), first.astype(np.intp)
            # running sums of the P- and (P-2)-node interpolants, a tap at a time; the
            # weights go in weight's real part (its imaginary part stays 0), so no cast
            (num, weight, prod), den = (a[..., :rows.size, :] for a in work)
            num.fill(0.0)
            den.fill(0.0)
            for k, b in enumerate(_BARY):
                np.divide(b, theta - (k - centre), out=weight.real)
                den += weight.real
                num += np.multiply(weight, ext[k:].take(first), out=prod)
            if hit.any():
                num[:, hit], den[:, hit] = ext[first[hit] + centre], 1.0
            (h_re, l_re), (h_im, l_im) = (part / den for part in (num.real, num.imag))
            est[rows] = (c_abs * np.hypot(h_re - l_re, h_im - l_im)).sum(axis=1)
            # x < 0 reads H(-u): conj H(u) for the density, -conj H(u) for the CDF
            flip = np.where(xs[rows] < 0.0, -1.0, 1.0)[:, None]
            if density:
                scale[rows] = (c_abs * np.hypot(h_re, h_im)).sum(axis=1)
                h_im *= flip
            else:
                h_re *= flip
            total[rows] = (c_re * h_re - c_im * h_im).sum(axis=1)
    redo = est > _TABLE_TOL * scale
    if redo.any():
        total[redo] = direct(xs[redo])
    return total


def broda_kan_pdf_joint(jcf: JointCharFn, w, cfg: Grid2DConfig):
    """Ratio density at w from a joint CF of (X1, X2), correlated allowed."""
    return like(w, _broda_kan(jcf, w, cfg, True))


def broda_kan_cdf(jcf: JointCharFn, r, cfg: Grid2DConfig):
    """Ratio CDF at r from a joint CF, positive-quadrant inversion sum."""
    return like(r, clamp_cdf(0.5 + _broda_kan(jcf, r, cfg, False)))


# eighth-order central-difference stencils; Hermitian symmetry folds the
# negative axis onto the positive one (Im is odd, Re is even)
_MU_COEFFS = (8.0 / 5.0, -2.0 / 5.0, 8.0 / 105.0, -1.0 / 140.0)
_MU2_CENTER = 205.0 / 72.0
_MU2_COEFFS = (-16.0 / 5.0, 2.0 / 5.0, -16.0 / 315.0, 1.0 / 280.0)


def cf_moments(cf: CharFn, h: float = _MOMENT_H) -> Tuple[float, float]:
    """Mean and variance estimated from the CF near the origin.

    mu = Im phi'(0) and E[X^2] = -phi''(0) are approximated with
    eighth-order stencils at step h; returns (mu_hat, sigma2_hat).  Raises
    RatioDistError when the stencil at 2h differs by more than 1e-5 in the
    variance (relative) or the mean (in sd): a CF with a kink at 0 has no
    moments, and a large mean swamps the variance in rounding.
    """
    if h <= 0.0:
        raise InvalidParamsError(f"step h must be positive, got {h!r}")
    vals = np.asarray(cf.phi(h * np.arange(1.0, 9.0))).tolist()  # phi at h .. 8h

    def stencil(step: float, v: list) -> Tuple[float, float]:
        mu = sum(c * z.imag for c, z in zip(_MU_COEFFS, v)) / step
        mu2 = (_MU2_CENTER + sum(c * z.real for c, z in zip(_MU2_COEFFS, v))) / (step * step)
        return mu, mu2 - mu * mu

    (mu, var), (mu_2h, var_2h) = stencil(h, vals[:4]), stencil(2.0 * h, vals[1::2])
    if not (abs(var - var_2h) <= 1e-5 * abs(var) and abs(mu - mu_2h) <= 1e-5 * math.sqrt(abs(var))):
        raise RatioDistError(f"{cf.label or 'this CF'} has no moments the CF stencil can resolve: "
                             f"steps h, 2h give variances {var!r}, {var_2h!r}")
    return mu, var


def six_sigma_interval(cf1: CharFn, cf2: CharFn, k: float = 6.0) -> Tuple[float, float]:
    """sd_window of two CFs from the exact moments a CF carries
    (CharFn.moments), or else cf_moments, which raises for a law without
    moments."""
    (mu1, var1), (mu2, var2) = (c.moments or cf_moments(c) for c in (cf1, cf2))
    return sd_window((mu1, math.sqrt(max(var1, 0.0))), (mu2, math.sqrt(max(var2, 0.0))), k)


def cf_decay_range(cf: CharFn) -> float:
    """Smallest t found with |phi(t)| < 1e-14, by scan plus bisection.

    Uses the closed-form decay_scale when the CF carries one.  Raises
    UndecayedCFError when |phi| still exceeds 1e-14 at t = 1e6; such a CF
    needs an explicit grid.  The search assumes the modulus envelope decays
    monotonically, which holds for the smooth CFs used here.
    """
    if cf.decay_scale is not None:
        return cf.decay_scale
    ts = np.geomspace(1e-3, 1e6, 200)
    below = np.abs(cf.phi(ts)) < _DECAY_THRESHOLD
    if not below.any():
        raise UndecayedCFError(
            f"|phi| did not fall below {_DECAY_THRESHOLD!r} up to t = 1e6 for "
            f"{cf.label or 'this CF'}; supply an explicit Grid2DConfig"
        )
    i = int(np.argmax(below))
    lo, hi = (float(ts[i - 1]) if i else 0.0), float(ts[i])
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if abs(cf.phi(np.array([mid]))[0]) < _DECAY_THRESHOLD:
            hi = mid
        else:
            lo = mid
    return hi


def auto_grid(cf1: CharFn, cf2: CharFn, n: int = 500) -> Grid2DConfig:
    """Grid2DConfig sized from the decay ranges of the two CFs.

    The inner range T_1 is where |phi_1| falls below 1e-14.  The outer
    range must cover the second factor's argument +-t2 - x*t1, whose mass
    sits on a diagonal strip offset by up to the whole inner range, so
    T_2 adds the two decay ranges.  Both are capped at _H_MAX * n so that
    the step h_i = T_i / n never exceeds _H_MAX = 0.05: slowly decaying CFs
    (chi-square tails shrink only polynomially) would otherwise produce
    steps far too coarse for the oscillatory integrand, and beyond the
    cap the 1/t2 factor has already suppressed the truncated tail.
    """
    if n < 1 or int(n) != n:
        raise GridError(f"n must be a positive integer, got {n!r}")
    d1 = cf_decay_range(cf1)
    d2 = cf_decay_range(cf2)
    t1 = min(d1, _H_MAX * n)
    t2 = min(d1 + d2, _H_MAX * n)
    return Grid2DConfig(N=int(n), h1=t1 / n, h2=t2 / n)
