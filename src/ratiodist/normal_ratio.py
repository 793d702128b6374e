"""Distribution of the ratio of two (possibly correlated) normal variables.

Two equivalent closed forms of the density are provided.  The direct form
follows Hinkley (1969).  The standardized form follows Pham-Gia, Turkkan and
Marchand (2006): any ratio W = X1/X2 of jointly normal variables reduces by
an affine map W = scale * T + shift to the canonical variable

    T = (a + V1) / (b + V2),   V1, V2 iid N(0, 1),  a >= 0, b >= 0,

whose density is

    f_T(t) = exp(-(a^2+b^2)/2) / (pi (1+t^2)) * 1F1(1; 1/2; q^2/2),
    q(t) = (b + a t) / sqrt(1 + t^2).

The Kummer function is expanded through its erf closed form with the two
exponentials combined before exponentiating.  With r(t) = (a - b t) /
sqrt(1 + t^2), q^2 + r^2 = a^2 + b^2 exactly, so the working exponent
q^2/2 - (a^2+b^2)/2 is -r^2/2: never positive, so the density evaluates
without overflow for arbitrarily large a and b, and formed without the
cancellation of two large terms.

The CDF is a closed form too, with no quadrature: T <= t exactly when
V1 - t V2 and -V2 fall on the same side of their thresholds, so (Hinkley
1969), with s = hypot(1, t) and h = (t b - a)/s,

    F_T(t) = Phi2(h, b; t/s) + Phi2(-h, -b; t/s),

two bivariate normal probabilities (special.bvn_cdf, after Genz 2004).  The
tail beyond the centre a/b is evaluated as the other orientation's lower
tail, so neither tail loses its small values to 1 - F.

The densities and CDFs take a float (giving a float) or a NumPy array of
points (giving an array of its shape); the densities vanish at +/-inf, and
the CDFs reach exactly 0 and 1 there.

Also included: Marsaglia's (2006) modality rule of thumb, the practical
moments and normal approximation of Diaz-Frances and Rubio (2013), and the
mapping of Hake's (1998) normalized learning gain onto ratio parameters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Tuple, Union

import numpy as np

from .errors import InvalidParamsError
from .special import SQRT_HALF_PI, INV_SQRT_2, bvn_cdf, clamp_cdf, erf, like, points, std_normal_cdf

# Marsaglia's bimodality onset: for a >= A0 the density has two modes for every b
MODALITY_A0 = 2.256058904

_MODALITY_COEFFS = (18.621, -63.411, 84.041, -54.668, 17.716, -2.2986)
_MODE_FLOOR = 1e-12  # the lowest peak density classify_modality(practical=True) counts


class Modality(str, Enum):
    UNIMODAL = "unimodal"
    BIMODAL = "bimodal"


@dataclass(frozen=True)
class BivNormalParams:
    """Parameters of (X1, X2) jointly normal; W = X1/X2 is the ratio."""

    mu1: float
    mu2: float
    sigma1: float
    sigma2: float
    rho: float

    def __post_init__(self) -> None:
        for name in ("mu1", "mu2", "sigma1", "sigma2", "rho"):
            if not math.isfinite(getattr(self, name)):
                raise InvalidParamsError(f"{name} must be finite, got {getattr(self, name)!r}")
        if self.sigma1 <= 0.0 or self.sigma2 <= 0.0:
            raise InvalidParamsError(
                f"scales must be positive, got sigma1={self.sigma1!r}, sigma2={self.sigma2!r}"
            )
        if not (-1.0 < self.rho < 1.0):
            raise InvalidParamsError(f"correlation must satisfy |rho| < 1, got {self.rho!r}")


@dataclass(frozen=True)
class StdRatioParams:
    """Canonical parameters of T = (a + V1)/(b + V2), both nonnegative."""

    a: float
    b: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.a) and math.isfinite(self.b)):
            raise InvalidParamsError(f"a, b must be finite, got ({self.a!r}, {self.b!r})")
        if self.a < 0.0 or self.b < 0.0:
            raise InvalidParamsError(f"a, b must be nonnegative, got ({self.a!r}, {self.b!r})")


@dataclass(frozen=True)
class RatioTransform:
    """Affine map W = scale * T + shift recovering the raw ratio from T.

    scale carries the sign absorbed while forcing a >= 0; densities map as
    f_W(w) = f_T((w - shift)/scale) / |scale|.
    """

    scale: float
    shift: float


@dataclass(frozen=True)
class HakeInputs:
    """Course-level summary statistics behind a normalized learning gain.

    Scores are percentages, so the gain denominator is 100 - pre-test mean.
    rho_star is the pre/post score correlation and n the class size.
    """

    mu_pre: float
    mu_post: float
    sd_pre: float
    sd_post: float
    rho_star: float
    n: int

    def __post_init__(self) -> None:
        for name in ("mu_pre", "mu_post", "sd_pre", "sd_post", "rho_star", "n"):
            if not math.isfinite(getattr(self, name)):
                raise InvalidParamsError(f"{name} must be finite, got {getattr(self, name)!r}")
        if self.mu_pre >= 100.0:
            # gains are normalized by 100 - mu_pre, which must stay positive
            raise InvalidParamsError(f"mu_pre must be below 100, got {self.mu_pre!r}")
        if self.sd_pre <= 0.0 or self.sd_post <= 0.0:
            raise InvalidParamsError("score standard deviations must be positive")
        if not (-1.0 < self.rho_star < 1.0):
            raise InvalidParamsError(f"|rho_star| < 1 required, got {self.rho_star!r}")
        if int(self.n) != self.n or self.n < 1:
            raise InvalidParamsError(f"n must be a positive integer, got {self.n!r}")


@dataclass(frozen=True)
class PracticalMoments:
    mean: float
    variance: float

    @property
    def sd(self) -> float:
        return math.sqrt(self.variance)


def to_standard(p: BivNormalParams) -> Tuple[StdRatioParams, RatioTransform]:
    """Reduce W = X1/X2 to canonical T = (a + V1)/(b + V2), a, b >= 0.

    Signs are normalized in two steps that leave the law of T unchanged:
    (V1, V2) -> (-V1, -V2) makes b nonnegative, then V1 -> -V1 makes a
    nonnegative while flipping the sign of the affine scale.
    """
    den = math.sqrt(1.0 - p.rho * p.rho)
    a0 = (p.mu1 / p.sigma1 - p.rho * p.mu2 / p.sigma2) / den
    b0 = p.mu2 / p.sigma2
    if b0 < 0.0:
        a0, b0 = -a0, -b0
    sign = -1.0 if a0 < 0.0 else 1.0
    scale = sign * (p.sigma1 / p.sigma2) * den
    shift = p.rho * p.sigma1 / p.sigma2
    return StdRatioParams(abs(a0), b0), RatioTransform(scale, shift)


def _q_r(a: float, b: float, t: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """q(t) = (b + a t)/sqrt(1 + t^2) and r(t) = (a - b t)/sqrt(1 + t^2)."""
    root = np.sqrt(1.0 + t * t)
    return (b + a * t) / root, (a - b * t) / root


def std_ratio_pdf(sr: StdRatioParams, t):
    """Density of T = (a + V1)/(b + V2) at t, overflow-safe for large a, b."""
    tt = points(t, "std_ratio_pdf")
    a, b = sr.a, sr.b
    # pi (1 + t^2) is inf for |t| above about 7.6e153: the density is 0 there
    with np.errstate(over="ignore"):
        pi_one_plus_t2 = math.pi * (1.0 + tt * tt)
    far = np.isinf(pi_one_plus_t2)
    q, r = _q_r(a, b, np.where(far, 0.0, tt))
    # q^2/2 - (a^2+b^2)/2 = -r^2/2 <= 0, so neither exponential can overflow
    core = np.exp(-0.5 * r * r) * SQRT_HALF_PI * q * erf(q * INV_SQRT_2)
    density = (core + math.exp(-0.5 * (a * a + b * b))) / pi_one_plus_t2
    return like(t, np.where(far, 0.0, density))


def ratio_pdf_phamgia(p: BivNormalParams, w):
    """Ratio density at w via standardization plus the affine change of variables."""
    sr, tr = to_standard(p)
    with np.errstate(over="ignore"):  # an infinite t is the density's limit
        t = (w - tr.shift) / tr.scale
    return std_ratio_pdf(sr, t) / abs(tr.scale)


def ratio_pdf_hinkley(p: BivNormalParams, w):
    """Ratio density at w in Hinkley's (1969) direct parametrization.

    Agrees with ratio_pdf_phamgia to within a few ulps; both are kept so each
    can serve as a cross-check of the other.
    """
    ww = points(w, "ratio_pdf_hinkley")
    inf = np.isinf(ww)
    # a(w)^2 and b(w) are m^2 and m times the same forms in v = w/m and 1/m for
    # w and 1; with m = max(1, |w|) nothing overflows, d(w) and z keep their
    # values, and the density is m^-2 times the scaled expression
    ww = np.where(inf, 0.0, ww)
    m = np.maximum(1.0, np.abs(ww))
    v, im = ww / m, 1.0 / m
    s1, s2, rho = p.sigma1, p.sigma2, p.rho
    one_m_r2 = 1.0 - rho * rho
    aw2 = v * v / (s1 * s1) - 2.0 * rho * v * im / (s1 * s2) + im * im / (s2 * s2)
    aw = np.sqrt(aw2)
    bw = (p.mu1 * v / (s1 * s1) - rho * (p.mu1 * im + p.mu2 * v) / (s1 * s2)
          + p.mu2 * im / (s2 * s2))
    c = (
        p.mu1 * p.mu1 / (s1 * s1)
        - 2.0 * rho * p.mu1 * p.mu2 / (s1 * s2)
        + p.mu2 * p.mu2 / (s2 * s2)
    )
    # b(w)^2 - c a(w)^2 = -(1 - rho^2) (mu1 - mu2 w)^2 / (s1 s2)^2 exactly, so
    # the exponent of d(w) is -e^2 / (2 a(w)^2), never positive, with no
    # cancellation of two large terms
    e = (p.mu1 * im - p.mu2 * v) / (s1 * s2)
    dw = np.exp(-e * e / (2.0 * aw2))
    z = bw / (math.sqrt(one_m_r2) * aw)
    leading = bw * dw / (math.sqrt(2.0 * math.pi) * s1 * s2 * aw2 * aw)
    first = leading * (std_normal_cdf(z) - std_normal_cdf(-z))
    second = math.sqrt(one_m_r2) / (math.pi * s1 * s2 * aw2) * math.exp(-c / (2.0 * one_m_r2))
    return like(w, np.where(inf, 0.0, (first + second) * im * im))


# past |t| = 1e17 the CDF takes Phi2 at its limit |rho| = 1: the strip of
# width sqrt(1 - rho^2) = 1/s that the limit drops holds less than 1e-17
_RHO_LIMIT_T = 1e17
# below this, a factor splits into 27-bit halves without overflow
_SPLIT_MAX = 1e150


def _product_error(x, y, p):
    """x y - p exactly, for p the rounded product x y (Dekker 1971)."""
    def halves(v):
        hi = v * 134217729.0  # 2^27 + 1
        hi = hi - (hi - v)
        return hi, v - hi

    (xh, xl), (yh, yl) = halves(x), halves(y)
    return ((xh * yh - p) + xh * yl + xl * yh) + xl * yl


def _cdf(a: float, b: float, t: np.ndarray) -> np.ndarray:
    """F_T(t) for T = (a + V1)/(b + V2), a of either sign, b >= 0, t a float array.

    Hinkley (1969): with s = hypot(1, t), T <= t exactly when U = (V1 - t V2)/s
    and -V2 lie on the same side of h = (t b - a)/s and of b, and
    corr(U, -V2) = t/s, so F_T(t) = Phi2(h, b; t/s) + Phi2(-h, -b; t/s); both
    terms go to one bvn_cdf call.  A point right of the centre a/b takes the
    upper tail, P(T > t) = F at (-a, -t), so that neither tail is a
    difference from 1.  bvn_cdf gets sqrt(1 - rho^2) as 1/s, exact where
    t/s has rounded to +/-1 (|t| past ~1e8).
    """
    flat = t.ravel()
    n = flat.shape[0]
    upper = flat > (a / b if b > 0.0 else 0.0)
    sign = np.where(upper, -1.0, 1.0)
    u = sign * flat  # never +inf; -inf is the tail's limit 0
    at_inf = np.isinf(u)
    u = np.where(at_inf, 0.0, u)
    s = np.hypot(1.0, u)
    rho, rho_c = u / s, np.where(np.abs(u) < _RHO_LIMIT_T, 1.0 / s, 0.0)
    sa = sign * a
    # near the centre t b - a cancels: form it with the product's rounding
    # error, where the 27-bit halves of that product cannot overflow
    exact = (np.abs(u) < _SPLIT_MAX) & (b < _SPLIT_MAX)
    ue = np.where(exact, u, 0.0)
    prod = ue * b
    h = np.where(exact, ((prod - sa) + _product_error(ue, b, prod)) / s, rho * b - sa / s)
    both = bvn_cdf(np.concatenate([h, -h]), np.repeat([b, -b], n),
                   np.tile(rho, 2), np.tile(rho_c, 2))
    tail = np.where(at_inf, 0.0, both[:n] + both[n:])
    return np.where(upper, 1.0 - tail, tail).reshape(t.shape)


def std_ratio_cdf(sr: StdRatioParams, t):
    """CDF of T at t in closed form, through two bivariate normal probabilities."""
    tt = points(t, "std_ratio_cdf")
    return like(t, clamp_cdf(_cdf(sr.a, sr.b, tt)))


def ratio_cdf(p: BivNormalParams, w):
    """CDF of W = X1/X2 at w through the standardized representation.

    W = scale T + shift; a negative scale turns F_W(w) into P(T >= t),
    which is the CDF of (-a + V1)/(b + V2) at -t, so it is evaluated as such.
    """
    ww = points(w, "ratio_cdf")
    sr, tr = to_standard(p)
    with np.errstate(over="ignore"):  # an infinite argument is the CDF's limit
        u = (ww - tr.shift) / abs(tr.scale)
    return like(w, clamp_cdf(_cdf(math.copysign(sr.a, tr.scale), sr.b, u)))


def hake_params(h: HakeInputs) -> BivNormalParams:
    """Joint normal parameters of the gain numerator and denominator.

    For class means over n paired scores, X1 = mean(post) - mean(pre) and
    X2 = 100 - mean(pre) are jointly normal with

        n sigma1^2 = sd_pre^2 + sd_post^2 - 2 sd_pre sd_post rho_star
        n sigma2^2 = sd_pre^2
        rho        = (sd_pre - rho_star sd_post) / (sqrt(n) sigma1)
    """
    s_sq = h.sd_pre**2 + h.sd_post**2 - 2.0 * h.sd_pre * h.sd_post * h.rho_star
    if s_sq <= 0.0:
        raise InvalidParamsError("gain numerator has zero variance; scores are degenerate")
    root_n = math.sqrt(h.n)
    return BivNormalParams(
        mu1=h.mu_post - h.mu_pre,
        mu2=100.0 - h.mu_pre,
        sigma1=math.sqrt(s_sq) / root_n,
        sigma2=h.sd_pre / root_n,
        rho=(h.sd_pre - h.rho_star * h.sd_post) / math.sqrt(s_sq),
    )


def modality_curve(a: float) -> float:
    """Critical b separating one mode from two, for 1 <= a < A0.

    Marsaglia's (2006) quintic fit divided by (A0 - a); below the curve the
    density is bimodal, above it unimodal.
    """
    if not (1.0 <= a < MODALITY_A0):
        raise InvalidParamsError(
            f"the modality curve is defined for 1 <= a < {MODALITY_A0}, got {a!r}"
        )
    c = _MODALITY_COEFFS
    num = c[0] + a * (c[1] + a * (c[2] + a * (c[3] + a * (c[4] + a * c[5]))))
    return num / (MODALITY_A0 - a)


def _count_visible_modes(sr: StdRatioParams) -> int:
    # scan in theta = arctan(t); the compactified axis covers both tails
    theta = np.linspace(-math.pi / 2 + 1e-9, math.pi / 2 - 1e-9, 16385)
    a, b = sr.a, sr.b
    e0 = math.exp(-0.5 * (a * a + b * b))
    f = np.zeros_like(theta)
    # four chunks keep the temporaries of one std_ratio_pdf call small
    for part in np.array_split(np.arange(theta.size), 4):
        t = np.tan(theta[part])
        q, r = _q_r(a, b, t)
        # std_ratio_pdf's terms with |erf| <= 1 bound the density; where the
        # bound stays below half the floor the scan keeps 0 (classify_modality)
        bound = (e0 + SQRT_HALF_PI * np.abs(q) * np.exp(-0.5 * r * r)) / (math.pi * (1.0 + t * t))
        live = bound >= 0.5 * _MODE_FLOOR
        f[part[live]] = std_ratio_pdf(sr, t[live])
    d = np.sign(np.diff(f))
    # flat runs inherit the preceding trend so plateaus count once
    d = d[np.maximum.accumulate(np.where(d != 0.0, np.arange(d.size), 0))]
    flips = np.nonzero((d[:-1] > 0) & (d[1:] < 0))[0]
    peaks = f[flips + 1]
    return int(np.count_nonzero(peaks >= _MODE_FLOOR))


def classify_modality(sr: StdRatioParams, practical: bool = True) -> Modality:
    """Shape of the canonical ratio density: one mode or two.

    The theoretical verdict is Marsaglia's rule of thumb: unimodal for
    a <= 1, bimodal for a >= A0 = 2.256058904, and decided by the fitted
    critical curve in between (ties go to unimodal).

    With practical=True (default) a theoretical second mode is ignored when
    its peak density falls below _MODE_FLOOR = 1e-12: at Hake-like
    parameters such as (a, b) = (5, 25) the minor mode is far below
    anything observable, and reporting it would mislead users of the
    classification.

    The modes are counted on a 16,385-point scan of the density, which is
    evaluated only where the upper bound

        f_T(t) <= (exp(-(a^2+b^2)/2) + sqrt(pi/2) |q| exp(-r^2/2)) / (pi (1+t^2)),

    std_ratio_pdf's terms with |erf| <= 1, reaches _MODE_FLOOR/2; the other
    scan points are set to 0.  That leaves the count, and so the verdict, as
    the full scan gives it.  A counted peak and every point of its plateau
    have density >= _MODE_FLOOR, so they are evaluated.  A point set to 0
    had a density below _MODE_FLOOR/2, under the peak, before too, so the
    signs of the differences that make or unmake a counted peak are
    unchanged.  A new peak among zeros would have density 0, below the floor.
    """
    a, b = sr.a, sr.b
    if a <= 1.0:
        return Modality.UNIMODAL
    if a >= MODALITY_A0:
        verdict = Modality.BIMODAL
    else:
        critical = modality_curve(a)
        verdict = Modality.BIMODAL if b < critical else Modality.UNIMODAL
    if verdict is Modality.BIMODAL and practical:
        if _count_visible_modes(sr) < 2:
            return Modality.UNIMODAL
    return verdict


def ratio_practical_moments(
    mu1: float, sd1: float, mu2: float, sd2: float
) -> PracticalMoments:
    """First two practical moments of a ratio with near-Gaussian factors.

    mean = mu1/mu2 and variance = mean^2 (delta1^2 + delta2^2) with
    delta_i = sd_i/mu_i, written in product form so mu1 = 0 is allowed.
    """
    if mu2 == 0.0:
        raise InvalidParamsError("practical moments need a nonzero denominator mean")
    if sd1 <= 0.0 or sd2 <= 0.0:
        raise InvalidParamsError("practical moments need positive scales")
    mean = mu1 / mu2
    variance = (sd1 * sd1 + mean * mean * sd2 * sd2) / (mu2 * mu2)
    return PracticalMoments(mean, variance)


def sd_window(m1: Tuple[float, float], m2: Tuple[float, float], k: float
              ) -> Tuple[float, float]:
    """Evaluation interval for X1/X2 from the (mean, sd) of each factor.

    Normally mean +/- k practical standard deviations of the ratio, from
    ratio_practical_moments (Diaz-Frances and Rubio 2013).  When the
    denominator mean is indistinguishable from 0 (|mu2| <= 1e-6 sd2) the
    ratio mean is meaningless, so the window is the union of the factors'
    k-sd intervals.  It takes sds, not variances: an sd below about 1.5e-154
    squares to a variance of 0.
    """
    if k <= 0.0:
        raise InvalidParamsError(f"k must be positive, got {k!r}")
    (mu1, sd1), (mu2, sd2) = m1, m2
    if abs(mu2) > 1e-6 * sd2:
        m = ratio_practical_moments(mu1, sd1, mu2, sd2)
        return (m.mean - k * m.sd, m.mean + k * m.sd)
    return (min(mu1 - k * sd1, mu2 - k * sd2), max(mu1 + k * sd1, mu2 + k * sd2))


def practical_moments(p: Union[StdRatioParams, BivNormalParams]) -> PracticalMoments:
    """Practical mean and variance of the ratio described by p."""
    if isinstance(p, StdRatioParams):
        if p.b == 0.0:
            raise InvalidParamsError("practical moments are undefined for b = 0")
        if p.a == 0.0:
            # delta1 = 1/a: the standardized numerator has no relative scale
            raise InvalidParamsError("practical moments are undefined for a = 0")
        return ratio_practical_moments(p.a, 1.0, p.b, 1.0)
    if isinstance(p, BivNormalParams):
        return ratio_practical_moments(p.mu1, p.sigma1, p.mu2, p.sigma2)
    raise InvalidParamsError(f"unsupported parameter type {type(p).__name__}")


def evaluation_interval(
    p: Union[StdRatioParams, BivNormalParams],
    k: float = 2.0,
) -> Tuple[float, float]:
    """Interval mean +/- k practical standard deviations.

    The default k = 2 gives a compact window around the bulk of the mass;
    callers wanting published wider windows pass the endpoints explicitly.
    k = 0 degenerates to the point (mean, mean).
    """
    if k < 0.0:
        raise InvalidParamsError(f"k must be nonnegative, got {k!r}")
    m = practical_moments(p)
    return (m.mean - k * m.sd, m.mean + k * m.sd)


def normal_approx_cdf(z: float, mu: float, delta1: float, delta2: float) -> float:
    """Normal approximation to the ratio CDF with practical moments.

    G(z) = Phi((z - mu) / (mu sqrt(delta1^2 + delta2^2))), the approximation
    of Diaz-Frances and Rubio (2013); accurate when both deltas are small.
    """
    if mu == 0.0:
        raise InvalidParamsError("the approximation is undefined at mu = 0")
    if delta1 <= 0.0 or delta2 <= 0.0:
        raise InvalidParamsError("delta1, delta2 must be positive")
    return std_normal_cdf((z - mu) / (mu * math.hypot(delta1, delta2)))


def cohens_d(mu_post: float, mu_pre: float, sd: float) -> float:
    """Standardized mean difference (mu_post - mu_pre)/sd."""
    if sd <= 0.0:
        raise InvalidParamsError(f"sd must be positive, got {sd!r}")
    return (mu_post - mu_pre) / sd
