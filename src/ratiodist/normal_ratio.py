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
exponentials combined before exponentiating; since q^2 <= a^2 + b^2 by
Cauchy-Schwarz the working exponent is never positive, so the density
evaluates without overflow for arbitrarily large a and b.

The densities and CDFs take a float (giving a float) or a NumPy array of
points (giving an array of its shape); the densities vanish at +/-inf, and
a CDF grid is one batch of the DE sweep, each point's tail a row.

Also included: Marsaglia's (2006) modality rule of thumb, the practical
moments and normal approximation of Diaz-Frances and Rubio (2013), and the
mapping of Hake's (1998) normalized learning gain onto ratio parameters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Tuple, Union

import numpy as np

from .errors import InvalidParamsError
from .quadrature import QuadratureConfig, integrate_half_lines
from .special import SQRT_HALF_PI, INV_SQRT_2, erf, like, points, std_normal_cdf

# Marsaglia's bimodality onset: for a >= A0 the density has two modes for every b
MODALITY_A0 = 2.256058904

_MODALITY_COEFFS = (18.621, -63.411, 84.041, -54.668, 17.716, -2.2986)


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


def std_ratio_pdf(sr: StdRatioParams, t):
    """Density of T = (a + V1)/(b + V2) at t, overflow-safe for large a, b."""
    tt = points(t, "std_ratio_pdf")
    inf = np.isinf(tt)
    tt = np.where(inf, 0.0, tt)
    a, b = sr.a, sr.b
    # 1 + t^2 or pi (1 + t^2) is inf for |t| above about 7.6e153: q = 0, density 0
    with np.errstate(over="ignore"):
        one_plus_t2 = 1.0 + tt * tt
        pi_one_plus_t2 = math.pi * one_plus_t2
    q = (b + a * tt) / np.sqrt(one_plus_t2)
    half_c = 0.5 * (a * a + b * b)
    # q^2/2 - (a^2+b^2)/2 <= 0 always, so neither exponential can overflow
    core = np.exp(0.5 * q * q - half_c) * SQRT_HALF_PI * q * erf(q * INV_SQRT_2)
    density = (core + math.exp(-half_c)) / pi_one_plus_t2
    return like(t, np.where(inf, 0.0, density))


def ratio_pdf_phamgia(p: BivNormalParams, w):
    """Ratio density at w via standardization plus the affine change of variables."""
    sr, tr = to_standard(p)
    return std_ratio_pdf(sr, (w - tr.shift) / tr.scale) / abs(tr.scale)


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
    # b(w)^2 <= c a(w)^2, so the exponent of d(w) is never positive
    dw = np.exp((bw * bw - c * aw2) / (2.0 * one_m_r2 * aw2))
    z = bw / (math.sqrt(one_m_r2) * aw)
    leading = bw * dw / (math.sqrt(2.0 * math.pi) * s1 * s2 * aw2 * aw)
    first = leading * (std_normal_cdf(z) - std_normal_cdf(-z))
    second = math.sqrt(one_m_r2) / (math.pi * s1 * s2 * aw2) * math.exp(-c / (2.0 * one_m_r2))
    return like(w, np.where(inf, 0.0, (first + second) * im * im))


_CDF_CFG = QuadratureConfig(rel_tol=1e-12, abs_floor=1e-14)


def std_ratio_cdf(
    sr: StdRatioParams,
    t,
    cfg: Optional[QuadratureConfig] = None,
):
    """CDF of T at t by adaptive integration of the closed-form density.

    The tail on the far side of the practical center is integrated, which
    keeps the quadrature short and the result accurate near both 0 and 1.
    """
    cfg = cfg or _CDF_CFG
    tt = points(t, "std_ratio_cdf")
    flat = tt.ravel()
    center = sr.a / sr.b if sr.b > 0.0 else 0.0
    side = np.where(flat <= center, -1.0, 1.0)
    mass = integrate_half_lines(
        lambda idx, u: std_ratio_pdf(sr, flat[idx, None] + side[idx, None] * u), flat.shape[0], cfg)
    cdf = np.minimum(np.maximum(np.where(side < 0.0, mass, 1.0 - mass), 0.0), 1.0)
    return like(t, cdf.reshape(tt.shape))


def ratio_cdf(
    p: BivNormalParams,
    w,
    cfg: Optional[QuadratureConfig] = None,
):
    """CDF of W = X1/X2 at w through the standardized representation."""
    sr, tr = to_standard(p)
    ft = std_ratio_cdf(sr, (w - tr.shift) / tr.scale, cfg)
    return ft if tr.scale > 0.0 else 1.0 - ft


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


def _count_visible_modes(sr: StdRatioParams, floor: float) -> int:
    # scan in theta = arctan(t); the compactified axis covers both tails
    theta = np.linspace(-math.pi / 2 + 1e-9, math.pi / 2 - 1e-9, 16385)
    # four chunks keep the temporaries of one std_ratio_pdf call small
    f = np.concatenate([std_ratio_pdf(sr, np.tan(part)) for part in np.array_split(theta, 4)])
    d = np.sign(np.diff(f))
    # flat runs inherit the preceding trend so plateaus count once
    d = d[np.maximum.accumulate(np.where(d != 0.0, np.arange(d.size), 0))]
    flips = np.nonzero((d[:-1] > 0) & (d[1:] < 0))[0]
    peaks = f[flips + 1]
    return int(np.count_nonzero(peaks >= floor))


def classify_modality(
    sr: StdRatioParams,
    practical: bool = True,
    mode_floor: float = 1e-12,
) -> Modality:
    """Shape of the canonical ratio density: one mode or two.

    The theoretical verdict is Marsaglia's rule of thumb: unimodal for
    a <= 1, bimodal for a >= A0 = 2.256058904, and decided by the fitted
    critical curve in between (ties go to unimodal).

    With practical=True (default) a theoretical second mode is ignored when
    its peak density falls below mode_floor: at Hake-like parameters such as
    (a, b) = (5, 25) the minor mode is far below anything observable, and
    reporting it would mislead users of the classification.
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
        if _count_visible_modes(sr, mode_floor) < 2:
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
