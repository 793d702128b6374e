"""Reference values for the benchmark, computed with NumPy and SciPy only.

Nothing here imports ``ratiodist``: every number the benchmark checks the
program against comes from a separate derivation.

* Ratio of two jointly normal variables: Hinkley's (1969) density, written on
  ``scipy.special.ndtr``, and the CDF as a bivariate-normal probability,
  evaluated in closed form through Owen's T function.
* Independent normal / chi-square ratios (either way round): the Mellin
  integral ``int f1(x t) f2(x) |x| dx`` by ``scipy.integrate.quad_vec`` over
  ``scipy.stats`` densities, vectorized across the evaluation points.
* Single normal laws (the Gil-Pelaez cases): ``scipy.stats.norm``.
* Hake's normalized gain: the joint law of (mean(post) - mean(pre),
  100 - mean(pre)) derived from the score summaries in ``hake.py``.
* Modality: a count of visible peaks of the reference density.

A distribution is described by a plain dict (see ``pdf`` and ``cdf``), so
the launcher can hand request descriptions straight to this module.
"""

from __future__ import annotations

import math
from typing import Dict, Tuple

import numpy as np
from scipy import stats
from scipy.integrate import quad_vec
from scipy.special import ndtr, owens_t

import hake

Dist = Dict[str, object]

_QV = dict(epsabs=1e-15, epsrel=1e-12, norm="max", limit=20000)


# ---------------------------------------------------------------------------
# jointly normal ratios


def bivariate(dist: Dist) -> Tuple[float, float, float, float, float]:
    """(mu1, mu2, s1, s2, rho) of the numerator and denominator of ``dist``."""
    fam = dist["family"]
    if fam == "bivnormal":
        return (float(dist["mu1"]), float(dist["mu2"]), float(dist["s1"]),
                float(dist["s2"]), float(dist["rho"]))
    if fam == "std":
        return float(dist["a"]), float(dist["b"]), 1.0, 1.0, 0.0
    if fam == "hake":
        return hake.bivariate(dist)
    raise ValueError(f"not a normal ratio: {fam!r}")


def standardized(dist: Dist) -> Tuple[float, float]:
    return hake.standardized(*bivariate(dist))


def normal_ratio_pdf(dist: Dist, w: np.ndarray) -> np.ndarray:
    """Hinkley's (1969) density of X1/X2 for jointly normal (X1, X2)."""
    mu1, mu2, s1, s2, rho = bivariate(dist)
    w = np.asarray(w, dtype=float)
    one_m_r2 = 1.0 - rho * rho
    a2 = w * w / (s1 * s1) - 2.0 * rho * w / (s1 * s2) + 1.0 / (s2 * s2)
    a = np.sqrt(a2)
    b = mu1 * w / (s1 * s1) - rho * (mu1 + mu2 * w) / (s1 * s2) + mu2 / (s2 * s2)
    c = mu1 * mu1 / (s1 * s1) - 2.0 * rho * mu1 * mu2 / (s1 * s2) + mu2 * mu2 / (s2 * s2)
    d = np.exp((b * b - c * a2) / (2.0 * one_m_r2 * a2))
    z = b / (math.sqrt(one_m_r2) * a)
    first = b * d / (s1 * s2 * a2 * a) / math.sqrt(2.0 * math.pi) * (ndtr(z) - ndtr(-z))
    second = math.sqrt(one_m_r2) / (math.pi * s1 * s2 * a2) * math.exp(-c / (2.0 * one_m_r2))
    return first + second


def bvn_cdf(h: np.ndarray, k: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """P(U <= h, V <= k) for standard normals with correlation rho (Owen 1956).

    Phi2 = (Phi(h) + Phi(k))/2 - T(h, ah) - T(k, ak) - delta, with
    ah = (k - rho h)/(h sqrt(1 - rho^2)), ak likewise, and delta = 1/2 when
    h k < 0 (or h k = 0 with h + k < 0).  A zero h or k is moved to the
    smallest normal double, where the formula is continuous.
    """
    h, k, rho = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in (h, k, rho)))
    tiny = np.finfo(float).tiny
    h = np.where(h == 0.0, tiny, h)
    k = np.where(k == 0.0, tiny, k)
    root = np.sqrt(1.0 - rho * rho)
    with np.errstate(over="ignore"):  # T(h, +-inf) is finite and what the formula needs
        t = owens_t(h, (k - rho * h) / (h * root)) + owens_t(k, (h - rho * k) / (k * root))
    delta = np.where(h * k < 0.0, 0.5, 0.0)
    return 0.5 * (ndtr(h) + ndtr(k)) - t - delta


def normal_ratio_cdf(dist: Dist, w: np.ndarray) -> np.ndarray:
    """P(X1/X2 <= w) = P(Z <= 0, X2 > 0) + P(Z >= 0, X2 < 0), Z = X1 - w X2."""
    mu1, mu2, s1, s2, rho = bivariate(dist)
    w = np.asarray(w, dtype=float)
    mz = mu1 - w * mu2
    sz = np.sqrt(s1 * s1 - 2.0 * w * rho * s1 * s2 + w * w * s2 * s2)
    r = (rho * s1 * s2 - w * s2 * s2) / (sz * s2)
    hz, k = mz / sz, mu2 / s2
    return bvn_cdf(-hz, k, -r) + bvn_cdf(hz, -k, -r)


# ---------------------------------------------------------------------------
# independent ratios with a chi-square factor


def _normal(dist: Dist, key: str) -> stats.rv_continuous:
    mu, sigma = dist[key]
    return stats.norm(loc=float(mu), scale=float(sigma))


def _support_x(dist: Dist) -> float:
    # beyond this |x| the integrands below are below double precision
    if dist["family"] == "normal_chisq":
        return 40.0 + 20.0 * float(dist["k"])
    mu, sigma = dist["den"]
    return abs(float(mu)) + 40.0 * float(sigma)


def mellin_pdf(dist: Dist, t: np.ndarray) -> np.ndarray:
    """Density of an independent normal/chi-square ratio by quad_vec.

    normal_chisq: X1 ~ N(mu, sigma), X2 ~ chi2(k).  chisq_normal: the
    reverse.  The negative-x half of the Mellin integral is reflected onto
    (0, inf), so one integral over x > 0 covers every t at once.
    """
    t = np.asarray(t, dtype=float)
    k = float(dist["k"])
    chi = stats.chi2(k)
    if dist["family"] == "normal_chisq":
        num = _normal(dist, "num")

        def integrand(x: float) -> np.ndarray:
            return num.pdf(x * t) * chi.pdf(x) * x
    elif dist["family"] == "chisq_normal":
        den = _normal(dist, "den")

        def integrand(x: float) -> np.ndarray:
            return (chi.pdf(x * t) * den.pdf(x) + chi.pdf(-x * t) * den.pdf(-x)) * x
    else:
        raise ValueError(f"not a chi-square ratio: {dist['family']!r}")
    val, _ = quad_vec(integrand, 0.0, _support_x(dist), **_QV)
    return val


def mellin_cdf(dist: Dist, t: np.ndarray) -> np.ndarray:
    """CDF of normal/chi-square: int Phi((x t - mu)/sigma) chi2_k(x) dx."""
    if dist["family"] != "normal_chisq":
        raise ValueError("the chi-square CDF reference covers normal/chi-square only")
    t = np.asarray(t, dtype=float)
    num = _normal(dist, "num")
    chi = stats.chi2(float(dist["k"]))
    val, _ = quad_vec(lambda x: num.cdf(x * t) * chi.pdf(x), 0.0, _support_x(dist), **_QV)
    return val


# ---------------------------------------------------------------------------
# dispatch


def pdf(dist: Dist, x: np.ndarray) -> np.ndarray:
    fam = dist["family"]
    if fam in ("bivnormal", "std", "hake"):
        return normal_ratio_pdf(dist, x)
    if fam in ("normal_chisq", "chisq_normal"):
        return mellin_pdf(dist, x)
    if fam == "normal":
        mu, sigma = dist["params"]
        return stats.norm.pdf(np.asarray(x, dtype=float), loc=mu, scale=sigma)
    raise ValueError(f"unknown family {fam!r}")


def cdf(dist: Dist, x: np.ndarray) -> np.ndarray:
    fam = dist["family"]
    if fam in ("bivnormal", "std", "hake"):
        return normal_ratio_cdf(dist, x)
    if fam == "normal_chisq":
        return mellin_cdf(dist, x)
    if fam == "normal":
        mu, sigma = dist["params"]
        return stats.norm.cdf(np.asarray(x, dtype=float), loc=mu, scale=sigma)
    raise ValueError(f"unknown family {fam!r}")


def visible_modes(dist: Dist, floor: float = 1e-12, n: int = 1 << 15) -> int:
    """Peaks of the standardized reference density at or above ``floor``.

    The scan runs in theta = arctan(t) so both tails are covered, and a run
    of equal values counts once.
    """
    a, b = standardized(dist)
    theta = np.linspace(-math.pi / 2 + 1e-9, math.pi / 2 - 1e-9, n + 1)
    f = normal_ratio_pdf({"family": "std", "a": a, "b": b}, np.tan(theta))
    keep = np.concatenate(([True], np.diff(f) != 0.0))
    g = f[keep]
    inner = (g[1:-1] > g[:-2]) & (g[1:-1] > g[2:])
    return int(np.count_nonzero(g[1:-1][inner] >= floor))
