"""Hake's normalized gain as a ratio of jointly normal class means.

Pure ``math``: the request generator (which must not load SciPy into the
program's process) and the SciPy reference both use it.
"""

from __future__ import annotations

import math
from typing import Dict, Tuple


def bivariate(h: Dict[str, float]) -> Tuple[float, float, float, float, float]:
    """(mu1, mu2, s1, s2, rho) of X1 = mean(post) - mean(pre), X2 = 100 - mean(pre).

    Over n paired scores, Var(mean(pre)) = sd_pre^2/n, Var(mean(post)) =
    sd_post^2/n and Cov = rho* sd_pre sd_post/n, so
    Var X1 = (sd_pre^2 + sd_post^2 - 2 rho* sd_pre sd_post)/n,
    Var X2 = sd_pre^2/n and Cov(X1, X2) = (sd_pre^2 - rho* sd_pre sd_post)/n.
    """
    pre, post = h["mu_pre"], h["mu_post"]
    sd_pre, sd_post, r, n = h["sd_pre"], h["sd_post"], h["rho_star"], h["n"]
    var1 = (sd_pre ** 2 + sd_post ** 2 - 2.0 * r * sd_pre * sd_post) / n
    var2 = sd_pre ** 2 / n
    cov = (sd_pre ** 2 - r * sd_pre * sd_post) / n
    s1, s2 = math.sqrt(var1), math.sqrt(var2)
    return post - pre, 100.0 - pre, s1, s2, cov / (s1 * s2)


def standardized(mu1: float, mu2: float, s1: float, s2: float, rho: float) -> Tuple[float, float]:
    """(a, b) >= 0 with X1/X2 an affine image of (a + V1)/(b + V2).

    Writing X1 = mu1 + s1 (rho Z2 + sqrt(1 - rho^2) Z1), X2 = mu2 + s2 Z2
    gives X1/X2 = rho s1/s2 + s1 sqrt(1 - rho^2)/s2 * (a0 + Z1)/(b0 + Z2);
    flipping the signs of Z1 and Z2 makes a0 and b0 nonnegative.
    """
    a0 = (mu1 / s1 - rho * mu2 / s2) / math.sqrt(1.0 - rho * rho)
    return abs(a0), abs(mu2 / s2)


def practical_window(mu1: float, mu2: float, s1: float, s2: float, k: float) -> Tuple[float, float]:
    """mean +/- k sd of the ratio's normal approximation (correlation ignored)."""
    mean = mu1 / mu2
    sd = math.sqrt(s1 * s1 + mean * mean * s2 * s2) / abs(mu2)
    return mean - k * sd, mean + k * sd
