"""Seeded Monte Carlo cross-checks for ratio distributions.

Sampling uses the Philox counter-based generator so streams reproduce
across platforms and languages.  Draws are produced in fixed-size chunks,
each chunk from its own substream keyed by (seed, chunk index): numerator
chunk i uses key (seed, 2i), denominator chunk i uses key (seed, 2i + 1).
A parallel implementation filling chunks out of order would therefore
produce bit-identical sample sets.

Normal variates come from the Box-Muller transform applied to Philox
uniforms (not the platform default normal method), because the exact
sample stream is part of the test contract.  ks_distance implements the
two-sided sorted-sample formula

    D_n = max_i max(i/n - F(x_(i)), F(x_(i)) - (i-1)/n).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import InvalidParamsError
from .normal_ratio import StdRatioParams, std_ratio_pdf

__all__ = [
    "Sampler",
    "SampleSet",
    "normal_sampler",
    "uniform_sampler",
    "chi_square_sampler",
    "mc_ratio_samples",
    "ks_distance",
    "reference_pdf_grid",
]

_CHUNK = 1 << 19
_DENOM_FLOOR = 1e-300


def _box_muller(gen: np.random.Generator, m: int) -> np.ndarray:
    """m standard normals from Philox uniforms via Box-Muller."""
    pairs = (m + 1) // 2
    # 1 - random() lies in (0, 1], keeping the log argument away from 0
    u1 = 1.0 - gen.random(pairs)
    u2 = gen.random(pairs)
    r = np.sqrt(-2.0 * np.log(u1))
    theta = 2.0 * math.pi * u2
    z = np.concatenate([r * np.cos(theta), r * np.sin(theta)])
    return z[:m]


@dataclass(frozen=True)
class Sampler:
    """Distribution descriptor: draw(gen, m) -> m variates from gen's stream."""

    draw: Callable[[np.random.Generator, int], np.ndarray]
    label: str = ""


def normal_sampler(mu: float, sigma: float) -> Sampler:
    if not (sigma > 0.0) or not math.isfinite(sigma) or not math.isfinite(mu):
        raise InvalidParamsError(f"normal_sampler needs finite mu and sigma > 0, got ({mu!r}, {sigma!r})")

    def draw(gen: np.random.Generator, m: int) -> np.ndarray:
        return mu + sigma * _box_muller(gen, m)

    return Sampler(draw, f"normal({mu:g},{sigma:g})")


def uniform_sampler(lo: float, hi: float) -> Sampler:
    if not (lo < hi) or not math.isfinite(lo) or not math.isfinite(hi):
        raise InvalidParamsError(f"uniform_sampler needs finite lo < hi, got ({lo!r}, {hi!r})")

    def draw(gen: np.random.Generator, m: int) -> np.ndarray:
        return lo + (hi - lo) * gen.random(m)

    return Sampler(draw, f"uniform({lo:g},{hi:g})")


def chi_square_sampler(k: int) -> Sampler:
    """Chi-square with k degrees of freedom as a sum of k squared normals."""
    if k < 1 or int(k) != k:
        raise InvalidParamsError(f"degrees of freedom must be a positive integer, got {k!r}")
    k = int(k)

    def draw(gen: np.random.Generator, m: int) -> np.ndarray:
        z = _box_muller(gen, m * k)
        return (z * z).reshape(k, m).sum(axis=0)

    return Sampler(draw, f"chi2({k})")


@dataclass(frozen=True)
class SampleSet:
    """Reproducible draws: same seed and distributions give identical values."""

    values: np.ndarray
    seed: int
    n: int
    redraws: int = 0


def _substream(seed: int, index: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=np.array([seed, index], dtype=np.uint64)))


def mc_ratio_samples(dist1: Sampler, dist2: Sampler, n: int, seed: int) -> SampleSet:
    """n seeded draws of X1/X2 from independent Philox substreams.

    Denominator draws with |X2| < 1e-300 are redrawn from the same
    substream until acceptable; the total number of redraws is recorded.
    """
    if n < 1 or int(n) != n:
        raise InvalidParamsError(f"n must be a positive integer, got {n!r}")
    if not (0 <= seed < 2**64) or int(seed) != seed:
        raise InvalidParamsError(f"seed must be a 64-bit unsigned integer, got {seed!r}")
    n, seed = int(n), int(seed)

    out = np.empty(n)
    redraws = 0
    for chunk, start in enumerate(range(0, n, _CHUNK)):
        m = min(_CHUNK, n - start)
        g1 = _substream(seed, 2 * chunk)
        g2 = _substream(seed, 2 * chunk + 1)
        x1 = dist1.draw(g1, m)
        x2 = dist2.draw(g2, m)
        while True:
            bad = np.flatnonzero(np.abs(x2) < _DENOM_FLOOR)
            if bad.size == 0:
                break
            redraws += bad.size
            x2[bad] = dist2.draw(g2, bad.size)
        out[start : start + m] = x1 / x2
    return SampleSet(values=out, seed=seed, n=n, redraws=redraws)


def ks_distance(samples: SampleSet, cdf: Callable[[np.ndarray], np.ndarray]) -> float:
    """Sup-norm distance between the empirical CDF and cdf.

    cdf maps an array to an array of the same shape; it is called once, on
    the sorted sample array, and whatever it raises propagates.
    """
    xs = np.sort(np.asarray(samples.values, dtype=float))
    n = xs.size
    fv = np.asarray(cdf(xs), dtype=float)
    if fv.shape != xs.shape:
        raise InvalidParamsError(
            f"cdf must map an array to an array of the same shape; got {fv.shape} for {xs.shape}"
        )
    i = np.arange(1, n + 1)
    d_plus = np.max(i / n - fv)
    d_minus = np.max(fv - (i - 1) / n)
    return float(max(d_plus, d_minus))


def reference_pdf_grid(a: float, b: float, grid: Sequence[float]) -> np.ndarray:
    """Closed-form standardized-ratio density over grid, the benchmark reference.

    Double precision: the closed form is accurate to a few ulp, which sets
    the ~1e-13 floor quoted in the accuracy contracts.
    """
    sr = StdRatioParams(a, b)
    xs = np.asarray(grid, dtype=float)
    if xs.ndim != 1:
        raise InvalidParamsError(f"grid must be one-dimensional, got shape {xs.shape}")
    if not np.all(np.isfinite(xs)):
        raise InvalidParamsError("grid values must be finite")
    return std_ratio_pdf(sr, xs)
