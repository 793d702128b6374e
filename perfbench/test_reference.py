"""Tests of the benchmark's SciPy reference against known values.

Run with ``python3 -m pytest perfbench/test_reference.py -q``.
"""

import math

import numpy as np
import pytest
from scipy import integrate, stats

import hake
import reference as ref


def test_standard_cauchy_density_and_cdf():
    cauchy = {"family": "std", "a": 0.0, "b": 0.0}
    assert ref.pdf(cauchy, np.array([0.0]))[0] == pytest.approx(1.0 / math.pi, rel=1e-15)
    x = np.array([-30.0, -1.0, 0.0, 0.5, 7.0])
    np.testing.assert_allclose(ref.pdf(cauchy, x), stats.cauchy.pdf(x), rtol=1e-14)
    np.testing.assert_allclose(ref.cdf(cauchy, x), stats.cauchy.cdf(x), rtol=1e-13, atol=1e-15)


@pytest.mark.parametrize("h,k,rho", [(0.3, -1.2, 0.4), (-2.0, 1.5, -0.7), (0.0, 0.8, 0.2),
                                     (1.0, 0.0, -0.5), (0.0, 0.0, 0.6), (-0.4, -0.9, 0.0)])
def test_bivariate_normal_probability(h, k, rho):
    # condition on U: P(U <= h, V <= k) = int_{-inf}^h phi(u) Phi((k - rho u)/sqrt(1 - rho^2)) du
    root = math.sqrt(1.0 - rho * rho)
    expect, _ = integrate.quad(lambda u: stats.norm.pdf(u) * stats.norm.cdf((k - rho * u) / root),
                               -np.inf, h, epsabs=1e-14, epsrel=1e-12)
    assert ref.bvn_cdf(h, k, rho) == pytest.approx(expect, abs=1e-12)
    if h == 0.0 and k == 0.0:
        assert ref.bvn_cdf(h, k, rho) == pytest.approx(0.25 + math.asin(rho) / (2 * math.pi), abs=1e-15)


@pytest.mark.parametrize("dist", [
    {"family": "bivnormal", "mu1": 4.0, "mu2": 2.0, "s1": 1.0, "s2": 0.5, "rho": 0.3},
    {"family": "std", "a": 2.0, "b": 0.25},
    {"family": "hake", "mu_pre": 40.0, "mu_post": 65.0, "sd_pre": 15.0, "sd_post": 18.0,
     "rho_star": 0.5, "n": 50},
])
def test_cdf_is_the_integral_of_the_density(dist):
    mid = float(ref.cdf(dist, np.array([0.0]))[0])
    for w in (-3.0, 0.45, 2.5):
        got = float(ref.cdf(dist, np.array([w]))[0]) - mid
        lo, hi = sorted((0.0, w))
        mass, _ = integrate.quad(lambda u: ref.pdf(dist, np.array([u]))[0], lo, hi,
                                 points=[0.45], epsabs=1e-13, epsrel=1e-12, limit=500)
        assert got == pytest.approx(mass if w > 0 else -mass, abs=1e-10)


def test_hake_mapping_matches_a_monte_carlo_sample():
    dist = {"family": "hake", "mu_pre": 40.0, "mu_post": 65.0, "sd_pre": 15.0,
            "sd_post": 18.0, "rho_star": 0.5, "n": 50}
    mu1, mu2, s1, s2, rho = hake.bivariate(dist)
    rng = np.random.default_rng(7)
    cov = [[15.0 ** 2, 0.5 * 15.0 * 18.0], [0.5 * 15.0 * 18.0, 18.0 ** 2]]
    scores = rng.multivariate_normal([40.0, 65.0], cov, size=(20000, 50))
    x1 = scores[..., 1].mean(axis=1) - scores[..., 0].mean(axis=1)
    x2 = 100.0 - scores[..., 0].mean(axis=1)
    assert np.mean(x1) == pytest.approx(mu1, abs=0.05)
    assert np.mean(x2) == pytest.approx(mu2, abs=0.05)
    assert np.std(x1) == pytest.approx(s1, rel=0.02)
    assert np.std(x2) == pytest.approx(s2, rel=0.02)
    assert np.corrcoef(x1, x2)[0, 1] == pytest.approx(rho, abs=0.02)


def test_normal_chisq_density_integrates_to_the_cdf():
    dist = {"family": "normal_chisq", "num": [1.0, 1.0], "k": 5}
    x = np.linspace(-40.0, 60.0, 200001)
    mass = integrate.simpson(ref.pdf(dist, x), x=x)
    # heavy tails (the chi-square denominator nears 0) leave mass outside the window
    assert mass == pytest.approx(float(np.diff(ref.cdf(dist, np.array([-40.0, 60.0])))[0]), abs=1e-9)
    assert 1.0 - mass == pytest.approx(5.6e-6, rel=0.05)


def test_chisq_normal_density_integrates_to_one():
    dist = {"family": "chisq_normal", "k": 5, "den": [3.0, 1.0]}
    x = np.linspace(-400.0, 400.0, 200001)
    mass = integrate.simpson(ref.pdf(dist, x), x=x)
    # 1/t^2 tails: the window misses a few 1e-4 of the mass
    assert mass == pytest.approx(1.0, abs=2e-3)


def test_normal_chisq_cdf_matches_density():
    dist = {"family": "normal_chisq", "num": [1.2, 0.8], "k": 5}
    t = np.array([-0.5, 0.1, 0.4, 1.5])
    f = ref.cdf(dist, t)
    assert np.all(np.diff(f) > 0)
    mass, _ = integrate.quad(lambda u: ref.pdf(dist, np.array([u]))[0], 0.1, 0.4, epsabs=1e-13)
    assert f[2] - f[1] == pytest.approx(mass, abs=1e-10)


def test_normal_chisq_matches_monte_carlo():
    dist = {"family": "normal_chisq", "num": [1.0, 1.0], "k": 5}
    rng = np.random.default_rng(3)
    w = rng.normal(1.0, 1.0, 400000) / rng.chisquare(5, 400000)
    for t in (-0.2, 0.2, 0.6):
        assert ref.cdf(dist, np.array([t]))[0] == pytest.approx(np.mean(w <= t), abs=3e-3)


def test_visible_modes():
    assert ref.visible_modes({"family": "std", "a": 2.0, "b": 0.25}) == 2
    assert ref.visible_modes({"family": "std", "a": 1.5, "b": 1.0}) == 1
    assert ref.visible_modes({"family": "std", "a": 0.0, "b": 0.0}) == 1
    # Hake-like: the second theoretical mode is far below any visible floor
    assert ref.visible_modes({"family": "std", "a": 5.0, "b": 25.0}) == 1
    assert ref.visible_modes({"family": "std", "a": 5.0, "b": 25.0}, floor=0.0) == 2
