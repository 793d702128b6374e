"""Seeded Monte Carlo sampling and the Kolmogorov-Smirnov cross-check."""

import math

import numpy as np
import pytest

from ratiodist.errors import InvalidParamsError
from ratiodist.oracle import (
    Sampler,
    SampleSet,
    chi_square_sampler,
    ks_distance,
    mc_ratio_samples,
    normal_sampler,
    reference_pdf_grid,
    uniform_sampler,
)

_CAUCHY_CDF = lambda x: np.arctan(x) / math.pi + 0.5


def _gen(seed=0):
    return np.random.Generator(np.random.Philox(key=np.array([seed, 0], dtype=np.uint64)))


def test_sampler_moments():
    z = normal_sampler(2.0, 1.5).draw(_gen(), 200_000)
    assert abs(z.mean() - 2.0) < 0.02
    assert abs(z.std() - 1.5) < 0.02
    c = chi_square_sampler(5).draw(_gen(1), 200_000)
    assert abs(c.mean() - 5.0) < 0.05
    assert c.min() > 0.0
    u = uniform_sampler(2.0, 3.0).draw(_gen(2), 10_000)
    assert u.min() >= 2.0 and u.max() <= 3.0


@pytest.mark.parametrize("factory, args, match", [
    (normal_sampler, (0.0, 0.0), "sigma > 0"),
    (uniform_sampler, (2.0, 1.0), "finite lo < hi"),
    (chi_square_sampler, (2.5,), "positive integer"),
])
def test_sampler_validation(factory, args, match):
    with pytest.raises(InvalidParamsError, match=match):
        factory(*args)


def test_mc_ratio_samples_deterministic():
    n0 = normal_sampler(0.0, 1.0)
    a = mc_ratio_samples(n0, n0, 5_000, 42)
    b = mc_ratio_samples(n0, n0, 5_000, 42)
    assert np.array_equal(a.values, b.values)
    c = mc_ratio_samples(n0, n0, 5_000, 43)
    assert not np.array_equal(a.values, c.values)


def test_mc_ratio_samples_chunk_prefix():
    # chunked substreams: a longer run starts with the shorter run's draws
    n0 = normal_sampler(0.0, 1.0)
    small = mc_ratio_samples(n0, n0, 1 << 19, 7)
    big = mc_ratio_samples(n0, n0, 600_000, 7)
    assert np.array_equal(big.values[: 1 << 19], small.values)


def test_mc_ratio_samples_cauchy_median():
    n0 = normal_sampler(0.0, 1.0)
    ss = mc_ratio_samples(n0, n0, 1_000_000, 42)
    assert ss.n == 1_000_000
    assert abs(np.median(ss.values)) < 0.005
    assert np.all(np.isfinite(ss.values))


def test_mc_ratio_samples_small_n():
    n0 = normal_sampler(0.0, 1.0)
    ss = mc_ratio_samples(n0, n0, 1, 9)
    assert ss.values.shape == (1,)
    assert np.isfinite(ss.values[0])


def test_mc_ratio_samples_redraws_tiny_denominators():
    n0 = normal_sampler(0.0, 1.0)
    mix = Sampler(lambda gen, m: np.where(gen.random(m) < 0.5, 1e-310, 1.0), "mixture")
    ss = mc_ratio_samples(n0, mix, 1_000, 3)
    assert ss.redraws > 0
    assert np.all(np.isfinite(ss.values))


@pytest.mark.parametrize("n, seed", [(0, 0), (-5, 0), (10, -1), (10, 1 << 64)])
def test_mc_ratio_samples_validation(n, seed):
    n0 = normal_sampler(0.0, 1.0)
    with pytest.raises(InvalidParamsError):
        mc_ratio_samples(n0, n0, n, seed)


def test_ks_distance_trivial_cases():
    one = SampleSet(np.array([0.0]), seed=0, n=1)
    assert ks_distance(one, _CAUCHY_CDF) == 0.5
    three = SampleSet(np.array([1.0, 2.0, 3.0]), seed=0, n=3)
    const = lambda x: 0.5 if np.isscalar(x) else np.full(np.shape(x), 0.5)
    assert ks_distance(three, const) == 0.5


def test_ks_distance_propagates_cdf_errors():
    n0 = normal_sampler(0.0, 1.0)
    ss = mc_ratio_samples(n0, n0, 500, 7)
    calls = []

    def failing(x):
        calls.append(np.shape(x))
        raise ValueError("cdf failed")

    with pytest.raises(ValueError, match="cdf failed"):
        ks_distance(ss, failing)
    assert calls == [(500,)]  # one call on the whole sample, no point-by-point rerun
    # a scalar-only cdf raises too, instead of being rerun point by point
    with pytest.raises(TypeError):
        ks_distance(ss, lambda x: math.atan(x) / math.pi + 0.5)
    with pytest.raises(InvalidParamsError):
        ks_distance(ss, lambda x: 0.5)


def test_ks_self_consistency_over_seeds():
    # 0.999-level KS critical value; at most one excursion in 100 seeded runs
    n0 = normal_sampler(0.0, 1.0)
    crit = 1.9495 / math.sqrt(20_000)
    hits = sum(
        ks_distance(mc_ratio_samples(n0, n0, 20_000, s), _CAUCHY_CDF) < crit
        for s in range(100)
    )
    assert hits >= 99


def test_uniform_ratio_stays_in_support():
    u = uniform_sampler(2.0, 3.0)
    ss = mc_ratio_samples(u, u, 4_000, 13)
    assert ss.values.min() >= 2.0 / 3.0
    assert ss.values.max() <= 1.5


def test_reference_pdf_grid():
    vals = reference_pdf_grid(0.0, 0.0, np.array([0.0, 1.0]))
    assert math.isclose(vals[0], 1.0 / math.pi, rel_tol=1e-14)
    assert math.isclose(vals[1], 1.0 / (2.0 * math.pi), rel_tol=1e-14)
    with pytest.raises(InvalidParamsError):
        reference_pdf_grid(0.0, 0.0, np.zeros((2, 2)))
    with pytest.raises(InvalidParamsError):
        reference_pdf_grid(0.0, 0.0, np.array([0.0, math.nan]))
