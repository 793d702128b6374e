"""Mellin-convolution ratio and product densities against closed forms."""

import math
import warnings

import numpy as np
import pytest

from ratiodist.errors import InvalidParamsError, SingularProductError
from ratiodist.mellin import (
    Chebyshev,
    DensityFn,
    Direct,
    Support,
    chi_square_density,
    normal_density,
    product_pdf,
    ratio_interpolant,
    ratio_pdf,
    ratio_pdf_grid,
    uniform_density,
)
from ratiodist.normal_ratio import StdRatioParams, evaluation_interval, std_ratio_pdf
from ratiodist.quadrature import ChebInterpolant, QuadratureConfig, cheb_eval_many


def test_support_validation():
    with pytest.raises(InvalidParamsError):
        Support(2.0, 2.0)
    with pytest.raises(InvalidParamsError):
        Support(1.0, 0.0)
    with pytest.raises(InvalidParamsError):
        Support.finite(0.0, math.inf)
    s = Support.half_line(0.0)
    assert s.contains(0.0) and s.contains(1e300) and not s.contains(-1e-300)


@pytest.mark.parametrize(
    "factory, args",
    [
        (normal_density, (0.0, 0.0)),
        (normal_density, (math.nan, 1.0)),
        (chi_square_density, (0.0,)),
        (chi_square_density, (-3.0,)),
        (uniform_density, (1.0, 1.0)),
        (uniform_density, (2.0, -2.0)),
    ],
)
def test_density_factory_validation(factory, args):
    with pytest.raises(InvalidParamsError):
        factory(*args)


def test_chi_square_density_values():
    f = chi_square_density(5)
    assert math.isclose(f.f(3.0), 0.15418032980376925, rel_tol=1e-14)
    assert f.f(0.0) == 0.0
    assert f.f(-1.0) == 0.0
    # k = 2 is exponential(1/2): finite nonzero boundary value
    assert chi_square_density(2).f(0.0) == 0.5


@pytest.mark.parametrize("t", [0.0, 0.5, -1.0, 3.0])
def test_standard_normal_ratio_is_cauchy(t):
    f = normal_density(0.0, 1.0)
    assert math.isclose(ratio_pdf(f, f, t), 1.0 / (math.pi * (1.0 + t * t)), rel_tol=1e-12)


def test_ratio_matches_closed_form_at_zero():
    got = ratio_pdf(normal_density(1.5, 1.0), normal_density(1.0, 1.0), 0.0)
    want = std_ratio_pdf(StdRatioParams(1.5, 1.0), 0.0)
    assert math.isclose(got, want, rel_tol=1e-13)


@pytest.mark.parametrize("a, b", [(1.5, 1.0), (2.0, 0.25), (0.1, 4.0), (4.0, 7.0)])
def test_engine_agreement_on_grid(a, b):
    sr = StdRatioParams(a, b)
    lo, hi = evaluation_interval(sr, 2.0)
    grid = np.linspace(lo, hi, 200)
    vals = ratio_pdf_grid(normal_density(a, 1.0), normal_density(b, 1.0), grid)
    ref = np.array([std_ratio_pdf(sr, float(t)) for t in grid])
    bound = max(1e-12, 10.0 * 1e-10)
    assert np.max(np.abs(vals - ref)) <= bound
    assert np.all(vals >= 0.0)


def _beta_prime(r, alpha, beta):
    norm = math.gamma(alpha + beta) / (math.gamma(alpha) * math.gamma(beta))
    return norm * r ** (alpha - 1.0) * (1.0 + r) ** (-(alpha + beta))


@pytest.mark.parametrize("r", [0.3, 1.0, 2.5])
def test_chi_square_ratio_is_beta_prime(r):
    # chisq(k1)/chisq(k2) is beta-prime(k1/2, k2/2)
    got = ratio_pdf(chi_square_density(4), chi_square_density(6), r)
    assert math.isclose(got, _beta_prime(r, 2.0, 3.0), rel_tol=1e-12)


def test_uniform_ratio_closed_form():
    u = uniform_density(0.0, 1.0)
    assert math.isclose(ratio_pdf(u, u, 0.4), 0.5, rel_tol=1e-12)
    assert math.isclose(ratio_pdf(u, u, 2.5), 0.5 / 2.5**2, rel_tol=1e-12)
    assert ratio_pdf(u, u, -0.5) == 0.0


def test_scale_invariance():
    # X1/X2 and (c X1)/(c X2) share one ratio law
    f1, f2 = chi_square_density(4), chi_square_density(6)
    rng = np.random.default_rng(20260815)
    for _ in range(5):
        c = float(rng.uniform(0.2, 5.0))
        g1 = DensityFn(lambda x, c=c: f1.f(x / c) / c, Support.half_line(0.0))
        g2 = DensityFn(lambda x, c=c: f2.f(x / c) / c, Support.half_line(0.0))
        t = float(rng.uniform(0.1, 3.0))
        assert math.isclose(ratio_pdf(f1, f2, t), ratio_pdf(g1, g2, t), rel_tol=1e-9)


def test_tolerance_ordering():
    sr = StdRatioParams(1.5, 1.0)
    f1, f2 = normal_density(1.5, 1.0), normal_density(1.0, 1.0)
    grid = np.linspace(-9.0, 12.0, 60)
    ref = np.array([std_ratio_pdf(sr, float(t)) for t in grid])
    errs = []
    for tol in (1e-3, 1e-6, 1e-10):
        vals = ratio_pdf_grid(f1, f2, grid, QuadratureConfig(rel_tol=tol))
        err = np.max(np.abs(vals - ref))
        assert err <= max(1e-12, 10.0 * tol)
        errs.append(err)
    assert errs[2] <= errs[1] <= errs[0]


@pytest.mark.parametrize("t", [0.25, 0.5, 0.9])
def test_uniform_product_is_neg_log(t):
    u = uniform_density(0.0, 1.0)
    assert math.isclose(product_pdf(u, u, t), -math.log(t), rel_tol=1e-12)


def test_normal_product_bessel_value():
    # f(t) = K0(|t|)/pi for a product of independent standard normals
    n0 = normal_density(0.0, 1.0)
    assert math.isclose(product_pdf(n0, n0, 1.0), 0.13401624101699425, rel_tol=1e-10)
    assert math.isclose(product_pdf(n0, n0, -1.0), product_pdf(n0, n0, 1.0), rel_tol=1e-12)


def test_product_singularity_flag_is_support_based():
    n0 = normal_density(0.0, 1.0)
    with pytest.raises(SingularProductError):
        product_pdf(n0, n0, 0.0)
    # conservative rule: chisq support includes its origin
    with pytest.raises(SingularProductError):
        product_pdf(chi_square_density(5), n0, 0.0)
    got = product_pdf(uniform_density(2.0, 3.0), n0, 0.0)
    want = math.log(1.5) / math.sqrt(2.0 * math.pi)
    assert math.isclose(got, want, rel_tol=1e-12)


def test_narrow_normal_product_peak():
    # spikes at 2 and 3: the finite support hints keep quadrature on the mass
    f1 = DensityFn(normal_density(2.0, 1e-6).f, Support.finite(2.0 - 8e-6, 2.0 + 8e-6))
    f2 = DensityFn(normal_density(3.0, 1e-6).f, Support.finite(3.0 - 8e-6, 3.0 + 8e-6))
    cfg = QuadratureConfig(rel_tol=1e-8)
    peak = product_pdf(f1, f2, 6.0, cfg)
    assert math.isclose(peak, 110646.68061668405, rel_tol=1e-6)
    assert product_pdf(f1, f2, 6.001, cfg) == 0.0


def test_far_tail_matches_closed_form():
    # mass far from the transform midpoint must still be found
    got = ratio_pdf(normal_density(2.0, 1.0), normal_density(0.25, 1.0), 8.6)
    want = std_ratio_pdf(StdRatioParams(2.0, 0.25), 8.6)
    assert math.isclose(got, want, rel_tol=1e-12)


def test_grid_validation():
    f = normal_density(0.0, 1.0)
    with pytest.raises(InvalidParamsError):
        ratio_pdf_grid(f, f, np.array([]))
    with pytest.raises(InvalidParamsError):
        ratio_pdf_grid(f, f, np.array([1.0, 0.5]))
    with pytest.raises(InvalidParamsError):
        ratio_pdf_grid(f, f, np.array([0.0, 1.0]), accel="fast")


@pytest.mark.parametrize("accel", [Direct(), Chebyshev(65)])
def test_grid_single_point(accel):
    f = normal_density(0.0, 1.0)
    vals = ratio_pdf_grid(f, f, np.array([0.5]), accel=accel)
    assert vals.shape == (1,)
    assert math.isclose(vals[0], ratio_pdf(f, f, 0.5), rel_tol=1e-14)


def test_chebyshev_accel_matches_direct():
    f1, f2 = normal_density(1.5, 1.0), normal_density(1.0, 1.0)
    lo, hi = evaluation_interval(StdRatioParams(1.5, 1.0), 2.0)
    grid = np.linspace(lo, hi, 60)
    direct = ratio_pdf_grid(f1, f2, grid)
    cheb = ratio_pdf_grid(f1, f2, grid, accel=Chebyshev(257))
    assert np.max(np.abs(cheb - direct)) / direct.max() <= 1e-12


def test_ratio_interpolant_reusable():
    f1, f2 = normal_density(1.5, 1.0), normal_density(1.0, 1.0)
    lo, hi = evaluation_interval(StdRatioParams(1.5, 1.0), 2.0)
    interp = ratio_interpolant(f1, f2, lo, hi)
    ts = [0.7, -1.0, 3.25]
    for t, v in zip(ts, cheb_eval_many(interp, ts)):
        assert math.isclose(v, ratio_pdf(f1, f2, t), rel_tol=1e-12)


def test_chebyshev_grid_samples_ratio_pdf_at_float_nodes():
    f1, f2 = normal_density(1.5, 1.0), normal_density(1.0, 1.0)
    cfg = QuadratureConfig(rel_tol=1e-15)
    grid = np.linspace(-5.0, 8.0, 200)
    lo, hi, n = -5.0, 8.0, 64
    j = np.arange(n + 1)
    nodes = 0.5 * (hi + lo) + 0.5 * (hi - lo) * np.cos(np.pi * j / n)
    nodes[0], nodes[-1] = hi, lo
    want = np.array([ratio_pdf(f1, f2, t, cfg) for t in nodes.tolist()])
    # NumPy-scalar nodes give the same bits, only more slowly
    assert np.array_equal(want, [ratio_pdf(f1, f2, t, cfg) for t in nodes])
    weights = np.where(j % 2 == 0, 1.0, -1.0)
    weights[[0, -1]] *= 0.5
    expected = cheb_eval_many(ChebInterpolant(lo, hi, nodes, want, weights), grid)
    assert np.array_equal(ratio_pdf_grid(f1, f2, grid, cfg, accel=Chebyshev(65)), expected)


def test_density_must_map_arrays_to_arrays():
    with pytest.raises(InvalidParamsError, match="NumPy arrays"):
        DensityFn(lambda x: math.exp(-0.5 * x * x), Support.real_line(), "math-based")
    with pytest.raises(InvalidParamsError, match="same shape"):
        DensityFn(lambda x: 0.5, Support.finite(0.0, 2.0), "constant")
    probes = []
    DensityFn(lambda x: probes.append(x) or np.ones_like(x), Support.half_line(2.0))
    assert len(probes) == 1 and probes[0].dtype == np.float64
    assert probes[0].shape == (1,) and probes[0][0] > 2.0


def _grid_with_zero(lo, hi, n):
    return np.unique(np.append(np.linspace(lo, hi, n), 0.0))


@pytest.mark.parametrize(
    "f1, f2, grid",
    [
        # several blocks of points, t = 0 included
        (normal_density(1.5, 1.0), normal_density(1.0, 1.0), _grid_with_zero(-5.0, 8.0, 150)),
        # the negative piece is empty for t > 0 and the positive one for t < 0
        (chi_square_density(5), normal_density(3.0, 1.0), _grid_with_zero(-3.0, 5.0, 90)),
        # finite supports: each t has its own interval, half-line rows at t = 0
        (uniform_density(0.0, 1.0), uniform_density(0.0, 1.0), _grid_with_zero(-1.0, 4.0, 70)),
    ],
)
def test_grid_values_equal_single_point_values(f1, f2, grid):
    vals = ratio_pdf_grid(f1, f2, grid)
    single = np.array([ratio_pdf(f1, f2, float(t)) for t in grid])
    assert np.array_equal(vals, single)
    assert np.array_equal(ratio_pdf_grid(f1, f2, grid[::7]), single[::7])


def _strict(df):
    """df whose density raises when asked for any point outside its support."""
    lo, hi = df.support.lo, df.support.hi

    def f(x):
        if np.any((x < lo) | (x > hi)):
            raise AssertionError(f"density probed outside [{lo}, {hi}]")
        return df.f(x)

    return DensityFn(f, df.support, df.label)


def test_densities_are_never_probed_outside_their_support():
    x5, u = _strict(chi_square_density(5)), _strict(uniform_density(1.0, 2.0))
    n0 = normal_density(0.5, 1.0)
    grid = np.linspace(-4.0, 6.0, 81)
    assert np.all(ratio_pdf_grid(x5, n0, grid) >= 0.0)
    assert np.all(ratio_pdf_grid(n0, x5, grid) >= 0.0)
    assert np.all(ratio_pdf_grid(u, x5, grid) >= 0.0)
    for t in (-3.0, 0.5, 2.0, 7.0):
        assert product_pdf(x5, u, t) >= 0.0
        assert product_pdf(n0, u, t) >= 0.0
    assert product_pdf(u, n0, 0.0) > 0.0


def test_non_normal_ratios_raise_no_warnings():
    fn, fx = normal_density(0.8, 1.1), chi_square_density(5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        a = ratio_pdf_grid(fn, fx, np.linspace(-2.0, 2.0, 41))
        b = ratio_pdf_grid(fx, fn, np.linspace(-30.0, 30.0, 41), accel=Chebyshev(65))
        c = [product_pdf(fn, fx, t) for t in (-1.0, 0.5)]
    assert np.all(np.isfinite(a)) and np.all(np.isfinite(b)) and np.all(np.isfinite(c))
