"""Characteristic functions, one- and two-dimensional inversion, CF moments."""

import cmath
import math
import warnings

import numpy as np
import pytest

from ratiodist.errors import (
    AccuracyWarning,
    GridError,
    InvalidParamsError,
    UndecayedCFError,
)
from ratiodist.cf import (
    CharFn,
    Grid2DConfig,
    auto_grid,
    bivariate_normal_joint_cf,
    broda_kan_cdf,
    broda_kan_pdf_indep,
    broda_kan_pdf_joint,
    cauchy_cf,
    cf_decay_range,
    cf_derivative,
    cf_moments,
    chi_square_cf,
    gil_pelaez_cdf,
    gil_pelaez_pdf,
    normal_cf,
    product_joint_cf,
    six_sigma_interval,
)
from ratiodist.normal_ratio import (
    BivNormalParams,
    HakeInputs,
    StdRatioParams,
    hake_params,
    ratio_pdf_phamgia,
    std_ratio_cdf,
    std_ratio_pdf,
)
from ratiodist.quadrature import QuadratureConfig


def test_normal_cf_values():
    cf = normal_cf(1.0, 1.0)
    assert math.isclose(abs(cf.phi(2.0)), math.exp(-2.0), rel_tol=1e-14)
    for t in (0.0, 0.7, -1.3):
        want = (1j - t) * cmath.exp(1j * t - 0.5 * t * t)
        assert cmath.isclose(cf.dphi(t), want, rel_tol=1e-13)


def test_chi_square_cf_values():
    cf = chi_square_cf(5)
    assert math.isclose(abs(cf.phi(1.0)) ** 2, 5.0 ** -2.5, rel_tol=1e-13)
    assert cmath.isclose(cf.dphi(0.0), 5j, rel_tol=1e-13)


def test_cauchy_cf_values():
    cf = cauchy_cf(1.0, 2.0)
    for t in (0.5, -2.0):
        want = cmath.exp(1j * 1.0 * t - 2.0 * abs(t))
        assert cmath.isclose(cf.phi(t), want, rel_tol=1e-14)


@pytest.mark.parametrize(
    "factory, args",
    [
        (normal_cf, (0.0, 0.0)),
        (normal_cf, (math.inf, 1.0)),
        (chi_square_cf, (0,)),
        (chi_square_cf, (2.5,)),
        (cauchy_cf, (0.0, -1.0)),
    ],
)
def test_cf_factory_validation(factory, args):
    with pytest.raises(InvalidParamsError):
        factory(*args)


def test_hermitian_symmetry():
    cfs = [normal_cf(2.0, 1.5), chi_square_cf(5), cauchy_cf(1.0, 0.5)]
    rng = np.random.default_rng(77)
    for cf in cfs:
        for _ in range(20):
            t = float(rng.uniform(0.01, 10.0))
            assert cmath.isclose(cf.phi(-t), cf.phi(t).conjugate(), rel_tol=1e-13)


def test_invalid_cf_rejected():
    # phi(0) = 1 is the one property every CF must satisfy
    bad = CharFn(lambda t: np.full(np.shape(t), 0.5 + 0.0j))
    with pytest.raises(InvalidParamsError, match="phi\\(0\\) must equal 1"):
        gil_pelaez_pdf(bad, 0.0)


@pytest.mark.parametrize(
    "phi, match",
    [
        (lambda t: cmath.exp(-0.5 * t * t), "accept NumPy arrays"),  # one float at a time
        (lambda t: 1.0 + 0.0j, "same shape"),  # ignores its argument
    ],
)
def test_cf_must_map_arrays_to_arrays(phi, match):
    # the inversions evaluate phi on whole grids; a scalar-only CF fails at the door
    cf = CharFn(phi, label="scalar cf")
    calls = (
        lambda: gil_pelaez_pdf(cf, 0.0),
        lambda: gil_pelaez_cdf(cf, 0.0),
        lambda: auto_grid(cf, normal_cf(1.0, 1.0)),
        lambda: product_joint_cf(normal_cf(1.0, 1.0), cf),
        lambda: broda_kan_pdf_indep(normal_cf(1.0, 1.0), cf, 0.5, Grid2DConfig(8, 0.1, 0.1)),
    )
    for call in calls:
        with pytest.raises(InvalidParamsError, match=match):
            call()


def test_cf_derivative_matches_closed_form():
    for cf, t in ((normal_cf(2.0, 1.5), 0.7), (chi_square_cf(5), 0.3)):
        num = cf_derivative(cf, t, h=1e-5)
        assert abs(num - cf.dphi(t)) <= 1e-8
    assert abs(cf_derivative(normal_cf(0.0, 1.0), 0.0)) <= 1e-12
    with pytest.raises(InvalidParamsError):
        cf_derivative(normal_cf(0.0, 1.0), 0.0, h=0.0)


def test_gil_pelaez_normal():
    cf = normal_cf(2.0, 1.5)
    want = math.exp(-0.5 * ((1.0 - 2.0) / 1.5) ** 2) / (1.5 * math.sqrt(2.0 * math.pi))
    assert math.isclose(gil_pelaez_pdf(cf, 1.0), want, rel_tol=1e-10)
    assert math.isclose(gil_pelaez_cdf(normal_cf(0.0, 1.0), 1.0), 0.8413447460685429, rel_tol=1e-10)
    assert math.isclose(gil_pelaez_cdf(cf, 2.0), 0.5, abs_tol=1e-10)


def test_gil_pelaez_cauchy():
    assert math.isclose(gil_pelaez_pdf(cauchy_cf(), 0.0), 1.0 / math.pi, rel_tol=1e-10)
    got = gil_pelaez_pdf(cauchy_cf(1.0, 2.0), 2.5)
    want = 2.0 / (math.pi * (4.0 + 1.5 ** 2))
    assert math.isclose(got, want, rel_tol=1e-9)


def test_gil_pelaez_cauchy_raises_no_warnings():
    cf = cauchy_cf(0.5, 1.5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        pdf = [gil_pelaez_pdf(cf, x) for x in (-4.0, 0.0, 0.5, 3.0)]
        cdf = [gil_pelaez_cdf(cf, x) for x in (-4.0, 0.0, 0.5, 3.0)]
    for x, p, c in zip((-4.0, 0.0, 0.5, 3.0), pdf, cdf):
        z = (x - 0.5) / 1.5
        assert math.isclose(p, 1.0 / (math.pi * 1.5 * (1.0 + z * z)), rel_tol=1e-9)
        assert math.isclose(c, 0.5 + math.atan(z) / math.pi, rel_tol=1e-9)


def test_gil_pelaez_slowly_decaying_cf():
    # |phi| ~ t^(-5/2) decays polynomially: needs the documented looser setting
    cfg = QuadratureConfig(rel_tol=1e-8, max_levels=17)
    got = gil_pelaez_pdf(chi_square_cf(5), 3.0, cfg)
    assert math.isclose(got, 0.15418032980376925, rel_tol=1e-7)


def test_broda_kan_cauchy():
    got = broda_kan_pdf_indep(normal_cf(0.0, 1.0), normal_cf(0.0, 1.0), 0.0)
    assert abs(got - 1.0 / math.pi) <= 5e-4


@pytest.mark.parametrize("x", [-2.0, 0.0, 1.5, 4.0, 8.0])
def test_broda_kan_matches_closed_form(x):
    got = broda_kan_pdf_indep(normal_cf(1.5, 1.0), normal_cf(1.0, 1.0), x)
    assert abs(got - std_ratio_pdf(StdRatioParams(1.5, 1.0), x)) <= 1e-3


def test_product_joint_cf_factorizes():
    cf1, cf2 = normal_cf(1.5, 1.0), normal_cf(1.0, 1.0)
    cfg = auto_grid(cf1, cf2)
    joint = broda_kan_pdf_joint(product_joint_cf(cf1, cf2), 1.5, cfg)
    indep = broda_kan_pdf_indep(cf1, cf2, 1.5, cfg)
    assert abs(joint - indep) <= 1e-12


@pytest.mark.parametrize("w", [0.0, 0.8, 2.0])
def test_correlated_ratio_matches_density(w):
    p = BivNormalParams(1.5, 1.0, 1.0, 1.0, 0.5)
    jcf = bivariate_normal_joint_cf(p)
    cfg = auto_grid(normal_cf(p.mu1, p.sigma1), normal_cf(p.mu2, p.sigma2))
    assert abs(broda_kan_pdf_joint(jcf, w, cfg) - ratio_pdf_phamgia(p, w)) <= 1e-3


def test_hake_joint_cf_grid():
    p = hake_params(HakeInputs(50.0, 70.0, 10.0, 10.0, 0.0, 1))
    jcf = bivariate_normal_joint_cf(p)
    cfg = auto_grid(normal_cf(p.mu1, p.sigma1), normal_cf(p.mu2, p.sigma2))
    errs = [
        abs(broda_kan_pdf_joint(jcf, float(w), cfg) - ratio_pdf_phamgia(p, float(w)))
        for w in np.linspace(0.0, 1.4, 20)
    ]
    assert max(errs) <= 1e-3


def test_broda_kan_cdf():
    n0 = normal_cf(0.0, 1.0)
    jcc = product_joint_cf(n0, n0)
    cc = auto_grid(n0, n0)
    assert abs(broda_kan_cdf(jcc, 0.0, cc) - 0.5) <= 1e-3
    assert abs(broda_kan_cdf(jcc, 1.0, cc) - 0.75) <= 1e-3
    cf1, cf2 = normal_cf(1.5, 1.0), normal_cf(1.0, 1.0)
    got = broda_kan_cdf(product_joint_cf(cf1, cf2), 1.5, auto_grid(cf1, cf2))
    assert abs(got - std_ratio_cdf(StdRatioParams(1.5, 1.0), 1.5)) <= 1e-3


def test_cf_moments():
    mean, var = cf_moments(normal_cf(2.0, 1.5))
    assert abs(mean - 2.0) <= 1e-6
    assert abs(var - 2.25) <= 1e-5
    mean, var = cf_moments(chi_square_cf(5))
    assert abs(mean - 5.0) <= 1e-6
    assert abs(var - 10.0) <= 1e-5
    with pytest.raises(InvalidParamsError):
        cf_moments(normal_cf(0.0, 1.0), h=-1.0)


def test_six_sigma_interval_product_form():
    lo, hi = six_sigma_interval(normal_cf(1.5, 1.0), normal_cf(1.0, 1.0))
    # 1.5 +/- 6 sqrt(1 + 1.5^2 * 1)
    assert math.isclose(lo, -9.316653711061704, rel_tol=1e-7)
    assert math.isclose(hi, 12.316653711061704, rel_tol=1e-7)
    with pytest.raises(InvalidParamsError):
        six_sigma_interval(normal_cf(0.0, 1.0), normal_cf(1.0, 1.0), k=0.0)


def test_six_sigma_interval_zero_mean_fallback():
    # denominator mean 0: falls back to the union of constituent intervals
    lo, hi = six_sigma_interval(normal_cf(1.5, 1.0), normal_cf(0.0, 1.0))
    assert math.isclose(lo, -6.0, rel_tol=1e-6)
    assert math.isclose(hi, 7.5, rel_tol=1e-6)


def test_six_sigma_interval_probe_extension():
    n15, n0 = normal_cf(1.5, 1.0), normal_cf(0.0, 1.0)
    cauchy_pdf = lambda x: 1.0 / (math.pi * (1.0 + x * x))
    lo, hi = six_sigma_interval(n15, n0, pdf_probe=cauchy_pdf)
    assert cauchy_pdf(lo) < 1e-10 and cauchy_pdf(hi) < 1e-10
    with pytest.warns(AccuracyWarning):
        six_sigma_interval(n15, n0, pdf_probe=cauchy_pdf, max_doublings=2)


def test_cf_decay_range():
    # exp(-t^2/2) crosses 1e-14 at sqrt(2 ln 1e14)
    got = cf_decay_range(normal_cf(0.0, 1.0))
    assert math.isclose(got, 8.029469634031459, rel_tol=1e-12)
    with pytest.raises(UndecayedCFError):
        cf_decay_range(CharFn(lambda t: 1.0 + 0.0j))  # point mass at 0
    with pytest.raises(InvalidParamsError):
        cf_decay_range(normal_cf(0.0, 1.0), threshold=1.5)


def test_auto_grid_ranges():
    cfg = auto_grid(normal_cf(1.5, 1.0), normal_cf(1.0, 1.0))
    assert cfg.N == 500
    assert math.isclose(cfg.h1, 0.016058939268062917, rel_tol=1e-12)
    # inner range feeds the outer strip, so the t2 window is twice as wide
    assert math.isclose(cfg.h2, 2.0 * cfg.h1, rel_tol=1e-12)
    capped = auto_grid(chi_square_cf(5), normal_cf(0.0, 1.0))
    assert math.isclose(capped.h1, 0.05, rel_tol=1e-12)
    with pytest.raises(GridError):
        auto_grid(normal_cf(0.0, 1.0), normal_cf(0.0, 1.0), n=0)
    with pytest.raises(GridError):
        auto_grid(normal_cf(0.0, 1.0), normal_cf(0.0, 1.0), h_max=0.0)


@pytest.mark.parametrize("kwargs", [{"N": 0}, {"h1": -1.0}, {"h2": 0.0}, {"h1": math.inf}])
def test_grid2dconfig_validation(kwargs):
    base = {"N": 500, "h1": 0.01, "h2": 0.01}
    base.update(kwargs)
    with pytest.raises(GridError):
        Grid2DConfig(**base)
