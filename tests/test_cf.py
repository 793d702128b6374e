"""Characteristic functions, one- and two-dimensional inversion, CF moments."""

import cmath
import dataclasses
import math
import warnings

import numpy as np
import pytest

from ratiodist.errors import (
    AccuracyWarning,
    GridError,
    IntegrandError,
    InvalidParamsError,
    NonConvergenceError,
    RatioDistError,
    UndecayedCFError,
)
from ratiodist import cf as cf_module
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
    evaluation_interval,
    hake_params,
    ratio_cdf,
    ratio_pdf_phamgia,
    std_ratio_cdf,
    std_ratio_pdf,
)
from ratiodist.quadrature import QuadratureConfig
from ratiodist.special import clamp_cdf


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
    # phi(0) = 1 is the one property every CF must satisfy; it is checked when the CF is built
    with pytest.raises(InvalidParamsError, match="phi\\(0\\) must equal 1"):
        CharFn(lambda t: np.full(np.shape(t), 0.5 + 0.0j))


@pytest.mark.parametrize(
    "phi, match",
    [
        (lambda t: cmath.exp(-0.5 * t * t), "accept NumPy arrays"),  # one float at a time
        (lambda t: 1.0 + 0.0j, "same shape"),  # ignores its argument
    ],
)
def test_cf_must_map_arrays_to_arrays(phi, match):
    # the inversions evaluate phi on whole grids; a scalar-only CF fails when it is built
    with pytest.raises(InvalidParamsError, match=match):
        CharFn(phi, label="scalar cf")


def _recorded(f, calls):
    """f, appending the arguments of each call to calls."""
    def call(*args):
        calls.append(args)
        return f(*args)
    return call


def _recording(cf, calls):
    return CharFn(_recorded(cf.phi, calls), _recorded(cf.dphi, calls), cf.decay_scale, cf.label,
                  cf.moments)


def test_cf_is_checked_once_when_built():
    # the one (1,)-shaped probe runs at construction; grids and inversions run none
    calls = []
    cf = _recording(normal_cf(1.0, 0.5), calls)
    assert [np.shape(a[0]) for a in calls] == [(1,)]
    calls.clear()
    auto_grid(cf, cf)
    product_joint_cf(cf, cf)
    gil_pelaez_pdf(cf, np.array([0.1, 0.5, 2.0]))
    assert calls and all(np.shape(a[0]) != (1,) for a in calls)


def test_gil_pelaez_evaluates_one_cf_row_per_integrand_call(monkeypatch):
    # every row spans (0, oo), so the rows of a call share their t nodes and
    # phi is evaluated on one of them: CF values = one node row per call
    node_rows = []
    sweep = cf_module.integrate_rows

    def recorded_sweep(F, lo, hi, cfg):
        def G(idx, t):
            assert (t == t[:1]).all()
            node_rows.append(t.shape[1])
            return F(idx, t)
        return sweep(G, lo, hi, cfg)

    monkeypatch.setattr(cf_module, "integrate_rows", recorded_sweep)
    calls = []
    cf = _recording(normal_cf(1.0, 0.5), calls)
    calls.clear()
    xs = np.linspace(-1.0, 3.0, 101)
    got = gil_pelaez_pdf(cf, xs)
    assert all(np.shape(a[0])[0] == 1 for a in calls)
    assert sum(np.size(a[0]) for a in calls) == sum(node_rows)
    assert len(calls) == len(node_rows) > 1
    monkeypatch.setattr(cf_module, "integrate_rows", sweep)
    assert np.array_equal(got, [gil_pelaez_pdf(normal_cf(1.0, 0.5), float(x)) for x in xs])


@pytest.mark.parametrize("fn", [gil_pelaez_pdf, gil_pelaez_cdf])
def test_gil_pelaez_integrand_error_names_the_point(fn):
    # the sweep fails at a node far out in t; the error names the caller's x
    with pytest.raises(IntegrandError, match=r"at x=1e\+300 ") as exc:
        fn(normal_cf(1.0, 0.5), np.array([0.5, 1e300]))
    assert fn.__name__ in str(exc.value)


@pytest.mark.parametrize("fn", [gil_pelaez_pdf, gil_pelaez_cdf])
def test_gil_pelaez_non_convergence_names_the_point(fn):
    # x = 0.5 and 2 converge and x = 1e3 does not: the error names 1e3 and
    # carries that point's last value and error estimate
    with pytest.raises(NonConvergenceError) as one:
        fn(normal_cf(1.0, 0.5), 1e3)
    with pytest.raises(NonConvergenceError, match=r"at x=1000\.0: no convergence ") as exc:
        fn(normal_cf(1.0, 0.5), np.array([0.5, 1e3, 2.0]))
    assert fn.__name__ in str(exc.value)
    assert (exc.value.value, exc.value.err) == (one.value.value, one.value.err)
    assert f"err_est={exc.value.err!r}, value={exc.value.value!r}" in str(exc.value)


def test_cf_engines_evaluate_no_cf_at_infinite_points():
    calls = []
    n, chi = _recording(normal_cf(1.0, 0.5), calls), _recording(chi_square_cf(5), calls)
    jcf = bivariate_normal_joint_cf(BivNormalParams(1.0, 2.0, 0.5, 0.7, 0.3))
    cf1, cf2, d = jcf.pair
    jcf = dataclasses.replace(jcf, phi2d=_recorded(jcf.phi2d, calls),
                              dphi2d_dt2=_recorded(jcf.dphi2d_dt2, calls),
                              pair=(_recording(cf1, calls), _recording(cf2, calls), d))
    grid = auto_grid(n, chi)
    calls.clear()
    for x in (math.inf, -math.inf, np.array([[math.inf], [-math.inf]])):
        gil_pelaez_pdf(n, x)
        gil_pelaez_cdf(n, x)
        broda_kan_pdf_indep(n, chi, x, grid)
        broda_kan_pdf_joint(jcf, x, grid)
        broda_kan_cdf(jcf, x, grid)
    assert calls == []


def test_cf_derivative_matches_closed_form():
    # Cauchy's phi' = (i x0 - gamma sign t) phi against a central difference,
    # away from its kink at t = 0
    cf, h = cauchy_cf(1.0, 2.0), 1e-5
    t = np.array([-1.3, -0.2, 0.4, 2.5])
    quotient = (cf.phi(t + h) - cf.phi(t - h)) / (2.0 * h)
    assert np.max(np.abs(cf.dphi(t) - quotient)) <= 1e-9


def test_product_density_needs_denominator_derivative():
    # no difference-quotient stand-in: the density raises, the CDF needs phi only
    cf1, chi = normal_cf(1.2, 1.0), chi_square_cf(5)
    cfg = Grid2DConfig(64, 0.05, 0.1)
    jcf = product_joint_cf(cf1, CharFn(chi.phi, label="chi-square without dphi"))
    with pytest.raises(InvalidParamsError, match="which chi-square without dphi lacks"):
        broda_kan_pdf_joint(jcf, 0.3, cfg)
    xs = np.array([-0.7, 0.3, 2.5])
    want = broda_kan_cdf(product_joint_cf(cf1, chi), xs, cfg)
    assert np.array_equal(broda_kan_cdf(jcf, xs, cfg), want)


def test_cf_moments_and_ranges_call_phi_on_arrays_only():
    # phi reads t.shape, so a call on a Python float raises AttributeError
    n0 = CharFn(lambda t: np.exp(-t * t / 2) * np.ones(t.shape), label="array-only N(0,1)")
    mean, var = cf_moments(n0)
    assert abs(mean) <= 1e-12 and abs(var - 1.0) <= 1e-5
    assert math.isclose(cf_decay_range(n0), 8.029469634031459, rel_tol=1e-12)
    lo, hi = six_sigma_interval(normal_cf(1.5, 1.0), n0)
    assert math.isclose(lo, -6.0, rel_tol=1e-6) and math.isclose(hi, 7.5, rel_tol=1e-6)
    assert math.isclose(auto_grid(n0, n0).h1, auto_grid(normal_cf(0.0, 1.0), n0).h1,
                        rel_tol=1e-12)


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


def test_cf_moments_raise_where_the_stencils_disagree():
    # Cauchy has no moments (the h stencil read variance 2,537 across its
    # kink), and N(500, 1) drowns its variance in rounding (read 3.60)
    for cf in (cauchy_cf(), normal_cf(500.0, 1.0)):
        with pytest.raises(RatioDistError, match="no moments"):
            cf_moments(cf)


def test_cf_moments():
    mean, var = cf_moments(normal_cf(2.0, 1.5))
    assert abs(mean - 2.0) <= 1e-6
    assert abs(var - 2.25) <= 1e-5
    mean, var = cf_moments(chi_square_cf(5))
    assert abs(mean - 5.0) <= 1e-6
    assert abs(var - 10.0) <= 1e-5
    with pytest.raises(InvalidParamsError):
        cf_moments(normal_cf(0.0, 1.0), h=-1.0)


def test_cf_moments_default_step_resolves_chi_square_variance():
    # at h = 1e-4 rounding (~eps/h^2) gave var 10 + 5.4e-8; h = 1e-3 gives 1.8e-9
    mean, var = cf_moments(chi_square_cf(5))
    assert abs(var - 10.0) <= 5e-9


def test_six_sigma_interval_product_form():
    lo, hi = six_sigma_interval(normal_cf(1.5, 1.0), normal_cf(1.0, 1.0))
    # 1.5 +/- 6 sqrt(1 + 1.5^2 * 1)
    assert math.isclose(lo, -9.316653711061704, rel_tol=1e-7)
    assert math.isclose(hi, 12.316653711061704, rel_tol=1e-7)
    with pytest.raises(InvalidParamsError):
        six_sigma_interval(normal_cf(0.0, 1.0), normal_cf(1.0, 1.0), k=0.0)


def test_six_sigma_interval_reads_normal_moments():
    # a normal CF carries its exact moments; the h = 1e-4 stencil of
    # cf_moments moved this narrow window by 3.4e-6 of its width
    lo, hi = six_sigma_interval(normal_cf(0.3, 0.05), normal_cf(2.0, 0.1))
    want = evaluation_interval(BivNormalParams(0.3, 2.0, 0.05, 0.1, 0.0), 6.0)
    assert math.isclose(lo, want[0], rel_tol=1e-14)
    assert math.isclose(hi, want[1], rel_tol=1e-14)


def test_six_sigma_interval_zero_mean_fallback():
    # denominator mean 0: falls back to the union of constituent intervals
    lo, hi = six_sigma_interval(normal_cf(1.5, 1.0), normal_cf(0.0, 1.0))
    assert math.isclose(lo, -6.0, rel_tol=1e-6)
    assert math.isclose(hi, 7.5, rel_tol=1e-6)


def test_cf_decay_range():
    # exp(-t^2/2) crosses 1e-14 at sqrt(2 ln 1e14)
    got = cf_decay_range(normal_cf(0.0, 1.0))
    assert math.isclose(got, 8.029469634031459, rel_tol=1e-12)
    with pytest.raises(UndecayedCFError):
        cf_decay_range(CharFn(lambda t: np.ones(np.shape(t), dtype=complex)))  # point mass at 0


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


@pytest.mark.parametrize("fn", [broda_kan_pdf_joint, broda_kan_cdf])
def test_broda_kan_refuses_a_sum_that_is_not_finite(fn):
    # phi is NaN away from t = 0, so every sum over it is
    nan_cf = CharFn(lambda t: np.where(t == 0.0, 1.0 + 0.0j, np.nan + 0.0j), label="nan")
    jcf = product_joint_cf(nan_cf, normal_cf(2.0, 1.0))
    with pytest.raises(IntegrandError, match=r"2D inversion sum is not finite at 0\.5"):
        fn(jcf, np.array([0.5, 1.0]), Grid2DConfig(N=64, h1=0.1, h2=0.1))


@pytest.mark.parametrize("kwargs", [{"N": 0}, {"h1": -1.0}, {"h2": 0.0}, {"h1": math.inf}])
def test_grid2dconfig_validation(kwargs):
    base = {"N": 500, "h1": 0.01, "h2": 0.01}
    base.update(kwargs)
    with pytest.raises(GridError):
        Grid2DConfig(**base)


def _chi_square_density(k: int, x: float) -> float:
    return x ** (0.5 * k - 1.0) * math.exp(-0.5 * x) / (2.0 ** (0.5 * k) * math.gamma(0.5 * k))


@pytest.mark.parametrize("k", [1, 2, 5, 8, 20, 101, 1000])
def test_chi_square_cf_stays_finite_and_matches_complex_power(k):
    # (1 - 2it)^(-k/2) as a complex power overflows to NaN for k >= 8 once
    # |t| passes ~1e77; the CF is w^(k/2) with |w| = |1/(1 - 2it)| <= 1
    cf = chi_square_cf(k)
    far = np.array([1e77, -1e150, 1e300, -1e300])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.isfinite(cf.phi(far)).all() and np.isfinite(cf.dphi(far)).all()
    t = np.concatenate([np.linspace(-40.0, 40.0, 8001), np.geomspace(1e-6, 1e12, 400)])
    with np.errstate(all="ignore"):
        old = (1.0 - 2j * t) ** (-0.5 * k)
        old_d = 1j * k * (1.0 - 2j * t) ** (-0.5 * k - 1.0)
    ok = np.isfinite(old) & np.isfinite(old_d)
    # phi' = i k w phi is k times the scale of phi, so its bound is k times larger
    assert np.max(np.abs(cf.phi(t) - old)[ok]) <= 1e-15 * max(1, k)
    assert np.max(np.abs(cf.dphi(t) - old_d)[ok]) <= 1e-15 * max(1, k) * k


def test_gil_pelaez_chi_square_8():
    got = gil_pelaez_pdf(chi_square_cf(8), 0.5)
    assert abs(got - _chi_square_density(8, 0.5)) <= 1e-12
    # the plain DE rule may not converge on this oscillatory tail, but it
    # must say so: no NaN, no IntegrandError
    try:
        got = gil_pelaez_pdf(chi_square_cf(8), 3.0)
    except NonConvergenceError:
        return
    assert abs(got - _chi_square_density(8, 3.0)) <= 1e-8


def test_normal_cfs_carry_their_moments():
    # exact (mean, variance) where the law has them; the stencil of
    # cf_moments gives chi2(5) a variance of 9.99999999823
    assert normal_cf(1.5, 2.0).moments == (1.5, 4.0)
    assert chi_square_cf(5).moments == (5.0, 10.0)
    assert cauchy_cf().moments is None
    # a product records its factors as the pair with d = 0; a correlated
    # normal pair records N(mu1 - d mu2, var1 - d cov) and N(mu2, var2)
    a, b = normal_cf(1.5, 2.0), normal_cf(-1.0, 0.5)
    jcf = product_joint_cf(a, b)
    assert jcf.pair == (a, b, 0.0)
    p = BivNormalParams(1.5, -1.0, 2.0, 0.5, 0.3)
    cf1, cf2, d = bivariate_normal_joint_cf(p).pair
    cov = 0.3 * 2.0 * 0.5
    assert d == cov / 0.25
    assert cf1.moments == normal_cf(1.5 + d, math.sqrt(4.0 - d * cov)).moments
    assert cf2.moments == (-1.0, 0.25)
    # phi2d of the product is phi1 phi2
    s, t = np.array([0.3, -1.1]), np.array([0.7, 0.2])
    want = normal_cf(1.5, 2.0).phi(s) * normal_cf(-1.0, 0.5).phi(t)
    assert np.array_equal(jcf.phi2d(s, t), want)


_HAKE0 = hake_params(HakeInputs(40.9095, 63.8842, 18.9856, 15.5006, 0.474003, 60))
_HAKE1 = hake_params(HakeInputs(43.5288, 72.3192, 12.9488, 17.2443, 0.623695, 31))
_TAILS = (-5.0, 0.5, 5.0)


@pytest.mark.parametrize(
    "p, xs",
    [
        (_HAKE0, np.linspace(0.261674, 0.515936, 4)),
        (_HAKE1, np.linspace(0.365095, 0.654554, 4)),
        (dataclasses.replace(_HAKE0, rho=0.0), _TAILS),
        (dataclasses.replace(_HAKE0, rho=0.99), _TAILS),
        (dataclasses.replace(_HAKE0, rho=-0.99), _TAILS),
        (BivNormalParams(1.5, 2.0, 1.0, 0.7, 0.99), _TAILS),
        (BivNormalParams(1.5, 2.0, 1.0, 0.7, -0.99), _TAILS),
        (BivNormalParams(1.0, 2.0, 0.01, 0.01, 0.0), (0.48, 0.5, 0.52)),
    ],
    ids=["hake0", "hake1", "rho0", "rho+0.99", "rho-0.99", "unit+0.99", "unit-0.99", "sigma0.01"],
)
def test_gaussian_lattice_matches_generic_cells(p, xs):
    # the independent pair (X1 - d X2, X2) at x - d, on the tabulated inner
    # sum, and the correlated CF's generic per-cell evaluation sum the same
    # cells; clearing the pair forces the generic path
    jcf = bivariate_normal_joint_cf(p)
    generic = dataclasses.replace(jcf, pair=None)
    cfg = auto_grid(normal_cf(p.mu1, p.sigma1), normal_cf(p.mu2, p.sigma2))
    xs = np.asarray(xs, dtype=float)
    peak = float(np.max(ratio_pdf_phamgia(p, np.linspace(-5.0, 5.0, 20001))))
    fast, slow = broda_kan_pdf_joint(jcf, xs, cfg), broda_kan_pdf_joint(generic, xs, cfg)
    assert np.isfinite(fast).all()
    assert np.max(np.abs(fast - slow)) <= 1e-14 * peak
    with warnings.catch_warnings():
        # hake0 at rho = 0.99 overshoots 1 by 6e-6 at x = 5 on this grid, on
        # both paths: auto_grid sizes the grid from the marginals alone
        warnings.simplefilter("ignore", AccuracyWarning)
        fast, slow = broda_kan_cdf(jcf, xs, cfg), broda_kan_cdf(generic, xs, cfg)
    assert np.max(np.abs(fast - slow)) <= 1e-14


@pytest.mark.parametrize(
    "p", [_HAKE0, BivNormalParams(1.5, 2.0, 1.0, 0.7, -0.99), BivNormalParams(1.5, 2.0, 1.0, 0.7, 0.5)],
    ids=["hake0", "unit-0.99", "unit-rho0.5"],
)
def test_bivariate_normal_is_shifted_independent_pair(p):
    # with d = cov/var2, X1 - d X2 is independent of X2 and W - d is their
    # ratio (Marsaglia 2006): N(mu1 - d mu2, sigma1^2 (1 - rho^2)) / N(mu2, sigma2^2)
    d = p.rho * p.sigma1 / p.sigma2
    pair = product_joint_cf(normal_cf(p.mu1 - d * p.mu2, p.sigma1 * math.sqrt(1.0 - p.rho ** 2)),
                            normal_cf(p.mu2, p.sigma2))
    cfg = auto_grid(normal_cf(p.mu1, p.sigma1), normal_cf(p.mu2, p.sigma2))
    xs = np.linspace(-2.0, 3.0, 11) * p.mu1 / p.mu2
    jcf = bivariate_normal_joint_cf(p)
    peak = float(np.max(ratio_pdf_phamgia(p, np.linspace(-5.0, 5.0, 20001))))
    pdf, want = broda_kan_pdf_joint(jcf, xs, cfg), broda_kan_pdf_joint(pair, xs - d, cfg)
    assert np.max(np.abs(pdf - want)) <= 1e-14 * peak
    assert np.max(np.abs(broda_kan_cdf(jcf, xs, cfg) - broda_kan_cdf(pair, xs - d, cfg))) <= 1e-14


@pytest.mark.parametrize(
    "p",
    [
        _HAKE0,
        dataclasses.replace(_HAKE0, rho=0.99),
        dataclasses.replace(_HAKE0, rho=-0.99),
        BivNormalParams(1.0, 2.0, 0.01, 0.01, 0.0),
    ],
    ids=["hake0", "rho+0.99", "rho-0.99", "sigma0.01"],
)
def test_bivariate_normal_sums_its_recorded_pair(p):
    # the joint CF's sums are its recorded pair's sums at x - d, bit for bit
    jcf = bivariate_normal_joint_cf(p)
    cf1, cf2, d = jcf.pair
    pair = product_joint_cf(cf1, cf2)
    cfg = auto_grid(normal_cf(p.mu1, p.sigma1), normal_cf(p.mu2, p.sigma2))
    xs = np.concatenate([np.linspace(-2.0, 3.0, 11) * p.mu1 / p.mu2, _TAILS])
    assert np.array_equal(broda_kan_pdf_joint(jcf, xs, cfg),
                          broda_kan_pdf_joint(pair, xs - d, cfg))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", AccuracyWarning)  # rho = 0.99 overshoots 1 (see above)
        assert np.array_equal(broda_kan_cdf(jcf, xs, cfg), broda_kan_cdf(pair, xs - d, cfg))


def test_bivariate_normal_pair_is_built_once(monkeypatch):
    # the pair is built at construction: a grid of sums builds no CF
    jcf = bivariate_normal_joint_cf(_HAKE0)
    cfg = auto_grid(normal_cf(_HAKE0.mu1, _HAKE0.sigma1), normal_cf(_HAKE0.mu2, _HAKE0.sigma2))
    calls = []

    def counted(name):
        build = getattr(cf_module, name)

        def call(*args):
            calls.append(name)
            return build(*args)
        return call

    for name in ("normal_cf", "product_joint_cf"):
        monkeypatch.setattr(cf_module, name, counted(name))
    xs = np.linspace(0.261674, 0.515936, 50)
    assert np.isfinite(broda_kan_pdf_joint(jcf, xs, cfg)).all()
    assert np.isfinite(broda_kan_cdf(jcf, xs, cfg)).all()
    assert calls == []


def test_bivariate_normal_without_shifted_variance_raises_at_construction():
    # rounding at |rho| -> 1 leaves X1 - d X2 no variance: the constructor says so
    p = BivNormalParams(1.0, 2.0, 0.2188232194149646, 0.14793014303273438, 0.9999999999999999)
    with pytest.raises(InvalidParamsError, match="normal CF needs"):
        bivariate_normal_joint_cf(p)


def _one_shot(jcf, x, cfg, density):
    # the folded lattice summed whole: Re[G(s, t - xs) - G(s, -t - xs)] / d
    nu = np.arange(0, cfg.N + 1, dtype=float) + 0.5
    s, t = (cfg.h1 * nu)[None, :], (cfg.h2 * nu)[:, None]
    g, d = (jcf.dphi2d_dt2, -t) if density else (jcf.phi2d, s * t)
    cells = (g(s, t - x * s) - g(s, -t - x * s)).real / d
    total = cfg.h1 * cfg.h2 * cells.sum(axis=1).sum() / (math.pi * math.pi)
    return total if density else float(clamp_cdf(np.array(0.5 + total)))


@pytest.mark.parametrize("n", [1, 31, 32, 33, 63, 64, 65, 200])
@pytest.mark.parametrize(
    "cf1, cf2",
    [(normal_cf(1.2, 1.0), chi_square_cf(5)), (normal_cf(1.0, 0.5), cauchy_cf(0.5, 1.0))],
    ids=["normal-chisq5", "normal-cauchy"],
)
def test_row_blocked_sums_equal_one_shot_sum(cf1, cf2, n):
    # blocks of t rows (the last one ragged, whether the blocks hold 32 or
    # 64 rows) change no cell and no sum order; 201 rows pass NumPy's
    # 128-term pairwise block, where a block-wise total would round differently.
    # Clearing the pair keeps it off the tabulated inner sum.
    jcf = dataclasses.replace(product_joint_cf(cf1, cf2), pair=None)
    cfg = Grid2DConfig(n, 0.05, 0.1)
    xs = np.array([-0.7, 0.3, 2.5])
    pdf = broda_kan_pdf_joint(jcf, xs, cfg)
    cdf = broda_kan_cdf(jcf, xs, cfg)
    for x, got_pdf, got_cdf in zip(xs.tolist(), pdf.tolist(), cdf.tolist()):
        assert got_pdf == _one_shot(jcf, x, cfg, True)
        assert got_cdf == _one_shot(jcf, x, cfg, False)


_TABLE_PAIRS = [
    (normal_cf(1.2, 1.0), chi_square_cf(5)),
    (chi_square_cf(5), normal_cf(0.0, 1.0)),
    (normal_cf(1.5, 1.0), normal_cf(1.0, 1.0)),
]


@pytest.mark.parametrize("n", [1, 31, 64, 65, 200, 500])
@pytest.mark.parametrize(
    "cf1, cf2", _TABLE_PAIRS, ids=["normal-chisq5", "chisq5-normal", "normal-normal"]
)
def test_tabled_sums_match_one_shot_sum(cf1, cf2, n):
    # an independent pair reads its inner sum off one FFT-built table, the
    # normal pair too (an entire denominator)
    jcf = product_joint_cf(cf1, cf2)
    cfg = auto_grid(cf1, cf2) if n == 500 else Grid2DConfig(n, 0.05, 0.1)
    xs = np.array([-0.7, 0.0, 0.3, 2.5, 40.0])
    pdf, cdf = broda_kan_pdf_joint(jcf, xs, cfg), broda_kan_cdf(jcf, xs, cfg)
    want_pdf = np.array([_one_shot(jcf, x, cfg, True) for x in xs.tolist()])
    want_cdf = np.array([_one_shot(jcf, x, cfg, False) for x in xs.tolist()])
    assert np.max(np.abs(pdf - want_pdf)) <= 1e-13 * np.max(np.abs(want_pdf))
    assert np.max(np.abs(cdf - want_cdf)) <= 1e-14


def _counted(cf, calls):
    def dphi(t):
        calls.append(np.size(t))
        return cf.dphi(t)
    return dataclasses.replace(cf, dphi=dphi)


@pytest.mark.parametrize(
    "cf1, cf2", [_TABLE_PAIRS[1], _TABLE_PAIRS[0]], ids=["chisq5-normal", "normal-chisq5"]
)
def test_tabled_grid_reads_one_table(cf1, cf2):
    # 1000 points cost one table: the denominator's derivative is sampled in
    # one call, and no point falls back to the direct sum (which would call
    # it again, a t block at a time); a chi2(5) denominator needs the table's
    # h2/4 spacing for that
    calls = []
    jcf = product_joint_cf(cf1, _counted(cf2, calls))
    pdf = broda_kan_pdf_joint(jcf, np.linspace(-3.0, 3.0, 1000), auto_grid(cf1, cf2))
    assert len(calls) == 1 and np.isfinite(pdf).all()


@pytest.mark.parametrize(
    "cf1, cf2, xs",
    [
        # the kink of the Cauchy CF at t = 0 makes the inner sum jump, so the
        # table cannot be read there
        (normal_cf(1.0, 0.5), cauchy_cf(0.5, 1.0), [-0.7, 0.3, 2.5, 30.7]),
        (normal_cf(1.2, 1.0), chi_square_cf(5), [-1e4, 3e3]),
    ],
    ids=["kinked-denominator", "beyond-table-reach"],
)
def test_tabled_sums_fall_back_to_direct_sum(cf1, cf2, xs):
    # a point whose interpolation error estimate is too large, or whose
    # table would span too far, is the blocked direct sum, bit for bit
    jcf = product_joint_cf(cf1, cf2)
    direct = dataclasses.replace(jcf, pair=None)
    cfg = Grid2DConfig(200, 0.05, 0.1)
    xs = np.asarray(xs)
    assert np.array_equal(broda_kan_pdf_joint(jcf, xs, cfg), broda_kan_pdf_joint(direct, xs, cfg))
    assert np.array_equal(broda_kan_cdf(jcf, xs, cfg), broda_kan_cdf(direct, xs, cfg))


_D0 = _HAKE0.rho * _HAKE0.sigma1 / _HAKE0.sigma2  # the Hake pair is summed at x - d


@pytest.mark.parametrize("fn", [broda_kan_pdf_joint, broda_kan_cdf])
@pytest.mark.parametrize(
    "jcf, cfg, xs",
    [
        (product_joint_cf(normal_cf(0.0, 1.0), chi_square_cf(5)),
         auto_grid(normal_cf(0.0, 1.0), chi_square_cf(5)), 0.15 * np.arange(-20.0, 20.0)),
        (bivariate_normal_joint_cf(_HAKE0),
         auto_grid(normal_cf(_HAKE0.mu1, _HAKE0.sigma1), normal_cf(_HAKE0.mu2, _HAKE0.sigma2)),
         _D0 + 0.05 * np.arange(-20.0, 20.0)),
    ],
    ids=["normal-chisq5", "hake0"],
)
def test_tabled_reads_do_not_depend_on_the_read_chunk(monkeypatch, fn, jcf, cfg, xs):
    # each (point, s) pair is read with its own arithmetic, so a grid read in
    # chunks of one point's pairs, a grid read in the default chunks and the
    # grid's float calls agree byte for byte, at x < 0, x = 0 and x > 0 of the
    # summed pair
    default = fn(jcf, xs, cfg)
    floats = np.array([fn(jcf, x, cfg) for x in xs.tolist()])
    monkeypatch.setattr(cf_module, "_TABLE_CELLS", cfg.N + 1)
    one_point = fn(jcf, xs, cfg)
    assert default.tobytes() == one_point.tobytes() == floats.tobytes()


@pytest.mark.xfail(strict=True, reason=(
    "Broda-Kan on N(1, 0.5)/Cauchy(0.5, 1) is off by up to 0.011 (2.6% of the peak) on its "
    "auto_grid, with no warning; Mellin and Monte Carlo agree to ~1e-4"))
def test_broda_kan_normal_over_cauchy():
    # references: Mellin with a Cauchy density and 4e7 Monte Carlo draws
    xs = np.array([-2.0, -0.4, 0.3, 1.5, 4.0])
    want = np.array([0.0366, 0.1946, 0.4242, 0.1229, 0.0192])
    got = broda_kan_pdf_indep(normal_cf(1.0, 0.5), cauchy_cf(0.5, 1.0), xs)
    assert np.max(np.abs(got - want)) <= 1e-3


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "Broda-Kan on the correlated pair N(1, 0.5)/N(2, 0.7), rho 0.3, at x = +-100 gives CDF "
    "0.527 and 0.484 (truth 5.9e-5 and 0.99994) and density -0.0105 (truth ~6e-7), with no "
    "warning (ROADMAP item 2)"))
def test_broda_kan_far_points_are_right_or_warn():
    # references: the closed forms
    p = BivNormalParams(1.0, 2.0, 0.5, 0.7, 0.3)
    jcf, cfg = bivariate_normal_joint_cf(p), auto_grid(normal_cf(1.0, 0.5), normal_cf(2.0, 0.7))
    xs = np.array([-100.0, 100.0])
    peak = float(np.max(ratio_pdf_phamgia(p, np.linspace(-5.0, 5.0, 20001))))
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        cdf, pdf = broda_kan_cdf(jcf, xs, cfg), broda_kan_pdf_joint(jcf, xs, cfg)
    if any(issubclass(w.category, AccuracyWarning) for w in seen):
        return
    assert np.max(np.abs(cdf - ratio_cdf(p, xs))) <= 1e-8
    assert np.max(np.abs(pdf - ratio_pdf_phamgia(p, xs))) <= 1e-8 * peak


def _negated(cf):
    """CF of -X: phi(-t), with phi' -> -phi'(-t)."""
    dphi = None if cf.dphi is None else (lambda t: -cf.dphi(-t))
    return CharFn(lambda t: cf.phi(-t), dphi, cf.decay_scale, f"-{cf.label}")


@pytest.mark.parametrize(
    "cf1, cf2",
    [(chi_square_cf(5), normal_cf(0.0, 1.0)), (normal_cf(1.0, 0.5), cauchy_cf())],
    ids=["chisq5-normal", "normal-cauchy"],
)
def test_reflection_generic_cells(cf1, cf2):
    # W -> -W negates the numerator: on the folded lattice each cell's two
    # CF values trade places (conjugated and negated), so f_{-W}(-x) = f_W(x)
    # exactly and F_{-W}(-x) + F_W(x) = 1 to rounding
    cfg = auto_grid(cf1, cf2)
    xs = np.array([-2.0, -0.4, 0.3, 1.5])
    jcf, flipped = product_joint_cf(cf1, cf2), product_joint_cf(_negated(cf1), cf2)
    assert np.array_equal(broda_kan_pdf_joint(flipped, -xs, cfg), broda_kan_pdf_joint(jcf, xs, cfg))
    total = broda_kan_cdf(flipped, -xs, cfg) + broda_kan_cdf(jcf, xs, cfg)
    assert np.max(np.abs(total - 1.0)) <= 1e-15


@pytest.mark.parametrize(
    "p, xs",
    [
        (_HAKE0, np.linspace(0.261674, 0.515936, 4)),
        (BivNormalParams(1.5, 2.0, 1.0, 0.7, 0.5), np.array([-2.0, 0.0, 0.8, 3.0])),
    ],
    ids=["hake0", "unit-rho0.5"],
)
def test_reflection_gaussian_lattice(p, xs):
    # W -> -W is mu1 -> -mu1 with rho -> -rho; the shifted independent pair
    # (X1 - d X2, X2) at x - d keeps the reflection to rounding
    flipped = dataclasses.replace(p, mu1=-p.mu1, rho=-p.rho)
    cfg = auto_grid(normal_cf(p.mu1, p.sigma1), normal_cf(p.mu2, p.sigma2))
    jcf, jflip = bivariate_normal_joint_cf(p), bivariate_normal_joint_cf(flipped)
    peak = float(np.max(ratio_pdf_phamgia(p, np.linspace(-5.0, 5.0, 20001))))
    pdf, pdf_flip = broda_kan_pdf_joint(jcf, xs, cfg), broda_kan_pdf_joint(jflip, -xs, cfg)
    assert np.max(np.abs(pdf_flip - pdf)) <= 1e-15 * peak
    total = broda_kan_cdf(jflip, -xs, cfg) + broda_kan_cdf(jcf, xs, cfg)
    assert np.max(np.abs(total - 1.0)) <= 1e-15
