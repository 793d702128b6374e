"""Mellin-convolution ratio and product densities against closed forms."""

import math
import random
import warnings

import numpy as np
import pytest

from ratiodist import quadrature
from ratiodist.cf import chi_square_cf, gil_pelaez_pdf, normal_cf, sd_window
from ratiodist.errors import (
    AccuracyWarning,
    IntegrandError,
    InvalidParamsError,
    NonConvergenceError,
    SingularProductError,
)
from ratiodist.mellin import (
    Chebyshev,
    DensityFn,
    Support,
    cauchy_density,
    chi_square_density,
    normal_density,
    product_pdf,
    ratio_interpolant,
    ratio_pdf,
    ratio_pdf_grid,
    uniform_density,
)
from ratiodist.normal_ratio import (
    BivNormalParams,
    StdRatioParams,
    evaluation_interval,
    ratio_pdf_phamgia,
    std_ratio_pdf,
)
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
    assert Support(-math.inf, 3.0).inner_point() == 2.0


@pytest.mark.parametrize(
    "factory, args",
    [
        (normal_density, (0.0, 0.0)),
        (normal_density, (math.nan, 1.0)),
        (chi_square_density, (0.0,)),
        (chi_square_density, (-3.0,)),
        (uniform_density, (1.0, 1.0)),
        (uniform_density, (2.0, -2.0)),
        (cauchy_density, (0.0, 0.0)),
        (cauchy_density, (math.inf, 1.0)),
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
    want = 1.0 / (math.pi * (1.0 + t * t))
    assert math.isclose(ratio_pdf(f, f, t), want, rel_tol=1e-12)
    assert math.isclose(cauchy_density(0.0, 1.0).f(np.array([t]))[0], want, rel_tol=1e-15)


@pytest.mark.parametrize("z", [-3.0, -0.5, 0.2, 1.0, 1.3, 10.0])
def test_cauchy_ratio_closed_form(z):
    # Cauchy(0,1)/Cauchy(0,1) has density 2 ln|z| / (pi^2 (z^2 - 1)), 1/pi^2 at |z| = 1
    c = cauchy_density(0.0, 1.0)
    if abs(z) == 1.0:
        want = 1.0 / math.pi**2
    else:
        want = 2.0 * math.log(abs(z)) / (math.pi**2 * (z * z - 1.0))
    assert math.isclose(ratio_pdf(c, c, z), want, rel_tol=1e-12)


def test_normal_over_cauchy():
    # the reference of tests/test_cf.py::test_broda_kan_normal_over_cauchy; a 4e7-draw
    # Monte Carlo gives 0.0366, 0.1946, 0.4242, 0.1229, 0.0192
    f1, f2 = normal_density(1.0, 0.5), cauchy_density(0.5, 1.0)
    got = ratio_pdf(f1, f2, np.array([-2.0, -0.4, 0.3, 1.5, 4.0]))
    assert np.max(np.abs(got - [0.03660, 0.19461, 0.42421, 0.12294, 0.01916])) <= 5e-6
    # f(0) = f1(0) E|X2| is infinite, and the quadrature says so
    with pytest.raises(NonConvergenceError):
        ratio_pdf(f1, f2, 0.0)


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


def test_default_config_keeps_a_deep_tail_density():
    # the default is QuadratureConfig(), the CLI's config: an absolute floor
    # of 1e-280 stopped this integral at 1.28e-292
    got = ratio_pdf(normal_density(10.0, 0.5), normal_density(30.0, 0.5), 1.0)
    want = ratio_pdf_phamgia(BivNormalParams(10.0, 30.0, 0.5, 0.5, 0.0), 1.0)
    assert math.isclose(want, 2.1610374743869e-173, rel_tol=1e-12)
    assert math.isclose(got, want, rel_tol=1e-10)


@pytest.mark.parametrize("a, s1, b, s2, t, want", [
    (14.0, 0.2, 22.0, 0.3, 0.75, 2.822468576509e-14),
    (12.0, 0.25, 32.0, 0.7, 1.0, 4.7126553270e-157),
    (500.0, 1.0, 500.0, 1.0, 0.99, 0.25827527564676533),
    (500.0, 1.0, 500.0, 1.0, 1.0, 141.04739588693909),
    (500.0, 1.0, 500.0, 1.0, 1.01, 0.2868692563087724),
    (33.0, 0.9, 30.8, 0.6, 2.4, 3.516907646040614e-126),
], ids=["N(14,0.2)/N(22,0.3)", "N(12,0.25)/N(32,0.7)", "N(500,1)/N(500,1)@0.99",
        "N(500,1)/N(500,1)@1", "N(500,1)/N(500,1)@1.01", "N(33,0.9)/N(30.8,0.6)@2.4"])
def test_narrow_distant_denominator_is_not_silently_zero(a, s1, b, s2, t, want):
    # narrow mass far from x = 1, which a unit-scale map around lo + 1 steps
    # over (0.0, no warning); it must be found under either floor
    exact = ratio_pdf_phamgia(BivNormalParams(a, b, s1, s2, 0.0), t)
    assert math.isclose(exact, want, rel_tol=1e-10)
    f1, f2 = normal_density(a, s1), normal_density(b, s2)
    for cfg in (QuadratureConfig(), QuadratureConfig(abs_floor=1e-280)):
        assert math.isclose(ratio_pdf(f1, f2, t, cfg), exact, rel_tol=1e-10)


def test_seeded_deep_tail_sweep_has_no_wrong_points():
    # 200 seeded normal ratios, every point whose density exceeds 1e-250
    rng = random.Random(0)
    ts = np.linspace(-1.0, 3.0, 41)
    kept = wrong = 0
    for _ in range(200):
        a, b = rng.uniform(-5.0, 40.0), rng.uniform(2.0, 40.0)
        s1, s2 = rng.uniform(0.1, 2.0), rng.uniform(0.1, 2.0)
        want = ratio_pdf_phamgia(BivNormalParams(a, b, s1, s2, 0.0), ts)
        keep = want > 1e-250
        got = ratio_pdf(normal_density(a, s1), normal_density(b, s2), ts[keep])
        kept += int(np.count_nonzero(keep))
        wrong += int(np.count_nonzero(np.abs(got - want[keep]) > 1e-6 * want[keep]))
    assert kept == 7165  # the draw has not drifted
    assert wrong == 0


def _counted(df):
    """df with a counter of the density values it computes."""
    calls = [0]

    def f(x):
        calls[0] += np.size(x)
        return df.f(x)

    return DensityFn(f, df.support, df.label, df.moments), calls


@pytest.mark.parametrize("b", [21.0, 26.0, 30.0, 40.0])
def test_hake_scale_chebyshev_grid_work(b):
    # work counted, not timed, so machine load cannot move it; a unit-scale
    # map needs 1.43M-2.38M density values for these grids
    c1, n1 = _counted(normal_density(6.0, 1.0))
    c2, n2 = _counted(normal_density(b, 1.0))
    lo, hi = sd_window((6.0, 1.0), (b, 1.0), 2.0)
    interp = ratio_interpolant(c1, c2, lo, hi, 257)
    assert n1[0] + n2[0] <= 300_000
    grid = np.linspace(lo, hi, 7)
    exact = ratio_pdf_phamgia(BivNormalParams(6.0, b, 1.0, 1.0, 0.0), grid)
    assert np.max(np.abs(cheb_eval_many(interp, grid) - exact)) <= 1e-9 * np.max(exact)


# golden values (repr) of the unit-scale map: these ratio and product rows lie
# outside the mode map, so they must keep their nodes bit for bit
_UNMAPPED_RATIOS = [
    (normal_density(1.5, 1.0), normal_density(1.0, 1.0), [-2.0, 0.3, 1.5, 4.0],
     [0.025720190153002326, 0.27679134083302703, 0.22477364970475214, 0.0338694717081612]),
    (normal_density(1.0, 1.0), normal_density(1.5, 1.0), [-1.0, 0.4, 0.7, 2.5],
     [0.035424280709028255, 0.5762984994405338, 0.48975134960513805, 0.05050236737937985]),
    (normal_density(1.2, 1.0), chi_square_density(5), [-0.5, 0.4, 1.0, 3.0],
     [0.02383179285259631, 0.904285120029749, 0.1526183653087614, 0.006785636225130795]),
    (chi_square_density(5), normal_density(3.4, 1.0), [-0.5, 0.7, 1.5, 4.0],
     [1.3191785712811051e-06, 0.4911178554509349, 0.36524753486898953, 0.03896203954098244]),
    (uniform_density(1.0, 2.0), uniform_density(1.0, 2.0), [0.6, 0.9, 1.0, 1.7],
     [0.6111111111111109, 1.3827160493827162, 1.5000000000000002, 0.19204152249134954]),
    (normal_density(1.0, 0.5), cauchy_density(0.5, 1.0), [-2.0, -0.4, 0.3, 4.0],
     [0.03660225701393184, 0.19460725564305287, 0.42420792707263716, 0.01915502848417415]),
    # a law with an infinite variance is never mapped onto a mode, as with
    # moments=None; with N(30, 1)'s own moments the row gives ...855
    (DensityFn(normal_density(30.0, 1.0).f, Support.real_line(), "n", (30.0, math.inf)),
     normal_density(40.0, 1.0), [0.75], [12.766152972845788]),
]


@pytest.mark.parametrize("f1, f2, ts, want", _UNMAPPED_RATIOS,
                         ids=["N/N", "N/N'", "N/chisq", "chisq/N", "U/U", "N/Cauchy",
                              "N(var inf)/N"])
def test_unmapped_ratio_rows_are_bit_identical(f1, f2, ts, want):
    assert [ratio_pdf(f1, f2, t) for t in ts] == want
    assert ratio_pdf(f1, f2, np.array(ts)).tolist() == want


@pytest.mark.parametrize("f1, f2, want", [
    (normal_density(1.5, 1.0), normal_density(1.0, 1.0),
     [0.03427135634788052, 0.2643537484215516, 0.16068779640103859, 0.021197355635476756]),
    (normal_density(1.2, 1.0), chi_square_density(5),
     [0.023978842160834686, 0.08541955217805743, 0.09505664236732814, 0.06049070566184203]),
], ids=["N*N", "N*chisq"])
def test_product_rows_are_bit_identical(f1, f2, want):
    assert [product_pdf(f1, f2, t) for t in (-1.5, 0.5, 2.0, 6.0)] == want


@pytest.mark.parametrize("f1, f2, t, want", [
    # reference: tanh-sinh over x in [488, 512], N(500, 1) +/- 12 sd
    (normal_density(500.0, 1.0), normal_density(500.0, 1.0), 250000.0, 5.641885962246e-4),
    # reference: tanh-sinh over x in [1.9, 2.1], where t/x meets N(500, 1)
    (normal_density(1.0, 1.0), normal_density(500.0, 1.0), 1000.0, 4.839356417951e-4),
], ids=["N(500,1)*N(500,1)", "N(1,1)*N(500,1)"])
def test_narrow_distant_product_is_not_silently_zero(f1, f2, t, want):
    assert math.isclose(product_pdf(f1, f2, t), want, rel_tol=1e-8)


# mpmath at 30 digits where SciPy quad is off by about 2x: (pair, point) -> density
_PRODUCT_SWEEP_GOLDEN = {(10, 13): 2.380212633398916e-4, (85, 5): 3.5257300880330695e-3,
                         (108, 13): 3.568900666896327e-4}


def test_seeded_product_sweep_has_no_wrong_points():
    # 120 seeded normal products, 15 points each over c +/- 3(|a| s2 + |b| s1),
    # against SciPy quad over X1 in a +/- 14 s1 with break points at 0 and t/b
    quad = pytest.importorskip("scipy.integrate").quad
    rng = random.Random(0)
    kept = wrong = 0
    for i in range(120):
        a, b = rng.uniform(-5.0, 40.0), rng.uniform(2.0, 40.0)
        s1, s2 = rng.uniform(0.1, 2.0), rng.uniform(0.1, 2.0)
        c, w = a * b, 3.0 * (abs(a) * s2 + abs(b) * s1)
        ts = np.linspace(c - w, c + w, 15)
        ts = ts[ts != 0.0]
        got = product_pdf(normal_density(a, s1), normal_density(b, s2), ts)
        lo, hi = a - 14.0 * s1, a + 14.0 * s1
        for j, t in enumerate(ts.tolist()):
            want = _PRODUCT_SWEEP_GOLDEN.get((i, j))
            if want is None:
                def f(x):
                    return np.exp(-0.5 * ((x - a) / s1) ** 2 - 0.5 * ((t / x - b) / s2) ** 2) / (
                        2.0 * np.pi * s1 * s2 * np.abs(x))
                breaks = [x for x in (0.0, t / b) if lo < x < hi] or None
                want = quad(f, lo, hi, points=breaks, epsabs=0.0, epsrel=1e-12, limit=200)[0]
            kept += 1
            wrong += abs(got[j] - want) > 1e-6 * want
    assert kept == 1800  # the draw has not drifted
    assert wrong == 0


def test_grid_validation():
    f = normal_density(0.0, 1.0)
    with pytest.raises(InvalidParamsError):
        ratio_pdf_grid(f, f, np.array([]))
    with pytest.raises(InvalidParamsError):
        ratio_pdf_grid(f, f, np.array([1.0, 0.5]))
    with pytest.raises(InvalidParamsError):
        ratio_pdf_grid(f, f, np.array([0.0, 1.0]), accel="fast")


@pytest.mark.parametrize("grid", [[0.5, math.inf], [-math.inf, 0.5]])
def test_ratio_pdf_grid_refuses_infinite_points(grid):
    f = normal_density(0.0, 1.0)
    with pytest.raises(InvalidParamsError, match="grid points must be finite"):
        ratio_pdf_grid(f, f, np.array(grid))


@pytest.mark.parametrize("t", [math.inf, -math.inf, np.array([0.5, math.inf])])
def test_ratio_pdf_refuses_infinite_points(t):
    f = normal_density(0.0, 1.0)
    with pytest.raises(InvalidParamsError):
        ratio_pdf(f, f, t)


@pytest.mark.parametrize("accel", [None, Chebyshev(65)])
def test_grid_single_point(accel):
    f = normal_density(0.0, 1.0)
    vals = ratio_pdf_grid(f, f, np.array([0.5]), accel=accel)
    assert vals.shape == (1,)
    assert math.isclose(vals[0], ratio_pdf(f, f, 0.5), rel_tol=1e-14)


@pytest.mark.parametrize("grid, n_nodes", [([0.5], 0), ([0.5, 0.5], -3)])
def test_grid_refuses_a_bad_node_count_at_any_grid_size(grid, n_nodes):
    # one point, or two equal ones, needs no interpolant, and the count is still checked
    f = normal_density(0.0, 1.0)
    with pytest.raises(InvalidParamsError, match="2\\^k\\+1"):
        ratio_pdf_grid(f, f, grid, accel=Chebyshev(n_nodes))


def test_chebyshev_accel_matches_direct():
    f1, f2 = normal_density(1.5, 1.0), normal_density(1.0, 1.0)
    lo, hi = evaluation_interval(StdRatioParams(1.5, 1.0), 2.0)
    grid = np.linspace(lo, hi, 60)
    direct = ratio_pdf_grid(f1, f2, grid)
    cheb = ratio_pdf_grid(f1, f2, grid, accel=Chebyshev(257))
    assert np.max(np.abs(cheb - direct)) / direct.max() <= 1e-12


@pytest.mark.xfail(strict=True, reason=(
    "a fixed-degree Chebyshev interpolant of a non-smooth ratio density is silently off: "
    "uniform(1,2)/uniform(1,2) on [0.3, 2.2] by 0.007 at a peak of 1.50 (kinks at 0.5, 1, 2), "
    "N(1,0.5)/Cauchy(0.5,1) on [-2, 4.001] by 0.24 at a peak of 0.83 (log spike at 0)"))
@pytest.mark.parametrize("f1, f2, lo, hi", [
    (uniform_density(1.0, 2.0), uniform_density(1.0, 2.0), 0.3, 2.2),
    (normal_density(1.0, 0.5), cauchy_density(0.5, 1.0), -2.0, 4.001),
], ids=["uniform-uniform", "normal-cauchy"])
def test_chebyshev_on_non_smooth_density_resolves_or_warns(f1, f2, lo, hi):
    grid = np.linspace(lo, hi, 1000)
    direct = ratio_pdf_grid(f1, f2, grid)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        cheb = ratio_pdf_grid(f1, f2, grid, accel=Chebyshev(257))
    warned = any(issubclass(w.category, AccuracyWarning) for w in caught)
    assert warned or np.max(np.abs(cheb - direct)) <= 1e-10 * direct.max()


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "the 257-node Chebyshev interpolant of the Hake pair N(25, 2.36)/N(60, 2.12) on [-5, 5] "
    "is off by 0.496 at a peak of 9.50, with no warning (ROADMAP item 4)"))
def test_chebyshev_on_a_narrow_peak_resolves_or_warns():
    # the density's mass lies within 0.42 +/- 0.15, a few percent of the interval
    grid = np.linspace(-5.0, 5.0, 1000)
    want = ratio_pdf_phamgia(BivNormalParams(25.0, 60.0, 2.36, 2.12, 0.0), grid)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        cheb = ratio_pdf_grid(normal_density(25.0, 2.36), normal_density(60.0, 2.12), grid,
                              accel=Chebyshev(257))
    warned = any(issubclass(w.category, AccuracyWarning) for w in caught)
    assert warned or np.max(np.abs(cheb - want)) <= 1e-10 * want.max()


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "N(1e8, 1)/N(1e8, 1) at t = 1 reads 28209479.15162 for 28209479.17739, 9.1e-10 "
    "relative, with no warning: nodes at x = lo + c z^sc carry ulp(1e8) (ROADMAP item 5)"))
def test_ratio_pdf_at_an_extreme_location_is_right_or_warns():
    # f(1) = integral of phi(x - m)^2 |x| dx = m / (2 sqrt(pi)), to within e^(-m^2)
    f = normal_density(1e8, 1.0)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        got = ratio_pdf(f, f, 1.0)
    if any(issubclass(w.category, AccuracyWarning) for w in caught):
        return
    want = 1e8 / (2.0 * math.sqrt(math.pi))
    assert abs(got - want) <= 1e-10 * want, (got, want)


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


@pytest.mark.parametrize("density, cf", [
    (normal_density(0.3, 0.05), normal_cf(0.3, 0.05)),
    (normal_density(-2.0, 1.7), normal_cf(-2.0, 1.7)),
    (chi_square_density(5.0), chi_square_cf(5)),
    (chi_square_density(1.0), chi_square_cf(1)),
])
def test_density_moments_equal_cf_moments(density, cf):
    # the CLI windows read DensityFn.moments, six_sigma_interval CharFn.moments
    assert density.moments == cf.moments


def test_density_moments_closed_forms():
    assert uniform_density(1.0, 2.0).moments == (1.5, 1.0 / 12.0)
    assert uniform_density(-1.0, 3.0).moments == (1.0, 16.0 / 12.0)
    assert chi_square_density(2.5).moments == (2.5, 5.0)
    assert cauchy_density(0.5, 1.0).moments is None  # the Cauchy law has no mean


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
        # x > 0 rows mapped onto their mode, x < 0 rows not, in the same blocks
        (normal_density(6.0, 1.0), normal_density(24.0, 1.0), _grid_with_zero(-1.0, 1.5, 150)),
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


def _recorded_density(df, shapes):
    """df, appending the shape of every array it is asked for to shapes."""

    def f(x):
        shapes.append(np.shape(x))
        return df.f(x)

    return DensityFn(f, df.support, df.label, df.moments)


def test_point_free_factor_is_evaluated_once_per_node_row():
    # work counted, not timed: the grid's rows all span (0, oo), so chi-square
    # values are needed on one node row per integrand call; evaluated per row
    # and node, as the normal factor is, they numbered 399,640
    s1, s2 = [], []
    f1 = _recorded_density(normal_density(1.2, 1.0), s1)
    f2 = _recorded_density(chi_square_density(5), s2)
    grid = np.linspace(-1.0, 3.0, 1000)
    vals = ratio_pdf_grid(f1, f2, grid, QuadratureConfig(rel_tol=1e-10))
    n1, n2 = sum(math.prod(s) for s in s1), sum(math.prod(s) for s in s2)
    assert n2 <= 10_000
    assert n1 <= 1.02 * 399_640
    assert all(s[0] <= 2 for s in s2)
    want = [ratio_pdf(normal_density(1.2, 1.0), chi_square_density(5), t, QuadratureConfig(1e-10))
            for t in grid[::37].tolist()]
    assert vals[::37].tolist() == want


@pytest.mark.parametrize("point, calls, cells", [
    (lambda: ratio_pdf(normal_density(1.5, 1.0), normal_density(2.0, 1.0), 0.8), 7, 1120),
    (lambda: gil_pelaez_pdf(normal_cf(0.5, 1.0), 0.3), 5, 181),
    (lambda: ratio_pdf_grid(normal_density(1.5, 1.0), normal_density(1.0, 1.0),
                            np.linspace(-5.0, 8.0, 41)), 6, 25_598),
    (lambda: ratio_pdf_grid(normal_density(1.2, 1.0), chi_square_density(5),
                            np.linspace(-1.0, 3.0, 41)), 7, 17_060),
    (lambda: gil_pelaez_pdf(normal_cf(1.0, 0.5), np.linspace(-1.0, 3.0, 101)), 6, 20_369),
], ids=["mellin", "gil-pelaez", "mellin-grid", "mellin-chi2-grid", "gil-pelaez-grid"])
def test_points_and_grids_make_the_pinned_integrand_calls(point, calls, cells, monkeypatch):
    # work counted, not timed: a single point is a block of one or two rows,
    # whose bookkeeping is kept in Python floats, and a grid takes blocks of
    # more rows, kept in arrays; either makes exactly the integrand calls, on
    # exactly the cells, pinned here
    sizes = []
    call = quadrature._call

    def recorded(F, idx, x):
        sizes.append(x.size)
        return call(F, idx, x)

    monkeypatch.setattr(quadrature, "_call", recorded)
    point()
    assert (len(sizes), sum(sizes)) == (calls, cells)


@pytest.mark.parametrize("f1, f2, grid", [
    # finite pieces: x runs over [0, 1/|t|], a different hi for every t
    (uniform_density(0.0, 1.0), normal_density(1.0, 1.0), np.linspace(0.2, 4.0, 60)),
    # Hake-scale rows mapped onto their mode all span (0, oo) in z, each with its own map
    (normal_density(6.0, 1.0), normal_density(24.0, 1.0), np.linspace(0.05, 0.6, 60)),
], ids=["finite", "mapped"])
def test_rows_that_differ_evaluate_both_factors_in_full(f1, f2, grid):
    s2 = []
    vals = ratio_pdf_grid(f1, _recorded_density(f2, s2), grid)
    assert max(s[0] for s in s2[1:]) > 2
    assert vals.tolist() == [ratio_pdf(f1, f2, t) for t in grid.tolist()]


# f1 is nan past 100 and X2 lies in [1, 2]: only t = 1000 meets such a value
_NAN_TAIL = DensityFn(lambda x: np.where(x < 100.0, np.exp(-0.5 * x * x), np.nan),
                      Support.real_line())
# N(500, 1), nan past 502: the row at t = 1 is mapped onto its mode at 500, and
# its message names the node x at which the density failed
_NAN_PAST_502 = DensityFn(
    lambda x: np.where(x < 502.0, normal_density(500.0, 1.0).f(x), np.nan),
    Support.real_line(), moments=(500.0, 1.0))


@pytest.mark.parametrize("pdf, f1, f2, t, match", [
    (ratio_pdf, _NAN_TAIL, uniform_density(1.0, 2.0), np.array([0.5, 1000.0, 2.0]),
     r"at t=1000\.0 "),
    (product_pdf, _NAN_TAIL, uniform_density(1.0, 2.0), np.array([0.5, 1000.0, 2.0]),
     r"at t=1000\.0 "),
    (ratio_pdf, normal_density(500.0, 1.0), _NAN_PAST_502, 1.0,
     r"at t=1\.0 \(quadrature node 504\.0447"),
], ids=["ratio_pdf", "product_pdf", "mapped-ratio_pdf"])
def test_integrand_error_names_the_point(pdf, f1, f2, t, match):
    with pytest.raises(IntegrandError, match=match) as exc:
        pdf(f1, f2, t)
    assert ("product" if pdf is product_pdf else "ratio") in str(exc.value)


@pytest.mark.parametrize("t", [[0.5, 1.0], [1.0, 0.5]])
def test_non_convergence_names_the_point(t):
    # N(1e9,1)/N(1e9,1): t = 0.5 converges and t = 1 does not, whatever the
    # order; the error names t = 1 and carries that point's last estimates
    n = normal_density(1e9, 1.0)
    with pytest.raises(NonConvergenceError) as one:
        ratio_pdf(n, n, 1.0)
    with pytest.raises(NonConvergenceError, match=r"ratio density at t=1\.0: no convergence ") as exc:
        ratio_pdf(n, n, np.array(t))
    assert (exc.value.value, exc.value.err) == (one.value.value, one.value.err)
    assert f"err_est={exc.value.err!r}, value={exc.value.value!r}" in str(exc.value)


_GRID_CASES = [
    (normal_density(1.5, 1.0), normal_density(1.0, 1.0), np.linspace(-5.0, 8.0, 41)),
    (normal_density(1.2, 1.0), chi_square_density(5), np.linspace(-1.0, 3.0, 41)),
    (chi_square_density(5), normal_density(3.0, 1.0), np.linspace(-3.0, 5.0, 41)),
    (uniform_density(0.0, 1.0), uniform_density(0.0, 1.0), np.linspace(-1.0, 4.0, 41)),
    (normal_density(6.0, 1.0), normal_density(24.0, 1.0), np.linspace(-1.0, 1.5, 41)),
]


@pytest.fixture(scope="module")
def float_values():
    """Every _GRID_CASES point (ratio, product) and Gil-Pelaez point, one call each."""
    ratio = [[ratio_pdf(f1, f2, t) for t in g.tolist()] for f1, f2, g in _GRID_CASES]
    product = [[product_pdf(f1, f2, t) for t in g.tolist() if t != 0.0]
               for f1, f2, g in _GRID_CASES]
    gp = [gil_pelaez_pdf(normal_cf(1.0, 0.5), x) for x in np.linspace(-1.0, 3.0, 41).tolist()]
    return ratio, product, gp


@pytest.mark.parametrize("rows, cells", [(512, 32_768), (1, 1), (7, 300), (64, 5_000),
                                         (10_000, 10_000_000)])
def test_grid_values_do_not_depend_on_blocks_or_chunks(rows, cells, float_values, monkeypatch):
    monkeypatch.setattr(quadrature, "_BLOCK_ROWS", rows)
    monkeypatch.setattr(quadrature, "_BLOCK_CELLS", cells)
    ratio, product, gp = float_values
    for (f1, f2, g), r, p in zip(_GRID_CASES, ratio, product):
        assert ratio_pdf_grid(f1, f2, g).tolist() == r
        assert product_pdf(f1, f2, g[g != 0.0]).tolist() == p
    assert gil_pelaez_pdf(normal_cf(1.0, 0.5), np.linspace(-1.0, 3.0, 41)).tolist() == gp


def test_integrand_error_raised_inside_a_density_passes_through():
    def f(x):
        if np.size(x) > 1:
            raise IntegrandError("inner")
        return np.exp(-0.5 * x * x)

    with pytest.raises(IntegrandError, match="^inner$"):
        ratio_pdf(DensityFn(f, Support.real_line()), normal_density(1.0, 1.0), np.array([0.5, 2.0]))
