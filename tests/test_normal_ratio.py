"""Closed forms for normal ratios, Hake parameterization, modality, moments."""

import math

import numpy as np
import pytest

from ratiodist.errors import InvalidParamsError
from ratiodist.normal_ratio import (
    MODALITY_A0,
    BivNormalParams,
    HakeInputs,
    Modality,
    StdRatioParams,
    classify_modality,
    cohens_d,
    evaluation_interval,
    hake_params,
    modality_curve,
    normal_approx_cdf,
    practical_moments,
    ratio_cdf,
    ratio_pdf_hinkley,
    ratio_pdf_phamgia,
    std_ratio_cdf,
    std_ratio_pdf,
    to_standard,
)
from ratiodist.quadrature import DETransform, QuadratureConfig, de_integrate

INV_PI = 1.0 / math.pi


def _random_biv(rng) -> BivNormalParams:
    return BivNormalParams(
        mu1=float(rng.uniform(-5.0, 5.0)),
        mu2=float(rng.uniform(-5.0, 5.0)),
        sigma1=float(rng.uniform(0.2, 3.0)),
        sigma2=float(rng.uniform(0.2, 3.0)),
        rho=float(rng.uniform(-0.9, 0.9)),
    )


# ---------------------------------------------------------------- to_standard


def test_to_standard_identity_case() -> None:
    sr, tr = to_standard(BivNormalParams(0.0, 0.0, 1.0, 1.0, 0.0))
    assert (sr.a, sr.b) == (0.0, 0.0)
    assert (tr.scale, tr.shift) == (1.0, 0.0)


def test_to_standard_pilot_pair() -> None:
    sr, tr = to_standard(BivNormalParams(1.5, 1.0, 1.0, 1.0, 0.0))
    assert math.isclose(sr.a, 1.5) and math.isclose(sr.b, 1.0)
    assert math.isclose(tr.scale, 1.0) and tr.shift == 0.0


def test_to_standard_sign_flip_keeps_a_nonnegative() -> None:
    sr, tr = to_standard(BivNormalParams(-1.5, 1.0, 1.0, 1.0, 0.0))
    assert math.isclose(sr.a, 1.5) and math.isclose(sr.b, 1.0)
    assert tr.scale < 0.0
    # density at w equals the reflected standardized density
    p = BivNormalParams(-1.5, 1.0, 1.0, 1.0, 0.0)
    for w in (-2.0, -0.3, 0.0, 1.1):
        assert math.isclose(
            ratio_pdf_phamgia(p, w), std_ratio_pdf(sr, -w), rel_tol=1e-13
        )


def test_to_standard_composition_recovers_raw_density() -> None:
    rng = np.random.default_rng(41)
    for _ in range(50):
        p = _random_biv(rng)
        sr, tr = to_standard(p)
        assert sr.a >= 0.0 and sr.b >= 0.0
        w = float(rng.uniform(-4.0, 4.0))
        via_transform = std_ratio_pdf(sr, (w - tr.shift) / tr.scale) / abs(tr.scale)
        assert math.isclose(via_transform, ratio_pdf_phamgia(p, w), rel_tol=1e-12)


def test_degenerate_correlation_rejected() -> None:
    with pytest.raises(InvalidParamsError):
        BivNormalParams(0.0, 0.0, 1.0, 1.0, 1.0)
    with pytest.raises(InvalidParamsError):
        BivNormalParams(0.0, 0.0, 1.0, 1.0, -1.0)
    with pytest.raises(InvalidParamsError):
        BivNormalParams(0.0, 0.0, 0.0, 1.0, 0.0)


# -------------------------------------------------------------- standard pdf


@pytest.mark.parametrize(
    ("a", "b", "t", "expected"),
    [
        (0.0, 0.0, 0.0, INV_PI),
        (0.0, 0.0, 1.0, 0.5 * INV_PI),
        # 1F1 series route for the pilot pair
        (1.5, 1.0, 0.0, 0.15109923453047062),
    ],
)
def test_std_ratio_pdf_values(a: float, b: float, t: float, expected: float) -> None:
    assert math.isclose(std_ratio_pdf(StdRatioParams(a, b), t), expected, rel_tol=1e-13)


def test_cauchy_reduction_on_grid() -> None:
    sr = StdRatioParams(0.0, 0.0)
    for t in np.linspace(-20.0, 20.0, 1000):
        assert abs(std_ratio_pdf(sr, float(t)) - INV_PI / (1.0 + t * t)) <= 1e-14


def test_symmetry_when_b_is_zero() -> None:
    sr = StdRatioParams(1.7, 0.0)
    for t in (0.1, 0.5, 1.3, 4.0, 9.0):
        assert math.isclose(std_ratio_pdf(sr, t), std_ratio_pdf(sr, -t), rel_tol=1e-15)


def test_pdf_nonnegative_and_large_params_safe() -> None:
    # exponent combination keeps b = 25 (and larger) finite
    for sr in (StdRatioParams(5.0, 25.0), StdRatioParams(30.0, 30.0)):
        for t in np.linspace(-5.0, 8.0, 200):
            v = std_ratio_pdf(sr, float(t))
            assert v >= 0.0 and math.isfinite(v)
        # t^2 overflows, silently: the density there is below the smallest double
        assert std_ratio_pdf(sr, -1e200) == 0.0
        # pi (1 + t^2) overflows first, also silently
        assert 0.0 <= std_ratio_pdf(sr, 1e154) <= 1e-300


@pytest.mark.parametrize("t", [math.inf, -math.inf, 1e200, -1e200])
def test_density_vanishes_at_infinity(t) -> None:
    for sr in (StdRatioParams(1.5, 1.0), StdRatioParams(0.0, 0.0), StdRatioParams(5.0, 25.0)):
        assert std_ratio_pdf(sr, t) == 0.0
    assert ratio_pdf_phamgia(BivNormalParams(1.0, 2.0, 0.5, 0.25, 0.3), t) == 0.0
    assert ratio_pdf_phamgia(BivNormalParams(-1.5, 1.0, 1.0, 1.0, 0.0), t) == 0.0
    assert ratio_pdf_hinkley(BivNormalParams(1.0, 2.0, 0.5, 0.25, 0.3), t) == 0.0
    assert ratio_pdf_hinkley(BivNormalParams(-1.5, 1.0, 1.0, 1.0, 0.0), t) == 0.0


def test_normalization_all_pilot_pairs() -> None:
    cfg = QuadratureConfig(rel_tol=1e-10)
    for a, b in ((2.0, 0.25), (1.5, 1.0), (4.0, 7.0), (5.0, 25.0)):
        sr = StdRatioParams(a, b)
        r = de_integrate(lambda t: std_ratio_pdf(sr, t), DETransform.real_line(), cfg)
        assert math.isclose(r.value, 1.0, rel_tol=1e-8)


# ------------------------------------------------------------ the two closed forms


def test_hinkley_cauchy_case() -> None:
    p = BivNormalParams(0.0, 0.0, 1.0, 1.0, 0.0)
    assert math.isclose(ratio_pdf_hinkley(p, 0.0), INV_PI, rel_tol=1e-14)
    assert math.isclose(ratio_pdf_phamgia(p, 0.0), INV_PI, rel_tol=1e-14)


def test_cross_formula_specific_points() -> None:
    p = BivNormalParams(1.0, 2.0, 0.5, 0.25, 0.3)
    assert abs(ratio_pdf_hinkley(p, 0.7) - ratio_pdf_phamgia(p, 0.7)) <= 1e-10
    far = BivNormalParams(0.0, 5.0, 1.0, 1.0, 0.0)
    assert abs(ratio_pdf_hinkley(far, 0.0) - ratio_pdf_phamgia(far, 0.0)) <= 1e-10
    # far tail: a(w)^2 a(w) overflows from |w| ~ 1e103 unless the terms are scaled
    for w in (1e120, -1e140):
        assert math.isclose(ratio_pdf_hinkley(p, w), ratio_pdf_phamgia(p, w), rel_tol=1e-12)
    assert 0.0 <= ratio_pdf_hinkley(p, 1.3e154) <= 1e-300


def test_cross_formula_equality_random_sweep() -> None:
    rng = np.random.default_rng(42)
    for _ in range(200):
        p = _random_biv(rng)
        w = rng.uniform(-6.0, 6.0, 50)
        h, g = ratio_pdf_hinkley(p, w), ratio_pdf_phamgia(p, w)
        assert np.all(np.abs(h - g) <= 1e-10 * (1.0 + np.abs(g)))


# ----------------------------------------------------------------------- cdf


def test_std_ratio_cdf_basic_shape() -> None:
    sr = StdRatioParams(1.5, 1.0)
    grid = np.linspace(-8.0, 8.0, 41)
    vals = [std_ratio_cdf(sr, float(t)) for t in grid]
    assert all(0.0 <= v <= 1.0 for v in vals)
    assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))


def test_std_ratio_cdf_matches_integrated_pdf() -> None:
    sr = StdRatioParams(1.5, 1.0)
    cfg = QuadratureConfig(rel_tol=1e-12)
    for t1, t2 in ((-2.0, 0.5), (0.5, 3.0), (-6.0, 6.0)):
        mass = de_integrate(
            lambda t: std_ratio_pdf(sr, t), DETransform.finite(t1, t2), cfg
        ).value
        assert math.isclose(
            std_ratio_cdf(sr, t2) - std_ratio_cdf(sr, t1), mass, rel_tol=1e-9
        )


def test_std_ratio_cdf_heavy_tails() -> None:
    # ratio tails are Cauchy-like: even at |t| = 100 the tail mass is ~0.4%
    sr = StdRatioParams(1.5, 1.0)
    assert 0.99 < std_ratio_cdf(sr, 100.0) < 0.999
    assert 0.001 < std_ratio_cdf(sr, -50.0) < 0.02


def test_cauchy_cdf_arctan() -> None:
    sr = StdRatioParams(0.0, 0.0)
    for t in (-3.0, -1.0, 0.0, 1.0, 2.5):
        assert math.isclose(
            std_ratio_cdf(sr, t), 0.5 + math.atan(t) / math.pi, rel_tol=1e-10
        )


def test_ratio_cdf_negative_scale_orientation() -> None:
    p = BivNormalParams(-1.5, 1.0, 1.0, 1.0, 0.0)
    cfg = QuadratureConfig(rel_tol=1e-12)
    for w in (-1.0, 0.0, 0.8):
        mass = de_integrate(
            lambda u: ratio_pdf_phamgia(p, u), DETransform.finite(-30.0, w), cfg
        ).value
        tail_below_minus30 = 1.0 - de_integrate(
            lambda u: ratio_pdf_phamgia(p, u), DETransform.finite(-30.0, 40.0), cfg
        ).value
        approx = mass + tail_below_minus30 * 0.5  # split leftover between tails
        assert abs(ratio_cdf(p, w) - approx) < 5e-3


def test_ratio_cdf_monotone_random_params() -> None:
    rng = np.random.default_rng(43)
    for _ in range(10):
        p = _random_biv(rng)
        grid = np.linspace(-6.0, 6.0, 25)
        vals = [ratio_cdf(p, float(w)) for w in grid]
        assert all(b >= a - 1e-10 for a, b in zip(vals, vals[1:]))


# ---------------------------------------------------------------------- hake


def test_hake_params_symbolic_case() -> None:
    h = HakeInputs(50.0, 70.0, 10.0, 10.0, 0.0, 1)
    p = hake_params(h)
    assert math.isclose(p.mu1, 20.0)
    assert math.isclose(p.mu2, 50.0)
    assert math.isclose(p.sigma1, 10.0 * math.sqrt(2.0))
    assert math.isclose(p.sigma2, 10.0)
    assert math.isclose(p.rho, 1.0 / math.sqrt(2.0))


def test_hake_params_zero_gain() -> None:
    p = hake_params(HakeInputs(50.0, 50.0, 10.0, 8.0, 0.2, 5))
    assert p.mu1 == 0.0


def test_hake_inputs_validation() -> None:
    with pytest.raises(InvalidParamsError):
        HakeInputs(50.0, 70.0, 10.0, 10.0, 1.0, 1)  # degenerate correlation
    with pytest.raises(InvalidParamsError):
        HakeInputs(100.0, 70.0, 10.0, 10.0, 0.0, 1)  # zero denominator mean
    with pytest.raises(InvalidParamsError):
        HakeInputs(50.0, 70.0, 0.0, 10.0, 0.0, 1)
    with pytest.raises(InvalidParamsError):
        HakeInputs(50.0, 70.0, 10.0, 10.0, 0.0, 0)


def test_hake_ab_textbook_case() -> None:
    sr = to_standard(hake_params(HakeInputs(50.0, 70.0, 10.0, 10.0, 0.0, 1)))[0]
    assert math.isclose(sr.b, 5.0, rel_tol=1e-14)
    assert math.isclose(sr.a, 3.0, rel_tol=1e-12)


def test_hake_ab_realistic_course_scale() -> None:
    # strong-gain class sized so the standardized pair lands in the
    # typical windows a in (4,5), b in (20,25)
    sr = to_standard(hake_params(HakeInputs(56.0, 91.0, 12.0, 12.0, 0.0, 36)))[0]
    assert 4.0 < sr.a < 5.0
    assert 20.0 < sr.b < 25.0


# ------------------------------------------------------------------ modality


@pytest.mark.parametrize(
    ("a", "b", "expected"),
    [
        (0.5, 3.0, Modality.UNIMODAL),
        (2.0, 0.25, Modality.BIMODAL),
        (1.5, 1.0, Modality.UNIMODAL),
        (0.5, 0.1, Modality.UNIMODAL),
        (0.5, 10.0, Modality.UNIMODAL),
        (1.0, 0.0, Modality.UNIMODAL),  # boundary a = 1 goes to the a <= 1 rule
    ],
)
def test_classify_modality_rule_cases(a: float, b: float, expected: Modality) -> None:
    assert classify_modality(StdRatioParams(a, b), practical=False) is expected
    assert classify_modality(StdRatioParams(a, b)) is expected


def test_classify_modality_boundary_a0() -> None:
    assert classify_modality(StdRatioParams(MODALITY_A0, 1.0), practical=False) is Modality.BIMODAL


def test_classify_modality_tie_goes_unimodal() -> None:
    a = 1.8
    b = modality_curve(a)
    assert classify_modality(StdRatioParams(a, b), practical=False) is Modality.UNIMODAL
    assert classify_modality(StdRatioParams(a, b * 0.999), practical=False) is Modality.BIMODAL


def test_classify_modality_practical_suppresses_invisible_mode() -> None:
    # the left mode at (4,7) peaks around 1e-14, far below observability
    assert classify_modality(StdRatioParams(4.0, 7.0), practical=False) is Modality.BIMODAL
    assert classify_modality(StdRatioParams(4.0, 7.0)) is Modality.UNIMODAL
    assert classify_modality(StdRatioParams(5.0, 25.0)) is Modality.UNIMODAL


def test_modality_curve_frozen_values() -> None:
    assert math.isclose(modality_curve(1.5), 0.4292076295684869, rel_tol=1e-12)
    assert math.isclose(modality_curve(2.0), 2.0300016593056758, rel_tol=1e-12)


def test_modality_curve_domain() -> None:
    with pytest.raises(InvalidParamsError):
        modality_curve(0.9)
    with pytest.raises(InvalidParamsError):
        modality_curve(MODALITY_A0)


# ------------------------------------------------- approximation and moments


def test_normal_approx_cdf_center_and_one_sigma() -> None:
    mu, d1, d2 = 0.4, 0.2, 0.05
    assert normal_approx_cdf(mu, mu, d1, d2) == 0.5
    z = mu * (1.0 + math.hypot(d1, d2))
    assert math.isclose(normal_approx_cdf(z, mu, d1, d2), 0.8413447460685429, rel_tol=1e-12)
    with pytest.raises(InvalidParamsError):
        normal_approx_cdf(0.1, 0.0, 0.2, 0.05)


def test_practical_moments_values() -> None:
    m = practical_moments(StdRatioParams(1.5, 1.0))
    assert math.isclose(m.mean, 1.5) and math.isclose(m.variance, 3.25)
    m = practical_moments(StdRatioParams(5.0, 25.0))
    assert math.isclose(m.mean, 0.2) and math.isclose(m.variance, 0.04 * (0.04 + 0.0016))


def test_practical_moments_domain() -> None:
    with pytest.raises(InvalidParamsError):
        practical_moments(StdRatioParams(0.0, 1.0))
    with pytest.raises(InvalidParamsError):
        practical_moments(StdRatioParams(1.0, 0.0))
    # bivariate route allows a centered numerator
    m = practical_moments(BivNormalParams(0.0, 5.0, 1.0, 1.0, 0.0))
    assert m.mean == 0.0 and m.variance > 0.0


def test_evaluation_interval() -> None:
    lo, hi = evaluation_interval(StdRatioParams(1.5, 1.0))
    assert math.isclose(lo, 1.5 - 2.0 * math.sqrt(3.25), rel_tol=1e-12)
    assert math.isclose(hi, 1.5 + 2.0 * math.sqrt(3.25), rel_tol=1e-12)
    assert evaluation_interval(StdRatioParams(2.0, 4.0), k=0.0)[0] == 0.5
    with pytest.raises(InvalidParamsError):
        evaluation_interval(StdRatioParams(1.5, 1.0), k=-1.0)


@pytest.mark.parametrize(
    ("post", "pre", "sd", "expected"),
    [(50.0, 50.0, 10.0, 0.0), (60.0, 50.0, 10.0, 1.0), (55.0, 50.0, 20.0, 0.25)],
)
def test_cohens_d(post: float, pre: float, sd: float, expected: float) -> None:
    assert cohens_d(post, pre, sd) == expected


def test_cohens_d_rejects_bad_sd() -> None:
    with pytest.raises(InvalidParamsError):
        cohens_d(1.0, 0.0, 0.0)
