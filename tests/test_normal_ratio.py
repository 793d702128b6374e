"""Closed forms for normal ratios, Hake parameterization, modality, moments."""

import math
import sys

import numpy as np
import pytest

from ratiodist import cli, normal_ratio
from ratiodist.errors import AccuracyWarning, InvalidParamsError, NonConvergenceError
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
    ratio_practical_moments,
    std_ratio_cdf,
    std_ratio_pdf,
    to_standard,
)
from ratiodist.quadrature import QuadratureConfig, de_integrate, integrate_rows
from ratiodist.special import std_normal_cdf

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


@pytest.mark.parametrize("cls, args", [
    (BivNormalParams, (math.nan, 0.0, 1.0, 1.0, 0.0)),
    (BivNormalParams, (0.0, 0.0, math.inf, 1.0, 0.0)),
    (BivNormalParams, (0.0, 0.0, 1.0, 1.0, math.nan)),
    (StdRatioParams, (-math.inf, 1.0)),
    (StdRatioParams, (1.0, math.nan)),
])
def test_params_reject_non_finite_fields(cls, args) -> None:
    with pytest.raises(InvalidParamsError, match="must be finite"):
        cls(*args)


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


@pytest.mark.parametrize("t", [math.inf, -math.inf, 1e200, -1e200, 1e308, -1e308])
def test_density_vanishes_at_infinity(t) -> None:
    for sr in (StdRatioParams(1.5, 1.0), StdRatioParams(0.0, 0.0), StdRatioParams(5.0, 25.0)):
        assert std_ratio_pdf(sr, t) == 0.0
    # (w - shift)/scale overflows to +/-inf on an array too, silently
    narrow = BivNormalParams(100.0, 2.0, 0.01, 0.25, 0.3)
    assert ratio_pdf_phamgia(narrow, np.array([t])).tolist() == [0.0]
    assert ratio_cdf(narrow, np.array([t])).tolist() == [1.0 if t > 0.0 else 0.0]
    assert ratio_pdf_phamgia(BivNormalParams(1.0, 2.0, 0.5, 0.25, 0.3), t) == 0.0
    assert ratio_pdf_phamgia(BivNormalParams(-1.5, 1.0, 1.0, 1.0, 0.0), t) == 0.0
    assert ratio_pdf_hinkley(BivNormalParams(1.0, 2.0, 0.5, 0.25, 0.3), t) == 0.0
    assert ratio_pdf_hinkley(BivNormalParams(-1.5, 1.0, 1.0, 1.0, 0.0), t) == 0.0


def test_normalization_all_pilot_pairs() -> None:
    cfg = QuadratureConfig(rel_tol=1e-10)
    for a, b in ((2.0, 0.25), (1.5, 1.0), (4.0, 7.0), (5.0, 25.0)):
        sr = StdRatioParams(a, b)
        r = de_integrate(lambda t: std_ratio_pdf(sr, t), -math.inf, math.inf, cfg)
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


@pytest.mark.parametrize(
    ("p", "w", "want", "phamgia_tol"),
    [
        # narrow, strongly correlated denominator: Pham-Gia's standardization
        # is ill-conditioned here (a ~ 4e5)
        (BivNormalParams(1.0, 200.0, 0.5, 0.001, -0.9), -0.00328, 0.66219848502471407, 1e-9),
        (BivNormalParams(100.0, 2.0, 0.01, 0.25, 0.3), 44.3, 0.047872948978271737, 1e-14),
        (BivNormalParams(500.0, 500.0, 1.0, 1.0, 0.0), 1.0, 141.04739588693907, 1e-14),
    ],
)
def test_closed_forms_match_high_precision_references(p, w, want, phamgia_tol) -> None:
    # references: 40-digit integration of the bivariate normal density; the
    # exponents of both forms are differences of two huge terms unless they
    # are formed by the exact identities
    assert abs(ratio_pdf_hinkley(p, w) - want) <= 1e-14 * want
    assert abs(ratio_pdf_phamgia(p, w) - want) <= phamgia_tol * want


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
            lambda t: std_ratio_pdf(sr, t), t1, t2, cfg
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
            lambda u: ratio_pdf_phamgia(p, u), -30.0, w, cfg
        ).value
        tail_below_minus30 = 1.0 - de_integrate(
            lambda u: ratio_pdf_phamgia(p, u), -30.0, 40.0, cfg
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


def test_std_ratio_cdf_warns_on_mass_outside_unit_interval(monkeypatch) -> None:
    # two orthant probabilities summing above 1 + 1e-8 mean a wrong kernel:
    # clamped, with a warning (the upper tail at t = 3 becomes 1 - 1.5)
    monkeypatch.setattr(
        normal_ratio, "bvn_cdf", lambda h, k, rho, rho_c: np.full(np.shape(h), 0.75),
    )
    with pytest.warns(AccuracyWarning):
        assert std_ratio_cdf(StdRatioParams(1.5, 1.0), -3.0) == 1.0
    with pytest.warns(AccuracyWarning):
        assert std_ratio_cdf(StdRatioParams(1.5, 1.0), 3.0) == 0.0


# ------------------------------------ the closed-form CDF against the density's integral

# The CDF the package computed before the closed form: the density integrated
# by the DE sweep from t over the tail on the far side of the centre a/b, each
# point a row.  Kept here so that the two CDFs still check each other.
_DE_CDF_CFG = QuadratureConfig(rel_tol=1e-12, abs_floor=1e-14)


def _de_cdf(sr: StdRatioParams, t, cfg: QuadratureConfig = _DE_CDF_CFG) -> np.ndarray:
    flat = np.asarray(t, dtype=float).ravel()
    center = sr.a / sr.b if sr.b > 0.0 else 0.0
    side = np.where(flat <= center, -1.0, 1.0)
    origin = np.zeros(flat.shape[0])
    mass = integrate_rows(lambda idx, u: std_ratio_pdf(sr, flat[idx, None] + side[idx, None] * u),
                          origin, origin + math.inf, cfg).value
    return np.where(side < 0.0, mass, 1.0 - mass)


def test_std_ratio_cdf_matches_density_integral_at_its_old_tolerance() -> None:
    for a, b in ((1.5, 1.0), (0.0, 0.0), (2.0, 0.25), (5.0, 25.0), (9.0, 26.0), (0.5, 3.0),
                 (3.0, 0.1), (20.0, 1.0), (1.0, 40.0), (100.0, 100.0)):
        sr = StdRatioParams(a, b)
        center = a / b if b > 0.0 else 0.0
        t = np.concatenate([np.linspace(-50.0, 50.0, 101), center + np.linspace(-1.0, 1.0, 41)])
        assert np.max(np.abs(std_ratio_cdf(sr, t) - _de_cdf(sr, t))) <= 5e-15


def test_std_ratio_cdf_seeded_sweep_against_density_integral() -> None:
    # (a, b) on {0, ..., 500}^2; t near the centre, in the body, in the far
    # tails, where 1 - |t/s| drops below eps (1e12) and where the CDF takes
    # its limit |rho| = 1 (1e200), and at +/-inf.  The reference runs at
    # rel_tol 1e-14 without an absolute floor: at the old tolerances it is
    # itself off by 1.2e-14 at (3, 500), t = 0.01995, where its tail mass of
    # 1.53e-12 meets the 1e-14 floor.  A point whose reference does not
    # converge at that tolerance is left out.
    cfg = QuadratureConfig(rel_tol=1e-14, abs_floor=0.0)
    rng = np.random.default_rng(20261019)
    compared = 0
    for _ in range(40):
        a, b = (float(v) for v in rng.integers(0, 501, 2))
        sr = StdRatioParams(a, b)
        center = a / b if b > 0.0 else 0.0
        sd = math.hypot(1.0, center) / max(b, 1.0)
        t = np.concatenate([center + sd * rng.normal(0.0, 3.0, 8), rng.uniform(-50.0, 50.0, 4),
                            [-1e12, 1e12, -1e200, 1e200]])
        got = std_ratio_cdf(sr, t)
        for x, g in zip(t.tolist(), got.tolist()):
            try:
                want = _de_cdf(sr, [x], cfg)[0]
            except NonConvergenceError:
                continue
            compared += 1
            assert abs(g - want) <= 1e-14, (a, b, x, g, want)
        assert std_ratio_cdf(sr, np.array([-math.inf, math.inf])).tolist() == [0.0, 1.0]
    assert compared >= 600


@pytest.mark.parametrize(("sigma1", "w", "want"), [
    (1e-20, 0.0, std_normal_cdf(-2.0)),
    (1e-100, 0.5, 0.5 + std_normal_cdf(-2.0)),
    (1e-100, 1.0, std_normal_cdf(1.0) + std_normal_cdf(-2.0)),
])
def test_ratio_cdf_tiny_numerator_sd(sigma1, w, want) -> None:
    # X1 = 1 to within sigma1, so F(w) = P(1/X2 <= w) for X2 ~ N(2, 1): the
    # density-integration CDF returned 0.0, 4.0e-88 and 1.0 here
    p = BivNormalParams(1.0, 2.0, sigma1, 1.0, 0.0)
    assert abs(ratio_cdf(p, w) - want) <= 1e-15


def test_ratio_cdf_reflection() -> None:
    # W -> -W: (-mu1, mu2, -rho) at -w has the CDF 1 - F(w)
    rng = np.random.default_rng(44)
    for _ in range(50):
        p = _random_biv(rng)
        q = BivNormalParams(-p.mu1, p.mu2, p.sigma1, p.sigma2, -p.rho)
        w = np.concatenate([rng.uniform(-8.0, 8.0, 40), [-1e9, 1e9, -math.inf, math.inf]])
        assert np.max(np.abs(ratio_cdf(q, -w) - (1.0 - ratio_cdf(p, w)))) <= 1e-15


def test_cdf_grid_equals_float_calls() -> None:
    # both bvn_cdf branches, both tails, the far tails and the limits
    t = np.concatenate([np.linspace(-60.0, 60.0, 97), [-1e200, -1e12, 1e12, 1e200,
                                                       -math.inf, math.inf]])
    for sr in (StdRatioParams(1.5, 1.0), StdRatioParams(5.0, 25.0), StdRatioParams(0.0, 0.0)):
        assert std_ratio_cdf(sr, t).tolist() == [std_ratio_cdf(sr, x) for x in t.tolist()]
    p = BivNormalParams(-1.5, 1.0, 0.5, 2.0, 0.4)  # a negative affine scale
    assert ratio_cdf(p, t).tolist() == [ratio_cdf(p, x) for x in t.tolist()]


def test_analytic_cdf_runs_no_quadrature(monkeypatch, capsys) -> None:
    # every module that holds integrate_rows gets a counting wrapper; the
    # Gil-Pelaez CDF shows that the wrapper sees the calls it is meant to see
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return integrate_rows(*args, **kwargs)

    for mod in list(sys.modules.values()):
        if (getattr(mod, "__name__", "").startswith("ratiodist")
                and getattr(mod, "integrate_rows", None) is integrate_rows):
            monkeypatch.setattr(mod, "integrate_rows", counted)
    assert cli.main(["cdf", "--engine", "analytic", "--hake", "40", "65", "15", "18", "0.5", "50",
                     "--auto-interval", "--n", "25"]) == 0
    assert calls == []
    assert cli.main(["cdf", "--engine", "gil-pelaez", "--dist", "normal", "0", "1",
                     "--interval", "-1", "1", "--n", "3"]) == 0
    assert calls
    capsys.readouterr()


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


def _unfiltered_peaks(sr: StdRatioParams) -> np.ndarray:
    # reference: the peak values of the scan with the density at all 16,385 points
    theta = np.linspace(-math.pi / 2 + 1e-9, math.pi / 2 - 1e-9, 16385)
    f = np.concatenate([std_ratio_pdf(sr, np.tan(part)) for part in np.array_split(theta, 4)])
    d = np.sign(np.diff(f))
    d = d[np.maximum.accumulate(np.where(d != 0.0, np.arange(d.size), 0))]
    flips = np.nonzero((d[:-1] > 0) & (d[1:] < 0))[0]
    return f[flips + 1]


# (a, b) at which the minor peak crosses the 1e-12 floor, from both sides (bisection)
_FLOOR_CROSSINGS = [(2.5, 6.534534946222266), (2.5, 6.534534946249551),
                    (4.0, 6.4690685440746165), (4.0, 6.469068544101901),
                    (6.0, 6.409737584926916), (6.0, 6.4097375849542),
                    (10.0, 6.333401691235849), (10.0, 6.333401691263134)]


def _modality_cases():
    rng = np.random.default_rng(20261019)
    cases = list(zip(rng.uniform(0.0, 12.0, 320).tolist(), rng.uniform(0.0, 30.0, 320).tolist()))
    cases = [(a, b) for a, b in cases if a > 0.0]
    # along Marsaglia's critical curve
    for a in np.linspace(1.05, 2.25, 13).tolist():
        cases += [(a, modality_curve(a) * f) for f in (0.98, 0.999, 1.0, 1.001, 1.02)]
    near = [(a, b * f) for a, b in _FLOOR_CROSSINGS for f in (0.97, 0.99, 1.0, 1.01, 1.03)]
    return cases, near


def test_mode_count_matches_the_unfiltered_scan() -> None:
    cases, near = _modality_cases()
    assert len(cases) >= 300
    for a, b in near:
        # the minor peak lies within 10x of the floor
        peaks = _unfiltered_peaks(StdRatioParams(a, b))
        assert len(peaks) == 2 and 1e-13 <= min(peaks) <= 1e-11
    for a, b in cases + near:
        sr = StdRatioParams(a, b)
        want = int(np.count_nonzero(_unfiltered_peaks(sr) >= normal_ratio._MODE_FLOOR))
        assert normal_ratio._count_visible_modes(sr) == want, (a, b)
        verdict = classify_modality(sr, practical=False)
        if verdict is Modality.BIMODAL and want < 2:
            verdict = Modality.UNIMODAL
        assert classify_modality(sr) is verdict, (a, b)


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


@pytest.mark.parametrize("fn, args, match", [
    (practical_moments, (BivNormalParams(1.0, 0.0, 1.0, 1.0, 0.0),), "nonzero denominator mean"),
    (ratio_practical_moments, (1.0, 0.0, 2.0, 1.0), "positive scales"),
    (practical_moments, ((1.5, 1.0),), "unsupported parameter type tuple"),
    (normal_approx_cdf, (0.1, 0.4, 0.0, 0.05), "delta1, delta2 must be positive"),
])
def test_moment_helpers_refuse_bad_inputs(fn, args, match) -> None:
    with pytest.raises(InvalidParamsError, match=match):
        fn(*args)


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
