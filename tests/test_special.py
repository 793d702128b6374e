"""Error function, complementary error function, and the bivariate normal
probability."""

import math

import numpy as np
import pytest
import scipy.integrate as si
import scipy.special as sp

from ratiodist.errors import InvalidParamsError
from ratiodist import special
from ratiodist.special import bvn_cdf, erf, erfc, std_normal_cdf


@pytest.mark.parametrize(
    ("x", "expected", "tol"),
    [
        (0.0, 0.0, 0.0),
        # erf(1/sqrt(2)) is the one-sigma normal mass
        (1.0 / math.sqrt(2.0), 0.6826894921370859, 1e-15),
        (1.0, 0.8427007929497149, 1e-15),
        (-1.0, -0.8427007929497149, 1e-15),
        (0.5, 0.5204998778130465, 1e-15),
        (2.0, 0.9953222650189527, 1e-15),
        (6.0, 0.9999999999999998, 1e-15),
    ],
)
def test_erf_known_values(x: float, expected: float, tol: float) -> None:
    assert math.isclose(erf(x), expected, rel_tol=tol, abs_tol=1e-300)


def test_erf_is_odd_and_bounded() -> None:
    rng = np.random.default_rng(20260815)
    for x in rng.uniform(0.0, 10.0, 500):
        assert erf(float(x)) == -erf(float(-x))
        assert -1.0 < erf(float(x)) < 1.0 or x > 5.9


def test_erf_matches_reference_oracle() -> None:
    # crosses the series/continued-fraction switch at 1.2 from both sides
    rng = np.random.default_rng(11)
    xs = np.concatenate(
        [rng.uniform(-8.0, 8.0, 2000), [1e-300, -1e-12, 1.1999, 1.2, 1.2001, 27.0]]
    )
    for x in xs:
        ref = float(sp.erf(x))
        assert math.isclose(erf(float(x)), ref, rel_tol=1e-15, abs_tol=1e-300)


def test_erfc_matches_reference_oracle() -> None:
    rng = np.random.default_rng(12)
    for x in rng.uniform(-6.0, 6.0, 1000):
        # both sides carry ~1 ulp; 5e-15 leaves room for the far positive tail
        assert math.isclose(erfc(float(x)), float(sp.erfc(x)), rel_tol=5e-15)


def test_erfc_complement_identity() -> None:
    for x in (-3.0, -0.7, 0.0, 0.4, 1.2, 2.5, 5.0):
        assert math.isclose(erf(x) + erfc(x), 1.0, rel_tol=1e-14)


def test_erfc_table_matches_continued_fraction() -> None:
    # the table against the fraction that builds it, in the scaled form
    # x sqrt(pi) exp(x^2) erfc(x), which stays near 1 where erfc underflows
    rng = np.random.default_rng(20261019)
    edges = 1.0 / (special._PIECE_WIDTH * np.arange(1, special._TABLE_PIECES + 1))
    xs = np.concatenate([
        rng.uniform(1.2, 27.0, 40_000),
        np.geomspace(1.2, 1e6, 4_000),
        edges, np.nextafter(edges, 0.0), np.nextafter(edges, math.inf),
        [np.nextafter(1.2, 2.0), 27.0, 1e6],
    ])
    xs = xs[xs > 1.2]
    table = special._scaled_erfc_table(xs)
    fraction = special._scaled_erfc_cf(xs)
    assert np.max(np.abs(table - fraction) / fraction) <= 2e-15
    # erfc itself, wherever it is a normal number
    got, want = erfc(xs), np.exp(-xs * xs) * special.INV_SQRT_PI / (xs / fraction)
    normal = want > 2.2250738585072014e-308
    assert np.max(np.abs(got[normal] - want[normal]) / want[normal]) <= 2e-15
    assert special._scaled_erfc_table(np.array([math.inf]))[0] == pytest.approx(1.0, abs=1e-15)
    assert erfc(math.inf) == 0.0 and erf(math.inf) == 1.0 and erfc(-math.inf) == 2.0


def test_erfc_table_is_built_once_and_read_only() -> None:
    erfc(2.0)
    table = special._erfc_table()
    assert table is special._erfc_table()
    assert table.shape == (special._TABLE_DEGREE + 1, special._TABLE_PIECES)
    assert not table.flags.writeable


@pytest.mark.parametrize(
    ("x", "expected"),
    [
        (0.0, 0.5),
        (1.0, 0.8413447460685429),
        (-1.0, 0.15865525393145705),
        (2.0, 0.9772498680518208),
    ],
)
def test_std_normal_cdf_values(x: float, expected: float) -> None:
    assert math.isclose(std_normal_cdf(x), expected, rel_tol=1e-14)


def test_std_normal_cdf_matches_reference_oracle() -> None:
    rng = np.random.default_rng(13)
    for x in rng.uniform(-8.0, 8.0, 1000):
        assert math.isclose(std_normal_cdf(float(x)), float(sp.ndtr(x)), rel_tol=5e-15)


# ------------------------------------------------------------ bivariate normal


def _bvn_quad(h: float, k: float, rho: float) -> float:
    """Phi2(h, k; rho) as the integral of phi(x) Phi((k - rho x)/sqrt(1 - rho^2))
    over x < h, split where the inner argument crosses 0."""
    rc = math.sqrt((1.0 - rho) * (1.0 + rho))
    f = lambda x: math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi) * sp.ndtr((k - rho * x) / rc)
    lo = min(h, -40.0)
    pts = [x for x in (k / rho,) if lo < x < h] if rho != 0.0 else []
    return si.quad(f, lo, h, points=pts or None, epsabs=1e-16, epsrel=1e-12, limit=200)[0]


def test_bvn_gauss_legendre_rule_is_leggauss() -> None:
    from numpy.polynomial.legendre import leggauss

    x, w = leggauss(20)
    assert special._GL_U.tolist() == (0.5 * (1.0 + x)).tolist()
    assert special._GL_W.tolist() == (0.5 * w).tolist()


def test_bvn_cdf_against_quadrature() -> None:
    # both branches (|rho| below and above 0.925), both signs of rho
    rng = np.random.default_rng(7)
    h, k = rng.uniform(-6.0, 6.0, (2, 120))
    rho = np.concatenate([rng.uniform(-0.92, 0.92, 60), rng.uniform(0.93, 0.99999, 30),
                          -rng.uniform(0.93, 0.99999, 30)])
    got = bvn_cdf(h, k, rho)
    want = [_bvn_quad(*v) for v in zip(h.tolist(), k.tolist(), rho.tolist())]
    assert np.max(np.abs(got - want)) <= 1e-15


def test_bvn_cdf_identities() -> None:
    rng = np.random.default_rng(8)
    h, k = rng.uniform(-5.0, 5.0, (2, 200))
    rho = rng.uniform(-0.999, 0.999, 200)
    # symmetric in (h, k); independent at rho = 0; P(X <= h) splits over Y <= k and Y > k
    assert np.max(np.abs(bvn_cdf(h, k, rho) - bvn_cdf(k, h, rho))) <= 2e-16
    assert np.max(np.abs(bvn_cdf(h, k, 0.0) - std_normal_cdf(h) * std_normal_cdf(k))) <= 2e-16
    assert np.max(np.abs(bvn_cdf(h, k, rho) + bvn_cdf(h, -k, -rho) - std_normal_cdf(h))) <= 1e-15
    # rho_c given is rho_c computed, where rho itself carries it
    rc = np.sqrt((1.0 - rho) * (1.0 + rho))
    assert np.max(np.abs(bvn_cdf(h, k, rho, rc) - bvn_cdf(h, k, rho))) <= 1e-15


def test_bvn_cdf_limits() -> None:
    # |rho| = 1: Phi(min(h, k)), and the strip Phi(h) - Phi(-k) or 0
    for h, k in ((0.3, 1.2), (1.2, 0.3), (-2.0, 1.5), (2.0, -1.5), (0.5, -0.5)):
        assert bvn_cdf(h, k, 1.0) == std_normal_cdf(min(h, k))
        strip = max(0.0, std_normal_cdf(h) - std_normal_cdf(-k))
        assert abs(bvn_cdf(h, k, -1.0) - strip) <= 2.3e-16
    # infinite arguments are exact
    assert bvn_cdf(math.inf, 0.7, 0.5) == std_normal_cdf(0.7)
    assert bvn_cdf(-math.inf, 0.7, 0.5) == 0.0
    assert bvn_cdf(math.inf, math.inf, -0.99) == 1.0
    # near |rho| = 1 the result follows rho_c, which the caller knows exactly:
    # Phi2(0, 0; rho) = 1/4 + arcsin(rho)/(2 pi) = 1/2 - arcsin(rho_c)/(2 pi)
    assert abs(bvn_cdf(0.0, 0.0, 1.0, 1e-10) - (0.5 - math.asin(1e-10) / (2.0 * math.pi))) <= 1e-16


def test_bvn_cdf_float_and_array() -> None:
    assert type(bvn_cdf(0.1, 0.2, 0.3)) is float
    grid = np.array([[-3.7, -1.25, -0.4], [0.0, 1.1, 2.6]])
    got = bvn_cdf(grid, 0.8, np.array([-0.95, 0.5, 0.99]))
    assert got.shape == grid.shape
    want = [[bvn_cdf(x, 0.8, r) for x, r in zip(row, (-0.95, 0.5, 0.99))] for row in grid.tolist()]
    assert got.tolist() == want


@pytest.mark.parametrize("args", [(math.nan, 0.0, 0.5), (0.0, 0.0, 1.5), (0.0, 0.0, 0.5, -0.1)])
def test_bvn_cdf_bad_input_raises(args) -> None:
    with pytest.raises(InvalidParamsError):
        bvn_cdf(*args)
