"""One protocol for every public point function of the closed forms, the
Mellin ratio and product densities and the CF inversions: a float in gives a
float out, an array gives an array of the same shape, equal to the float
calls, and NaN raises InvalidParamsError."""

import math

import numpy as np
import pytest

from ratiodist.cf import (
    auto_grid,
    bivariate_normal_joint_cf,
    broda_kan_cdf,
    broda_kan_pdf_indep,
    broda_kan_pdf_joint,
    chi_square_cf,
    gil_pelaez_cdf,
    gil_pelaez_pdf,
    normal_cf,
    product_joint_cf,
)
from ratiodist.errors import InvalidParamsError, SingularProductError
from ratiodist.mellin import (
    cauchy_density,
    chi_square_density,
    normal_density,
    product_pdf,
    ratio_pdf,
    uniform_density,
)
from ratiodist.normal_ratio import (
    BivNormalParams,
    StdRatioParams,
    ratio_cdf,
    ratio_pdf_hinkley,
    ratio_pdf_phamgia,
    std_ratio_cdf,
    std_ratio_pdf,
)
from ratiodist.special import erf, erfc, std_normal_cdf

_SR = StdRatioParams(1.5, 1.0)
_BIV = BivNormalParams(1.0, 2.0, 0.5, 0.25, -0.3)
_CF = normal_cf(0.5, 1.2)
_JCF = bivariate_normal_joint_cf(_BIV)
_BK_CFS = (normal_cf(_BIV.mu1, _BIV.sigma1), normal_cf(_BIV.mu2, _BIV.sigma2))
_BK_GRID = auto_grid(*_BK_CFS, n=64)
_CHI_CFS = (normal_cf(1.2, 1.0), chi_square_cf(5))  # read off the tabulated inner sum
_CHI_GRID = auto_grid(*_CHI_CFS)
_DENSITIES = (normal_density(1.5, 1.0), normal_density(1.0, 1.0))
# a Cauchy numerator: finite at 0, where a Cauchy denominator's density is not
_CAUCHY_DENSITIES = (cauchy_density(0.5, 1.0), normal_density(1.0, 1.0))
# bounded supports: finite pieces, and an empty negative piece for t > 0
_BOUNDED_DENSITIES = (uniform_density(1.0, 2.0), chi_square_density(5))
# products that are regular at 0: one factor's support misses 0
_PRODUCT_DENSITIES = (uniform_density(2.0, 3.0), normal_density(0.5, 1.0))
_PRODUCT_BOUNDED = (chi_square_density(5), uniform_density(1.0, 2.0))

FUNCTIONS = {
    "erf": erf,
    "erfc": erfc,
    "std_normal_cdf": std_normal_cdf,
    "std_ratio_pdf": lambda x: std_ratio_pdf(_SR, x),
    "ratio_pdf_phamgia": lambda x: ratio_pdf_phamgia(_BIV, x),
    "ratio_pdf_hinkley": lambda x: ratio_pdf_hinkley(_BIV, x),
    "std_ratio_cdf": lambda x: std_ratio_cdf(_SR, x),
    "ratio_cdf": lambda x: ratio_cdf(_BIV, x),
    "gil_pelaez_pdf": lambda x: gil_pelaez_pdf(_CF, x),
    "gil_pelaez_cdf": lambda x: gil_pelaez_cdf(_CF, x),
    "broda_kan_pdf_joint": lambda x: broda_kan_pdf_joint(_JCF, x, _BK_GRID),
    "broda_kan_cdf": lambda x: broda_kan_cdf(_JCF, x, _BK_GRID),
    "broda_kan_pdf_indep": lambda x: broda_kan_pdf_indep(*_BK_CFS, x, _BK_GRID),
    "broda_kan_pdf_indep_chisq": lambda x: broda_kan_pdf_indep(*_CHI_CFS, x, _CHI_GRID),
    "broda_kan_cdf_chisq": lambda x: broda_kan_cdf(product_joint_cf(*_CHI_CFS), x, _CHI_GRID),
    "ratio_pdf": lambda x: ratio_pdf(*_DENSITIES, x),
    "ratio_pdf_cauchy": lambda x: ratio_pdf(*_CAUCHY_DENSITIES, x),
    "ratio_pdf_bounded": lambda x: ratio_pdf(*_BOUNDED_DENSITIES, x),
    "product_pdf": lambda x: product_pdf(*_PRODUCT_DENSITIES, x),
    "product_pdf_bounded": lambda x: product_pdf(*_PRODUCT_BOUNDED, x),
}

# both sides of erf's switch at 1.2 and of the ratio densities' modes
_GRID = np.array([[-3.7, -1.25, -0.4], [0.0, 1.1, 2.6]])


@pytest.mark.parametrize("name", list(FUNCTIONS))
def test_float_in_float_out(name):
    fn = FUNCTIONS[name]
    assert type(fn(0.7)) is float
    assert type(fn(np.float64(0.7))) is float


@pytest.mark.parametrize("name", list(FUNCTIONS))
def test_array_in_array_out_equal_to_float_calls(name):
    fn = FUNCTIONS[name]
    got = fn(_GRID)
    assert isinstance(got, np.ndarray) and got.shape == _GRID.shape
    want = np.array([[fn(x) for x in row] for row in _GRID.tolist()])
    assert np.array_equal(got, want)


# the closed forms and the CF engines: a density is 0 at +-inf, a CDF 0 at -inf and 1 at +inf
_AT_INF = ["std_ratio_pdf", "ratio_pdf_phamgia", "ratio_pdf_hinkley", "std_ratio_cdf", "ratio_cdf",
           "gil_pelaez_pdf", "gil_pelaez_cdf", "broda_kan_pdf_joint", "broda_kan_cdf",
           "broda_kan_pdf_indep", "broda_kan_pdf_indep_chisq", "broda_kan_cdf_chisq"]


@pytest.mark.parametrize("name", _AT_INF)
def test_infinite_points_give_the_limits(name):
    # with no warning (warnings are errors here); an array's finite entries
    # equal the call on them alone, bit for bit
    fn = FUNCTIONS[name]
    lo, hi = (0.0, 1.0) if "cdf" in name else (0.0, 0.0)
    assert (fn(-math.inf), fn(math.inf)) == (lo, hi)
    xs = np.array([[-math.inf, -0.4, 1.1], [math.inf, 2.6, -math.inf]])
    got = fn(xs)
    finite = np.isfinite(xs)
    assert np.array_equal(got[finite], fn(xs[finite]))
    assert np.array_equal(got[~finite], [lo, hi, lo])


@pytest.mark.parametrize("name", list(FUNCTIONS))
def test_nan_raises(name):
    fn = FUNCTIONS[name]
    with pytest.raises(InvalidParamsError):
        fn(math.nan)
    with pytest.raises(InvalidParamsError):
        fn(np.array([0.3, math.nan]))


def test_product_pdf_raises_at_a_singular_zero_in_an_array():
    n0 = normal_density(0.0, 1.0)
    with pytest.raises(SingularProductError):
        product_pdf(n0, n0, np.array([[-1.0, 0.5], [0.0, 2.0]]))


@pytest.mark.parametrize("t", [math.inf, -math.inf, np.array([0.3, -math.inf])])
def test_product_pdf_infinite_point_raises(t):
    with pytest.raises(InvalidParamsError):
        product_pdf(*_PRODUCT_DENSITIES, t)
