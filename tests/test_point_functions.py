"""One protocol for every public point function of the closed forms and the
CF inversions: a float in gives a float out, an array gives an array of the
same shape, equal to the float calls, and NaN raises InvalidParamsError."""

import math

import numpy as np
import pytest

from ratiodist.cf import (
    auto_grid,
    bivariate_normal_joint_cf,
    broda_kan_cdf,
    broda_kan_pdf_indep,
    broda_kan_pdf_joint,
    gil_pelaez_cdf,
    gil_pelaez_pdf,
    normal_cf,
)
from ratiodist.errors import InvalidParamsError
from ratiodist.normal_ratio import (
    BivNormalParams,
    StdRatioParams,
    ratio_cdf,
    ratio_pdf_hinkley,
    ratio_pdf_phamgia,
    std_ratio_cdf,
    std_ratio_pdf,
)
from ratiodist.special import erf, erfc, kummer_1f1_half, std_normal_cdf

_SR = StdRatioParams(1.5, 1.0)
_BIV = BivNormalParams(1.0, 2.0, 0.5, 0.25, -0.3)
_CF = normal_cf(0.5, 1.2)
_JCF = bivariate_normal_joint_cf(_BIV)
_BK_CFS = (normal_cf(_BIV.mu1, _BIV.sigma1), normal_cf(_BIV.mu2, _BIV.sigma2))
_BK_GRID = auto_grid(*_BK_CFS, n=64)

FUNCTIONS = {
    "erf": erf,
    "erfc": erfc,
    "std_normal_cdf": std_normal_cdf,
    "kummer_1f1_half": kummer_1f1_half,
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


@pytest.mark.parametrize("name", list(FUNCTIONS))
def test_nan_raises(name):
    fn = FUNCTIONS[name]
    with pytest.raises(InvalidParamsError):
        fn(math.nan)
    with pytest.raises(InvalidParamsError):
        fn(np.array([0.3, math.nan]))
