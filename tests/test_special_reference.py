"""The array erf/erfc against the scalar algorithm they replaced.

The reference below is the scalar implementation the package used before the
closed forms took arrays: a Kahan-compensated Maclaurin sum run until its
terms fall below 1e-17 of the total (|x| <= 1.2), the A&S 7.1.14 continued
fraction by the modified Lentz algorithm (x > 1.2), and the sign recursion.
The array version keeps the two representations, with a fixed term count and
a bottom-up fraction, and must stay within 1e-15 relative of it.
"""

import math

import numpy as np
import pytest

from ratiodist.errors import InvalidParamsError
from ratiodist.special import erf, erfc

_TWO_OVER_SQRT_PI = 1.1283791670955126
_INV_SQRT_PI = 0.5641895835477563


def _ref_erf_series(x: float) -> float:
    x2 = x * x
    term = x
    total = x
    comp = 0.0
    n = 0
    while True:
        n += 1
        term *= -x2 / n
        contrib = term / (2 * n + 1)
        y = contrib - comp
        t = total + y
        comp = (t - total) - y
        total = t
        if abs(contrib) <= 1e-17 * abs(total):
            return _TWO_OVER_SQRT_PI * total


def _ref_erfc_cf(x: float) -> float:
    f = x
    c = x
    d = 0.0
    for n in range(1, 501):
        a = 0.5 * n
        d = 1.0 / (x + a * d)
        c = x + a / c
        delta = c * d
        f *= delta
        if abs(delta - 1.0) < 1e-17:
            return math.exp(-x * x) * _INV_SQRT_PI / f
    raise AssertionError(f"reference continued fraction did not settle at x={x!r}")


def ref_erf(x: float) -> float:
    if x < 0.0:
        return -ref_erf(-x)
    if x <= 1.2:
        return _ref_erf_series(x)
    if math.isinf(x):
        return 1.0
    return 1.0 - _ref_erfc_cf(x)


def ref_erfc(x: float) -> float:
    if x > 1.2:
        return 0.0 if math.isinf(x) else _ref_erfc_cf(x)
    if x >= 0.0:
        return 1.0 - _ref_erf_series(x)
    if math.isinf(x):
        return 2.0
    return 2.0 - ref_erfc(-x)


def _points() -> np.ndarray:
    rng = np.random.default_rng(20261018)
    edges = [0.0, -0.0, 1e-300, -1e-300, 1.2, -1.2, np.nextafter(1.2, 2.0),
             np.nextafter(-1.2, -2.0), 27.0, -27.0, math.inf, -math.inf]
    return np.concatenate([
        rng.uniform(-8.0, 8.0, 12_000),
        rng.uniform(1.1, 1.3, 3_000) * rng.choice([-1.0, 1.0], 3_000),  # the switch
        rng.uniform(-40.0, 40.0, 3_000),
        np.geomspace(1e-300, 1.0, 1_000),
        np.geomspace(1.2, 1e6, 1_000),
        edges,
    ])


def test_erf_matches_scalar_reference():
    xs = _points()
    assert xs.size >= 20_000
    got = erf(xs)
    ref = np.array([ref_erf(x) for x in xs.tolist()])
    assert np.all(np.abs(got - ref) <= 1e-15 * np.abs(ref))
    assert np.array_equal(erf(-xs), -got)  # odd, exactly


def test_erfc_matches_scalar_reference():
    xs = _points()
    got = erfc(xs)
    ref = np.array([ref_erfc(x) for x in xs.tolist()])
    # where both form 1 - erf or 2 - erfc they may differ by the last bit of
    # a value in [1, 2]; in the right tail the reference's Lentz product
    # carries ~1e-15 of its own, as the existing SciPy check allows
    assert np.all(np.abs(got - ref) <= 5e-15 * ref + 4.5e-16)
    tail = xs > 1.2
    assert np.all(np.abs(got[tail] - ref[tail]) <= 5e-15 * ref[tail])


@pytest.mark.parametrize("fn", [erf, erfc])
def test_nan_raises(fn):
    with pytest.raises(InvalidParamsError, match="NaN"):
        fn(math.nan)
    with pytest.raises(InvalidParamsError, match="NaN"):
        fn(np.array([0.5, math.nan]))


def test_a_point_does_not_depend_on_its_neighbours():
    xs = _points()
    together = erf(xs)
    assert all(erf(x) == v for x, v in zip(xs[::97].tolist(), together[::97].tolist()))
