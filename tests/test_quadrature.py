"""Double exponential quadrature and barycentric Chebyshev interpolation."""

import math

import numpy as np
import pytest

import ratiodist
from ratiodist import quadrature
from ratiodist.errors import IntegrandError, InvalidParamsError, NonConvergenceError
from ratiodist.quadrature import (
    ChebInterpolant,
    QuadratureConfig,
    cheb_build,
    cheb_eval_many,
    de_integrate,
    integrate_rows,
)

_TIGHT = QuadratureConfig(rel_tol=1e-13)


@pytest.mark.parametrize(
    ("fn", "transform", "expected"),
    [
        # endpoint singularity is the tanh-sinh specialty
        (lambda x: 1.0 / np.sqrt(x), (0.0, 1.0), 2.0),
        (lambda x: 4.0 / (1.0 + x * x), (0.0, 1.0), math.pi),
        (lambda x: x * x * x - 2.0 * x + 1.0, (-1.0, 1.0), 2.0),
        (lambda x: np.log(x), (0.0, 1.0), -1.0),
        (lambda x: np.exp(-x), (0.0, math.inf), 1.0),
        (lambda x: np.exp(-x * x), (0.0, math.inf), 0.5 * math.sqrt(math.pi)),
        (lambda x: np.exp(-(x - 2.5)), (2.5, math.inf), 1.0),
        (lambda x: np.exp(-x * x), (-math.inf, math.inf), math.sqrt(math.pi)),
        (lambda x: 1.0 / (1.0 + x * x), (-math.inf, math.inf), math.pi),
    ],
)
def test_de_integrate_known_integrals(fn, transform, expected) -> None:
    r = de_integrate(fn, *transform, _TIGHT)
    assert math.isclose(r.value, expected, rel_tol=1e-12)
    assert r.n_evals > 0 and r.levels >= 1
    assert r.err_est <= 1e-10 * abs(expected) + 1e-300


def test_de_integrate_mass_beyond_a_valley() -> None:
    # nearly all mass sits near x = 6 while nodes start near x = 1; the
    # sweep must not stop inside the low foothills before reaching it
    r = de_integrate(
        lambda x: np.exp(-((x - 6.0) ** 2)), 0.0, math.inf, _TIGHT
    )
    expected = 0.5 * math.sqrt(math.pi) * (1.0 + math.erf(6.0))
    assert math.isclose(r.value, expected, rel_tol=1e-11)


def test_de_integrate_gaussian_mass_off_center_real_line() -> None:
    r = de_integrate(
        lambda x: np.exp(-((x - 4.0) ** 2) / 2.0), -math.inf, math.inf, _TIGHT
    )
    assert math.isclose(r.value, math.sqrt(2.0 * math.pi), rel_tol=1e-11)


def test_de_integrate_error_estimate_tracks_true_error() -> None:
    cfg = QuadratureConfig(rel_tol=1e-6)
    r = de_integrate(lambda x: np.exp(-x), 0.0, math.inf, cfg)
    assert abs(r.value - 1.0) <= 10.0 * max(r.err_est, 1e-15)


def test_de_integrate_rejects_nan_integrand() -> None:
    from ratiodist.errors import IntegrandError

    with pytest.raises(IntegrandError):
        de_integrate(
            lambda x: np.where(x > 0.5, np.nan, 1.0), 0.0, 1.0, _TIGHT
        )


def test_de_integrate_nonconvergence_is_reported() -> None:
    cfg = QuadratureConfig(rel_tol=1e-12, max_levels=5)
    with pytest.raises(NonConvergenceError):
        de_integrate(
            lambda x: np.where(x > 0.3, 1.0, 0.0), 0.0, 1.0, cfg
        )


@pytest.mark.parametrize("n", [2, 9, quadrature._SMALL_ROWS + 1])
def test_nonconvergence_names_the_failing_row(n) -> None:
    # row 1 holds a jump and runs out of levels; every other row converges.
    # Two and nine rows take the small-block sweep, one past its limit the
    # array sweep
    cfg = QuadratureConfig(rel_tol=1e-12, max_levels=5)
    jump = np.arange(n) == 1
    with pytest.raises(NonConvergenceError) as one:
        de_integrate(lambda x: np.where(x > 0.3, 1.0, 0.0), 0.0, 1.0, cfg)
    with pytest.raises(NonConvergenceError, match="no convergence after 5 levels") as exc:
        integrate_rows(lambda idx, x: np.where(jump[idx, None], np.where(x > 0.3, 1.0, 0.0), x * x),
                       np.zeros(n), np.ones(n), cfg)
    assert exc.value.row == 1
    assert (exc.value.value, exc.value.err) == (one.value.value, one.value.err)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"rel_tol": 1e-16},
        {"rel_tol": 0.5},
        {"abs_floor": -1.0},
        {"max_levels": 0},
        {"max_levels": 19},
        {"max_levels": 2.5},
    ],
)
def test_config_validation(kwargs) -> None:
    with pytest.raises(InvalidParamsError):
        QuadratureConfig(**kwargs)


def test_config_accepts_the_deepest_level() -> None:
    assert QuadratureConfig(max_levels=18).max_levels == 18


def test_finite_transform_requires_ordered_interval() -> None:
    with pytest.raises(InvalidParamsError):
        de_integrate(np.exp, 1.0, 1.0)


@pytest.mark.parametrize(
    ("lo", "hi"),
    [(math.nan, 1.0), (0.0, math.nan), (1.0, 1.0), (2.0, 1.0), (math.inf, math.inf),
     (-math.inf, 1.0), (-math.inf, -math.inf)],
)
def test_integrate_rows_refuses_bad_intervals(lo, hi) -> None:
    # one bad row refuses the whole batch before any integrand call
    def f(idx, x):
        raise AssertionError("integrand called")

    with pytest.raises(InvalidParamsError):
        integrate_rows(f, np.array([0.0, lo]), np.array([1.0, hi]), _TIGHT)


def test_integrate_rows_refuses_an_integrand_of_the_wrong_shape() -> None:
    with pytest.raises(InvalidParamsError, match="same shape"):
        integrate_rows(lambda idx, x: np.zeros(1), np.array([0.0]), np.array([1.0]), _TIGHT)


def test_cheb_reproduces_smooth_function() -> None:
    interp = cheb_build(np.cos, 0.0, 3.0, 33)
    xs = np.linspace(0.0, 3.0, 101)
    for x, v in zip(xs, cheb_eval_many(interp, xs)):
        assert math.isclose(v, math.cos(x), abs_tol=1e-12)


def test_cheb_exact_on_polynomials_up_to_degree() -> None:
    poly = lambda x: x**3 - 2.0 * x + 1.0
    interp = cheb_build(poly, -2.0, 1.5, 5)
    xs = np.linspace(-2.0, 1.5, 40)
    for x, v in zip(xs, cheb_eval_many(interp, xs)):
        assert math.isclose(v, poly(x), rel_tol=0, abs_tol=5e-14)


def test_cheb_exact_at_nodes_and_endpoints() -> None:
    interp = cheb_build(np.exp, -1.0, 2.0, 17)
    assert np.array_equal(cheb_eval_many(interp, interp.nodes), interp.values)
    end = cheb_eval_many(interp, [-1.0])[0]
    assert end == interp.values[0] or end == interp.values[-1]


def test_cheb_rejects_points_outside_interval() -> None:
    interp = cheb_build(np.cos, 0.0, 1.0, 9)
    with pytest.raises(InvalidParamsError):
        cheb_eval_many(interp, [1.5])
    with pytest.raises(InvalidParamsError):
        cheb_eval_many(interp, [0.2, 1.2])
    with pytest.raises(InvalidParamsError):
        cheb_eval_many(interp, [0.5, math.nan])


def test_cheb_build_requires_lobatto_count() -> None:
    with pytest.raises(InvalidParamsError):
        cheb_build(np.cos, 0.0, 1.0, 100)
    with pytest.raises(InvalidParamsError):
        cheb_build(np.cos, 1.0, 0.0, 17)


def test_cheb_build_calls_f_once_on_the_node_array() -> None:
    # one call on the whole node array: an array-native f pays its overhead once
    seen = []

    def f(x):
        seen.append(x.copy())
        return np.cos(x)

    interp = cheb_build(f, -1.0, 2.0, 17)
    assert len(seen) == 1
    assert np.array_equal(seen[0], interp.nodes)
    assert np.array_equal(interp.values, np.cos(interp.nodes))


def test_cheb_build_rejects_scalar_functions() -> None:
    with pytest.raises(InvalidParamsError):
        cheb_build(lambda x: 1.0, 0.0, 1.0, 9)


def test_cheb_build_names_a_non_finite_node_as_a_float() -> None:
    with pytest.raises(IntegrandError,
                       match=r"^function returned a non-finite value at node x=1\.0$"):
        cheb_build(lambda x: np.where(x == 1.0, np.nan, np.cos(x)), 0.0, 1.0, 9)


def test_every_exported_name_resolves() -> None:
    missing = [name for name in ratiodist.__all__ if not hasattr(ratiodist, name)]
    assert missing == []
