"""Double exponential quadrature and barycentric Chebyshev interpolation."""

import math

import numpy as np
import pytest

from ratiodist.errors import InvalidParamsError, NonConvergenceError
from ratiodist.quadrature import (
    ChebInterpolant,
    DETransform,
    QuadratureConfig,
    cheb_build,
    cheb_eval_many,
    de_integrate,
)

_TIGHT = QuadratureConfig(rel_tol=1e-13)


@pytest.mark.parametrize(
    ("fn", "transform", "expected"),
    [
        # endpoint singularity is the tanh-sinh specialty
        (lambda x: 1.0 / math.sqrt(x), DETransform.finite(0.0, 1.0), 2.0),
        (lambda x: 4.0 / (1.0 + x * x), DETransform.finite(0.0, 1.0), math.pi),
        (lambda x: x * x * x - 2.0 * x + 1.0, DETransform.finite(-1.0, 1.0), 2.0),
        (lambda x: math.log(x), DETransform.finite(0.0, 1.0), -1.0),
        (lambda x: math.exp(-x), DETransform.half_line(0.0), 1.0),
        (lambda x: math.exp(-x * x), DETransform.half_line(0.0), 0.5 * math.sqrt(math.pi)),
        (lambda x: math.exp(-(x - 2.5)), DETransform.half_line(2.5), 1.0),
        (lambda x: math.exp(-x * x), DETransform.real_line(), math.sqrt(math.pi)),
        (lambda x: 1.0 / (1.0 + x * x), DETransform.real_line(), math.pi),
    ],
)
def test_de_integrate_known_integrals(fn, transform, expected) -> None:
    r = de_integrate(fn, transform, _TIGHT)
    assert math.isclose(r.value, expected, rel_tol=1e-12)
    assert r.n_evals > 0 and r.levels >= 1
    assert r.err_est <= 1e-10 * abs(expected) + 1e-300


def test_de_integrate_mass_beyond_a_valley() -> None:
    # nearly all mass sits near x = 6 while nodes start near x = 1; the
    # sweep must not stop inside the low foothills before reaching it
    r = de_integrate(
        lambda x: math.exp(-((x - 6.0) ** 2)), DETransform.half_line(0.0), _TIGHT
    )
    expected = 0.5 * math.sqrt(math.pi) * (1.0 + math.erf(6.0))
    assert math.isclose(r.value, expected, rel_tol=1e-11)


def test_de_integrate_gaussian_mass_off_center_real_line() -> None:
    r = de_integrate(
        lambda x: math.exp(-((x - 4.0) ** 2) / 2.0), DETransform.real_line(), _TIGHT
    )
    assert math.isclose(r.value, math.sqrt(2.0 * math.pi), rel_tol=1e-11)


def test_de_integrate_error_estimate_tracks_true_error() -> None:
    cfg = QuadratureConfig(rel_tol=1e-6)
    r = de_integrate(lambda x: math.exp(-x), DETransform.half_line(0.0), cfg)
    assert abs(r.value - 1.0) <= 10.0 * max(r.err_est, 1e-15)


def test_de_integrate_rejects_nan_integrand() -> None:
    from ratiodist.errors import IntegrandError

    with pytest.raises(IntegrandError):
        de_integrate(
            lambda x: math.nan if x > 0.5 else 1.0, DETransform.finite(0.0, 1.0), _TIGHT
        )


def test_level_errors_shrink_on_analytic_integrands() -> None:
    for fn, tr in (
        (lambda x: math.exp(-x), DETransform.half_line(0.0)),
        (lambda x: math.exp(-x * x), DETransform.real_line()),
        (lambda x: 1.0 / math.sqrt(x), DETransform.finite(0.0, 1.0)),
    ):
        r = de_integrate(fn, tr, _TIGHT)
        assert len(r.level_errs) >= 2
        assert r.level_errs[-1] < r.level_errs[-2]


def test_de_integrate_nonconvergence_is_reported() -> None:
    cfg = QuadratureConfig(rel_tol=1e-12, max_levels=5)
    with pytest.raises(NonConvergenceError):
        de_integrate(
            lambda x: 1.0 if x > 0.3 else 0.0, DETransform.finite(0.0, 1.0), cfg
        )


@pytest.mark.parametrize(
    "kwargs",
    [
        {"rel_tol": 1e-16},
        {"rel_tol": 0.5},
        {"abs_floor": -1.0},
        {"initial_h": 0.0},
        {"max_levels": 0},
        {"max_nodes_per_side": 4},
    ],
)
def test_config_validation(kwargs) -> None:
    with pytest.raises(InvalidParamsError):
        QuadratureConfig(**kwargs)


def test_finite_transform_requires_ordered_interval() -> None:
    with pytest.raises(InvalidParamsError):
        DETransform.finite(1.0, 1.0)


def test_cheb_reproduces_smooth_function() -> None:
    interp = cheb_build(math.cos, 0.0, 3.0, 33)
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
    interp = cheb_build(math.exp, -1.0, 2.0, 17)
    assert np.array_equal(cheb_eval_many(interp, interp.nodes), interp.values)
    end = cheb_eval_many(interp, [-1.0])[0]
    assert end == interp.values[0] or end == interp.values[-1]


def test_cheb_rejects_points_outside_interval() -> None:
    interp = cheb_build(math.cos, 0.0, 1.0, 9)
    with pytest.raises(InvalidParamsError):
        cheb_eval_many(interp, [1.5])
    with pytest.raises(InvalidParamsError):
        cheb_eval_many(interp, [0.2, 1.2])


def test_cheb_build_requires_lobatto_count() -> None:
    with pytest.raises(InvalidParamsError):
        cheb_build(math.cos, 0.0, 1.0, 100)
    with pytest.raises(InvalidParamsError):
        cheb_build(math.cos, 1.0, 0.0, 17)


def test_cheb_build_calls_f_with_python_floats() -> None:
    # NumPy scalars reaching a scalar quadrature slow every integrand product
    seen = []

    def f(x):
        assert type(x) is float, f"node passed as {type(x).__name__}"
        seen.append(x)
        return math.cos(x)

    interp = cheb_build(f, -1.0, 2.0, 17)
    assert seen == interp.nodes.tolist()
