"""The array DE sweep against a node-by-node reference sweep.

The reference below is the scalar sweep the array sweep replaced: one
integrand call per node, a running sum, and the same three-small-terms tail
rule.  The array sweep must sum exactly the nodes it sums (same level and
evaluation counts) and agree on the value to within an ulp-level tolerance
(the node tables and the integrand see the same numbers, but an array
integrand may round differently from a scalar one in the last bit).
"""

import math

import numpy as np
import pytest

from ratiodist.errors import IntegrandError, NonConvergenceError
from ratiodist.mellin import normal_density, chi_square_density, ratio_pdf
from ratiodist.quadrature import DETransform, QuadratureConfig, de_integrate

_HALF_PI = math.pi / 2.0
_MACHINE_FLOOR = 4.0 * 2.220446049250313e-16
_T_LIMIT = {"finite": math.asinh(350.0 / _HALF_PI), "half": math.asinh(700.0 / _HALF_PI),
            "real": math.asinh(700.0 / _HALF_PI)}


def _node(tr, t):
    if abs(t) > _T_LIMIT[tr.kind]:
        return None
    u = _HALF_PI * math.sinh(t)
    cosh_t = math.cosh(t)
    if tr.kind == "finite":
        halfw = 0.5 * (tr.hi - tr.lo)
        offset = 2.0 * halfw / (math.exp(2.0 * abs(u)) + 1.0)
        if t > 0.0:
            x = tr.hi - offset
        elif t < 0.0:
            x = tr.lo + offset
        else:
            x = 0.5 * (tr.lo + tr.hi)
        sech = 2.0 * math.exp(-abs(u)) / (1.0 + math.exp(-2.0 * abs(u)))
        w = halfw * _HALF_PI * cosh_t * sech * sech
        if offset == 0.0 and t != 0.0:
            w = 0.0
        return x, w
    if tr.kind == "half":
        ex = math.exp(u)
        if ex == 0.0:
            return tr.lo, 0.0
        return tr.lo + ex, _HALF_PI * cosh_t * ex
    return math.sinh(u), _HALF_PI * cosh_t * math.cosh(u)


def _sweep_side(f, tr, h, sign, step_k, scale, cfg, t_min_stop=0.0):
    total, count, consecutive_small, k = 0.0, 0, 0, 1
    while True:
        t_abs = k * h
        nd = _node(tr, sign * t_abs)
        if nd is None:
            break
        x, w = nd
        if w == 0.0:
            break
        fv = float(f(x))
        if not math.isfinite(fv):
            raise IntegrandError(f"integrand returned {fv!r} at x={x!r}")
        term = fv * w
        total += term
        count += 1
        if count > cfg.max_nodes_per_side:
            raise NonConvergenceError("node cap")
        threshold = max(cfg.rel_tol * 1e-2 * (scale + h * abs(total)), 0.1 * cfg.abs_floor)
        if h * abs(term) < threshold:
            consecutive_small += 1
            if consecutive_small >= 3 and t_abs >= t_min_stop:
                break
        else:
            consecutive_small = 0
        k += step_k
    return total, count, t_abs


def reference_de_integrate(f, tr, cfg):
    """(value, n_evals, levels) of the node-by-node sweep."""
    h = cfg.initial_h
    x0, w0 = _node(tr, 0.0)
    center = float(f(x0)) * w0
    scale = h * abs(center)
    pos, n_pos, reach_pos = _sweep_side(f, tr, h, 1.0, 1, scale, cfg)
    neg, n_neg, reach_neg = _sweep_side(f, tr, h, -1.0, 1, scale, cfg)
    n_evals = 1 + n_pos + n_neg
    value = h * (center + pos + neg)
    for level in range(1, cfg.max_levels + 1):
        h *= 0.5
        scale = abs(value)
        pos, n_pos, rp = _sweep_side(f, tr, h, 1.0, 2, scale, cfg, reach_pos)
        neg, n_neg, rn = _sweep_side(f, tr, h, -1.0, 2, scale, cfg, reach_neg)
        reach_pos, reach_neg = max(reach_pos, rp), max(reach_neg, rn)
        n_evals += n_pos + n_neg
        new_value = 0.5 * value + h * (pos + neg)
        err = abs(new_value - value)
        value = new_value
        if err <= cfg.rel_tol * abs(value) + cfg.abs_floor or err <= _MACHINE_FLOOR * abs(value):
            return value, n_evals, level
    raise NonConvergenceError("no convergence")


_N1, _N2 = normal_density(1.5, 1.0).f, normal_density(1.0, 1.0).f
_X5 = chi_square_density(5).f

CASES = {
    # the known-integral table of test_quadrature
    "inv-sqrt": (lambda x: 1.0 / np.sqrt(x), DETransform.finite(0.0, 1.0)),
    "arctan": (lambda x: 4.0 / (1.0 + x * x), DETransform.finite(0.0, 1.0)),
    "cubic": (lambda x: x * x * x - 2.0 * x + 1.0, DETransform.finite(-1.0, 1.0)),
    "log": (lambda x: np.log(x), DETransform.finite(0.0, 1.0)),
    "exp": (lambda x: np.exp(-x), DETransform.half_line(0.0)),
    "half-gauss": (lambda x: np.exp(-x * x), DETransform.half_line(0.0)),
    "shifted-exp": (lambda x: np.exp(-(x - 2.5)), DETransform.half_line(2.5)),
    "gauss": (lambda x: np.exp(-x * x), DETransform.real_line()),
    "cauchy": (lambda x: 1.0 / (1.0 + x * x), DETransform.real_line()),
    # mass behind a valley, and off the centre of the real-line map
    "valley": (lambda x: np.exp(-((x - 6.0) ** 2)), DETransform.half_line(0.0)),
    "off-centre": (lambda x: np.exp(-((x - 4.0) ** 2) / 2.0), DETransform.real_line()),
    # Mellin rows: both pieces of N(1.5,1)/N(1,1) at t = 2 and t = -3, and of
    # chi-square(5)/N(1,1) at t = -1.5
    "mellin-pos": (lambda x: _N1(x * 2.0) * _N2(x) * x, DETransform.half_line(0.0)),
    "mellin-neg": (lambda y: _N1(-y * 2.0) * _N2(-y) * y, DETransform.half_line(0.0)),
    "mellin-pos-far": (lambda x: _N1(x * -3.0) * _N2(x) * x, DETransform.half_line(0.0)),
    "mellin-neg-far": (lambda y: _N1(-y * -3.0) * _N2(-y) * y, DETransform.half_line(0.0)),
    "mellin-chisq": (lambda y: _X5(-y * -1.5) * _N2(-y) * y, DETransform.half_line(0.0)),
}


@pytest.mark.parametrize("rel_tol", [1e-10, 1e-3])
@pytest.mark.parametrize("name", sorted(CASES))
def test_array_sweep_sums_the_reference_nodes(name, rel_tol):
    f, tr = CASES[name]
    cfg = QuadratureConfig(rel_tol=rel_tol)
    want, n_evals, levels = reference_de_integrate(f, tr, cfg)
    got = de_integrate(f, tr, cfg)
    assert type(got.n_evals) is int
    assert (got.levels, got.n_evals) == (levels, n_evals)
    assert abs(got.value - want) <= 1e-15 * abs(want)


# narrow bumps that coarse levels step over: finer levels find terms that are
# not small beyond the reach of earlier levels, so the sweep must extend
# lanes past the nodes it evaluated first and carry its running sums across
BUMPS = {
    "bump-13360": lambda x: np.exp(-(((x - 13360.0) / 300.0) ** 2)),
    "bump-40": lambda x: np.exp(-(((x - 40.0) / 2.0) ** 2)),
}


@pytest.mark.parametrize("rel_tol", [1e-10, 1e-3])
@pytest.mark.parametrize("name", sorted(BUMPS))
def test_extended_sweeps_sum_the_reference_nodes(name, rel_tol):
    f, tr = BUMPS[name], DETransform.half_line(0.0)
    cfg = QuadratureConfig(rel_tol=rel_tol, abs_floor=1e-30)
    want, n_evals, levels = reference_de_integrate(f, tr, cfg)
    got = de_integrate(f, tr, cfg)
    assert (got.levels, got.n_evals) == (levels, n_evals)
    assert abs(got.value - want) <= 1e-15 * abs(want)


def test_ratio_pdf_is_the_sum_of_its_two_rows():
    cfg = QuadratureConfig(rel_tol=1e-10)
    pos = de_integrate(CASES["mellin-pos"][0], DETransform.half_line(0.0), cfg).value
    neg = de_integrate(CASES["mellin-neg"][0], DETransform.half_line(0.0), cfg).value
    assert ratio_pdf(normal_density(1.5, 1.0), normal_density(1.0, 1.0), 2.0, cfg) == pos + neg
