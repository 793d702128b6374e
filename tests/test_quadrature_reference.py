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
from ratiodist import quadrature
from ratiodist.quadrature import _BLOCK_ROWS, QuadratureConfig, de_integrate, integrate_rows

_HALF_PI = math.pi / 2.0
_MACHINE_FLOOR = 4.0 * 2.220446049250313e-16
_T_LIMIT = {"finite": math.asinh(350.0 / _HALF_PI), "half": math.asinh(700.0 / _HALF_PI),
            "power": math.asinh(700.0 / _HALF_PI), "real": math.asinh(700.0 / _HALF_PI)}
_INITIAL_H = 1.0
_MAX_NODES_PER_SIDE = 1_000_000


def _node(tr, t):
    kind, lo, hi = tr[:3]
    if abs(t) > _T_LIMIT[kind]:
        return None
    u = _HALF_PI * math.sinh(t)
    cosh_t = math.cosh(t)
    if kind == "finite":
        halfw = 0.5 * (hi - lo)
        offset = 2.0 * halfw / (math.exp(2.0 * abs(u)) + 1.0)
        if t > 0.0:
            x = hi - offset
        elif t < 0.0:
            x = lo + offset
        else:
            x = 0.5 * (lo + hi)
        sech = 2.0 * math.exp(-abs(u)) / (1.0 + math.exp(-2.0 * abs(u)))
        w = halfw * _HALF_PI * cosh_t * sech * sech
        if offset == 0.0 and t != 0.0:
            w = 0.0
        return x, w
    if kind in ("half", "power"):
        ex = math.exp(u)
        if ex == 0.0:
            return lo, 0.0
        if kind == "power":
            # x = lo + c z^sc at the exp-sinh node z, weighed by sc (x - lo)/z
            c, sc = tr[3:]
            # NumPy's array power, which can differ from Python's in the last bit
            d = c * float((np.array([ex]) ** sc)[0])
            return lo + d, _HALF_PI * cosh_t * ex * (sc * d / ex)
        return lo + ex, _HALF_PI * cosh_t * ex
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
        if count > _MAX_NODES_PER_SIDE:
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
    h = _INITIAL_H
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
_N500 = normal_density(500.0, 1.0).f

CASES = {
    # the known-integral table of test_quadrature
    "inv-sqrt": (lambda x: 1.0 / np.sqrt(x), ("finite", 0.0, 1.0)),
    "arctan": (lambda x: 4.0 / (1.0 + x * x), ("finite", 0.0, 1.0)),
    "cubic": (lambda x: x * x * x - 2.0 * x + 1.0, ("finite", -1.0, 1.0)),
    "log": (lambda x: np.log(x), ("finite", 0.0, 1.0)),
    "exp": (lambda x: np.exp(-x), ("half", 0.0, math.inf)),
    "half-gauss": (lambda x: np.exp(-x * x), ("half", 0.0, math.inf)),
    "shifted-exp": (lambda x: np.exp(-(x - 2.5)), ("half", 2.5, math.inf)),
    "gauss": (lambda x: np.exp(-x * x), ("real", -math.inf, math.inf)),
    "cauchy": (lambda x: 1.0 / (1.0 + x * x), ("real", -math.inf, math.inf)),
    # mass behind a valley, and off the centre of the real-line map
    "valley": (lambda x: np.exp(-((x - 6.0) ** 2)), ("half", 0.0, math.inf)),
    "off-centre": (lambda x: np.exp(-((x - 4.0) ** 2) / 2.0), ("real", -math.inf, math.inf)),
    # Mellin rows: both pieces of N(1.5,1)/N(1,1) at t = 2 and t = -3, and of
    # chi-square(5)/N(1,1) at t = -1.5
    "mellin-pos": (lambda x: _N1(x * 2.0) * _N2(x) * x, ("half", 0.0, math.inf)),
    "mellin-neg": (lambda y: _N1(-y * 2.0) * _N2(-y) * y, ("half", 0.0, math.inf)),
    "mellin-pos-far": (lambda x: _N1(x * -3.0) * _N2(x) * x, ("half", 0.0, math.inf)),
    "mellin-neg-far": (lambda y: _N1(-y * -3.0) * _N2(-y) * y, ("half", 0.0, math.inf)),
    "mellin-chisq": (lambda y: _X5(-y * -1.5) * _N2(-y) * y, ("half", 0.0, math.inf)),
}


@pytest.mark.parametrize("rel_tol", [1e-10, 1e-3])
@pytest.mark.parametrize("name", sorted(CASES))
def test_array_sweep_sums_the_reference_nodes(name, rel_tol):
    f, tr = CASES[name]
    cfg = QuadratureConfig(rel_tol=rel_tol)
    want, n_evals, levels = reference_de_integrate(f, tr, cfg)
    got = de_integrate(f, tr[1], tr[2], cfg)
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
    f, tr = BUMPS[name], ("half", 0.0, math.inf)
    cfg = QuadratureConfig(rel_tol=rel_tol, abs_floor=1e-30)
    want, n_evals, levels = reference_de_integrate(f, tr, cfg)
    got = de_integrate(f, tr[1], tr[2], cfg)
    assert (got.levels, got.n_evals) == (levels, n_evals)
    assert abs(got.value - want) <= 1e-15 * abs(want)


def test_ratio_pdf_is_the_sum_of_its_two_rows():
    cfg = QuadratureConfig(rel_tol=1e-10)
    pos = de_integrate(CASES["mellin-pos"][0], 0.0, math.inf, cfg).value
    neg = de_integrate(CASES["mellin-neg"][0], 0.0, math.inf, cfg).value
    assert ratio_pdf(normal_density(1.5, 1.0), normal_density(1.0, 1.0), 2.0, cfg) == pos + neg


# half-line rows on the power map x = lo + c z^sc: (lo, c, sc) and, where
# known, the closed form
POWER = {
    "far-gauss": (normal_density(1000.0, 1.0).f, (0.0, 1000.0, 1e-3), 1.0),
    "shifted-gauss": (normal_density(50.0, 2.0).f, (10.0, 40.0, 0.05), 1.0),
    # the x > 0 piece of N(500,1)/N(500,1) at t = 1, on its mode and width
    "mellin-500": (lambda x: _N500(x) * _N500(x) * x, (0.0, 500.0, 1.0 / (500.0 * math.sqrt(2.0))),
                   None),
}


def _power_rows(F, lo, c, sc, cfg):
    lo = np.asarray(lo, dtype=float)
    return integrate_rows(F, lo, np.full(lo.shape, math.inf), cfg,
                          (np.asarray(c, dtype=float), np.asarray(sc, dtype=float)))


@pytest.mark.parametrize("rel_tol", [1e-10, 1e-3])
@pytest.mark.parametrize("name", sorted(POWER))
def test_power_sweep_sums_the_reference_nodes(name, rel_tol):
    f, (lo, c, sc), _ = POWER[name]
    cfg = QuadratureConfig(rel_tol=rel_tol)
    want, n_evals, levels = reference_de_integrate(f, ("power", lo, math.inf, c, sc), cfg)
    got = _power_rows(lambda idx, x: f(x), [lo], [c], [sc], cfg)
    assert (int(got.levels[0]), int(got.n_evals[0])) == (levels, n_evals)
    assert abs(got.value[0] - want) <= 1e-15 * abs(want)


@pytest.mark.parametrize("name", ["far-gauss", "shifted-gauss"])
def test_power_row_on_a_far_mode_integrates_to_its_closed_form(name):
    f, (lo, c, sc), exact = POWER[name]
    got = _power_rows(lambda idx, x: f(x), [lo], [c], [sc], QuadratureConfig())
    assert abs(got.value[0] - exact) <= 1e-14 * exact


@pytest.mark.parametrize("rel_tol", [1e-10, 1e-3])
def test_mixed_batch_rows_match_single_rows(rel_tol, monkeypatch):
    # every case as rows of one batch, all four maps interleaved and each map
    # past _BLOCK_ROWS rows: the interval and the power map pick a row's map,
    # the batch blocks its rows itself, and a row sums the nodes it sums
    # alone; few cells per call cut each level of a block into several calls
    monkeypatch.setattr(quadrature, "_BLOCK_CELLS", 4096)
    cfg = QuadratureConfig(rel_tol=rel_tol)
    names = sorted(CASES)
    powers = sorted(POWER)
    # in shuffled order, so no block boundary lines up with the cases
    case = np.random.default_rng(8).permutation(
        np.tile(np.arange(len(names) + len(powers)), 2 * _BLOCK_ROWS // 4 + 1))
    fs = [CASES[name][0] for name in names] + [POWER[name][0] for name in powers]
    # (lo, hi, c, sc) of each case; c = 0 leaves a row on the map of its interval
    spec = [CASES[name][1][1:] + (0.0, 0.0) for name in names]
    spec += [(a, math.inf, c, sc) for a, c, sc in (POWER[name][1] for name in powers)]
    lo, hi, *power = np.array([spec[k] for k in case]).T

    sizes = []

    def F(idx, x):
        sizes.append(x.size)
        out = np.empty_like(x)
        for c in np.unique(case[idx]).tolist():
            rows = case[idx] == c
            out[rows] = fs[c](x[rows])
        return out

    got = integrate_rows(F, lo, hi, cfg, power)
    monkeypatch.undo()
    # about 4096 cells a call: the blocks (386-514 rows) are cut at every level
    assert max(sizes) <= 1.5 * 4096
    for k, name in enumerate(names + powers):
        if k < len(names):
            # as in a batch without power maps
            want = de_integrate(fs[k], *CASES[name][1][1:], cfg)
            want = (want.value, want.n_evals, want.levels)
        else:
            a, _, ck, sck = spec[k]
            one = _power_rows(lambda idx, x: fs[k](x), [a], [ck], [sck], cfg)
            want = (one.value[0], one.n_evals[0], one.levels[0])
        mine = case == k
        assert np.array_equal(got.value[mine], np.full(mine.sum(), want[0]))
        assert (got.n_evals[mine] == want[1]).all()
        assert (got.levels[mine] == want[2]).all()


@pytest.mark.parametrize("cells", [quadrature._BLOCK_CELLS, 500])
def test_rows_sharing_an_interval_get_identical_node_rows(cells, monkeypatch):
    # rows of one call that share lo and hi see the same row of x, in level
    # calls and in the calls that extend lanes past their reach
    monkeypatch.setattr(quadrature, "_BLOCK_CELLS", cells)
    names = ["arctan", "cubic", "exp", "shifted-exp", "valley", "gauss", "mellin-pos"]
    fs = [CASES[n][0] for n in names] + [BUMPS["bump-40"]]
    intervals = [CASES[n][1][1:] for n in names] + [(0.0, math.inf)]
    case = np.random.default_rng(3).permutation(np.tile(np.arange(len(fs)), 40))
    lo = np.array([intervals[c][0] for c in case])
    hi = np.array([intervals[c][1] for c in case])
    shared = []

    def F(idx, x):
        out = np.empty_like(x)
        for c in np.unique(case[idx]).tolist():
            rows = case[idx] == c
            out[rows] = fs[c](x[rows])
        for a, b in set(zip(lo[idx].tolist(), hi[idx].tolist())):
            rows = (lo[idx] == a) & (hi[idx] == b)
            assert (x[rows] == x[rows][:1]).all()
            shared.append(rows.sum())
        return out

    got = integrate_rows(F, lo, hi, QuadratureConfig(rel_tol=1e-10, abs_floor=1e-30))
    assert max(shared) > 2
    for c, f in enumerate(fs):
        want = de_integrate(f, *intervals[c], QuadratureConfig(rel_tol=1e-10, abs_floor=1e-30))
        assert (got.value[case == c] == want.value).all()
