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


@pytest.mark.parametrize("n", [1, quadrature._SMALL_ROWS + 1])
def test_power_row_ends_where_its_nodes_overflow(n):
    # at sc = 20, c z^sc overflows far inside the half-line table: past there
    # a node has x = inf and weight inf, and the map ends as at its table's
    # end.  One row takes the small-block sweep, _SMALL_ROWS + 1 the array sweep
    got = _power_rows(lambda idx, x: x ** -0.9 * np.exp(-x), np.zeros(n), np.ones(n),
                      np.full(n, 20.0), QuadratureConfig(rel_tol=1e-3))
    assert np.all(np.abs(got.value - math.gamma(0.1)) <= 1e-3 * math.gamma(0.1))


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


# the cases of each map, for blocks at the small-block sweep's row limit
_BY_MAP = {
    "finite": [n for n in sorted(CASES) if CASES[n][1][0] == "finite"],
    "half": [n for n in sorted(CASES) if CASES[n][1][0] == "half"],
    "real": [n for n in sorted(CASES) if CASES[n][1][0] == "real"],
    "power": sorted(POWER),
    "bumps": sorted(BUMPS),
}


def _outcome(F, lo, hi, cfg, power):
    try:
        r = integrate_rows(F, lo, hi, cfg, power)
    except (IntegrandError, NonConvergenceError) as exc:
        return repr((type(exc), str(exc), exc.row, exc.value, getattr(exc, "node", None),
                     getattr(exc, "err", None)))
    return r.value.tobytes(), r.n_evals.tolist(), r.levels.tolist()


@pytest.mark.parametrize("mode", ["values", "nan", "max-levels-2"])
@pytest.mark.parametrize("rel_tol", [1e-10, 1e-3])
@pytest.mark.parametrize("extra", [0, 1], ids=["limit", "limit+1"])
@pytest.mark.parametrize("group", sorted(_BY_MAP))
def test_small_block_sweep_matches_the_array_sweep(group, extra, rel_tol, mode, monkeypatch):
    # one _sweep keeps the bookkeeping of a block of at most _SMALL_ROWS rows
    # in a _FloatBook and of a larger one in an _ArrayBook; on one block, the
    # two books give equal values, counts and levels, or equal errors naming
    # the same row and node
    n = quadrature._SMALL_ROWS + extra
    names = [_BY_MAP[group][k % len(_BY_MAP[group])] for k in range(n)]
    if group == "power":
        fs = [POWER[name][0] for name in names]
        lo, c, sc = np.array([POWER[name][1] for name in names]).T
        hi, power = np.full(n, math.inf), (c, sc)
    else:
        fs = [(BUMPS[name] if group == "bumps" else CASES[name][0]) for name in names]
        lo, hi = np.array([(0.0, math.inf) if group == "bumps" else CASES[name][1][1:]
                           for name in names]).T
        power = None
    # odd rows return nan past a cut inside their interval (at the node
    # t = 0 of a power row), so their sweeps fail at different levels
    cut = np.array([b - 0.1 * (b - a) if b < math.inf else a + 5.0 if a > -math.inf else 0.9
                    for a, b in zip(lo.tolist(), hi.tolist())])

    def F(idx, x):
        out = np.stack([fs[i](x[k]) for k, i in enumerate(idx.tolist())])
        if mode == "nan":
            out[(idx % 2 == 1)[:, None] & (x > cut[idx, None])] = np.nan
        return out

    cfg = QuadratureConfig(rel_tol=rel_tol, abs_floor=1e-30 if group == "bumps" else 1e-300,
                           max_levels=2 if mode == "max-levels-2" else 12)
    small = []
    float_book = quadrature._FloatBook
    monkeypatch.setattr(quadrature, "_FloatBook", lambda *a: small.append(1) or float_book(*a))
    default = _outcome(F, lo, hi, cfg, power)
    assert len(small) == (1 if extra == 0 else 0)
    # the other book on the same block
    monkeypatch.setattr(quadrature, "_SMALL_ROWS", n - 1 if extra == 0 else n)
    assert _outcome(F, lo, hi, cfg, power) == default
    assert len(small) == 1
    if mode == "nan":
        assert isinstance(default, str) and "IntegrandError" in default


# An _ArrayBook reads the tail rule of a level call only from two columns
# before the first column at or past the reach of any of the call's lanes.
# Each block below runs on the _ArrayBook and is checked row by row against
# the node-by-node reference, and as a whole against the same block on the
# _FloatBook.

def _window_block(fs, lo, hi, cfg, monkeypatch, power=None):
    """The outcome of the rows fs as one block on the array book, equal to
    the float book's; and the scans of the array book, as (h, a, width, the
    lanes' first columns from a, whether a lane weighs 0 three columns before
    the first of those)."""
    n = len(fs)

    def F(idx, x):
        return np.stack([fs[i](x[k]) for k, i in enumerate(idx.tolist())])

    scans = []
    scan = quadrature._ArrayBook._scan

    def spy(book, ol, fv, w, a):
        first = book.first[ol] - a
        col = int(first.min()) - 3
        zero_before = col >= 0 and not np.broadcast_to(w, fv.shape)[:, col].all()
        scans.append((book.h, a, fv.shape[1], first, zero_before))
        return scan(book, ol, fv, w, a)

    monkeypatch.setattr(quadrature._ArrayBook, "_scan", spy)
    monkeypatch.setattr(quadrature, "_SMALL_ROWS", n - 1)
    got = _outcome(F, lo, hi, cfg, power)
    monkeypatch.setattr(quadrature, "_SMALL_ROWS", n)
    assert _outcome(F, lo, hi, cfg, power) == got
    return got, scans


def _rows_match_the_reference(got, fs, trs, cfg):
    value, n_evals, levels = got
    value = np.frombuffer(value)
    for i, (f, tr) in enumerate(zip(fs, trs)):
        want, want_evals, want_levels = reference_de_integrate(f, tr, cfg)
        assert (levels[i], n_evals[i]) == (want_levels, want_evals)
        assert abs(value[i] - want) <= 1e-15 * abs(want)


def _reach_block():
    # short and long reaches on both t-sides of the half line: exp(-x)
    # stops early, 1/(1 + x^2) only near the end of the map, and the bumps
    # past a valley the coarse levels step over
    fs = [CASES["exp"][0], lambda x: 1.0 / (1.0 + x * x), BUMPS["bump-40"],
          CASES["half-gauss"][0], BUMPS["bump-13360"], CASES["mellin-pos"][0]] * 2
    return fs, np.zeros(len(fs)), np.full(len(fs), math.inf)


@pytest.mark.parametrize("cells", [None, 200], ids=["one-chunk", "chunks"])
def test_window_on_lanes_whose_reaches_differ(cells, monkeypatch):
    if cells:
        monkeypatch.setattr(quadrature, "_BLOCK_CELLS", cells)
    fs, lo, hi = _reach_block()
    cfg = QuadratureConfig(rel_tol=1e-10, abs_floor=1e-30)
    got, scans = _window_block(fs, lo, hi, cfg, monkeypatch)
    _rows_match_the_reference(got, fs, [("half", 0.0, math.inf)] * len(fs), cfg)
    level_calls = [(h, a, first) for h, a, _, first, _ in scans if h < 1.0 and a == 0]
    # one call's lanes first reach many columns apart
    assert max(int(first.max() - first.min()) for _, _, first in level_calls) >= 10
    # one call per side and level, or a level cut into several chunks
    calls = max(sum(1 for c in level_calls if c[0] == h) for h, _, _ in level_calls)
    assert (calls > 2) == bool(cells)


def test_window_falls_back_on_a_finite_block_with_an_early_zero_weight(monkeypatch):
    # rows of width 2e-300 weigh 0 from |t| ~ 3.56 on, where their offsets
    # from the ends underflow; 1/sqrt(x) rows on (0, 1) reach further, so a
    # level call holds a 0 weight in the column before its window
    fs = [np.ones_like if k % 3 == 0 else CASES["inv-sqrt"][0] for k in range(12)]
    lo, hi = np.zeros(12), np.array([2e-300 if k % 3 == 0 else 1.0 for k in range(12)])
    cfg = QuadratureConfig(rel_tol=1e-10, abs_floor=0.0)
    got, scans = _window_block(fs, lo, hi, cfg, monkeypatch)
    _rows_match_the_reference(got, fs, [("finite", 0.0, b) for b in hi.tolist()], cfg)
    assert any(zero_before for *_, zero_before in scans)


def test_window_falls_back_on_a_power_block_with_an_early_zero_weight(monkeypatch):
    # half-line rows on the power map x = z^sc: at sc = 5 the t < 0 nodes
    # underflow to x = 0, with weight 0, from t ~ -5.2 on, while the terms
    # of x^-0.9 exp(-x) stay large up to there; sc = 0.5 rows reach further
    n = 10
    f = lambda x: x ** -0.9 * np.exp(-x)
    fs = [f] * n
    lo, c = np.zeros(n), np.ones(n)
    sc = np.array([5.0 if k % 2 == 0 else 0.5 for k in range(n)])
    cfg = QuadratureConfig(rel_tol=1e-3)
    got, scans = _window_block(fs, lo, np.full(n, math.inf), cfg, monkeypatch, (c, sc))
    _rows_match_the_reference(got, fs, [("power", 0.0, math.inf, 1.0, s) for s in sc.tolist()],
                              cfg)
    assert any(zero_before for *_, zero_before in scans)


def _x_half(t):
    return math.exp(_HALF_PI * math.sinh(t))


@pytest.mark.parametrize("t_bad, before", [(0.5, True), (5.5, False)],
                         ids=["before-window", "inside-window"])
def test_window_reports_a_nan_before_or_inside_it(t_bad, before, monkeypatch):
    # 1/(1 + (x/s)^2) rows reach near the end of the half-line map, so from
    # level 1 on a call reads the rule from column 4 on; one row returns nan
    # around the level-1 node t = 0.5 (column 0) or t = 5.5 (column 5),
    # between the nodes of level 0
    n, bad = 10, 3
    nan_lo, nan_hi = _x_half(t_bad - 0.05), _x_half(t_bad + 0.05)

    def make(s, nan):
        def f(x):
            out = 1.0 / (1.0 + (x / s) ** 2)
            if nan:
                out = np.where((x > nan_lo) & (x < nan_hi), np.nan, out)
            return out
        return f

    fs = [make(1.0 + k, k == bad) for k in range(n)]
    cfg = QuadratureConfig()
    got, scans = _window_block(fs, np.zeros(n), np.full(n, math.inf), cfg, monkeypatch)
    # the first level-1 call of the t > 0 side, whose window starts after
    # the nan's column 0, or at or before its column 5
    h, a, _, first, _ = next(s for s in scans if s[0] == 0.5)
    col = round((t_bad - h) / (2 * h))
    assert (col < first.min() - 2) == before
    with pytest.raises(IntegrandError) as ref:
        reference_de_integrate(fs[bad], ("half", 0.0, math.inf), cfg)
    with pytest.raises(IntegrandError) as exc:
        integrate_rows(lambda idx, x: np.stack([fs[i](x[k]) for k, i in enumerate(idx.tolist())]),
                       np.zeros(n), np.full(n, math.inf), cfg)
    assert exc.value.row == bad
    assert str(exc.value).startswith(str(ref.value) + " (t=")
    assert exc.value.node == float(str(ref.value).rsplit("x=", 1)[1])
    assert got == repr((IntegrandError, str(exc.value), bad, exc.value.value, exc.value.node,
                        None))
