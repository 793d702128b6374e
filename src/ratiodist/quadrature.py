"""Double-exponential quadrature and barycentric Chebyshev interpolation.

The integrator follows the tanh-sinh family of substitutions: a smooth map
x = psi(t) pulls the integration domain onto the whole real t-axis while the
transformed integrand decays doubly exponentially, so the plain trapezoid
rule converges at an extreme rate.  Three maps cover the supported domains::

    finite (lo, hi):   x = (hi-lo)/2 * tanh((pi/2) sinh t) + (hi+lo)/2
    half line (a, oo): x = a + exp((pi/2) sinh t)
    real line:         x = sinh((pi/2) sinh t)

Refinement halves the step h and evaluates only the new odd-index nodes;
previous work is reused through I_new = I_old/2 + h * (odd-node sum), so no
abscissa is ever evaluated twice.

Tail truncation on each side stops after three consecutive node terms fall
below max(rel_tol * |integral so far| * 1e-2, abs_floor/10).  Because the
transformed tail decays doubly exponentially, three-in-a-row is a safe
stopping signal, and the discarded mass scales with the requested tolerance.
That coupling is intentional: the achieved error tracks the request instead
of wildly overshooting it, which keeps tolerance sweeps meaningful.  A sweep
additionally refuses to stop before reaching the extent covered by earlier
levels, so mass sitting beyond a valley of negligible terms is not lost once
any level has stepped across the valley.

The sweep is array-native: it integrates a batch of integrals ("rows") of
one map kind at once, each row with its own origin or interval.  Integrands
take and return NumPy arrays.  The node offsets and weights of each (map
kind, h, side) depend on nothing else, so they are tabulated on first use
and cached.  Each level makes one integrand call on an (active rows x
nodes) array holding both t-sides, each side out to the furthest reach of
earlier levels over the active rows plus _EXTRA nodes (level 0 takes all of
its few nodes): the tail rule cannot fire inside a row's reach, so those
nodes are needed anyway.  Rows whose rule has not fired by then are extended
alone, in chunks that double.  The rule reads running sums taken in sweep
order (np.cumsum), so every row sums exactly the nodes, in exactly the
order, that a node-by-node sweep would, whatever else is in the batch;
values past a row's stop are ignored.  Each row keeps its own scale, reach
and convergence test and leaves the batch once it converges.  Callers with
many rows pass them in blocks to bound memory.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .errors import (
    IntegrandError,
    InvalidParamsError,
    NonConvergenceError,
)

_HALF_PI = math.pi / 2.0
# refinement stops improving once level differences reach a few ulps
_MACHINE_FLOOR = 4.0 * 2.220446049250313e-16
# |u| = (pi/2)|sinh t| beyond which a map leaves double range: the finite
# map's offset needs exp(2|u|) finite, the others exp(|u|)
_T_LIMIT = {
    "finite": math.asinh(350.0 / _HALF_PI),
    "half": math.asinh(700.0 / _HALF_PI),
    "real": math.asinh(700.0 / _HALF_PI),
}
# a refinement level first evaluates out to the furthest reach of earlier
# levels plus _EXTRA nodes: the rule cannot fire before a lane's reach, and
# in practice fires at the first node past it; lanes that go on are extended
# by _EXTRA nodes, then by doubling chunks
_EXTRA = 1

# A row integrand: given the batch indices of the rows in x, the values at x.
RowIntegrand = Callable[[np.ndarray, np.ndarray], np.ndarray]


@dataclass(frozen=True)
class QuadratureConfig:
    """Tolerances and refinement limits for de_integrate.

    rel_tol drives both the convergence test and the tail truncation
    threshold.  abs_floor is an absolute escape hatch for integrals whose
    true value is at or near zero; the default 1e-300 makes the control
    purely relative.
    """

    rel_tol: float = 1e-10
    abs_floor: float = 1e-300
    initial_h: float = 1.0
    max_levels: int = 12
    max_nodes_per_side: int = 1_000_000

    def __post_init__(self) -> None:
        if not (1e-15 <= self.rel_tol <= 1e-1):
            raise InvalidParamsError(f"rel_tol must lie in [1e-15, 1e-1], got {self.rel_tol!r}")
        if not (self.abs_floor >= 0.0):
            raise InvalidParamsError(f"abs_floor must be >= 0, got {self.abs_floor!r}")
        if not (self.initial_h > 0.0):
            raise InvalidParamsError(f"initial_h must be > 0, got {self.initial_h!r}")
        if self.max_levels < 1:
            raise InvalidParamsError(f"max_levels must be >= 1, got {self.max_levels!r}")
        if self.max_nodes_per_side < 8:
            raise InvalidParamsError("max_nodes_per_side is too small to be useful")


@dataclass(frozen=True)
class QuadratureResult:
    value: float
    err_est: float
    n_evals: int
    levels: int
    level_errs: Tuple[float, ...]


class DETransform:
    """One of the three double-exponential substitutions and its domain."""

    __slots__ = ("kind", "lo", "hi")

    def __init__(self, kind: str, lo: float, hi: float):
        if kind == "finite":
            if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
                raise InvalidParamsError(f"finite transform needs lo < hi, got ({lo!r}, {hi!r})")
        elif kind == "half":
            if not math.isfinite(lo):
                raise InvalidParamsError(f"half-line origin must be finite, got {lo!r}")
        elif kind != "real":  # pragma: no cover - factory methods prevent this
            raise InvalidParamsError(f"unknown transform kind {kind!r}")
        self.kind = kind
        self.lo = lo
        self.hi = hi

    @classmethod
    def finite(cls, lo: float, hi: float) -> "DETransform":
        return cls("finite", float(lo), float(hi))

    @classmethod
    def half_line(cls, origin: float = 0.0) -> "DETransform":
        return cls("half", float(origin), math.inf)

    @classmethod
    def real_line(cls) -> "DETransform":
        return cls("real", -math.inf, math.inf)


class _Table(NamedTuple):
    """Nodes t = +/-k*h, k = 1, 1+step, ..., of one map at unit scale.

    Row 0 of off, w and sech is the t > 0 side, row 1 the t < 0 side.  The
    last column is the first node not evaluated, beyond the map's t range;
    its weight is 0, as is the weight of a node whose weight underflows.
    For the finite map off holds exp(2|u|) + 1 and w holds cosh t: the
    row's half-width turns them into the offset and the weight.
    """

    t: np.ndarray  # |t|
    off: np.ndarray
    w: np.ndarray
    sech: Optional[np.ndarray]


@functools.lru_cache(maxsize=256)
def _table(kind: str, h: float, step: int) -> _Table:
    t_limit = _T_LIMIT[kind]
    ts, offs, ws, sechs = [], ([], []), ([], []), ([], [])
    k = 1
    while True:
        t_abs = k * h
        ts.append(t_abs)
        for side, sign in enumerate((1.0, -1.0)):
            if t_abs > t_limit:
                offs[side].append(math.inf if kind == "finite" else 0.0)
                ws[side].append(0.0)
                if kind == "finite":
                    sechs[side].append(0.0)
                continue
            t = sign * t_abs
            u = _HALF_PI * math.sinh(t)
            cosh_t = math.cosh(t)
            if kind == "half":
                ex = math.exp(u)
                offs[side].append(ex)
                ws[side].append(_HALF_PI * cosh_t * ex)
            elif kind == "real":
                offs[side].append(math.sinh(u))
                ws[side].append(_HALF_PI * cosh_t * math.cosh(u))
            else:
                # offset from the near endpoint: halfw*(1 - |tanh u|), computed
                # without cancellation so endpoint singularities stay evaluable
                offs[side].append(math.exp(2.0 * abs(u)) + 1.0)
                ws[side].append(cosh_t)
                sechs[side].append(2.0 * math.exp(-abs(u)) / (1.0 + math.exp(-2.0 * abs(u))))
        if t_abs > t_limit:
            break
        k += step
    cols = [np.array(c) for c in (ts, offs, ws, sechs)]
    for c in cols:
        c.setflags(write=False)
    return _Table(cols[0], cols[1], cols[2], cols[3] if kind == "finite" else None)


class _Lanes:
    """The map of a batch of rows, one lane per t-side of each row.

    Lanes [0, m) are the t > 0 sides of the m rows, lanes [m, 2m) their
    t < 0 sides.
    """

    def __init__(self, kind: str, lo: np.ndarray, hi: np.ndarray, rows: np.ndarray):
        m = rows.shape[0]
        self.kind = kind
        self.rows = rows
        self.row = np.concatenate([rows, rows])
        self.side = np.repeat(np.arange(2), m)
        lo, hi = lo[rows], hi[rows]
        self.w0 = np.full(m, _HALF_PI)  # weight at t = 0
        if kind == "half":
            self.x0 = lo + 1.0
            self.base = np.concatenate([lo, lo])
        elif kind == "real":
            self.x0 = np.zeros(m)
        else:
            halfw = 0.5 * (hi - lo)
            self.x0 = 0.5 * (lo + hi)
            self.w0 = halfw * _HALF_PI
            # t > 0 lanes count back from hi, t < 0 lanes forward from lo
            self.base = np.concatenate([hi, lo])
            self.two_halfw = np.concatenate([2.0 * halfw, 2.0 * halfw])
            self.halfw_pi = np.concatenate([self.w0, self.w0])

    def nodes(self, sel, side: int, tab: _Table, a: int, b: int) -> Tuple[np.ndarray, np.ndarray]:
        """x and weight of table columns a:b for the selected lanes of one side."""
        if self.kind == "half":
            return self.base[sel, None] + tab.off[side, a:b], tab.w[side, a:b]
        if self.kind == "real":
            return np.repeat(tab.off[side:side + 1, a:b], self.row[sel].shape[0], axis=0), \
                tab.w[side, a:b]
        offset = self.two_halfw[sel, None] / tab.off[side, a:b]
        x = self.base[sel, None] + offset if side else self.base[sel, None] - offset
        sech = tab.sech[side, a:b]
        w = self.halfw_pi[sel, None] * tab.w[side, a:b] * sech * sech
        w[offset == 0.0] = 0.0
        return x, w


class _Tail:
    """Tail-rule state of the lanes of one level."""

    def __init__(self, lanes: _Lanes, tab: _Table, reach: np.ndarray, h: float,
                 cfg: QuadratureConfig):
        n = reach.shape[0]
        self.lanes, self.tab, self.reach, self.h, self.cfg = lanes, tab, reach, h, cfg
        self.scale: Optional[np.ndarray] = None  # per lane, set before the first scan
        self.c_tol, self.floor = cfg.rel_tol * 1e-2, 0.1 * cfg.abs_floor
        # a lane can exceed the node cap only if the map has more nodes
        self.capped = tab.t.shape[0] > cfg.max_nodes_per_side
        self.total = np.zeros(n)
        self.count = np.zeros(n, dtype=np.int64)
        self.stop_t = np.zeros(n)
        self.prev = np.zeros((n, 2), dtype=bool)  # were a lane's last two terms small?

    def scan(self, ol, fv: np.ndarray, w: np.ndarray, a: int, width) -> np.ndarray:
        """Apply the tail rule to the chunk just evaluated for the lanes ol.

        Column j holds table column a + j; lane i has its first width[i]
        columns evaluated, and the weights of the others are 0.  Returns the
        mask of the lanes that stop.
        """
        h = self.h
        t = self.tab.t[a:a + fv.shape[1]]
        # running sums in sweep order, from the lane's sum so far; the array
        # work is done in place, to bound memory and passes
        cum = np.empty((fv.shape[0], fv.shape[1] + 1))
        cum[:, 0] = self.total[ol]
        np.multiply(fv, w, out=cum[:, 1:])
        small = np.abs(cum[:, 1:])
        small *= h
        np.cumsum(cum, axis=1, out=cum)
        thr = np.abs(cum[:, 1:])  # max(c_tol * (scale + h |sum|), floor)
        thr *= h
        thr += self.scale[ol, None]
        thr *= self.c_tol
        np.maximum(thr, self.floor, out=thr)
        small = np.concatenate([self.prev[ol], small < thr], axis=1)
        fire = small[:, 2:] & small[:, 1:-1] & small[:, :-2] & (t >= self.reach[ol, None])
        zero = w == 0.0  # stop before evaluating, as at the end of the map
        event = fire | zero
        k = event.argmax(axis=1)
        r = np.arange(k.shape[0])
        stops = event[r, k] & (k < width)
        end = np.where(stops, k + 1 - zero[r, k], width)  # nodes summed from this chunk
        tot = cum[r, end]
        if not math.isfinite(np.add.reduce(tot)):  # a summed value may be non-finite
            self._check_finite(ol, fv, a, end)
        self.count[ol] += end
        if self.capped and self.count[ol].max() > self.cfg.max_nodes_per_side:
            raise NonConvergenceError(
                f"exceeded {self.cfg.max_nodes_per_side} nodes on one side at h={h!r}"
            )
        self.total[ol] = tot
        self.stop_t[ol] = t[k]
        if np.count_nonzero(stops) < stops.shape[0]:
            self.prev[ol] = small[r[:, None], end[:, None] + np.arange(2)]
        return stops

    def _check_finite(self, ol, fv: np.ndarray, a: int, end: np.ndarray) -> None:
        bad = np.where(np.isfinite(fv), fv.shape[1], np.arange(fv.shape[1])).min(axis=1)
        if np.any(bad < end):
            i = int(np.argmax(bad < end))
            j = int(bad[i])
            lane = np.arange(self.reach.shape[0])[ol][i]
            side = int(self.lanes.side[lane])
            x = self.lanes.nodes(np.array([lane]), side, self.tab, a + j, a + j + 1)[0]
            raise IntegrandError(
                f"integrand returned {float(fv[i, j])!r} at x={float(x[0, 0])!r} "
                f"(t={float(self.tab.t[a + j]) * (1.0 - 2.0 * side)!r})"
            )


def _call(F: RowIntegrand, idx: np.ndarray, x: np.ndarray) -> np.ndarray:
    fv = np.asarray(F(idx, x), dtype=float)
    if fv.shape != x.shape:
        raise InvalidParamsError(
            f"integrand must map an array to an array of the same shape; "
            f"got {fv.shape} for {x.shape}"
        )
    return fv


def _level(F: RowIntegrand, lanes: _Lanes, h: float, step: int, reach: np.ndarray,
           scale: Optional[np.ndarray], cfg: QuadratureConfig):
    """Sweep both t-sides of one level for every lane.

    reach and scale are per lane.  Returns the tail state (per-lane sums,
    summed-node counts and stop points: the last node summed, or the first
    one not evaluated) and, at level 0 (scale None), the integrand at t = 0,
    from which that level takes its tail scale.
    """
    tab = _table(lanes.kind, h, step)
    n_t = tab.t.shape[0]
    m = lanes.rows.shape[0]
    tail = _Tail(lanes, tab, reach, h, cfg)
    # one call for both sides, each evaluated out to the furthest reach of
    # its lanes (all of level 0, which has a few nodes)
    if scale is None:
        bp = bn = n_t
    else:
        furthest = np.maximum.reduce(reach.reshape(2, m), axis=1)
        bp, bn = np.minimum(np.searchsorted(tab.t, furthest) + _EXTRA, n_t).tolist()
    xp, wp = lanes.nodes(slice(0, m), 0, tab, 0, bp)
    xn, wn = lanes.nodes(slice(m, 2 * m), 1, tab, 0, bn)
    x = np.concatenate([xp, xn] + ([lanes.x0[:, None]] if scale is None else []), axis=1)
    del xp, xn  # large arrays are dropped as soon as they are used, to bound memory
    fv = _call(F, lanes.rows, x)
    f0 = None
    if scale is None:
        f0 = fv[:, -1].copy()
        if not np.isfinite(f0).all():
            i = int(np.argmin(np.isfinite(f0)))
            raise IntegrandError(
                f"integrand returned {float(f0[i])!r} at x={float(lanes.x0[i])!r} (t=0.0)"
            )
        scale = h * np.abs(f0 * lanes.w0)
        scale = np.concatenate([scale, scale])
    tail.scale = scale
    del x
    # lanes side by side; the shorter side's extra columns weigh 0 and are not read
    width = max(bp, bn)
    fvl, wl = np.zeros((2, 2 * m, width))
    fvl[:m, :bp], fvl[m:, :bn] = fv[:, :bp], fv[:, bp:bp + bn]
    wl[:m, :bp], wl[m:, :bn] = wp, wn
    del fv
    stops = tail.scan(slice(None), fvl, wl, 0, np.array((bp, bn))[lanes.side])
    del fvl, wl
    if np.count_nonzero(stops) < 2 * m:
        # lanes whose rule has not fired are extended alone, one side at a time
        for side, a in enumerate((bp, bn)):
            ol = np.flatnonzero(~stops[side * m:(side + 1) * m]) + side * m
            grow = _EXTRA
            while ol.size:
                b = min(a + grow, n_t)
                x, w = lanes.nodes(ol, side, tab, a, b)
                fv = _call(F, lanes.row[ol], x)
                more = tail.scan(ol, fv, np.broadcast_to(w, fv.shape), a, b - a)
                ol, a, grow = ol[~more], b, 2 * grow
    return tail, f0


class _Batch(NamedTuple):
    value: np.ndarray
    err: np.ndarray
    n_evals: np.ndarray
    levels: np.ndarray
    level_errs: List[Tuple[np.ndarray, np.ndarray]]  # per level: (rows, their errors)


def integrate_rows(F: RowIntegrand, kind: str, lo: np.ndarray, hi: np.ndarray,
                   cfg: QuadratureConfig) -> _Batch:
    """Integrate a batch of rows of one map kind by level-doubled DE trapezoid.

    Row i spans (lo[i], hi[i]) (finite), (lo[i], oo) (half) or the real line.
    F(idx, x) returns the integrand of rows idx at x, shape (len(idx), n).
    Every row must converge: NonConvergenceError otherwise, and
    IntegrandError on any non-finite value at a summed node.
    """
    n = lo.shape[0]
    value, err = np.empty(n), np.empty(n)
    n_evals, levels = np.empty(n, dtype=np.int64), np.empty(n, dtype=np.int64)
    level_errs = []
    rows = np.arange(n)
    lanes = _Lanes(kind, lo, hi, rows)
    h = cfg.initial_h
    # values past a lane's stop may overflow or be nan; they are never summed
    with np.errstate(all="ignore"):
        tail, f0 = _level(F, lanes, h, 1, np.zeros(2 * n), None, cfg)
        total, count, reach = tail.total, tail.count, tail.stop_t
        val = h * (f0 * lanes.w0 + total[:n] + total[n:])
        evals = 1 + count[:n] + count[n:]
        for level in range(1, cfg.max_levels + 1):
            h *= 0.5
            m = rows.shape[0]
            scale = np.abs(val)
            tail, _ = _level(F, lanes, h, 2, reach, np.concatenate([scale, scale]), cfg)
            total, count = tail.total, tail.count
            reach = np.maximum(reach, tail.stop_t)
            evals += count[:m] + count[m:]
            new = 0.5 * val + h * (total[:m] + total[m:])
            e = np.abs(new - val)
            val = new
            level_errs.append((rows, e))
            size = np.abs(new)
            done = (e <= cfg.rel_tol * size + cfg.abs_floor) | (e <= _MACHINE_FLOOR * size)
            n_done = np.count_nonzero(done)
            if n_done:
                fin = rows[done]
                value[fin], err[fin], levels[fin] = new[done], e[done], level
                n_evals[fin] = evals[done]
                if n_done == m:
                    return _Batch(value, err, n_evals, levels, level_errs)
                keep = ~done
                rows, val, e, evals = rows[keep], val[keep], e[keep], evals[keep]
                reach = reach[np.concatenate([keep, keep])]
                lanes = _Lanes(kind, lo, hi, rows)
    raise NonConvergenceError(
        f"no convergence after {cfg.max_levels} levels; last err_est={float(e[0])!r}, "
        f"value={float(val[0])!r}"
    )


def de_integrate(
    f: Callable[[np.ndarray], np.ndarray],
    transform: DETransform,
    cfg: QuadratureConfig = QuadratureConfig(),
) -> QuadratureResult:
    """Integrate f over the transform's domain by level-doubled DE trapezoid.

    f maps a NumPy array of abscissae to the integrand values, same shape.
    Converges when successive levels differ by at most
    rel_tol*|value| + abs_floor (or by a few ulps, whichever is met first).
    Raises NonConvergenceError when max_levels is exhausted and
    IntegrandError on any non-finite integrand value.
    """
    r = integrate_rows(lambda idx, x: f(x), transform.kind, np.array([transform.lo]),
                       np.array([transform.hi]), cfg)
    return QuadratureResult(float(r.value[0]), float(r.err[0]), int(r.n_evals[0]),
                            int(r.levels[0]), tuple(float(e[0]) for _, e in r.level_errs))


@dataclass(frozen=True)
class ChebInterpolant:
    """Chebyshev-Lobatto data for second-form barycentric evaluation.

    nodes run from hi down to lo (the natural cos ordering) and weights are
    (-1)^j, halved at both endpoints.
    """

    lo: float
    hi: float
    nodes: np.ndarray
    values: np.ndarray
    weights: np.ndarray


def _is_pow2(m: int) -> bool:
    return m >= 1 and (m & (m - 1)) == 0


def cheb_build(
    f: Callable[[np.ndarray], np.ndarray],
    lo: float,
    hi: float,
    n_nodes: int,
) -> ChebInterpolant:
    """Sample f at n_nodes Chebyshev-Lobatto points on [lo, hi].

    n_nodes must be 2^k + 1 with k >= 2 so node sets nest under doubling.
    f is called once, on the whole node array, and must return an array of
    the same shape.
    """
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise InvalidParamsError(f"need finite lo < hi, got ({lo!r}, {hi!r})")
    if n_nodes < 5 or not _is_pow2(n_nodes - 1):
        raise InvalidParamsError(f"n_nodes must be 2^k+1 with k >= 2, got {n_nodes!r}")
    n = n_nodes - 1
    j = np.arange(n_nodes)
    xi = np.cos(np.pi * j / n)
    x = 0.5 * (hi + lo) + 0.5 * (hi - lo) * xi
    # pin the endpoints exactly; cos roundoff would otherwise nudge them
    x[0] = hi
    x[-1] = lo
    values = np.asarray(f(x), dtype=float)
    if values.shape != x.shape:
        raise InvalidParamsError(
            f"f must map the node array to an array of the same shape, got {values.shape}"
        )
    if not np.all(np.isfinite(values)):
        bad = x[~np.isfinite(values)][0]
        raise IntegrandError(f"function returned a non-finite value at node x={bad!r}")
    weights = np.where(j % 2 == 0, 1.0, -1.0)
    weights[0] *= 0.5
    weights[-1] *= 0.5
    return ChebInterpolant(float(lo), float(hi), x, values, weights)


def cheb_eval_many(interp: ChebInterpolant, xs: Sequence[float]) -> np.ndarray:
    """Evaluate the interpolant at points inside [lo, hi]; nodes give their values exactly."""
    x = np.asarray(xs, dtype=float)
    if x.size and (x.min() < interp.lo or x.max() > interp.hi):
        raise InvalidParamsError("evaluation points extend outside the interpolation interval")
    # one (points x nodes) buffer: w_j / (x - x_j); a point on a node gives an
    # infinite ratio and a nan row, overwritten below with the node's value
    ratios = np.subtract.outer(x, interp.nodes)
    with np.errstate(divide="ignore", invalid="ignore"):
        np.divide(interp.weights, ratios, out=ratios)
        out = ratios @ interp.values / ratios.sum(axis=1)
    # nodes run from hi down to lo
    j = np.minimum(np.searchsorted(-interp.nodes, -x), interp.nodes.shape[0] - 1)
    exact = interp.nodes[j] == x
    out[exact] = interp.values[j[exact]]
    return out
