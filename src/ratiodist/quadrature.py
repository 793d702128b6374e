"""Double-exponential quadrature and barycentric Chebyshev interpolation.

The integrator follows the tanh-sinh family of substitutions: a smooth map
x = psi(t) pulls the integration domain onto the whole real t-axis while the
transformed integrand decays doubly exponentially, so the plain trapezoid
rule converges at an extreme rate.  The interval of an integral picks one
of three maps, and a half-line row may take the fourth, power, instead::

    finite (lo, hi):   x = (hi-lo)/2 * tanh((pi/2) sinh t) + (hi+lo)/2
    half line (a, oo): x = a + exp((pi/2) sinh t)
    power (a, oo):     x = a + c z^sc, z = exp((pi/2) sinh t), c > 0
    real line:         x = sinh((pi/2) sinh t)

The power map puts the t = 0 node at a + c with a node spacing of about
(pi/2) c sc h there, so mass far from a + 1 or narrower than 1 gets nodes
of its own; it runs on the half-line map's table, and the node weight takes
its Jacobian sc (x - a)/z.  A new map kind plugs in at _T_LIMIT, _table and
_Lanes, and a location or scale of a map at _Lanes; callers name the
interval and, for a half-line row, an optional power map.

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

The sweep is array-native: integrate_rows takes a batch of integrals
("rows"), each with its own interval, groups them by map (power rows form
a group of their own) and sweeps each
group in equal blocks of about _BLOCK_ROWS rows; a block's rows go through
every level together, so they share its per-call overhead.  Integrands take
and return NumPy arrays.  The node offsets and weights of each (map kind, h,
side) depend on nothing else, so they are tabulated on first use and cached.
Each level cuts its block into equal chunks of rows of at most about
_BLOCK_CELLS (lane x node) cells, which bounds memory and keeps the arrays
cache-sized, and makes one integrand call per chunk on a (rows x nodes)
array holding both t-sides, each side out to the furthest reach of earlier
levels over the chunk's lanes plus _EXTRA nodes (level 0 takes all of its
few nodes): the tail rule cannot fire inside a row's reach, so those nodes
are needed anyway.  Lanes whose rule has not fired by then are extended
alone, in runs that double.  The rule reads running sums taken in sweep
order (np.cumsum), so every row sums exactly the nodes, in exactly the
order, that a node-by-node sweep would, whatever else is in the batch;
values past a row's stop are ignored.  Each row keeps its own scale, reach
and convergence test and leaves the batch once it converges.  de_integrate
is a batch of one row.

A row's nodes depend on its interval and power map alone, so rows of one
integrand call that share an interval (lo and hi) and are not power rows
get identical rows of x, in every call.
An integrand may rely on that: a factor that depends on x but not on the
row needs evaluating on one row of x only.  A non-finite value at a summed
node raises IntegrandError carrying the batch index of its row, so a caller
can name the point the row belongs to.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Sequence, Tuple

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

# the step of level 0, and the most nodes one t-side of a row may sum
_INITIAL_H = 1.0
_MAX_NODES_PER_SIDE = 1_000_000
# about this many rows per sweep: the rows of a block go through every level
# together, so the per-call overhead of a level is shared by this many rows
_BLOCK_ROWS = 512
# at most about this many (lane x node) cells per integrand call of a level:
# bounds the arrays of a call and keeps them cache-sized
_BLOCK_CELLS = 32_768

# A row integrand: given the batch indices of the rows in x, the values at x.
# Rows of one call that share an interval (lo and hi) and are not power rows
# get identical rows of x.
RowIntegrand = Callable[[np.ndarray, np.ndarray], np.ndarray]


@dataclass(frozen=True)
class QuadratureConfig:
    """Tolerances and the refinement limit of the DE sweep.

    rel_tol drives both the convergence test and the tail truncation
    threshold.  abs_floor is an absolute escape hatch for integrals whose
    true value is at or near zero; the default 1e-300 makes the control
    purely relative.
    """

    rel_tol: float = 1e-10
    abs_floor: float = 1e-300
    max_levels: int = 12

    def __post_init__(self) -> None:
        if not (1e-15 <= self.rel_tol <= 1e-1):
            raise InvalidParamsError(f"rel_tol must lie in [1e-15, 1e-1], got {self.rel_tol!r}")
        if not (self.abs_floor >= 0.0):
            raise InvalidParamsError(f"abs_floor must be >= 0, got {self.abs_floor!r}")
        if self.max_levels < 1:
            raise InvalidParamsError(f"max_levels must be >= 1, got {self.max_levels!r}")


@dataclass(frozen=True)
class QuadratureResult:
    value: float
    err_est: float
    n_evals: int
    levels: int


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

    def __init__(self, kind: str, lo: np.ndarray, hi: np.ndarray, rows: np.ndarray, power):
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
        elif kind == "power":
            c, sc = power[0][rows], power[1][rows]
            self.x0 = lo + c
            self.w0 = _HALF_PI * sc * c
            self.base = np.concatenate([lo, lo])
            self.c, self.sc = np.concatenate([c, c]), np.concatenate([sc, sc])
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
        if self.kind == "power":
            z, sc = tab.off[side, a:b], self.sc[sel, None]
            d = self.c[sel, None] * z ** sc  # x - lo, without cancellation
            w = tab.w[side, a:b] * (sc * d / z)
            w[:, z == 0.0] = 0.0  # past the map's end d / z is 0/0
            return self.base[sel, None] + d, w
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
        self.lanes, self.tab, self.reach, self.h = lanes, tab, reach, h
        self.scale: Optional[np.ndarray] = None  # per lane, set before the first scan
        self.c_tol, self.floor = cfg.rel_tol * 1e-2, 0.1 * cfg.abs_floor
        # a lane can exceed the node cap only if the map has more nodes
        self.capped = tab.t.shape[0] > _MAX_NODES_PER_SIDE
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
        if self.capped and self.count[ol].max() > _MAX_NODES_PER_SIDE:
            raise NonConvergenceError(
                f"exceeded {_MAX_NODES_PER_SIDE} nodes on one side at h={h!r}"
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
            _fail(int(self.lanes.row[lane]), float(fv[i, j]), float(x[0, 0]),
                  float(self.tab.t[a + j]) * (1.0 - 2.0 * side))


def _fail(row: int, value: float, x: float, t: float):
    raise IntegrandError(f"integrand returned {value!r} at x={x!r} (t={t!r})",
                         row=row, value=value, node=x)


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
    tab = _table("half" if lanes.kind == "power" else lanes.kind, h, step)
    n_t = tab.t.shape[0]
    m = lanes.rows.shape[0]
    tail = _Tail(lanes, tab, reach, h, cfg)
    # one call per chunk of rows for both sides, each side evaluated out to
    # the furthest reach of the chunk's lanes (all of level 0, which has a few
    # nodes), plus the t = 0 node at level 0
    if scale is None:
        end = None
        bp = bn = n_t
        f0 = np.empty(m)
        tail.scale = np.empty(2 * m)
    else:
        end = np.minimum(np.searchsorted(tab.t, reach) + _EXTRA, n_t)
        bp, bn = end.reshape(2, m).max(axis=1).tolist()
        f0 = None
        tail.scale = scale
    # equal chunks of at most about _BLOCK_CELLS cells
    chunk = -(-m // -(-(m * (bp + bn + 1)) // _BLOCK_CELLS))
    for a in range(0, m, chunk):
        b = min(a + chunk, m)
        c = b - a
        ol = slice(None)
        if c < m:
            ol = np.concatenate([np.arange(a, b), np.arange(m + a, m + b)])
            if end is not None:
                bp, bn = int(end[a:b].max()), int(end[m + a:m + b].max())
        xp, wp = lanes.nodes(slice(a, b), 0, tab, 0, bp)
        xn, wn = lanes.nodes(slice(m + a, m + b), 1, tab, 0, bn)
        x = np.concatenate([xp, xn] + ([lanes.x0[a:b, None]] if f0 is not None else []), axis=1)
        del xp, xn  # large arrays are dropped as soon as they are used, to bound memory
        fv = _call(F, lanes.rows[a:b], x)
        del x
        if f0 is not None:
            f0[a:b] = fv[:, -1]
            center = f0[a:b]
            if not np.isfinite(center).all():
                i = int(np.argmin(np.isfinite(center)))
                _fail(int(lanes.rows[a + i]), float(center[i]), float(lanes.x0[a + i]), 0.0)
            tail.scale[a:b] = tail.scale[m + a:m + b] = h * np.abs(center * lanes.w0[a:b])
        # lanes side by side; the shorter side's extra columns weigh 0 and are not read
        width = max(bp, bn)
        fvl, wl = np.zeros((2, 2 * c, width))
        fvl[:c, :bp], fvl[c:, :bn] = fv[:, :bp], fv[:, bp:bp + bn]
        wl[:c, :bp], wl[c:, :bn] = wp, wn
        del fv
        stops = tail.scan(ol, fvl, wl, 0, np.array((bp, bn)).repeat(c))
        del fvl, wl
        if np.count_nonzero(stops) < 2 * c:
            # lanes whose rule has not fired are extended alone, one side at a time
            for side, end_side in enumerate((bp, bn)):
                go_on = np.flatnonzero(~stops[side * c:(side + 1) * c]) + (side * m + a)
                _extend(F, lanes, tail, go_on, side, end_side)
    return tail, f0


def _extend(F: RowIntegrand, lanes: _Lanes, tail: _Tail, ol: np.ndarray, side: int,
            a: int) -> None:
    """Evaluate the lanes ol of one side on from table column a, _EXTRA
    nodes and then twice as many each call, until their rule fires."""
    tab = tail.tab
    grow = _EXTRA
    while ol.size:
        b = min(a + grow, tab.t.shape[0])
        x, w = lanes.nodes(ol, side, tab, a, b)
        fv = _call(F, lanes.row[ol], x)
        more = tail.scan(ol, fv, np.broadcast_to(w, fv.shape), a, b - a)
        ol, a, grow = ol[~more], b, 2 * grow


class _Batch(NamedTuple):
    value: np.ndarray
    err: np.ndarray
    n_evals: np.ndarray
    levels: np.ndarray


def _sweep(F: RowIntegrand, kind: str, lo: np.ndarray, hi: np.ndarray, power, rows: np.ndarray,
           cfg: QuadratureConfig, out: _Batch) -> None:
    """Integrate the rows of one map kind in one sweep, into their entries of out."""
    value, err, n_evals, levels = out
    n = rows.shape[0]
    lanes = _Lanes(kind, lo, hi, rows, power)
    h = _INITIAL_H
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
            size = np.abs(new)
            done = (e <= cfg.rel_tol * size + cfg.abs_floor) | (e <= _MACHINE_FLOOR * size)
            n_done = np.count_nonzero(done)
            if n_done:
                fin = rows[done]
                value[fin], err[fin], levels[fin] = new[done], e[done], level
                n_evals[fin] = evals[done]
                if n_done == m:
                    return
                keep = ~done
                rows, val, e, evals = rows[keep], val[keep], e[keep], evals[keep]
                reach = reach[np.concatenate([keep, keep])]
                lanes = _Lanes(kind, lo, hi, rows, power)
    raise NonConvergenceError(
        f"no convergence after {cfg.max_levels} levels; last err_est={float(e[0])!r}, "
        f"value={float(val[0])!r}"
    )


def integrate_rows(F: RowIntegrand, lo, hi, cfg: QuadratureConfig, power=None) -> _Batch:
    """Integrate a batch of rows by level-doubled DE trapezoid.

    Row i spans (lo[i], hi[i]); its interval picks its map: tanh-sinh when
    both ends are finite, exp-sinh on (lo, oo) and sinh-sinh on the real
    line.  power, when given, is a pair of arrays (c, sc): a row on
    (lo, oo) with c[i] > 0 takes the power map x = lo + c z^sc on the
    exp-sinh nodes z instead, its t = 0 node at lo + c, and is swept with
    the other power rows; sc is read on those rows only.  F(idx, x) returns
    the integrand of rows idx at x, shape (len(idx), n); rows of one call
    that share an interval and are not power rows get identical rows of x.
    Every row must converge: NonConvergenceError otherwise, and
    IntegrandError, whose row is the failing row's index and whose node is
    the failing x, on any non-finite value at a summed node.
    """
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    lo_finite, half = lo > -math.inf, hi == math.inf
    ok = (lo < hi) & (lo_finite | half)
    if not ok.all():
        i = int(np.argmin(ok))
        raise InvalidParamsError(
            f"need lo < hi with lo finite or (lo, hi) the real line, "
            f"got ({float(lo[i])!r}, {float(hi[i])!r})"
        )
    n = lo.shape[0]
    out = _Batch(np.empty(n), np.empty(n), np.empty(n, dtype=np.int64),
                 np.empty(n, dtype=np.int64))
    mapped = half & lo_finite & (False if power is None else power[0] > 0.0)
    for kind, rows in (("finite", ~half), ("half", half & lo_finite & ~mapped),
                       ("power", mapped), ("real", ~lo_finite)):
        k = rows.nonzero()[0]
        if k.shape[0]:
            # equal blocks of about _BLOCK_ROWS rows
            step = -(-k.shape[0] // max(1, round(k.shape[0] / _BLOCK_ROWS)))
            for a in range(0, k.shape[0], step):
                _sweep(F, kind, lo, hi, power, k[a:a + step], cfg, out)
    return out


def de_integrate(
    f: Callable[[np.ndarray], np.ndarray],
    lo: float,
    hi: float,
    cfg: QuadratureConfig = QuadratureConfig(),
) -> QuadratureResult:
    """Integrate f over (lo, hi) by level-doubled DE trapezoid.

    f maps a NumPy array of abscissae to the integrand values, same shape.
    The interval picks the map, as in integrate_rows.  Converges when
    successive levels differ by at most rel_tol*|value| + abs_floor (or by
    a few ulps, whichever is met first).  Raises NonConvergenceError when
    max_levels is exhausted and IntegrandError on any non-finite integrand
    value.
    """
    r = integrate_rows(lambda idx, x: f(x), np.array([lo]), np.array([hi]), cfg)
    return QuadratureResult(float(r.value[0]), float(r.err[0]), int(r.n_evals[0]),
                            int(r.levels[0]))


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
    # one (nodes x points) buffer of 1 / (x_j - x), and one product of the
    # rows w_j v_j and w_j with it: numerator and denominator, both negated.
    # The weights are +/-1 and +/-1/2, so (1/r) (w v) is (w/r) v exactly.  A
    # point on a node gets an infinite reciprocal and a nan value, overwritten
    # below with the node's value
    recip = np.subtract.outer(interp.nodes, x)
    with np.errstate(divide="ignore", invalid="ignore"):
        np.reciprocal(recip, out=recip)
        num, den = np.stack([interp.weights * interp.values, interp.weights]) @ recip
        out = num / den
    # nodes run from hi down to lo
    j = np.minimum(np.searchsorted(-interp.nodes, -x), interp.nodes.shape[0] - 1)
    exact = interp.nodes[j] == x
    out[exact] = interp.values[j[exact]]
    return out
