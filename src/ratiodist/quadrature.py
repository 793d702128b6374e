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
its Jacobian sc (x - a)/z.  Every map ends where its weight is 0: the tables
past _T_LIMIT, and a power row also where its nodes overflow.  A new map
kind plugs in at _T_LIMIT, _table and _Lanes, and a location or scale of a
map at _Lanes; callers name the interval and, for a half-line row, an
optional power map.

Refinement halves the step h, at most 18 times (max_levels), and evaluates
only the new odd-index nodes; previous work is reused through I_new =
I_old/2 + h * (odd-node sum), so no abscissa is ever evaluated twice.

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
order (np.cumsum) over every evaluated node, so every row sums exactly the
nodes, in exactly the order, that a node-by-node sweep would, whatever else
is in the batch; values past a row's stop are ignored.  The rule cannot
fire before a lane's reach, so it is read only from two nodes before the
reach (in an array book, before the least reach among a call's lanes), or
from a call's first node when a weight before that is 0.  Each row keeps
its own scale, reach and convergence test and leaves the batch once it
converges.  de_integrate is a batch of one row.

The block size picks only how the sweep keeps a block's bookkeeping: the
rows' values, error estimates and counts, and the lanes' tail rule.  More
than _SMALL_ROWS rows keep it in NumPy arrays (_ArrayBook), whose levels
cost a few dozen NumPy calls whatever the block's size; at most
_SMALL_ROWS rows, such as the one or two rows of a single point, keep it
per lane in Python floats (_FloatBook).  One level loop (_level) makes the
same integrand calls on the same x for both, and both sum the same nodes
in the same order, so a row's value, evaluation count, levels and errors
do not depend on the block size.

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

# the step of level 0, and the deepest level: its largest tables hold 890,327
# nodes a side, level 19's 1,780,652, each built node by node and cached
_INITIAL_H = 1.0
_MAX_LEVELS = 18
# about this many rows per sweep: the rows of a block go through every level
# together, so the per-call overhead of a level is shared by this many rows
_BLOCK_ROWS = 512
# at most about this many (lane x node) cells per integrand call of a level:
# bounds the arrays of a call and keeps them cache-sized
_BLOCK_CELLS = 32_768
# blocks of at most this many rows keep their bookkeeping in Python floats,
# larger ones in NumPy arrays: timed on blocks of 1-16 Mellin and Gil-Pelaez
# rows, floats cost 0.4x arrays at 1 row, 0.7-0.8x at 8, 0.8-0.9x at 12 and
# break even near 16
_SMALL_ROWS = 12

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
    purely relative.  max_levels lies in [1, 18]: each level doubles the node
    tables, which are built in Python and cached, to 890,327 a side at 18.
    """

    rel_tol: float = 1e-10
    abs_floor: float = 1e-300
    max_levels: int = 12

    def __post_init__(self) -> None:
        if not (1e-15 <= self.rel_tol <= 1e-1):
            raise InvalidParamsError(f"rel_tol must lie in [1e-15, 1e-1], got {self.rel_tol!r}")
        if not (self.abs_floor >= 0.0):
            raise InvalidParamsError(f"abs_floor must be >= 0, got {self.abs_floor!r}")
        n = self.max_levels
        if not (isinstance(n, (int, np.integer)) and 1 <= n <= _MAX_LEVELS):
            raise InvalidParamsError(f"max_levels must be an int in [1, {_MAX_LEVELS}], got {n!r}")


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
        elif kind == "real":  # the half-line path, on the real-line table
            self.x0, self.base = np.zeros(m), np.zeros(2 * m)
        elif kind == "power":
            c, sc = power[0][rows], power[1][rows]
            self.x0 = lo + c
            self.w0 = _HALF_PI * sc * c
            self.base = np.concatenate([lo, lo])
            self.c, self.sc = np.concatenate([c, c]), np.concatenate([sc, sc])
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
        if self.kind in ("half", "real"):
            return self.base[sel, None] + tab.off[side, a:b], tab.w[side, a:b]
        if self.kind == "power":
            z, sc = tab.off[side, a:b], self.sc[sel, None]
            d = self.c[sel, None] * z ** sc  # x - lo, without cancellation
            w = tab.w[side, a:b] * (sc * d / z)
            w[~np.isfinite(w)] = 0.0  # the map ends: d / z is 0/0 past the table, inf past overflow
            return self.base[sel, None] + d, w
        offset = self.two_halfw[sel, None] / tab.off[side, a:b]
        x = self.base[sel, None] + offset if side else self.base[sel, None] - offset
        sech = tab.sech[side, a:b]
        w = self.halfw_pi[sel, None] * tab.w[side, a:b] * sech * sech
        w[offset == 0.0] = 0.0
        return x, w


class _ArrayBook:
    """The bookkeeping of a block's sweep in NumPy arrays: per row the value,
    error estimate and evaluation count; per lane the reach and, for the
    current level, the tail rule's state, sum, summed-node count and stop
    point (the last node summed, or the first one not evaluated).

    Each t-side of a call is scanned on its own, on views of the integrand's
    values, as a (columns x lanes) array.  Every term is formed and summed in
    sweep order, but the rule (|term| h, the threshold, three small terms in
    a row, the reach and a zero weight) is read only from a window: from two
    columns before the first column at or past the reach of any of the
    scanned lanes, where it may first fire.  Zero weights end a map, so they
    form a suffix of each side, and a nonzero weight in the column before the
    window leaves no zero-weight stop before it; if any lane weighs 0 there,
    the window is the whole call.
    """

    def __init__(self, rows: np.ndarray, cfg: QuadratureConfig):
        self.rows, self.cfg = rows, cfg
        self.c_tol, self.floor = cfg.rel_tol * 1e-2, 0.1 * cfg.abs_floor
        self.val: Optional[np.ndarray] = None  # set by level 0
        self.reach = np.zeros(2 * rows.shape[0])

    def level(self, lanes: _Lanes, tab: _Table, h: float):
        """Start a level on the nodes of tab; returns how far each side of the
        block's first call goes: every node at level 0, widths() later."""
        n, n_t = 2 * self.rows.shape[0], tab.t.shape[0]
        self.lanes, self.tab, self.h = lanes, tab, h
        # each lane's first column at or past its reach, where its rule may fire
        self.first = np.searchsorted(tab.t, self.reach)
        self.total = np.zeros(n)
        self.count = np.zeros(n, dtype=np.int64)
        self.stop_t = np.zeros(n)
        self.prev = np.zeros((2, n), dtype=bool)  # were a lane's last two terms small?
        if self.val is None:  # level 0 takes its scale from the t = 0 node
            self.scale, self.f0w = np.empty(n), np.empty(n // 2)
            return n_t, n_t
        scale = np.abs(self.val)
        self.scale = np.concatenate([scale, scale])
        self.end = np.minimum(self.first + _EXTRA, n_t).reshape(2, -1)
        return self.widths(0, n // 2)

    def widths(self, a: int, b: int):
        """Each side's first-call width for rows a:b: its lanes' reach + _EXTRA."""
        return self.end[:, a:b].max(axis=1).tolist()

    def scan_chunk(self, a: int, b: int, fv: np.ndarray, wp, wn, bp: int, bn: int):
        """Scan the first call of rows a:b, whose values fv hold bp t > 0
        columns, bn t < 0 columns and at level 0 the t = 0 node; returns per
        side the lanes that go on."""
        m = self.rows.shape[0]
        if self.val is None:
            f0 = fv[:, -1]
            if not np.isfinite(f0).all():
                i = int(np.argmin(np.isfinite(f0)))
                _fail(int(self.lanes.rows[a + i]), float(f0[i]), float(self.lanes.x0[a + i]), 0.0)
            self.f0w[a:b] = f0w = f0 * self.lanes.w0[a:b]
            self.scale[a:b] = self.scale[m + a:m + b] = self.h * np.abs(f0w)
        return [np.flatnonzero(~self._scan(slice(a, b), fv[:, :bp], wp, 0)) + a,
                np.flatnonzero(~self._scan(slice(m + a, m + b), fv[:, bp:bp + bn], wn, 0)) + m + a]

    def scan(self, ol: np.ndarray, fv: np.ndarray, w: np.ndarray, a: int) -> np.ndarray:
        """Scan the lanes ol on from table column a; returns those that go on."""
        return ol[~self._scan(ol, fv, w, a)]

    def _scan(self, ol, fv: np.ndarray, w: np.ndarray, a: int) -> np.ndarray:
        """Apply the tail rule to the columns from a just evaluated for the
        lanes ol, all of one side.

        Column j of fv (and of w, unless w is one row for all) holds table
        column a + j.  Returns the mask of the lanes that stop.
        """
        h, (n, width) = self.h, fv.shape
        # the work runs on columns x lanes, so that the window is one
        # contiguous block; wt is one column of weights for all lanes or one per lane
        wt = w.T if w.ndim == 2 else w[:, None]
        # running sums in sweep order, from the lane's sum so far, over every
        # column (np.add.accumulate: np.cumsum at less call overhead); the
        # array work is done in place, to bound memory and passes
        cum = np.empty((width + 1, n))
        cum[0] = self.total[ol]
        np.multiply(fv.T, wt, out=cum[1:])
        # the rule is read from column s on: two before the first column at
        # or past a lane's reach, or 0 if a weight before s is 0
        s = max(int(self.first[ol].min()) - a - 2, 0)
        if s and not wt[s - 1].all():
            s = 0
        small = np.abs(cum[s + 1:])
        small *= h
        np.add.accumulate(cum, axis=0, out=cum)
        thr = np.abs(cum[s + 1:])  # max(c_tol * (scale + h |sum|), floor)
        thr *= h
        thr += self.scale[ol]
        thr *= self.c_tol
        np.maximum(thr, self.floor, out=thr)
        # before s the rule cannot fire, so the two columns before s read as not small
        prev = self.prev[:, ol] if s == 0 else np.zeros((2, n), dtype=bool)
        small = np.concatenate([prev, small < thr])
        t = self.tab.t[a + s:a + width]
        fire = small[2:] & small[1:-1] & small[:-2] & (t[:, None] >= self.reach[ol])
        zero = wt[s:] == 0.0  # stop before evaluating, as at the end of the map
        event = fire | zero
        k = event.argmax(axis=0)
        r = np.arange(n)
        stops = event[k, r]
        zk = zero[k, r] if zero.shape[1] == n else zero[k, 0]
        end = np.where(stops, k + (s + 1) - zk, width)  # nodes summed from this call
        tot = cum[end, r]
        if not math.isfinite(np.add.reduce(tot)):  # a summed value may be non-finite
            self._check_finite(ol, fv, a, end)
        self.count[ol] += end
        self.total[ol] = tot
        self.stop_t[ol] = t[k]
        if not stops.all():  # the lanes that go on end at width
            self.prev[:, ol] = small[-2:]
        return stops

    def _check_finite(self, ol, fv: np.ndarray, a: int, end: np.ndarray) -> None:
        bad = np.where(np.isfinite(fv), fv.shape[1], np.arange(fv.shape[1])).min(axis=1)
        if np.any(bad < end):
            i = int(np.argmax(bad < end))
            j = int(bad[i])
            _fail_at(self.lanes, self.tab, np.arange(self.reach.shape[0])[ol][i], a + j,
                     float(fv[i, j]))

    def update(self, level: int, out: _Batch) -> bool:
        """Close a level: update the rows, write those that converge into out
        and drop them.  Returns whether rows were dropped."""
        rows, total, count, h = self.rows, self.total, self.count, self.h
        m = rows.shape[0]
        if self.val is None:
            self.val = h * (self.f0w + total[:m] + total[m:])
            self.evals = 1 + count[:m] + count[m:]
            self.reach = self.stop_t
            return False
        self.reach = np.maximum(self.reach, self.stop_t)
        self.evals += count[:m] + count[m:]
        new = 0.5 * self.val + h * (total[:m] + total[m:])
        e = np.abs(new - self.val)
        self.val = new
        size = np.abs(new)
        done = (e <= self.cfg.rel_tol * size + self.cfg.abs_floor) | (e <= _MACHINE_FLOOR * size)
        n_done = np.count_nonzero(done)
        if n_done:
            value, err, n_evals, levels = out
            fin = rows[done]
            value[fin], err[fin], levels[fin] = new[done], e[done], level
            n_evals[fin] = self.evals[done]
            if n_done == m:
                self.rows = rows[:0]
                return True
            keep = ~done
            self.rows, self.val, e, self.evals = rows[keep], new[keep], e[keep], self.evals[keep]
            self.reach = self.reach[np.concatenate([keep, keep])]
        self.e = e
        return n_done > 0


def _fail(row: int, value: float, x: float, t: float):
    raise IntegrandError(f"integrand returned {value!r} at x={x!r} (t={t!r})",
                         row=row, value=value, node=x)


def _fail_at(lanes: _Lanes, tab: _Table, lane: int, col: int, value: float):
    """_fail for the value at table column col of a lane."""
    side = int(lanes.side[lane])
    x = lanes.nodes(np.array([lane]), side, tab, col, col + 1)[0]
    _fail(int(lanes.row[lane]), value, float(x[0, 0]), float(tab.t[col]) * (1.0 - 2.0 * side))


def _call(F: RowIntegrand, idx: np.ndarray, x: np.ndarray) -> np.ndarray:
    fv = np.asarray(F(idx, x), dtype=float)
    if fv.shape != x.shape:
        raise InvalidParamsError(
            f"integrand must map an array to an array of the same shape; "
            f"got {fv.shape} for {x.shape}"
        )
    return fv


def _level(F: RowIntegrand, lanes: _Lanes, level: int, book) -> None:
    """Sweep both t-sides of a level, step _INITIAL_H / 2^level, for every
    lane, keeping the bookkeeping in book (an _ArrayBook or a _FloatBook)."""
    h = _INITIAL_H * 0.5 ** level
    tab = _table("half" if lanes.kind == "power" else lanes.kind, h, 2 if level else 1)
    n_t = tab.t.shape[0]
    m = lanes.rows.shape[0]
    # one call per chunk of rows for both sides, each side evaluated out to
    # the furthest reach of the chunk's lanes (all of level 0, which has a few
    # nodes), plus the t = 0 node at level 0
    bp, bn = book.level(lanes, tab, h)
    # equal chunks of at most about _BLOCK_CELLS cells
    chunk = -(-m // -(-(m * (bp + bn + 1)) // _BLOCK_CELLS))
    for a in range(0, m, chunk):
        b = min(a + chunk, m)
        if level and b - a < m:
            bp, bn = book.widths(a, b)
        xp, wp = lanes.nodes(slice(a, b), 0, tab, 0, bp)
        xn, wn = lanes.nodes(slice(m + a, m + b), 1, tab, 0, bn)
        x = np.concatenate([xp, xn] + ([] if level else [lanes.x0[a:b, None]]), axis=1)
        del xp, xn  # large arrays are dropped as soon as they are used, to bound memory
        fv = _call(F, lanes.rows[a:b], x)
        del x
        going = book.scan_chunk(a, b, fv, wp, wn, bp, bn)
        del fv
        # lanes whose rule has not fired are extended one side at a time, by
        # _EXTRA nodes and then twice as many each call
        for side, (ol, col) in enumerate(zip(going, (bp, bn))):
            grow = _EXTRA
            while len(ol):
                c = min(col + grow, n_t)
                x, w = lanes.nodes(ol, side, tab, col, c)
                ol = book.scan(ol, _call(F, lanes.row[ol], x), w, col)
                col, grow = c, 2 * grow


class _Batch(NamedTuple):
    value: np.ndarray
    err: np.ndarray
    n_evals: np.ndarray
    levels: np.ndarray


def _sweep(F: RowIntegrand, kind: str, lo: np.ndarray, hi: np.ndarray, power, rows: np.ndarray,
           cfg: QuadratureConfig, out: _Batch) -> None:
    """Integrate the rows of one map kind in one sweep, into their entries of
    out; the block size picks how the bookkeeping is kept."""
    book = (_FloatBook if rows.shape[0] <= _SMALL_ROWS else _ArrayBook)(rows, cfg)
    lanes = _Lanes(kind, lo, hi, rows, power)
    # values past a lane's stop may overflow or be nan; they are never summed
    with np.errstate(all="ignore"):
        for level in range(cfg.max_levels + 1):
            _level(F, lanes, level, book)
            if book.update(level, out):
                if not book.rows.shape[0]:
                    return
                lanes = _Lanes(kind, lo, hi, book.rows, power)
    row, value, err = int(book.rows[0]), float(book.val[0]), float(book.e[0])
    raise NonConvergenceError(
        f"no convergence after {cfg.max_levels} levels; last err_est={err!r}, value={value!r}",
        row=row, value=value, err=err)


class _FloatBook:
    """The bookkeeping of _ArrayBook, per row and lane in Python floats.

    Both books read the rule from the same window: a lane's rule is read
    only from two columns before its reach, starting from its running sum
    there (np.cumsum), or from the first column if the weight before that is
    0.  The array book opens one window for all the lanes of a call, at the
    least reach among them; columns between it and a lane's own reach
    cannot fire.
    """

    def __init__(self, rows: np.ndarray, cfg: QuadratureConfig):
        n = rows.shape[0]
        self.rows, self.cfg = rows, cfg
        self.c_tol, self.floor = cfg.rel_tol * 1e-2, 0.1 * cfg.abs_floor
        self.val: Optional[list] = None  # set by level 0
        self.e = [0.0] * n
        self.reach = [0.0] * (2 * n)

    def level(self, lanes: _Lanes, tab: _Table, h: float):
        n, n_t = len(self.reach), tab.t.shape[0]
        self.lanes, self.tab, self.h = lanes, tab, h
        # each lane's first column at or past its reach, where its rule may fire
        self.first = np.searchsorted(tab.t, self.reach).tolist()
        self.total = [0.0] * n
        self.count = [0] * n
        self.stop_t = [0.0] * n
        self.prev = [(False, False)] * n  # were a lane's last two terms small?
        if self.val is None:
            self.scale, self.f0w = [0.0] * n, [0.0] * (n // 2)
            return n_t, n_t
        scale = list(map(abs, self.val))
        self.scale = scale + scale
        self.end = [min(j + _EXTRA, n_t) for j in self.first]
        return self.widths(0, n // 2)

    def widths(self, a: int, b: int):
        m = self.rows.shape[0]
        return max(self.end[a:b]), max(self.end[m + a:m + b])

    def scan_chunk(self, a: int, b: int, fv: np.ndarray, wp, wn, bp: int, bn: int):
        m = self.rows.shape[0]
        if self.val is None:
            w0 = self.lanes.w0.tolist()
            for i, v in enumerate(fv[:, -1].tolist(), a):
                if not math.isfinite(v):
                    _fail(int(self.lanes.rows[i]), v, float(self.lanes.x0[i]), 0.0)
                self.f0w[i] = fw = v * w0[i]
                self.scale[i] = self.scale[m + i] = self.h * abs(fw)
        return self._scan([(range(a, b), fv[:, :bp], wp),
                           (range(m + a, m + b), fv[:, bp:bp + bn], wn)], 0)

    def scan(self, ol: list, fv: np.ndarray, w: np.ndarray, a: int) -> list:
        return self._scan([(ol, fv, w)], a)[0]

    def _scan(self, parts, a: int) -> list:
        """Apply the tail rule to the columns from a just evaluated.

        parts is a list of (lanes, fv, w): row i of fv (and of w, unless w
        is one row for all) belongs to the i-th lane.  A lane whose first
        lies further on starts two columns before it, from its running sum
        there.  Returns, per part, the lanes that go on.
        """
        h, c_tol, floor = self.h, self.c_tol, self.floor
        going = []
        for ol, fv, w in parts:
            width = fv.shape[1]
            cum = None
            go_on = []
            for i, lane in enumerate(ol):
                wi = w if w.ndim == 1 else w[i]
                first, sc = self.first[lane] - a, self.scale[lane]
                j, s = 0, self.total[lane]
                p2, p1 = self.prev[lane]
                # only a lane's first scan of a level starts before its first;
                # weights reach 0 only at the end of the map, so a nonzero
                # weight before the start leaves no zero-weight stop before it
                if first > 2 and wi[first - 3] != 0.0:
                    if cum is None:
                        cum = (fv * w).cumsum(axis=1)
                    j = first - 2
                    s = float(cum[i, j - 1]) + 0.0  # as summed from 0.0, never -0.0
                end = -1
                for f, wt in zip(fv[i, j:].tolist(), wi[j:].tolist()):
                    if wt == 0.0:  # stop before evaluating, as at the end of the map
                        end = j
                        break
                    term = f * wt
                    s += term
                    thr = (abs(s) * h + sc) * c_tol
                    small = abs(term) * h < (floor if thr < floor else thr)
                    if small and p1 and p2 and j >= first:
                        end = j + 1
                        break
                    p2, p1 = p1, small
                    j += 1
                self.total[lane] = s
                if end < 0:
                    end = width
                    self.prev[lane] = (p2, p1)
                    go_on.append(lane)
                else:
                    self.stop_t[lane] = float(self.tab.t[a + j])
                self.count[lane] += end
                if not math.isfinite(s):  # a summed value may be non-finite
                    bad = np.flatnonzero(~np.isfinite(fv[i, :end]))
                    if bad.shape[0]:
                        _fail_at(self.lanes, self.tab, lane, a + int(bad[0]), float(fv[i, bad[0]]))
            going.append(go_on)
        return going

    def update(self, level: int, out: _Batch) -> bool:
        total, count, h = self.total, self.count, self.h
        m = self.rows.shape[0]
        if self.val is None:
            self.val = [h * (f + p + q) for f, p, q in zip(self.f0w, total[:m], total[m:])]
            self.evals = [1 + p + q for p, q in zip(count[:m], count[m:])]
            self.reach = self.stop_t
            return False
        val, e, evals, cfg = self.val, self.e, self.evals, self.cfg
        self.reach = list(map(max, self.reach, self.stop_t))
        keep = []
        for i in range(m):
            new = 0.5 * val[i] + h * (total[i] + total[m + i])
            e[i] = abs(new - val[i])
            val[i] = new
            evals[i] += count[i] + count[m + i]
            size = abs(new)
            if e[i] <= cfg.rel_tol * size + cfg.abs_floor or e[i] <= _MACHINE_FLOOR * size:
                row = self.rows[i]
                out.value[row], out.err[row], out.levels[row], out.n_evals[row] = \
                    new, e[i], level, evals[i]
            else:
                keep.append(i)
        if len(keep) < m:
            self.rows = self.rows[keep]
            self.val, self.e, self.evals = [val[i] for i in keep], [e[i] for i in keep], \
                [evals[i] for i in keep]
            self.reach = [self.reach[i] for i in keep] + [self.reach[m + i] for i in keep]
            return True
        return False


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
        raise IntegrandError(f"function returned a non-finite value at node x={float(bad)!r}")
    weights = np.where(j % 2 == 0, 1.0, -1.0)
    weights[0] *= 0.5
    weights[-1] *= 0.5
    return ChebInterpolant(float(lo), float(hi), x, values, weights)


def cheb_eval_many(interp: ChebInterpolant, xs: Sequence[float]) -> np.ndarray:
    """Evaluate the interpolant at points inside [lo, hi]; nodes give their values exactly."""
    x = np.asarray(xs, dtype=float)
    if x.size and not (interp.lo <= x.min() and x.max() <= interp.hi):
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
