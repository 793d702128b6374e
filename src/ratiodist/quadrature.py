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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from .errors import (
    IntegrandError,
    InvalidParamsError,
    NonConvergenceError,
)

_HALF_PI = math.pi / 2.0
# refinement stops improving once level differences reach a few ulps
_MACHINE_FLOOR = 4.0 * 2.220446049250313e-16


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
    """One of the three double-exponential substitutions.

    node(t) returns the abscissa and the trapezoid weight psi'(t), or None
    once t lies beyond the range representable in double precision.  A zero
    weight means the tail has underflowed; callers stop the sweep there and
    must not evaluate the integrand (the abscissa may have collapsed onto a
    singular endpoint).
    """

    __slots__ = ("kind", "lo", "hi", "_mid", "_halfw", "t_limit")

    def __init__(self, kind: str, lo: float, hi: float):
        self.kind = kind
        self.lo = lo
        self.hi = hi
        if kind == "finite":
            if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
                raise InvalidParamsError(f"finite transform needs lo < hi, got ({lo!r}, {hi!r})")
            self._mid = 0.5 * (lo + hi)
            self._halfw = 0.5 * (hi - lo)
            # |u| <= 350 keeps exp(2|u|) finite in the offset formula
            self.t_limit = math.asinh(350.0 / _HALF_PI)
        elif kind == "half":
            if not math.isfinite(lo):
                raise InvalidParamsError(f"half-line origin must be finite, got {lo!r}")
            self._mid = 0.0
            self._halfw = 0.0
            self.t_limit = math.asinh(700.0 / _HALF_PI)
        elif kind == "real":
            self._mid = 0.0
            self._halfw = 0.0
            self.t_limit = math.asinh(700.0 / _HALF_PI)
        else:  # pragma: no cover - factory methods prevent this
            raise InvalidParamsError(f"unknown transform kind {kind!r}")

    @classmethod
    def finite(cls, lo: float, hi: float) -> "DETransform":
        return cls("finite", float(lo), float(hi))

    @classmethod
    def half_line(cls, origin: float = 0.0) -> "DETransform":
        return cls("half", float(origin), math.inf)

    @classmethod
    def real_line(cls) -> "DETransform":
        return cls("real", -math.inf, math.inf)

    def node(self, t: float) -> Optional[Tuple[float, float]]:
        if abs(t) > self.t_limit:
            return None
        u = _HALF_PI * math.sinh(t)
        cosh_t = math.cosh(t)
        if self.kind == "finite":
            # offset from the near endpoint: halfw*(1 - |tanh u|), computed
            # without cancellation so endpoint singularities stay evaluable
            offset = 2.0 * self._halfw / (math.exp(2.0 * abs(u)) + 1.0)
            if t > 0.0:
                x = self.hi - offset
            elif t < 0.0:
                x = self.lo + offset
            else:
                x = self._mid
            sech = 2.0 * math.exp(-abs(u)) / (1.0 + math.exp(-2.0 * abs(u)))
            w = self._halfw * _HALF_PI * cosh_t * sech * sech
            if offset == 0.0 and t != 0.0:
                w = 0.0
            return x, w
        if self.kind == "half":
            ex = math.exp(u)
            if ex == 0.0:
                return self.lo, 0.0
            return self.lo + ex, _HALF_PI * cosh_t * ex
        # real line
        return math.sinh(u), _HALF_PI * cosh_t * math.cosh(u)


def _sweep_side(
    f: Callable[[float], float],
    transform: DETransform,
    h: float,
    sign: float,
    first_k: int,
    step_k: int,
    scale: float,
    cfg: QuadratureConfig,
    t_min_stop: float = 0.0,
) -> Tuple[float, int, float]:
    """Accumulate f(psi(t)) psi'(t) over t = sign*k*h until the tail rule fires.

    The small-term rule may only fire once |t| >= t_min_stop; refinement
    sweeps pass the extent reached by earlier levels so that an integrand
    whose mass sits away from t = 0, behind a valley of negligible terms,
    cannot be truncated before the sweep has crossed the valley.
    """
    total = 0.0
    count = 0
    consecutive_small = 0
    k = first_k
    t_abs = 0.0
    while True:
        t_abs = k * h
        nd = transform.node(sign * t_abs)
        if nd is None:
            break
        x, w = nd
        if w == 0.0:
            break
        fv = f(x)
        if not math.isfinite(fv):
            raise IntegrandError(f"integrand returned {fv!r} at x={x!r} (t={sign * t_abs!r})")
        term = fv * w
        total += term
        count += 1
        if count > cfg.max_nodes_per_side:
            raise NonConvergenceError(
                f"exceeded {cfg.max_nodes_per_side} nodes on one side at h={h!r}"
            )
        threshold = max(
            cfg.rel_tol * 1e-2 * (scale + h * abs(total)),
            0.1 * cfg.abs_floor,
        )
        if h * abs(term) < threshold:
            consecutive_small += 1
            if consecutive_small >= 3 and t_abs >= t_min_stop:
                break
        else:
            consecutive_small = 0
        k += step_k
    return total, count, t_abs


def de_integrate(
    f: Callable[[float], float],
    transform: DETransform,
    cfg: QuadratureConfig = QuadratureConfig(),
) -> QuadratureResult:
    """Integrate f over the transform's domain by level-doubled DE trapezoid.

    Converges when successive levels differ by at most
    rel_tol*|value| + abs_floor (or by a few ulps, whichever is met first).
    Raises NonConvergenceError when max_levels is exhausted and
    IntegrandError on any non-finite integrand value.
    """
    h = cfg.initial_h
    nd = transform.node(0.0)
    assert nd is not None
    x0, w0 = nd
    f0 = f(x0)
    if not math.isfinite(f0):
        raise IntegrandError(f"integrand returned {f0!r} at x={x0!r} (t=0.0)")
    center = f0 * w0
    n_evals = 1
    scale = h * abs(center)
    pos, n_pos, reach_pos = _sweep_side(f, transform, h, 1.0, 1, 1, scale, cfg)
    neg, n_neg, reach_neg = _sweep_side(f, transform, h, -1.0, 1, 1, scale, cfg)
    n_evals += n_pos + n_neg
    value = h * (center + pos + neg)

    level_errs = []
    for level in range(1, cfg.max_levels + 1):
        h *= 0.5
        scale = abs(value)
        pos, n_pos, rp = _sweep_side(f, transform, h, 1.0, 1, 2, scale, cfg, reach_pos)
        neg, n_neg, rn = _sweep_side(f, transform, h, -1.0, 1, 2, scale, cfg, reach_neg)
        reach_pos = max(reach_pos, rp)
        reach_neg = max(reach_neg, rn)
        n_evals += n_pos + n_neg
        new_value = 0.5 * value + h * (pos + neg)
        err = abs(new_value - value)
        level_errs.append(err)
        value = new_value
        if err <= cfg.rel_tol * abs(value) + cfg.abs_floor or err <= _MACHINE_FLOOR * abs(value):
            return QuadratureResult(value, err, n_evals, level, tuple(level_errs))
    raise NonConvergenceError(
        f"no convergence after {cfg.max_levels} levels; last err_est={level_errs[-1]!r}, "
        f"value={value!r}"
    )


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
    f: Callable[[float], float],
    lo: float,
    hi: float,
    n_nodes: int,
) -> ChebInterpolant:
    """Sample f at n_nodes Chebyshev-Lobatto points on [lo, hi].

    n_nodes must be 2^k + 1 with k >= 2 so node sets nest under doubling.
    f is called with Python floats: NumPy scalars handed on to a scalar
    quadrature turn every integrand product into slower NumPy-scalar
    arithmetic.
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
    values = np.array([float(f(xx)) for xx in x.tolist()])
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
    diff = x[:, None] - interp.nodes[None, :]
    exact_pt, exact_node = np.nonzero(diff == 0.0)
    diff[exact_pt, exact_node] = 1.0  # placeholder; rows overwritten below
    ratios = interp.weights[None, :] / diff
    out = ratios @ interp.values / ratios.sum(axis=1)
    out[exact_pt] = interp.values[exact_node]
    return out
