"""Benchmark harness: repeated grid evaluations, runtime statistics, accuracy.

Method protocol: each method id maps onto an entry of the CLI's engine table
(``cli.ENGINES``) and its default settings: analytic, mellin-de (Mellin, direct),
mellin-de-cheb (Mellin with a 257-node Chebyshev interpolant) and broda-kan.
That map, ``METHODS``, sits beside ``ENGINES`` in ``cli``; this module imports
``cli`` for both and re-exports ``METHODS``.
The entry's set-up, given a ``cli.RunConfig`` whose spec is the normal
pair N(a, 1)/N(b, 1) of the standardized-ratio parameters and the
evaluation grid (the bench command's is the window of ``pdf --auto-interval``
on any engine), returns the engine's evaluators; its pdf is a zero-argument
callable producing the full PDF grid.  The set-up is the setup phase
(interpolant building lives there) and is timed separately from the
realizations, which each call the pdf evaluator once.  One untimed warm-up
realization precedes the measured runs.  Timing uses the monotonic
perf_counter clock; runtime_mean and runtime_cv pool all measured
realizations, and eps_max comes from the final realization against the
closed form, normal_ratio.std_ratio_pdf, on the same grid.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass
from statistics import fmean, pstdev
from typing import Dict, Sequence, Tuple, Union

import numpy as np

from .cli import ENGINES, METHODS, RunConfig, Spec
from .errors import InvalidParamsError
from .normal_ratio import StdRatioParams, std_ratio_pdf

__all__ = [
    "BenchRecord",
    "BASELINE_METHOD",
    "BASELINE_REL_TOL",
    "METHODS",
    "eps_max",
    "run_experiment",
    "export",
]

BASELINE_METHOD = "mellin-de"
BASELINE_REL_TOL = 1e-3

CSV_COLUMNS = (
    "method_id,a,b,n_points,lo,hi,runs,reps,runtime_mean_s,runtime_cv,eps_max,speedup,setup_s"
)


@dataclass(frozen=True)
class BenchRecord:
    """One benchmark experiment: protocol settings plus measured statistics."""

    method_id: str
    params: Tuple[float, float]
    n_points: int
    interval: Tuple[float, float]
    runs: int
    reps_per_run: int
    runtime_mean_s: float
    runtime_cv: float
    eps_max: float
    speedup_vs_baseline: float
    setup_time_s: float = 0.0

    def __post_init__(self) -> None:
        if self.runtime_cv < 0.0:
            raise InvalidParamsError(f"runtime_cv must be >= 0, got {self.runtime_cv!r}")
        if self.eps_max < 0.0:
            raise InvalidParamsError(f"eps_max must be >= 0, got {self.eps_max!r}")
        if self.reps_per_run < 10:
            raise InvalidParamsError(
                f"protocol floor is 10 reps per run, got {self.reps_per_run!r}"
            )
        if self.runs < 1 or self.n_points < 1:
            raise InvalidParamsError("runs and n_points must be positive")


def eps_max(values: Sequence[float], reference: Sequence[float]) -> float:
    """Maximum absolute componentwise difference."""
    v = np.asarray(values, dtype=float)
    r = np.asarray(reference, dtype=float)
    if v.shape != r.shape or v.size < 1:
        raise InvalidParamsError(
            f"values and reference must be equal nonempty shapes, got {v.shape} vs {r.shape}"
        )
    return float(np.max(np.abs(v - r)))


def _as_params(params: Union[StdRatioParams, Tuple[float, float]]) -> StdRatioParams:
    if isinstance(params, StdRatioParams):
        return params
    a, b = params
    return StdRatioParams(float(a), float(b))


def run_experiment(
    method: str,
    params: Union[StdRatioParams, Tuple[float, float]],
    interval: Tuple[float, float],
    n_points: int = 1000,
    runs: int = 3,
    reps: int = 10,
    baseline: Union[BenchRecord, float, None] = None,
    label: str = "",
    **opts: object,
) -> BenchRecord:
    """Execute runs x reps timed full-grid evaluations of one method.

    baseline is a mean runtime in seconds (or a BenchRecord carrying one);
    speedup_vs_baseline = baseline / runtime_mean_s, or NaN when absent.
    Extra keyword options set the method's RunConfig settings: rel_tol (mellin-de,
    mellin-de-cheb), cheb_nodes (mellin-de-cheb) and grid_n (broda-kan).  label,
    when given, replaces the method id in the record so tolerance-sweep rows
    stay distinguishable in the fixed CSV schema.
    Any engine failure propagates; no partial record is produced.
    """
    if method not in METHODS:
        raise InvalidParamsError(
            f"unknown method {method!r}; registered: {', '.join(sorted(METHODS))}"
        )
    engine, takes = METHODS[method]
    unknown = sorted(set(opts) - set(takes))
    if unknown:
        raise InvalidParamsError(f"method {method!r} takes no option {', '.join(unknown)}")
    if runs < 1:
        raise InvalidParamsError(f"runs must be >= 1, got {runs!r}")
    if reps < 10:
        raise InvalidParamsError(f"protocol floor is 10 reps per run, got {reps!r}")
    if n_points < 1:
        raise InvalidParamsError(f"n_points must be >= 1, got {n_points!r}")
    lo, hi = float(interval[0]), float(interval[1])
    if not (lo < hi) or not math.isfinite(lo) or not math.isfinite(hi):
        raise InvalidParamsError(f"interval must be finite with lo < hi, got {interval!r}")

    sr = _as_params(params)
    xs = np.linspace(lo, hi, n_points)
    cfg = RunConfig(Spec.std_ratio(sr), **{**takes, **opts})  # type: ignore[arg-type]

    t0 = time.perf_counter()
    evaluate = ENGINES[engine].setup(cfg, xs)[0]
    setup_s = time.perf_counter() - t0

    evaluate()  # warm-up, excluded from statistics
    times = []
    values = None
    for _ in range(runs * reps):
        t0 = time.perf_counter()
        values = evaluate()
        times.append(time.perf_counter() - t0)

    mean_s = fmean(times)
    cv = pstdev(times) / mean_s if mean_s > 0.0 else 0.0
    err = eps_max(values, std_ratio_pdf(sr, xs))

    if isinstance(baseline, BenchRecord):
        baseline = baseline.runtime_mean_s
    speedup = float(baseline) / mean_s if baseline is not None else math.nan

    return BenchRecord(
        method_id=label or method,
        params=(sr.a, sr.b),
        n_points=int(n_points),
        interval=(lo, hi),
        runs=int(runs),
        reps_per_run=int(reps),
        runtime_mean_s=mean_s,
        runtime_cv=cv,
        eps_max=err,
        speedup_vs_baseline=speedup,
        setup_time_s=setup_s,
    )


def _g17(x: float) -> str:
    return format(float(x), ".17g")


def _row(rec: BenchRecord) -> Dict[str, object]:
    return {
        "method_id": rec.method_id,
        "a": rec.params[0],
        "b": rec.params[1],
        "n_points": rec.n_points,
        "lo": rec.interval[0],
        "hi": rec.interval[1],
        "runs": rec.runs,
        "reps": rec.reps_per_run,
        "runtime_mean_s": rec.runtime_mean_s,
        "runtime_cv": rec.runtime_cv,
        "eps_max": rec.eps_max,
        "speedup": rec.speedup_vs_baseline,
        "setup_s": rec.setup_time_s,
    }


def export(records: Sequence[BenchRecord], format: str) -> str:
    """Records as CSV text (fixed column schema) or JSON text (same field names).

    CSV reals carry 17 significant digits and JSON reals their shortest repr;
    both round-trip 64-bit floats.
    """
    if not records:
        raise InvalidParamsError("records must be nonempty")
    fmt = format.lower()
    if fmt == "csv":
        lines = [CSV_COLUMNS]
        for rec in records:
            row = _row(rec)
            lines.append(
                ",".join(
                    str(row[c]) if c in ("method_id", "n_points", "runs", "reps")
                    else _g17(row[c])  # type: ignore[arg-type]
                    for c in CSV_COLUMNS.split(",")
                )
            )
        return "\n".join(lines) + "\n"
    if fmt == "json":
        return json.dumps([_row(rec) for rec in records], indent=2) + "\n"
    raise InvalidParamsError(f"format must be 'csv' or 'json', got {format!r}")
