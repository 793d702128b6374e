"""Command-line interface over the ratio-distribution engines.

Subcommands: pdf and cdf write x,value CSV; modality prints the shape
verdict; interval prints the chosen evaluation window; bench runs the
timed accuracy protocol and exports records to the file named by --out
(bench needs --out; it checks that before running anything).

The other subcommands read exactly one distribution spec into a Spec of
one of three kinds: "normal" (a BivNormalParams from --biv, --hake, or
--std-ratio A B, which stands for N(A, 1)/N(B, 1)), "num-den" (the --num
and --den spec lists) or "dist" (the --dist spec list).

Engines live in one table, ENGINES, keyed by the --engine id: analytic
(closed forms), mellin (DE Mellin convolution, densities only), broda-kan
(2D CF inversion) and gil-pelaez (1D CF inversion).  Each entry states the
spec kinds it takes and holds a pdf factory, a cdf factory (none for mellin)
and the --auto-interval window.  A factory reads a RunConfig, does the
one-time work (densities, CFs, auto_grid, the Chebyshev build) and returns a
zero-argument evaluator for the whole grid; the bench times the same
entries.  Every subcommand computes its whole output first and then writes
it once.  Bad specs, bad settings and engine errors exit with status 1 and a
one-line diagnostic on stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys
from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from . import bench as bench_mod
from .cf import (
    _GP_CFG,
    CharFn,
    Grid2DConfig,
    JointCharFn,
    auto_grid,
    bivariate_normal_joint_cf,
    broda_kan_cdf,
    broda_kan_pdf_joint,
    cauchy_cf,
    cf_moments,
    chi_square_cf,
    gil_pelaez_cdf,
    gil_pelaez_pdf,
    normal_cf,
    product_joint_cf,
    six_sigma_interval,
)
from .errors import RatioDistError, InvalidParamsError
from .mellin import (
    DensityFn,
    chi_square_density,
    normal_density,
    ratio_interpolant,
    ratio_pdf_grid,
    uniform_density,
)
from .normal_ratio import (
    BivNormalParams,
    HakeInputs,
    MODALITY_A0,
    StdRatioParams,
    classify_modality,
    evaluation_interval,
    hake_params,
    modality_curve,
    ratio_cdf,
    ratio_pdf_phamgia,
    to_standard,
)
from .quadrature import QuadratureConfig, cheb_eval_many

__all__ = ["ENGINES", "Engine", "RunConfig", "Spec", "main"]

# spec kind -> the flags that give it
_FLAGS = {"normal": "--std-ratio/--biv/--hake", "num-den": "--num/--den", "dist": "--dist"}


class Spec(NamedTuple):
    """One distribution: a kind from _FLAGS and its parsed value."""

    kind: str
    value: object  # BivNormalParams, (num, den) spec lists, or one spec list

    @classmethod
    def std_ratio(cls, sr: StdRatioParams) -> "Spec":
        """N(a, 1)/N(b, 1), the independent normal pair that T stands for."""
        return cls("normal", BivNormalParams(sr.a, sr.b, 1.0, 1.0, 0.0))


@dataclass(frozen=True)
class RunConfig:
    """What an engine reads: its id, the distribution and its settings."""

    engine: str
    spec: Spec
    k: Optional[float] = None
    rel_tol: float = 1e-10
    cheb_nodes: Optional[int] = None
    grid_n: int = 500


def _spec(args: argparse.Namespace) -> Spec:
    """The one distribution spec among the spec flags of the command line."""
    given = [flag for flag, v in (("--std-ratio", args.std_ratio), ("--biv", args.biv),
                                  ("--hake", args.hake), ("--num/--den", args.num or args.den),
                                  ("--dist", args.dist)) if v is not None]
    if len(given) != 1:
        raise InvalidParamsError(
            f"pass exactly one distribution spec ({', '.join(_FLAGS.values())}), "
            f"got {' and '.join(given) or 'none'}"
        )
    if args.std_ratio is not None:
        return Spec.std_ratio(StdRatioParams(*args.std_ratio))
    if args.biv is not None:
        return Spec("normal", BivNormalParams(*args.biv))
    if args.hake is not None:
        return Spec("normal", hake_params(HakeInputs(*args.hake)))
    if args.dist is not None:
        return Spec("dist", args.dist)
    if args.num is None or args.den is None:
        raise InvalidParamsError("--num and --den go together")
    return Spec("num-den", (args.num, args.den))


def _numbers(spec: List[str]) -> List[float]:
    try:
        return [float(v) for v in spec[1:]]
    except ValueError:
        raise InvalidParamsError(f"spec {spec!r} holds a value that is not a number") from None


def _parse_density(spec: List[str]) -> DensityFn:
    kind, args = spec[0], _numbers(spec)
    if kind == "normal" and len(args) == 2:
        return normal_density(args[0], args[1])
    if kind == "chisq" and len(args) == 1:
        return chi_square_density(args[0])
    if kind == "uniform" and len(args) == 2:
        return uniform_density(args[0], args[1])
    raise InvalidParamsError(
        f"unknown density spec {spec!r}; expected 'normal MU SIGMA', 'chisq K' or 'uniform LO HI'"
    )


def _parse_cf(spec: List[str]) -> CharFn:
    kind, args = spec[0], _numbers(spec)
    if kind == "normal" and len(args) == 2:
        return normal_cf(args[0], args[1])
    if kind == "chisq" and len(args) == 1:
        return chi_square_cf(args[0])
    if kind == "cauchy" and len(args) == 2:
        return cauchy_cf(args[0], args[1])
    raise InvalidParamsError(
        f"no characteristic function for spec {spec!r}; expected 'normal MU SIGMA', "
        "'chisq K' or 'cauchy X0 GAMMA'"
    )


def _ratio_cfs(spec: Spec) -> Tuple[CharFn, CharFn]:
    """Marginal CFs of numerator and denominator of a normal or num-den spec."""
    if spec.kind == "normal":
        p = spec.value
        return normal_cf(p.mu1, p.sigma1), normal_cf(p.mu2, p.sigma2)
    num, den = spec.value
    return _parse_cf(num), _parse_cf(den)


def _moment_window(cfg: RunConfig) -> Tuple[float, float]:
    """--auto-interval from normal moments, k = 2 by default."""
    if cfg.spec.kind == "normal":
        return evaluation_interval(cfg.spec.value, 2.0 if cfg.k is None else cfg.k)
    # densities carry no moments; fall back to the CF route
    return six_sigma_interval(*_ratio_cfs(cfg.spec), 6.0 if cfg.k is None else cfg.k)


def _cf_window(cfg: RunConfig) -> Tuple[float, float]:
    """--auto-interval from CF moments, k = 6 by default."""
    k = 6.0 if cfg.k is None else cfg.k
    if cfg.spec.kind == "dist":
        mu, var = cf_moments(_parse_cf(cfg.spec.value))
        sd = math.sqrt(var)
        return (mu - k * sd, mu + k * sd)
    return six_sigma_interval(*_ratio_cfs(cfg.spec), k)


# A grid factory does the one-time work and returns an evaluator for the whole
# grid; library functions are looked up by global name when called, so a
# wrapper installed on this module's names sees every call.
Evaluator = Callable[[], np.ndarray]
Factory = Callable[[RunConfig, np.ndarray], Evaluator]


def _analytic_pdf(cfg: RunConfig, xs: np.ndarray) -> Evaluator:
    return lambda: ratio_pdf_phamgia(cfg.spec.value, xs)


def _analytic_cdf(cfg: RunConfig, xs: np.ndarray) -> Evaluator:
    return lambda: ratio_cdf(cfg.spec.value, xs)


def _mellin_pdf(cfg: RunConfig, xs: np.ndarray) -> Evaluator:
    p = cfg.spec.value
    if cfg.spec.kind == "num-den":
        f1, f2 = (_parse_density(s) for s in p)
    elif p.rho == 0.0:
        f1, f2 = normal_density(p.mu1, p.sigma1), normal_density(p.mu2, p.sigma2)
    else:
        raise InvalidParamsError(
            "mellin convolution requires independent factors (rho = 0); "
            "use the analytic or broda-kan engine for correlated ratios"
        )
    qcfg = QuadratureConfig(rel_tol=cfg.rel_tol)
    if cfg.cheb_nodes and xs.size > 1:  # one point spans no interval to interpolate on
        interp = ratio_interpolant(f1, f2, float(xs[0]), float(xs[-1]), cfg.cheb_nodes, qcfg)
        return lambda: cheb_eval_many(interp, xs)
    return lambda: ratio_pdf_grid(f1, f2, xs, qcfg)


def _broda_kan_setup(cfg: RunConfig) -> Tuple[JointCharFn, Grid2DConfig]:
    """The joint CF (bivariate normal when correlated) and the auto grid."""
    cf1, cf2 = _ratio_cfs(cfg.spec)
    p = cfg.spec.value
    correlated = cfg.spec.kind == "normal" and p.rho != 0.0
    jcf = bivariate_normal_joint_cf(p) if correlated else product_joint_cf(cf1, cf2)
    return jcf, auto_grid(cf1, cf2, n=cfg.grid_n)


def _broda_kan_pdf(cfg: RunConfig, xs: np.ndarray) -> Evaluator:
    jcf, grid = _broda_kan_setup(cfg)
    return lambda: broda_kan_pdf_joint(jcf, xs, grid)


def _broda_kan_cdf(cfg: RunConfig, xs: np.ndarray) -> Evaluator:
    jcf, grid = _broda_kan_setup(cfg)
    return lambda: broda_kan_cdf(jcf, xs, grid)


def _gil_pelaez_setup(cfg: RunConfig) -> Tuple[CharFn, QuadratureConfig]:
    return _parse_cf(cfg.spec.value), dataclasses.replace(_GP_CFG, rel_tol=cfg.rel_tol)


def _gil_pelaez_pdf(cfg: RunConfig, xs: np.ndarray) -> Evaluator:
    cf, qcfg = _gil_pelaez_setup(cfg)
    return lambda: gil_pelaez_pdf(cf, xs, qcfg)


def _gil_pelaez_cdf(cfg: RunConfig, xs: np.ndarray) -> Evaluator:
    cf, qcfg = _gil_pelaez_setup(cfg)
    return lambda: gil_pelaez_cdf(cf, xs, qcfg)


class Engine(NamedTuple):
    """One --engine id: the spec kinds it takes, its grid factories and its
    --auto-interval window."""

    takes: FrozenSet[str]
    pdf: Factory
    cdf: Optional[Factory]
    window: Callable[[RunConfig], Tuple[float, float]]


_TWO_FACTORS = frozenset({"normal", "num-den"})

ENGINES: Dict[str, Engine] = {
    "analytic": Engine(frozenset({"normal"}), _analytic_pdf, _analytic_cdf, _moment_window),
    "mellin": Engine(_TWO_FACTORS, _mellin_pdf, None, _moment_window),
    "broda-kan": Engine(_TWO_FACTORS, _broda_kan_pdf, _broda_kan_cdf, _cf_window),
    "gil-pelaez": Engine(frozenset({"dist"}), _gil_pelaez_pdf, _gil_pelaez_cdf, _cf_window),
}


def _run_config(args: argparse.Namespace) -> RunConfig:
    """The spec and the settings the engine reads; the engine must take the spec."""
    if args.n_points < 0:
        raise InvalidParamsError(f"--n must be >= 0, got {args.n_points!r}")
    if args.k is not None and not args.k > 0.0:
        raise InvalidParamsError(f"--k must be > 0, got {args.k!r}")
    cfg = RunConfig(args.engine, _spec(args), args.k, args.rel_tol, args.cheb_nodes, args.grid_n)
    takes = ENGINES[cfg.engine].takes
    if cfg.spec.kind not in takes:
        raise InvalidParamsError(
            f"the {cfg.engine} engine takes {' or '.join(_FLAGS[k] for k in sorted(takes))}, "
            f"not {_FLAGS[cfg.spec.kind]}"
        )
    return cfg


def _choose_interval(cfg: RunConfig, interval: Optional[List[float]], auto: bool
                     ) -> Tuple[float, float]:
    """Explicit --interval wins; otherwise the engine's auto window."""
    if interval is not None:
        lo, hi = interval
        if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
            raise InvalidParamsError(f"interval must be finite with lo < hi, got ({lo!r}, {hi!r})")
        return lo, hi
    if not auto:
        raise InvalidParamsError("pass --interval LO HI or --auto-interval")
    return ENGINES[cfg.engine].window(cfg)


def _write(path: str, text: str) -> None:
    if path == "-":
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def cmd_grid(args: argparse.Namespace) -> int:
    """pdf or cdf (the subcommand) on --n points of the interval."""
    cfg = _run_config(args)
    factory = getattr(ENGINES[cfg.engine], args.subcommand)
    if factory is None:
        raise InvalidParamsError(
            f"the {cfg.engine} engine computes densities only; use cdf with another engine"
        )
    lo, hi = _choose_interval(cfg, args.interval, args.auto_interval)
    xs = np.linspace(lo, hi, args.n_points)
    values = factory(cfg, xs)()
    rows = "".join(f"{x:.17g},{v:.17g}\n" for x, v in zip(xs.tolist(), values.tolist()))
    _write(args.out, "x,value\n" + rows)
    return 0


def cmd_modality(args: argparse.Namespace) -> int:
    spec = _spec(args)
    if spec.kind != "normal":
        raise InvalidParamsError(f"modality takes {_FLAGS['normal']}, not {_FLAGS[spec.kind]}")
    sr = to_standard(spec.value)[0]
    text = f"{classify_modality(sr, practical=args.practical).value}\n"
    if 1.0 <= sr.a < MODALITY_A0:
        text += f"b*({sr.a:.17g}) = {modality_curve(sr.a):.17g}\n"
    _write(args.out, text)
    return 0


def cmd_interval(args: argparse.Namespace) -> int:
    lo, hi = _choose_interval(_run_config(args), args.interval, True)
    _write(args.out, f"{lo:.17g},{hi:.17g}\n")
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    if args.out == "-":
        raise InvalidParamsError("bench needs --out PATH for the records file")
    if args.std_ratio is None:
        raise InvalidParamsError("bench needs --std-ratio A B")
    sr = StdRatioParams(*args.std_ratio)
    interval = args.interval or evaluation_interval(sr, 2.0 if args.k is None else args.k)

    def run(method: str, **opts: object) -> bench_mod.BenchRecord:
        return bench_mod.run_experiment(
            method, sr, interval, n_points=args.n_points, runs=args.runs, reps=args.reps, **opts,
        )

    base = run(
        bench_mod.BASELINE_METHOD,
        rel_tol=bench_mod.BASELINE_REL_TOL,
        label=f"{bench_mod.BASELINE_METHOD}@{bench_mod.BASELINE_REL_TOL:g}",
    )
    records = [dataclasses.replace(base, speedup_vs_baseline=1.0)]
    given = {"n": args.grid_n, "n_nodes": args.cheb_nodes}
    for method in args.methods:
        takes = bench_mod.METHODS[method][1]
        opts = {k: v for k, v in given.items() if k in takes and v is not None}
        sweep = [{"rel_tol": t, "label": f"{method}@{t:g}"} for t in args.rel_tols]
        for extra in (sweep if "rel_tol" in takes else []) or [{}]:
            records.append(run(method, baseline=base, **opts, **extra))
    bench_mod.export(records, args.format, args.out)
    return 0


def _add_dist_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--std-ratio", nargs=2, type=float, metavar=("A", "B"))
    p.add_argument("--biv", nargs=5, type=float, metavar=("MU1", "MU2", "SIGMA1", "SIGMA2", "RHO"))
    p.add_argument(
        "--hake", nargs=6, type=float,
        metavar=("MU_PRE", "MU_POST", "SD_PRE", "SD_POST", "RHO_STAR", "N"),
    )
    p.add_argument("--num", nargs="+", metavar="SPEC")
    p.add_argument("--den", nargs="+", metavar="SPEC")
    p.add_argument("--dist", nargs="+", metavar="SPEC")


def _add_grid_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--engine", choices=list(ENGINES), default="analytic")
    p.add_argument("--interval", nargs=2, type=float, metavar=("LO", "HI"))
    p.add_argument("--auto-interval", action="store_true")
    p.add_argument("--n", type=int, default=1000, dest="n_points")
    p.add_argument("--k", type=float, default=None,
                   help="interval half-width in sd units (default 6 for CF engines, 2 otherwise)")
    p.add_argument("--rel-tol", type=float, default=1e-10)
    p.add_argument("--cheb-nodes", type=int, default=None)
    p.add_argument("--grid-n", type=int, default=500)
    p.add_argument("--out", default="-")


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="ratiodist", description="Ratio-distribution engines: PDF, CDF, modality, benchmarks."
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_pdf = sub.add_parser("pdf", help="density values over a grid as x,value CSV")
    _add_dist_args(p_pdf)
    _add_grid_args(p_pdf)

    p_cdf = sub.add_parser("cdf", help="distribution function over a grid as x,value CSV")
    _add_dist_args(p_cdf)
    _add_grid_args(p_cdf)

    p_mod = sub.add_parser("modality", help="unimodal/bimodal verdict and critical curve")
    _add_dist_args(p_mod)
    p_mod.add_argument("--practical", action="store_true",
                       help="suppress theoretical modes too small to observe")
    p_mod.add_argument("--out", default="-")

    p_int = sub.add_parser("interval", help="moment-based evaluation interval as lo,hi")
    _add_dist_args(p_int)
    _add_grid_args(p_int)

    p_bench = sub.add_parser("bench", help="timed accuracy protocol; exports records")
    p_bench.add_argument("--std-ratio", nargs=2, type=float, metavar=("A", "B"))
    p_bench.add_argument("--method", action="append", dest="methods",
                         choices=list(bench_mod.method_ids()), default=[])
    p_bench.add_argument("--interval", nargs=2, type=float, metavar=("LO", "HI"))
    p_bench.add_argument("--n", type=int, default=1000, dest="n_points")
    p_bench.add_argument("--k", type=float, default=None)
    p_bench.add_argument("--runs", type=int, default=3)
    p_bench.add_argument("--reps", type=int, default=10)
    p_bench.add_argument("--rel-tol", type=float, nargs="+", dest="rel_tols", default=[])
    p_bench.add_argument("--cheb-nodes", type=int, default=None)
    p_bench.add_argument("--grid-n", type=int, default=500)
    p_bench.add_argument("--format", choices=["csv", "json"], default="csv")
    p_bench.add_argument("--out", default="-")

    args = parser.parse_args(argv)
    handlers = {
        "pdf": cmd_grid,
        "cdf": cmd_grid,
        "modality": cmd_modality,
        "interval": cmd_interval,
        "bench": cmd_bench,
    }
    try:
        return handlers[args.subcommand](args)
    except RatioDistError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
