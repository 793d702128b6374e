"""Command-line interface over the ratio-distribution engines.

Subcommands: pdf and cdf write x,value CSV; modality prints the shape
verdict; interval prints the chosen evaluation window; bench runs the
timed accuracy protocol and exports records to the file named by --out
(bench needs --out; it checks that before running anything).

Engines live in one table, ENGINES, keyed by the --engine id: analytic
(closed forms), mellin (DE Mellin convolution, densities only), broda-kan
(2D CF inversion) and gil-pelaez (1D CF inversion of a single distribution
passed via --dist).  Each entry holds a pdf factory, a cdf factory (none for
mellin) and the --auto-interval window.  A factory does the one-time work
(densities, CFs, auto_grid, the Chebyshev build) and returns a zero-argument
evaluator for the whole grid; the bench times the same entries.  Every
subcommand computes its whole output first and then writes it once.  Engine
errors exit with status 1 and a one-line diagnostic on stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys
from dataclasses import dataclass, field
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

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
    std_ratio_cdf,
    std_ratio_pdf,
    to_standard,
)
from .quadrature import QuadratureConfig, cheb_eval_many

__all__ = ["ENGINES", "Engine", "RunConfig", "main"]


@dataclass
class RunConfig:
    """Parsed invocation: one subcommand, one engine, one distribution spec."""

    subcommand: str
    engine: str = "analytic"
    std_ratio: Optional[StdRatioParams] = None
    biv: Optional[BivNormalParams] = None
    hake: Optional[HakeInputs] = None
    num: Optional[List[str]] = None
    den: Optional[List[str]] = None
    dist: Optional[List[str]] = None
    interval: Optional[Tuple[float, float]] = None
    auto_interval: bool = False
    n_points: int = 1000
    k: Optional[float] = None
    rel_tol: float = 1e-10
    cheb_nodes: Optional[int] = None
    grid_n: int = 500
    out: str = "-"
    # bench-only settings
    methods: List[str] = field(default_factory=list)
    runs: int = 3
    reps: int = 10
    rel_tols: List[float] = field(default_factory=list)
    format: str = "csv"
    practical: bool = False


def _parse_density(spec: List[str]) -> DensityFn:
    kind, args = spec[0], [float(v) for v in spec[1:]]
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
    kind, args = spec[0], [float(v) for v in spec[1:]]
    if kind == "normal" and len(args) == 2:
        return normal_cf(args[0], args[1])
    if kind == "chisq" and len(args) == 1:
        return chi_square_cf(int(args[0]))
    if kind == "cauchy" and len(args) == 2:
        return cauchy_cf(args[0], args[1])
    raise InvalidParamsError(
        f"no characteristic function for spec {spec!r}; expected 'normal MU SIGMA', "
        "'chisq K' or 'cauchy X0 GAMMA'"
    )


def _ratio_cfs(cfg: RunConfig) -> Tuple[CharFn, CharFn]:
    """Marginal CFs of numerator and denominator; normal for --biv/--hake."""
    p = _biv_like(cfg)
    if p is not None:
        return normal_cf(p.mu1, p.sigma1), normal_cf(p.mu2, p.sigma2)
    if cfg.std_ratio is not None:
        return normal_cf(cfg.std_ratio.a, 1.0), normal_cf(cfg.std_ratio.b, 1.0)
    if cfg.num is not None and cfg.den is not None:
        return _parse_cf(cfg.num), _parse_cf(cfg.den)
    raise InvalidParamsError("this engine needs --std-ratio, --biv, --hake or --num/--den")


def _biv_like(cfg: RunConfig) -> Optional[BivNormalParams]:
    if cfg.biv is not None:
        return cfg.biv
    if cfg.hake is not None:
        return hake_params(cfg.hake)
    return None


def _any_params(cfg: RunConfig) -> StdRatioParams:
    p = _biv_like(cfg)
    if p is not None:
        return to_standard(p)[0]
    if cfg.std_ratio is not None:
        return cfg.std_ratio
    raise InvalidParamsError("needs --std-ratio, --biv or --hake")


def _moment_window(cfg: RunConfig) -> Tuple[float, float]:
    """--auto-interval from normal moments, k = 2 by default."""
    p = _biv_like(cfg) or cfg.std_ratio
    if p is not None:
        return evaluation_interval(p, cfg.k or 2.0)
    if cfg.num is not None and cfg.den is not None:
        # densities carry no moments; fall back to the CF route
        return six_sigma_interval(_parse_cf(cfg.num), _parse_cf(cfg.den), cfg.k or 6.0)
    raise InvalidParamsError("auto interval needs a distribution spec")


def _cf_window(cfg: RunConfig) -> Tuple[float, float]:
    """--auto-interval from CF moments, k = 6 by default."""
    k = cfg.k or 6.0
    if cfg.dist is not None:
        mu, var = cf_moments(_parse_cf(cfg.dist))
        sd = math.sqrt(var)
        return (mu - k * sd, mu + k * sd)
    cf1, cf2 = _ratio_cfs(cfg)
    return six_sigma_interval(cf1, cf2, k)


# A grid factory does the one-time work and returns an evaluator for the whole
# grid; library functions are looked up by global name when called, so a
# wrapper installed on this module's names sees every call.
Evaluator = Callable[[], np.ndarray]
Factory = Callable[[RunConfig, np.ndarray], Evaluator]


def _each(xs: np.ndarray, fn: Callable[[float], float]) -> Evaluator:
    return lambda: np.array([fn(x) for x in xs.tolist()])


def _std_ratio(cfg: RunConfig) -> StdRatioParams:
    if cfg.std_ratio is None:
        raise InvalidParamsError("analytic engine needs --std-ratio, --biv or --hake")
    return cfg.std_ratio


def _analytic_pdf(cfg: RunConfig, xs: np.ndarray) -> Evaluator:
    p = _biv_like(cfg)
    if p is not None:
        return lambda: ratio_pdf_phamgia(p, xs)
    sr = _std_ratio(cfg)
    return lambda: std_ratio_pdf(sr, xs)


def _analytic_cdf(cfg: RunConfig, xs: np.ndarray) -> Evaluator:
    p = _biv_like(cfg)
    if p is not None:
        return lambda: ratio_cdf(p, xs)
    sr = _std_ratio(cfg)
    return lambda: std_ratio_cdf(sr, xs)


def _mellin_pdf(cfg: RunConfig, xs: np.ndarray) -> Evaluator:
    p = _biv_like(cfg)
    if cfg.std_ratio is not None:
        f1, f2 = normal_density(cfg.std_ratio.a, 1.0), normal_density(cfg.std_ratio.b, 1.0)
    elif cfg.num is not None and cfg.den is not None:
        f1, f2 = _parse_density(cfg.num), _parse_density(cfg.den)
    elif p is not None and p.rho == 0.0:
        f1, f2 = normal_density(p.mu1, p.sigma1), normal_density(p.mu2, p.sigma2)
    elif p is not None:
        raise InvalidParamsError(
            "mellin convolution requires independent factors (rho = 0); "
            "use the analytic or broda-kan engine for correlated ratios"
        )
    else:
        raise InvalidParamsError("mellin engine needs --std-ratio, --num/--den or --biv")
    qcfg = QuadratureConfig(rel_tol=cfg.rel_tol)
    if cfg.cheb_nodes and xs.size > 1:  # one point spans no interval to interpolate on
        interp = ratio_interpolant(f1, f2, float(xs[0]), float(xs[-1]), cfg.cheb_nodes, qcfg)
        return lambda: cheb_eval_many(interp, xs)
    return lambda: ratio_pdf_grid(f1, f2, xs, qcfg)


def _broda_kan_setup(cfg: RunConfig) -> Tuple[JointCharFn, Grid2DConfig]:
    """The joint CF (bivariate normal for --biv/--hake) and the auto grid."""
    p = _biv_like(cfg)
    cf1, cf2 = _ratio_cfs(cfg)
    jcf = bivariate_normal_joint_cf(p) if p is not None else product_joint_cf(cf1, cf2)
    return jcf, auto_grid(cf1, cf2, n=cfg.grid_n)


def _broda_kan_pdf(cfg: RunConfig, xs: np.ndarray) -> Evaluator:
    jcf, grid = _broda_kan_setup(cfg)
    return _each(xs, lambda x: broda_kan_pdf_joint(jcf, x, grid))


def _broda_kan_cdf(cfg: RunConfig, xs: np.ndarray) -> Evaluator:
    jcf, grid = _broda_kan_setup(cfg)
    return _each(xs, lambda x: broda_kan_cdf(jcf, x, grid))


def _gil_pelaez_setup(cfg: RunConfig) -> Tuple[CharFn, QuadratureConfig]:
    if cfg.dist is None:
        raise InvalidParamsError(
            "gil-pelaez inverts a single characteristic function; pass --dist KIND ARGS"
        )
    return _parse_cf(cfg.dist), dataclasses.replace(_GP_CFG, rel_tol=cfg.rel_tol)


def _gil_pelaez_pdf(cfg: RunConfig, xs: np.ndarray) -> Evaluator:
    cf, qcfg = _gil_pelaez_setup(cfg)
    return lambda: gil_pelaez_pdf(cf, xs, qcfg)


def _gil_pelaez_cdf(cfg: RunConfig, xs: np.ndarray) -> Evaluator:
    cf, qcfg = _gil_pelaez_setup(cfg)
    return lambda: gil_pelaez_cdf(cf, xs, qcfg)


class Engine(NamedTuple):
    """One --engine id: its grid factories and its --auto-interval window."""

    pdf: Factory
    cdf: Optional[Factory]
    window: Callable[[RunConfig], Tuple[float, float]]


ENGINES: Dict[str, Engine] = {
    "analytic": Engine(_analytic_pdf, _analytic_cdf, _moment_window),
    "mellin": Engine(_mellin_pdf, None, _moment_window),
    "broda-kan": Engine(_broda_kan_pdf, _broda_kan_cdf, _cf_window),
    "gil-pelaez": Engine(_gil_pelaez_pdf, _gil_pelaez_cdf, _cf_window),
}


def _choose_interval(cfg: RunConfig) -> Tuple[float, float]:
    """Explicit --interval wins; otherwise the engine's auto window."""
    if cfg.interval is not None:
        lo, hi = cfg.interval
        if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
            raise InvalidParamsError(f"interval must be finite with lo < hi, got ({lo!r}, {hi!r})")
        return cfg.interval
    if not cfg.auto_interval:
        raise InvalidParamsError("pass --interval LO HI or --auto-interval")
    return ENGINES[cfg.engine].window(cfg)


def _write(path: str, text: str) -> None:
    if path == "-":
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def cmd_grid(cfg: RunConfig) -> int:
    """pdf or cdf (the subcommand) on n_points of the interval."""
    lo, hi = _choose_interval(cfg)
    xs = np.linspace(lo, hi, cfg.n_points)
    factory = getattr(ENGINES[cfg.engine], cfg.subcommand)
    if factory is None:
        raise InvalidParamsError(
            f"the {cfg.engine} engine computes densities only; use cdf with another engine"
        )
    values = factory(cfg, xs)()
    rows = "".join(f"{x:.17g},{v:.17g}\n" for x, v in zip(xs.tolist(), values.tolist()))
    _write(cfg.out, "x,value\n" + rows)
    return 0


def cmd_modality(cfg: RunConfig) -> int:
    sr = _any_params(cfg)
    text = f"{classify_modality(sr, practical=cfg.practical).value}\n"
    if 1.0 <= sr.a < MODALITY_A0:
        text += f"b*({sr.a:.17g}) = {modality_curve(sr.a):.17g}\n"
    _write(cfg.out, text)
    return 0


def cmd_interval(cfg: RunConfig) -> int:
    cfg.auto_interval = True
    lo, hi = _choose_interval(cfg)
    _write(cfg.out, f"{lo:.17g},{hi:.17g}\n")
    return 0


def cmd_bench(cfg: RunConfig) -> int:
    if cfg.out == "-":
        raise InvalidParamsError("bench needs --out PATH for the records file")
    if cfg.std_ratio is None:
        raise InvalidParamsError("bench needs --std-ratio A B")
    interval = cfg.interval or evaluation_interval(cfg.std_ratio, cfg.k or 2.0)

    def run(method: str, **opts: object) -> bench_mod.BenchRecord:
        return bench_mod.run_experiment(
            method, cfg.std_ratio, interval, n_points=cfg.n_points, runs=cfg.runs,
            reps=cfg.reps, **opts,
        )

    base = run(
        bench_mod.BASELINE_METHOD,
        rel_tol=bench_mod.BASELINE_REL_TOL,
        label=f"{bench_mod.BASELINE_METHOD}@{bench_mod.BASELINE_REL_TOL:g}",
    )
    records = [dataclasses.replace(base, speedup_vs_baseline=1.0)]
    given = {"n": cfg.grid_n, "n_nodes": cfg.cheb_nodes}
    for method in cfg.methods:
        takes = bench_mod.METHODS[method][1]
        opts = {k: v for k, v in given.items() if k in takes and v is not None}
        sweep = [{"rel_tol": t, "label": f"{method}@{t:g}"} for t in cfg.rel_tols]
        for extra in (sweep if "rel_tol" in takes else []) or [{}]:
            records.append(run(method, baseline=base, **opts, **extra))
    bench_mod.export(records, cfg.format, cfg.out)
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


def _build_config(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig(subcommand=args.subcommand)
    for name in vars(cfg):
        if hasattr(args, name):
            setattr(cfg, name, getattr(args, name))
    if getattr(args, "std_ratio", None) is not None:
        cfg.std_ratio = StdRatioParams(*args.std_ratio)
    if getattr(args, "biv", None) is not None:
        cfg.biv = BivNormalParams(*args.biv)
    if getattr(args, "hake", None) is not None:
        h = args.hake
        cfg.hake = HakeInputs(h[0], h[1], h[2], h[3], h[4], int(h[5]))
    if getattr(args, "interval", None) is not None:
        cfg.interval = (args.interval[0], args.interval[1])
    return cfg


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
    cfg = _build_config(args)
    handlers = {
        "pdf": cmd_grid,
        "cdf": cmd_grid,
        "modality": cmd_modality,
        "interval": cmd_interval,
        "bench": cmd_bench,
    }
    try:
        return handlers[cfg.subcommand](cfg)
    except RatioDistError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
