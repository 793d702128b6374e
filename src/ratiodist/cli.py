"""Command-line interface over the ratio-distribution engines.

Subcommands: pdf and cdf write x,value CSV; modality prints the shape
verdict; interval prints the chosen evaluation window; bench runs the
timed accuracy protocol and exports records to the file named by --out
(bench needs --out, in a directory that exists; it checks both before
running anything).

The other subcommands read exactly one distribution spec into a Spec of
one of three kinds: "normal" (a BivNormalParams from --biv, --hake, or
--std-ratio A B, which stands for N(A, 1)/N(B, 1)), "num-den" (the --num
and --den spec lists) or "dist" (the --dist spec list).  One table, _FAMILIES,
gives each spec family's density (a factory of mellin) and CF (of cf).

Engines live in one table, ENGINES, keyed by the --engine id: analytic
(closed forms), mellin (DE Mellin convolution, densities only), broda-kan
(2D CF inversion) and gil-pelaez (1D CF inversion).  Each entry states the
spec kinds it takes, its set-up, whether it has a CDF (mellin has none) and
the default k of a normal spec's --auto-interval window.  A set-up reads a
RunConfig and the grid, does the one-time work once (densities, CFs,
auto_grid, the Chebyshev build) and returns (pdf, cdf), two zero-argument
evaluators for the whole grid (cdf is None for mellin); pdf and cdf run one
set-up per command, and the bench times the same set-up and its pdf.  Every
engine's --auto-interval window is mean +/- k practical sd
(normal_ratio.sd_window), or mean +/- k sd of a --dist law, from the exact
mean and sd of the factors: a normal spec's parameters or each factor's
DensityFn.moments; Cauchy has none.  A num-den window is cut to the support
of X1/X2 that the factors' DensityFn.support give, and a dist window to its
law's support.  Every subcommand computes its whole output first and then
writes it once.  Bad specs, bad settings and engine errors exit with status 1
and a one-line diagnostic on stderr; a warning, such as an engine's
AccuracyWarning, is one "warning: <message>" line there.

This module imports normal_ratio (spec parsing and the analytic engine use
it) and no other engine: a set-up or factor lookup imports mellin or cf and
calls library functions through their module when it runs them
(mellin.ratio_pdf_grid).  So a command loads only the engine it runs, and a
wrapper installed on an engine module's names sees every call from here.

Beside ENGINES, METHODS maps each bench --method id onto an ENGINES entry
with fixed settings.  The bench module imports this one for both tables (and
re-exports METHODS); this module imports bench only inside the bench command,
so the other commands never load the harness.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import importlib
import math
import os
import sys
import warnings
from dataclasses import dataclass
from typing import (TYPE_CHECKING, Callable, Dict, FrozenSet, List, NamedTuple, Optional,
                    Sequence, Tuple)

import numpy as np

from . import normal_ratio
from .errors import AccuracyWarning, RatioDistError, InvalidParamsError
from .normal_ratio import MODALITY_A0, BivNormalParams, HakeInputs, StdRatioParams

if TYPE_CHECKING:
    from .mellin import Support

__all__ = ["ENGINES", "Engine", "METHODS", "RunConfig", "Spec", "main"]

# spec kind -> the flags that give it
_FLAGS = {"normal": "--std-ratio/--biv/--hake", "num-den": "--num/--den", "dist": "--dist"}


# family -> (parameter names, density factory in mellin, CF factory in cf or
# None), a factory by its name on its module; uniform has no CF: it decays like 1/t.
_FAMILIES = {
    "normal": (("MU", "SIGMA"), "normal_density", "normal_cf"),
    "chisq": (("K",), "chi_square_density", "chi_square_cf"),
    "uniform": (("LO", "HI"), "uniform_density", None),
    "cauchy": (("X0", "GAMMA"), "cauchy_density", "cauchy_cf"),
}
_DENSITY, _CF = 1, 2
_HOMES = {_DENSITY: ".mellin", _CF: ".cf"}  # the module of each form's factories
_SPEC_FORMS = ", ".join(f"'{name} {' '.join(params)}'" for name, (params, *_) in _FAMILIES.items())


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
        return Spec("normal", normal_ratio.hake_params(HakeInputs(*args.hake)))
    if args.dist is not None:
        return Spec("dist", args.dist)
    if args.num is None or args.den is None:
        raise InvalidParamsError("--num and --den go together")
    return Spec("num-den", (args.num, args.den))


def _factor(spec: List[str], form: int):
    """The density or CF (form _DENSITY or _CF) of one --num, --den or --dist spec."""
    family = _FAMILIES.get(spec[0])
    if family is None or len(spec) != 1 + len(family[0]):
        raise InvalidParamsError(f"unknown spec {spec!r}; expected {_SPEC_FORMS}")
    try:
        args = [float(v) for v in spec[1:]]
    except ValueError:
        raise InvalidParamsError(f"spec {spec!r} holds a value that is not a number") from None
    if family[form] is None:
        raise InvalidParamsError(f"{spec[0]} has no CF here: it decays like 1/t, too slowly for "
                                 "the CF engines; mellin takes it")
    return _factory(family[form], form)(*args)


def _factory(name: str, form: int) -> Callable:
    """The factory called name on the module of form _DENSITY or _CF, imported here."""
    return getattr(importlib.import_module(_HOMES[form], __package__), name)


def _factors(spec: Spec, form: int) -> Tuple:
    """Numerator and denominator of a normal or num-den spec, as densities or CFs."""
    if spec.kind == "num-den":
        return tuple(_factor(s, form) for s in spec.value)
    p, normal = spec.value, _factory(_FAMILIES["normal"][form], form)
    return normal(p.mu1, p.sigma1), normal(p.mu2, p.sigma2)


def _quotient(x: float, v: float, side: float) -> float:
    """x/v for ends x of the numerator's support and v of the denominator's,
    which lies on one side (+1 or -1) of 0; at 0 and inf, by the limits."""
    if x == 0.0 or math.isinf(v):  # inf/inf too: another corner bounds the hull
        return 0.0
    if v == 0.0:
        return math.copysign(math.inf, x * side)
    return x / v


def _ratio_support(num: Support, den: Support) -> Tuple[float, float]:
    """Hull of the support of X1/X2: the corner quotients when 0 is not
    inside the denominator's support, the real line otherwise."""
    if den.lo < 0.0 < den.hi:
        return -math.inf, math.inf
    side = 1.0 if den.lo >= 0.0 else -1.0
    corners = [_quotient(x, v, side) for x in (num.lo, num.hi) for v in (den.lo, den.hi)]
    return min(corners), max(corners)


def _window(cfg: RunConfig) -> Tuple[float, float]:
    """--auto-interval from the factors' exact moments, cut to the support of
    the ratio for a num-den spec and of the law for a dist spec; k defaults to
    the engine's normal_k for a normal spec and to 6 for any other."""
    if cfg.spec.kind == "normal":
        # the sds as given: sigma^2 underflows to 0 below about 1.5e-154
        p, k = cfg.spec.value, ENGINES[cfg.engine].normal_k if cfg.k is None else cfg.k
        return normal_ratio.sd_window((p.mu1, p.sigma1), (p.mu2, p.sigma2), k)
    k = 6.0 if cfg.k is None else cfg.k
    specs = cfg.spec.value if cfg.spec.kind == "num-den" else [cfg.spec.value]
    densities = [_factor(s, _DENSITY) for s in specs]
    moments = [d.moments for d in densities]
    if None in moments:
        family = specs[moments.index(None)][0]
        raise InvalidParamsError(f"{family} has no mean or variance; pass --interval")
    sds = [(mu, math.sqrt(var)) for mu, var in moments]
    if cfg.spec.kind == "dist":
        (mu, sd), support = sds[0], densities[0].support
        lo, hi, s_lo, s_hi = mu - k * sd, mu + k * sd, support.lo, support.hi
    else:
        lo, hi = normal_ratio.sd_window(*sds, k)
        s_lo, s_hi = _ratio_support(*(d.support for d in densities))
    return max(lo, s_lo), min(hi, s_hi)


# An engine's set-up imports its engine's module, does the one-time work and
# returns (pdf, cdf), two evaluators for the whole grid (cdf None for mellin).
# Library functions are looked up on their module when called, so a wrapper
# installed on that module's names sees every call.
Evaluator = Callable[[], np.ndarray]
Setup = Callable[[RunConfig, np.ndarray], Tuple[Evaluator, Optional[Evaluator]]]


def _analytic(cfg: RunConfig, xs: np.ndarray) -> Tuple[Evaluator, Evaluator]:
    p = cfg.spec.value
    return (lambda: normal_ratio.ratio_pdf_phamgia(p, xs)), (lambda: normal_ratio.ratio_cdf(p, xs))


def _mellin(cfg: RunConfig, xs: np.ndarray) -> Tuple[Evaluator, None]:
    from . import mellin

    if cfg.spec.kind == "normal" and cfg.spec.value.rho != 0.0:
        raise InvalidParamsError(
            "mellin convolution requires independent factors (rho = 0); "
            "use the analytic or broda-kan engine for correlated ratios"
        )
    f1, f2 = _factors(cfg.spec, _DENSITY)
    qcfg = mellin.QuadratureConfig(rel_tol=cfg.rel_tol)
    if cfg.cheb_nodes is not None and xs.size > 1:  # one point spans no interval to interpolate on
        interp = mellin.ratio_interpolant(f1, f2, float(xs[0]), float(xs[-1]), cfg.cheb_nodes, qcfg)
        return (lambda: mellin.cheb_eval_many(interp, xs)), None
    return (lambda: mellin.ratio_pdf_grid(f1, f2, xs, qcfg)), None


def _broda_kan(cfg: RunConfig, xs: np.ndarray) -> Tuple[Evaluator, Evaluator]:
    """The joint CF (bivariate normal for a normal spec) and the auto grid, built once."""
    from . import cf

    cf1, cf2 = _factors(cfg.spec, _CF)
    normal = cfg.spec.kind == "normal"
    jcf = cf.bivariate_normal_joint_cf(cfg.spec.value) if normal else cf.product_joint_cf(cf1, cf2)
    grid = cf.auto_grid(cf1, cf2, n=cfg.grid_n)
    return ((lambda: cf.broda_kan_pdf_joint(jcf, xs, grid)),
            (lambda: cf.broda_kan_cdf(jcf, xs, grid)))


def _gil_pelaez(cfg: RunConfig, xs: np.ndarray) -> Tuple[Evaluator, Evaluator]:
    from . import cf

    law, qcfg = _factor(cfg.spec.value, _CF), dataclasses.replace(cf._GP_CFG, rel_tol=cfg.rel_tol)
    return (lambda: cf.gil_pelaez_pdf(law, xs, qcfg)), (lambda: cf.gil_pelaez_cdf(law, xs, qcfg))


class Engine(NamedTuple):
    """One --engine id: the spec kinds it takes, its set-up, whether it has a
    CDF and the default k of a normal spec's --auto-interval window."""

    takes: FrozenSet[str]
    setup: Setup
    cdf: bool
    normal_k: float


_TWO_FACTORS = frozenset({"normal", "num-den"})

ENGINES: Dict[str, Engine] = {
    "analytic": Engine(frozenset({"normal"}), _analytic, True, 2.0),
    "mellin": Engine(_TWO_FACTORS, _mellin, False, 2.0),
    "broda-kan": Engine(_TWO_FACTORS, _broda_kan, True, 6.0),
    "gil-pelaez": Engine(frozenset({"dist"}), _gil_pelaez, True, 6.0),
}

# bench method id -> (engine id in ENGINES, the options it takes, with defaults)
METHODS: Dict[str, Tuple[str, Dict[str, object]]] = {
    "analytic": ("analytic", {}),
    "mellin-de": ("mellin", {"rel_tol": 1e-10}),
    "mellin-de-cheb": ("mellin", {"rel_tol": 1e-10, "n_nodes": 257}),
    "broda-kan": ("broda-kan", {"n": 500}),
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
    """Explicit --interval wins; otherwise the auto window.  Either must be
    finite with lo < hi (a huge --k overflows the auto window)."""
    if interval is None and not auto:
        raise InvalidParamsError("pass --interval LO HI or --auto-interval")
    lo, hi = interval if interval is not None else _window(cfg)
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise InvalidParamsError(f"interval must be finite with lo < hi, got ({lo!r}, {hi!r})")
    return lo, hi


def _write(path: str, text: str) -> None:
    if path == "-":
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def cmd_grid(args: argparse.Namespace) -> int:
    """pdf or cdf (the subcommand) on --n points of the interval."""
    cfg = _run_config(args)
    engine = ENGINES[cfg.engine]
    if args.subcommand == "cdf" and not engine.cdf:
        raise InvalidParamsError(
            f"the {cfg.engine} engine computes densities only; use cdf with another engine"
        )
    lo, hi = _choose_interval(cfg, args.interval, args.auto_interval)
    xs = np.linspace(lo, hi, args.n_points)
    pdf, cdf = engine.setup(cfg, xs)  # run for an empty grid too, so spec errors still exit 1
    values = (cdf if args.subcommand == "cdf" else pdf)() if xs.size else xs
    cells = np.empty(2 * xs.size)
    cells[0::2], cells[1::2] = xs, values
    _write(args.out, "x,value\n" + "%.17g,%.17g\n" * xs.size % tuple(cells.tolist()))
    return 0


def cmd_modality(args: argparse.Namespace) -> int:
    spec = _spec(args)
    if spec.kind != "normal":
        raise InvalidParamsError(f"modality takes {_FLAGS['normal']}, not {_FLAGS[spec.kind]}")
    sr = normal_ratio.to_standard(spec.value)[0]
    text = f"{normal_ratio.classify_modality(sr, practical=args.practical).value}\n"
    if 1.0 <= sr.a < MODALITY_A0:
        text += f"b*({sr.a:.17g}) = {normal_ratio.modality_curve(sr.a):.17g}\n"
    _write(args.out, text)
    return 0


def cmd_interval(args: argparse.Namespace) -> int:
    lo, hi = _choose_interval(_run_config(args), args.interval, True)
    _write(args.out, f"{lo:.17g},{hi:.17g}\n")
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    from . import bench  # bench imports this module; only this command needs it

    if args.out == "-":
        raise InvalidParamsError("bench needs --out PATH for the records file")
    folder = os.path.dirname(args.out)
    if folder and not os.path.isdir(folder):
        raise InvalidParamsError(f"--out {args.out!r}: no directory {folder!r} to write it in")
    if args.std_ratio is None:
        raise InvalidParamsError("bench needs --std-ratio A B")
    sr = StdRatioParams(*args.std_ratio)
    k = 2.0 if args.k is None else args.k
    interval = args.interval or normal_ratio.sd_window((sr.a, 1.0), (sr.b, 1.0), k)

    def run(method: str, **opts: object) -> bench.BenchRecord:
        return bench.run_experiment(
            method, sr, interval, n_points=args.n_points, runs=args.runs, reps=args.reps, **opts,
        )

    base = run(
        bench.BASELINE_METHOD,
        rel_tol=bench.BASELINE_REL_TOL,
        label=f"{bench.BASELINE_METHOD}@{bench.BASELINE_REL_TOL:g}",
    )
    records = [dataclasses.replace(base, speedup_vs_baseline=1.0)]
    given = {"n": args.grid_n, "n_nodes": args.cheb_nodes}
    for method in args.methods:
        takes = METHODS[method][1]
        opts = {k: v for k, v in given.items() if k in takes and v is not None}
        sweep = [{"rel_tol": t, "label": f"{method}@{t:g}"} for t in args.rel_tols]
        for extra in (sweep if "rel_tol" in takes else []) or [{}]:
            records.append(run(method, baseline=base, **opts, **extra))
    bench.export(records, args.format, args.out)
    return 0


def _add_dist_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--std-ratio", nargs=2, type=float, metavar=("A", "B"))
    p.add_argument("--biv", nargs=5, type=float, metavar=("MU1", "MU2", "SIGMA1", "SIGMA2", "RHO"))
    p.add_argument(
        "--hake", nargs=6, type=float,
        metavar=("MU_PRE", "MU_POST", "SD_PRE", "SD_POST", "RHO_STAR", "N"),
    )
    p.add_argument("--num", nargs="+", metavar="SPEC", help=f"numerator, one of {_SPEC_FORMS}")
    p.add_argument("--den", nargs="+", metavar="SPEC", help=f"denominator, one of {_SPEC_FORMS}")
    p.add_argument("--dist", nargs="+", metavar="SPEC", help=f"distribution, one of {_SPEC_FORMS}")


def _add_grid_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--engine", choices=list(ENGINES), default="analytic")
    p.add_argument("--interval", nargs=2, type=float, metavar=("LO", "HI"))
    p.add_argument("--auto-interval", action="store_true")
    p.add_argument("--n", type=int, default=1000, dest="n_points")
    p.add_argument("--k", type=float, default=None,
                   help="interval half-width in sd units (default 2 for a normal spec on "
                        "the analytic and mellin engines, 6 otherwise)")
    p.add_argument("--rel-tol", type=float, default=1e-10)
    p.add_argument("--cheb-nodes", type=int, default=None)
    p.add_argument("--grid-n", type=int, default=500)
    p.add_argument("--out", default="-")


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument tree, built once per process on first use.  Parsing
    leaves it as it was: no default is ever written to (--method's append
    action copies its list, and nothing appends to --rel-tol's)."""
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
                         choices=sorted(METHODS), default=[])
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
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _parser().parse_args(argv)
    handlers = {
        "pdf": cmd_grid,
        "cdf": cmd_grid,
        "modality": cmd_modality,
        "interval": cmd_interval,
        "bench": cmd_bench,
    }
    # warnings are recorded and printed as one line each, without a source
    # location; an AccuracyWarning is shown once per place even where
    # warnings are errors
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("default", AccuracyWarning)
        try:
            code = handlers[args.subcommand](args)
        except (RatioDistError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            code = 1
    for w in caught:
        print(f"warning: {w.message}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
