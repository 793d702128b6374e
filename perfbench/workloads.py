"""Seeded request lists for the four benchmark workloads.

Pure Python: the program's process imports this module, and the launcher
hands the same descriptions to the SciPy reference.  The same seed always
gives the same list.

A request is a dict with an ``id``, a ``kind`` and, when it is one of the
operations kept because the program gets it wrong today, a ``fault`` line.

* ``kind == "cli"``: ``steps`` run ``ratiodist.cli.main(argv)`` one after
  another; each step carries a ``check`` (what the output is and the
  distribution it describes, in the reference's terms).
* ``kind == "call"``: one single-point library call ``fn(obj, x)`` on an
  object the workload builds once in set-up (``objects``).
"""

from __future__ import annotations

import random
from typing import Dict, List

import hake

WORKLOADS = ("closed_form", "mellin_grid", "cf_grid", "point_queries")

# Hake cases are kept only when their standardized (a, b) fall in this band:
# a above Marsaglia's onset of bimodality (2.256), so each analysis runs the
# practical mode scan, and b in a range where the Mellin engine's work does
# not change level, so every seed's requests cost about the same
HAKE_A = (4.5, 9.0)
HAKE_B = (21.0, 26.5)


def _r(v: float) -> float:
    # short decimals keep argv and the reference on exactly the same numbers
    return float(f"{v:.6g}")


def _fmt(v: float) -> str:
    return repr(_r(v))


def draw_hake(rng: random.Random) -> Dict[str, float]:
    """Course summary: pre-test mean 30-50 %, gain 0.3-0.6 of the headroom,
    score sds 12-20 (pre) and 14-22 (post), pre/post correlation 0.3-0.7,
    class size 25-120; redrawn until (a, b) lies in HAKE_A x HAKE_B."""
    while True:
        pre = _r(rng.uniform(30.0, 50.0))
        h = {
            "mu_pre": pre,
            "mu_post": _r(pre + rng.uniform(0.3, 0.6) * (100.0 - pre)),
            "sd_pre": _r(rng.uniform(12.0, 20.0)),
            "sd_post": _r(rng.uniform(14.0, 22.0)),
            "rho_star": _r(rng.uniform(0.3, 0.7)),
            "n": rng.randint(25, 120),
        }
        a, b = hake.standardized(*hake.bivariate(h))
        if HAKE_A[0] <= a <= HAKE_A[1] and HAKE_B[0] <= b <= HAKE_B[1]:
            return h


def _hake_argv(h: Dict[str, float]) -> List[str]:
    return ["--hake"] + [_fmt(h[k]) for k in ("mu_pre", "mu_post", "sd_pre", "sd_post", "rho_star")] \
        + [str(h["n"])]


def _hake_dist(h: Dict[str, float]) -> Dict[str, object]:
    return dict(h, family="hake")


def _cli(rid: str, steps: List[dict], fault: str = "") -> dict:
    req = {"id": rid, "kind": "cli", "steps": steps}
    if fault:
        req["fault"] = fault
    return req


def _grid_step(sub: str, engine: str, spec: List[str], dist: dict, n: int,
               interval=None, extra: List[str] = ()) -> dict:
    win = ["--interval", _fmt(interval[0]), _fmt(interval[1])] if interval else ["--auto-interval"]
    argv = [sub, "--engine", engine] + spec + win + ["--n", str(n)] + list(extra)
    check = {"what": sub, "engine": engine, "dist": dist, "n": n,
             "interval": [_r(interval[0]), _r(interval[1])] if interval else None}
    return {"argv": argv, "check": check}


def closed_form(rng: random.Random) -> dict:
    """Hake-gain analyses through the analytic engine: pdf on 1000 points,
    cdf on 25, and the practical modality verdict."""
    cases = [(f"hake{i}", _hake_argv(h), _hake_dist(h))
             for i, h in enumerate(draw_hake(rng) for _ in range(5))]
    for a, b in ((2.0, 0.25), (1.5, 1.0)):
        cases.append((f"std{a:g}_{b:g}", ["--std-ratio", _fmt(a), _fmt(b)],
                      {"family": "std", "a": a, "b": b}))
    reqs = []
    for name, spec, dist in cases:
        reqs.append(_cli(f"analysis-{name}", [
            _grid_step("pdf", "analytic", spec, dist, 1000),
            _grid_step("cdf", "analytic", spec, dist, 25),
            {"argv": ["modality"] + spec + ["--practical"],
             "check": {"what": "modality", "dist": dist}},
        ]))
    return {"requests": reqs, "objects": {}}


def mellin_grid(rng: random.Random) -> dict:
    """pdf --engine mellin grids at --rel-tol 1e-10."""
    tol = ["--rel-tol", "1e-10"]
    reqs = [_cli("direct-std1.5_1", [_grid_step(
        "pdf", "mellin", ["--std-ratio", "1.5", "1.0"], {"family": "std", "a": 1.5, "b": 1.0},
        1000, (-5.0, 8.0), tol)])]
    for i in range(2):
        a, b = (_r(v) for v in hake.standardized(*hake.bivariate(draw_hake(rng))))
        reqs.append(_cli(f"cheb257-hake{i}", [_grid_step(
            "pdf", "mellin", ["--std-ratio", _fmt(a), _fmt(b)], {"family": "std", "a": a, "b": b},
            1000, None, tol + ["--cheb-nodes", "257"])]))
    for i in range(2):
        mu, sigma = _r(rng.uniform(0.8, 1.5)), _r(rng.uniform(0.8, 1.2))
        reqs.append(_cli(f"normal_chisq{i}", [_grid_step(
            "pdf", "mellin", ["--num", "normal", _fmt(mu), _fmt(sigma), "--den", "chisq", "5"],
            {"family": "normal_chisq", "num": [mu, sigma], "k": 5}, 1000, None, tol)]))
    mu, sigma = _r(rng.uniform(2.8, 3.4)), _r(rng.uniform(0.9, 1.1))
    reqs.append(_cli("chisq_normal", [_grid_step(
        "pdf", "mellin", ["--num", "chisq", "5", "--den", "normal", _fmt(mu), _fmt(sigma)],
        {"family": "chisq_normal", "k": 5, "den": [mu, sigma]}, 1000, None, tol)]))
    reqs.append(_cli("std500_500", [_grid_step(
        "pdf", "mellin", ["--std-ratio", "500", "500"], {"family": "std", "a": 500.0, "b": 500.0},
        5, (0.99, 1.01), tol)],
        fault="half-line DE map at unit scale steps over the narrow mass: 0.0 where the density is 141.05"))
    return {"requests": reqs, "objects": {}}


def cf_grid(rng: random.Random) -> dict:
    """Broda-Kan pdf/cdf grids (correlated Hake ratio, normal/chi-square(5))
    and Gil-Pelaez grids of N(0, 1)."""
    reqs = []
    hakes = [draw_hake(rng) for _ in range(2)]
    for i, h in enumerate(hakes):
        win = hake.practical_window(*hake.bivariate(h)[:4], k=3.0)
        subs = ("pdf", "cdf") if i == 0 else ("pdf",)
        for sub in subs:
            reqs.append(_cli(f"bk-{sub}-hake{i}", [_grid_step(
                sub, "broda-kan", _hake_argv(h), _hake_dist(h), 16, win)]))
    mu, sigma = _r(rng.uniform(0.8, 1.5)), _r(rng.uniform(0.8, 1.2))
    spec = ["--num", "normal", _fmt(mu), _fmt(sigma), "--den", "chisq", "5"]
    dist = {"family": "normal_chisq", "num": [mu, sigma], "k": 5}
    for sub in ("pdf", "cdf"):
        reqs.append(_cli(f"bk-{sub}-normal_chisq", [_grid_step(sub, "broda-kan", spec, dist, 16)]))
    u = _r(rng.uniform(3.8, 4.2))
    for sub in ("pdf", "cdf"):
        reqs.append(_cli(f"gp-{sub}-normal", [_grid_step(
            sub, "gil-pelaez", ["--dist", "normal", "0", "1"],
            {"family": "normal", "params": [0.0, 1.0]}, 101, (-u, u))]))
    reqs.append(_cli("bk-pdf-biv-sigma0.01", [_grid_step(
        "pdf", "broda-kan", ["--biv", "1", "2", "0.01", "0.01", "0"],
        {"family": "bivnormal", "mu1": 1.0, "mu2": 2.0, "s1": 0.01, "s2": 0.01, "rho": 0.0},
        5, (0.48, 0.52))],
        fault="auto_grid caps T at h_max*n = 25 where |phi| of N(1, 0.01^2) needs t ~ 790: 15.5 for 71.4"))
    reqs.append(_cli("gp-pdf-normal-auto", [_grid_step(
        "pdf", "gil-pelaez", ["--dist", "normal", "0", "1"],
        {"family": "normal", "params": [0.0, 1.0]}, 101)],
        fault="cmd_pdf drops the library's abs_floor=1e-13: NonConvergenceError at x = -6, exit 1"))
    return {"requests": reqs, "objects": {}}


def point_queries(rng: random.Random) -> dict:
    """Single-point library calls on objects built once in set-up."""
    objects: Dict[str, dict] = {}
    reqs: List[dict] = []

    def calls(fn: str, key: str, dist: dict, engine: str, what: str, xs) -> None:
        for j, x in enumerate(xs):
            reqs.append({"id": f"{fn}-{key}-{j}", "kind": "call", "fn": fn, "obj": key,
                         "x": _r(x), "check": {"what": what, "engine": engine, "dist": dist}})

    def window_points(lo: float, hi: float, n: int):
        # one point in each of n equal slices, so every seed spreads its
        # points (and their cost) over the window alike
        return [lo + (j + rng.random()) * (hi - lo) / n for j in range(n)]

    for i in range(5):
        p = {"mu1": _r(rng.uniform(1.0, 5.0)), "mu2": _r(rng.uniform(1.0, 4.0)),
             "s1": _r(rng.uniform(0.3, 1.5)), "s2": _r(rng.uniform(0.3, 1.5)),
             "rho": _r(rng.uniform(-0.6, 0.6))}
        objects[f"biv{i}"] = dict(p, make="biv")
        lo, hi = hake.practical_window(p["mu1"], p["mu2"], p["s1"], p["s2"], 3.0)
        calls("ratio_pdf_phamgia", f"biv{i}", dict(p, family="bivnormal"), "analytic", "pdf",
              window_points(lo, hi, 12))

    # near-fixed parameters for the quadrature-backed calls: their cost depends
    # on the parameters, and the mix should cost about the same for every seed
    def near(*anchor):
        return tuple(_r(v * rng.uniform(0.95, 1.05)) for v in anchor)

    normal_pairs = ((1.0, 1.5), (1.5, 2.0), (2.0, 2.5))
    for i, (a, b) in enumerate(near(*ab) for ab in normal_pairs):
        objects[f"std{i}"] = {"make": "std", "a": a, "b": b}
        lo, hi = hake.practical_window(a, b, 1.0, 1.0, 2.0)
        calls("std_ratio_cdf", f"std{i}", {"family": "std", "a": a, "b": b}, "analytic", "cdf",
              window_points(lo, hi, 10))
    for i, (a, b) in enumerate(near(*ab) for ab in normal_pairs):
        objects[f"nn{i}"] = {"make": "normal_pair", "a": a, "b": b}
        lo, hi = hake.practical_window(a, b, 1.0, 1.0, 2.0)
        calls("ratio_pdf", f"nn{i}", {"family": "std", "a": a, "b": b}, "mellin", "pdf",
              window_points(lo, hi, 57))
    for i, (mu, sigma) in enumerate(near(*ms) for ms in ((0.5, 1.0), (-0.5, 1.5))):
        objects[f"gp{i}"] = {"make": "normal_cf", "mu": mu, "sigma": sigma}
        calls("gil_pelaez_pdf", f"gp{i}", {"family": "normal", "params": [mu, sigma]},
              "gil-pelaez", "pdf", window_points(mu - 4.0 * sigma, mu + 4.0 * sigma, 20))
    mu, sigma = _r(rng.uniform(0.8, 1.5)), _r(rng.uniform(0.8, 1.2))
    objects["bki"] = {"make": "normal_chisq_cf", "mu": mu, "sigma": sigma, "k": 5}
    calls("broda_kan_pdf_indep", "bki", {"family": "normal_chisq", "num": [mu, sigma], "k": 5},
          "broda-kan", "pdf", window_points(mu / 5.0 - 0.2, mu / 5.0 + 0.2, 2))
    h = draw_hake(rng)
    mu1, mu2, s1, s2, rho = (_r(v) for v in hake.bivariate(h))
    p = {"mu1": mu1, "mu2": mu2, "s1": s1, "s2": s2, "rho": rho}
    objects["bkj"] = dict(p, make="joint_cf")
    lo, hi = hake.practical_window(mu1, mu2, s1, s2, 1.5)
    calls("broda_kan_pdf_joint", "bkj", dict(p, family="bivnormal"), "broda-kan", "pdf",
          window_points(lo, hi, 2))
    return {"requests": reqs, "objects": objects}


def build(workload: str, seed: int) -> dict:
    """The workload's request list and set-up objects for ``seed``."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    return globals()[workload](random.Random(f"{workload}:{seed}"))
