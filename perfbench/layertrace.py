"""Per-layer spans and counters, recorded from outside the program.

``Recorder.install`` replaces the public functions each calling module sees
(the names ``cli``, ``normal_ratio``, ``mellin`` and ``cf`` hold, including a
module's own public functions that it calls by global name) with wrappers,
and makes the density and CF factories return objects whose callbacks are
wrapped too.  A wrapper records a span (name, start, end, parent), adds its
self time (duration minus the time of its child spans) to its layer, and adds
its duration to its group's inclusive time when no call of the same group is
already open.  No program file is changed; ``Recorder.uninstall`` puts every
name back.
"""

from __future__ import annotations

import dataclasses
import inspect
import json
import statistics
import time
from collections import defaultdict
from typing import Callable, Dict, List

import numpy as np

LAYERS = ("cli", "normal_ratio", "special", "quadrature", "mellin", "cf")
CALLERS = ("cli", "normal_ratio", "mellin", "cf")

# public function name -> (layer, group); a group's time is inclusive
FUNCTIONS = {
    "main": ("cli", "cli.main"),
    "erf": ("special", "special.erf"),
    "erfc": ("special", "special.erf"),
    "std_normal_cdf": ("special", "special.erf"),
    "std_ratio_pdf": ("normal_ratio", "normal_ratio.pdf"),
    "ratio_pdf_phamgia": ("normal_ratio", "normal_ratio.pdf"),
    "ratio_pdf_hinkley": ("normal_ratio", "normal_ratio.pdf"),
    "std_ratio_cdf": ("normal_ratio", "normal_ratio.cdf"),
    "ratio_cdf": ("normal_ratio", "normal_ratio.cdf"),
    "classify_modality": ("normal_ratio", "normal_ratio.modality"),
    "to_standard": ("normal_ratio", "normal_ratio.params"),
    "hake_params": ("normal_ratio", "normal_ratio.params"),
    "evaluation_interval": ("normal_ratio", "normal_ratio.params"),
    "modality_curve": ("normal_ratio", "normal_ratio.params"),
    "de_integrate": ("quadrature", "quadrature.de"),
    "cheb_build": ("quadrature", "quadrature.cheb_build"),
    "cheb_eval_many": ("quadrature", "quadrature.cheb_eval"),
    "ratio_pdf": ("mellin", "mellin.ratio_pdf"),
    "ratio_pdf_grid": ("mellin", "mellin.grid"),
    "normal_density": ("mellin", "mellin.factory"),
    "chi_square_density": ("mellin", "mellin.factory"),
    "uniform_density": ("mellin", "mellin.factory"),
    "broda_kan_pdf_indep": ("cf", "cf.broda_kan"),
    "broda_kan_pdf_joint": ("cf", "cf.broda_kan"),
    "broda_kan_cdf": ("cf", "cf.broda_kan"),
    "gil_pelaez_pdf": ("cf", "cf.gil_pelaez"),
    "gil_pelaez_cdf": ("cf", "cf.gil_pelaez"),
    "auto_grid": ("cf", "cf.auto_grid"),
    "six_sigma_interval": ("cf", "cf.interval"),
    "cf_moments": ("cf", "cf.interval"),
    "normal_cf": ("cf", "cf.factory"),
    "chi_square_cf": ("cf", "cf.factory"),
    "cauchy_cf": ("cf", "cf.factory"),
    "bivariate_normal_joint_cf": ("cf", "cf.factory"),
    "product_joint_cf": ("cf", "cf.factory"),
}

MAX_SPANS = 50_000
_DEFAULT_GRID_N = 500  # auto_grid's n when broda_kan_pdf_indep builds its own grid

perf = time.perf_counter


class Recorder:
    """Spans and counters of the calls that pass through the wrappers."""

    def __init__(self) -> None:
        self.stack: List[list] = []          # open frames: [child_time, span_id]
        self.self_s: Dict[str, float] = defaultdict(float)
        self.group_s: Dict[str, float] = defaultdict(float)
        self.group_calls: Dict[str, int] = defaultdict(int)
        self.depth: Dict[str, int] = defaultdict(int)
        self.counts: Dict[str, int] = defaultdict(int)
        self.spans: List[tuple] = []
        self.keep = True                     # record spans (the first traced pass only)
        self.dropped = 0
        self.next_id = 0
        self.installed: List[tuple] = []     # (module, name, original function)

    def add_bytes(self, n: int) -> None:
        self.counts["cli.bytes_written"] += n

    def wrap(self, fn: Callable, layer: str, group: str, post=None) -> Callable:
        name = f"{layer}.{fn.__name__}"
        stack, self_s, group_s = self.stack, self.self_s, self.group_s
        group_calls, depth = self.group_calls, self.depth

        def traced(*args, **kwargs):
            parent = stack[-1][1] if stack else None
            sid = self.next_id
            self.next_id = sid + 1
            frame = [0.0, sid]
            stack.append(frame)
            depth[group] += 1
            t0 = perf()
            try:
                res = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                dur = t1 - t0
                self_s[layer] += dur - frame[0]
                if stack:
                    stack[-1][0] += dur
                depth[group] -= 1
                if depth[group] == 0:
                    group_s[group] += dur
                    group_calls[group] += 1
                if self.keep:
                    if len(self.spans) < MAX_SPANS:
                        self.spans.append((sid, name, t0, t1, parent))
                    else:
                        self.dropped += 1
            return post(res, args, kwargs) if post is not None else res

        traced.__wrapped__ = fn
        return traced

    # -- post hooks: counters, and wrapped callbacks on built objects ------

    def _de_evals(self, res, args, kwargs):
        self.counts["quadrature.de_evals"] += res.n_evals
        return res

    def _grid_cells(self, res, args, kwargs, cdf: bool, cfg_pos: int):
        cfg = args[cfg_pos] if len(args) > cfg_pos else kwargs.get("cfg")
        n = cfg.N if cfg is not None else _DEFAULT_GRID_N
        self.counts["cf.grid_cells"] += (n + 1) ** 2 if cdf else (2 * n + 1) * (n + 1)
        return res

    def _cf_value_counter(self, fn: Callable) -> Callable:
        def count(res, args, kwargs):
            self.counts["cf.cf_values"] += int(np.size(res))
            return res
        return self.wrap(fn, "cf", "cf.callback", count)

    def _density(self, df, args, kwargs):
        return dataclasses.replace(df, f=self.wrap(df.f, "mellin", "mellin.density"))

    def _charfn(self, c, args, kwargs):
        return dataclasses.replace(
            c, phi=self._cf_value_counter(c.phi),
            dphi=None if c.dphi is None else self._cf_value_counter(c.dphi))

    def _joint(self, j, args, kwargs):
        return dataclasses.replace(
            j, phi2d=self._cf_value_counter(j.phi2d),
            dphi2d_dt2=None if j.dphi2d_dt2 is None else self._cf_value_counter(j.dphi2d_dt2))

    def post_hook(self, name: str):
        if name == "de_integrate":
            return self._de_evals
        if name in ("broda_kan_pdf_indep", "broda_kan_pdf_joint", "broda_kan_cdf"):
            cdf = name == "broda_kan_cdf"
            pos = 3 if name == "broda_kan_pdf_indep" else 2
            return lambda r, a, k: self._grid_cells(r, a, k, cdf, pos)
        if name in ("normal_density", "chi_square_density", "uniform_density"):
            return self._density
        if name in ("normal_cf", "chi_square_cf", "cauchy_cf"):
            return self._charfn
        if name == "bivariate_normal_joint_cf":
            # product_joint_cf is left alone: it calls the wrapped marginal CFs
            return self._joint
        return None

    # -- results ------------------------------------------------------------

    def snapshot(self) -> dict:
        return {"self": dict(self.self_s), "group_s": dict(self.group_s),
                "group_calls": dict(self.group_calls), "counts": dict(self.counts)}

    def install(self) -> None:
        """Wrap every FUNCTIONS name that a calling module holds."""
        import importlib

        for caller in CALLERS:
            mod = importlib.import_module(f"ratiodist.{caller}")
            for name, (layer, group) in FUNCTIONS.items():
                fn = getattr(mod, name, None)
                if not inspect.isfunction(fn) or fn.__module__ != f"ratiodist.{layer}":
                    continue
                self.installed.append((mod, name, fn))
                setattr(mod, name, self.wrap(fn, layer, group, self.post_hook(name)))

    def uninstall(self) -> None:
        while self.installed:
            mod, name, fn = self.installed.pop()
            setattr(mod, name, fn)

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["id", "name", "start_s", "end_s", "parent"],
                       "spans": self.spans, "dropped": self.dropped}, fh)


def diff(after: dict, before: dict) -> dict:
    return {k: {n: v - before[k].get(n, 0) for n, v in after[k].items()} for k in after}


def counts(snap: dict) -> dict:
    """The deterministic part of a snapshot: call and evaluation counts."""
    return {"group_calls": snap["group_calls"], "counts": snap["counts"]}


def _metrics(s: dict) -> Dict[str, float]:
    g, c, gs, own = s["group_calls"], s["counts"], s["group_s"], s["self"]
    density, points = g.get("mellin.density", 0), g.get("mellin.ratio_pdf", 0)
    out = {
        "cli.bytes_written": c.get("cli.bytes_written", 0),
        "special.erf_calls": g.get("special.erf", 0),
        "special.erf_s": gs.get("special.erf", 0.0),
        "normal_ratio.pdf_values": g.get("normal_ratio.pdf", 0),
        "normal_ratio.pdf_s": gs.get("normal_ratio.pdf", 0.0),
        "normal_ratio.cdf_s": gs.get("normal_ratio.cdf", 0.0),
        "normal_ratio.modality_s": gs.get("normal_ratio.modality", 0.0),
        "quadrature.de_calls": g.get("quadrature.de", 0),
        "quadrature.de_evals": c.get("quadrature.de_evals", 0),
        "quadrature.de_s": gs.get("quadrature.de", 0.0),
        "quadrature.cheb_build_s": gs.get("quadrature.cheb_build", 0.0),
        "quadrature.cheb_eval_s": gs.get("quadrature.cheb_eval", 0.0),
        "mellin.density_evals": density,
        "mellin.evals_per_point": density / points if points else 0.0,
        "mellin.ratio_pdf_s": gs.get("mellin.ratio_pdf", 0.0),
        "cf.grid_cells": c.get("cf.grid_cells", 0),
        "cf.cf_values": c.get("cf.cf_values", 0),
        "cf.broda_kan_s": gs.get("cf.broda_kan", 0.0),
        "cf.gil_pelaez_s": gs.get("cf.gil_pelaez", 0.0),
        "cf.auto_grid_s": gs.get("cf.auto_grid", 0.0),
    }
    for layer in LAYERS:
        out[f"{layer}.self_s"] = own.get(layer, 0.0)
    return out


def per_layer(setup: dict, passes: List[dict]) -> Dict[str, float]:
    """Per-layer metrics of one pass plus the traced set-up.

    Counts and the per-point ratio come from the first traced pass (they
    repeat exactly); times are the median over the traced passes.
    """
    base = _metrics(setup)
    each = [_metrics(p) for p in passes]
    out = {}
    for name, v0 in base.items():
        if name == "mellin.evals_per_point":
            out[name] = each[0][name]
        elif name.endswith("_s"):
            out[name] = v0 + statistics.median(m[name] for m in each)
        else:
            out[name] = v0 + each[0][name]
    return out
