"""The program's process: one workload as a closed loop with one client.

Started by ``run.py`` with ``src`` on ``PYTHONPATH`` and BLAS/OpenMP pinned
to one thread.  It imports the program and nothing heavier than NumPy, so
its peak resident memory is the program's.  Modes:

* ``--setup-only``: time the import of ``ratiodist`` plus the workload's
  one-time builds, print ``{"setup_s": raw, "setup_scaled_s": scaled}``
  (see ``speedprobe``) and exit.
* default: run whole passes over the request list until ``--seconds`` have
  gone by, then write the latencies (raw and scaled), the first pass's
  outputs and the ids of requests whose output ever differed from the first
  pass to ``--result``.
* ``--trace``: one untraced pass, then traced passes (see ``layertrace``);
  the per-layer metrics go into the result and the spans to ``--spans``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import statistics
import sys
import time

import speedprobe
import workloads

perf = time.perf_counter


def work_kind(req: dict) -> str:
    """The speed-probe kernel that matches a request's work."""
    check = req["check"] if req["kind"] == "call" else req["steps"][0]["check"]
    return "numpy" if check.get("engine") == "broda-kan" else "python"


def build_objects(objects: dict) -> dict:
    """The workload's one-time program objects (densities, CFs, grids)."""
    from ratiodist import cf, mellin, normal_ratio

    built = {}
    for key, o in objects.items():
        make = o["make"]
        if make == "biv":
            built[key] = normal_ratio.BivNormalParams(o["mu1"], o["mu2"], o["s1"], o["s2"], o["rho"])
        elif make == "std":
            built[key] = normal_ratio.StdRatioParams(o["a"], o["b"])
        elif make == "normal_pair":
            built[key] = (mellin.normal_density(o["a"], 1.0), mellin.normal_density(o["b"], 1.0))
        elif make == "normal_cf":
            built[key] = cf.normal_cf(o["mu"], o["sigma"])
        elif make == "normal_chisq_cf":
            cf1, cf2 = cf.normal_cf(o["mu"], o["sigma"]), cf.chi_square_cf(o["k"])
            built[key] = (cf1, cf2, cf.auto_grid(cf1, cf2))
        elif make == "joint_cf":
            p = normal_ratio.BivNormalParams(o["mu1"], o["mu2"], o["s1"], o["s2"], o["rho"])
            grid = cf.auto_grid(cf.normal_cf(p.mu1, p.sigma1), cf.normal_cf(p.mu2, p.sigma2))
            built[key] = (cf.bivariate_normal_joint_cf(p), grid)
        else:
            raise ValueError(f"unknown object kind {make!r}")
    return built


def bind_call(req: dict, objs: dict):
    """(function, args) of a single-point request, looked up as the module
    holds it now, so the timed call is the library call and nothing else."""
    from ratiodist import cf, mellin, normal_ratio

    obj, x = objs[req["obj"]], req["x"]
    fn = req["fn"]
    if fn == "ratio_pdf_phamgia":
        return normal_ratio.ratio_pdf_phamgia, (obj, x)
    if fn == "std_ratio_cdf":
        return normal_ratio.std_ratio_cdf, (obj, x)
    if fn == "ratio_pdf":
        return mellin.ratio_pdf, (obj[0], obj[1], x)
    if fn == "gil_pelaez_pdf":
        return cf.gil_pelaez_pdf, (obj, x)
    if fn == "broda_kan_pdf_indep":
        return cf.broda_kan_pdf_indep, (obj[0], obj[1], x, obj[2])
    if fn == "broda_kan_pdf_joint":
        return cf.broda_kan_pdf_joint, (obj[0], x, obj[1])
    raise ValueError(f"unknown call {fn!r}")


class Loop:
    """Runs passes over one request list and keeps what the checks need."""

    def __init__(self, spec: dict, objs: dict, scratch: str, on_output=None, probe=None):
        self.requests = spec["requests"]
        self.kinds = [work_kind(r) for r in self.requests]
        self.bind(objs)
        self.scratch = scratch
        self.on_output = on_output  # called with each CLI output file's size
        self.first = None           # outputs of the first pass
        self.differed = set()       # ids whose output ever differed from the first pass
        self.probe = probe          # a running SpeedProbe, or None
        self.scaled = []            # latencies at the probe's nominal speed

    def _cli_step(self, argv: list, j: int):
        from ratiodist import cli

        path = os.path.join(self.scratch, f"step{j}.out")
        if os.path.exists(path):
            os.remove(path)
        err = io.StringIO()
        s0, t0 = self._spent(), perf()
        try:
            with contextlib.redirect_stderr(err):
                rc = cli.main(argv + ["--out", path])
        except Exception as exc:  # a crash is a failed operation, not a benchmark error
            rc = f"{type(exc).__name__}: {exc}"
        except SystemExit as exc:
            rc = f"SystemExit: {exc.code}"
        dt = perf() - t0 - (self._spent() - s0)
        text = ""
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
            if self.on_output is not None:
                self.on_output(len(text.encode()))
        return dt, {"rc": rc, "stderr": err.getvalue()[-2000:], "text": text}

    def bind(self, objs: dict) -> None:
        self.calls = [bind_call(r, objs) if r["kind"] == "call" else None for r in self.requests]

    def _spent(self) -> float:
        return self.probe.spent if self.probe is not None else 0.0

    def _point(self, fn, args):
        s0, t0 = self._spent(), perf()
        try:
            val = float(fn(*args))
            out = {"rc": 0, "value": repr(val)}
        except Exception as exc:  # a raised error is a failed operation
            out = {"rc": f"{type(exc).__name__}: {exc}", "value": None}
        return perf() - t0 - (self._spent() - s0), out

    def run_pass(self) -> list:
        """One pass; returns each request's latency in seconds."""
        lat, outs = [], []
        for req, kind, call in zip(self.requests, self.kinds, self.calls):
            i0 = self.probe.count() if self.probe is not None else 0
            if req["kind"] == "cli":
                total, steps = 0.0, []
                for j, step in enumerate(req["steps"]):
                    dt, out = self._cli_step(step["argv"], j)
                    total += dt
                    steps.append(out)
                lat.append(total)
                outs.append(steps)
            else:
                dt, out = self._point(*call)
                lat.append(dt)
                outs.append(out)
            if self.probe is not None:
                self.scaled.append(self.probe.scale(lat[-1], kind, i0, self.probe.count()))
        if self.first is None:
            self.first = outs
        else:
            for req, a, b in zip(self.requests, self.first, outs):
                if a != b:
                    self.differed.add(req["id"])
        return lat


def _peak_rss_mib() -> float:
    # Linux reports ru_maxrss in KiB
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--scratch", default=".")
    ap.add_argument("--result")
    ap.add_argument("--spans")
    args = ap.parse_args(argv)

    spec = workloads.build(args.workload, args.seed)
    if args.setup_only:
        # the NumPy kernel would import NumPy before the clock starts
        with speedprobe.SpeedProbe(kinds=("python",)) as probe:
            i0, s0, t0 = probe.count(), probe.spent, perf()
            import ratiodist.cli  # noqa: F401  (the CLI module pulls in every engine)

            build_objects(spec["objects"])
            raw = perf() - t0 - (probe.spent - s0)
            scaled = probe.scale(raw, "python", i0, probe.count())
        print(json.dumps({"setup_s": raw, "setup_scaled_s": scaled}))
        return 0
    import ratiodist.cli  # noqa: F401

    objs = build_objects(spec["objects"])
    gc.collect()
    result = {}
    if args.trace:
        result.update(_traced(spec, objs, args))
    else:
        with speedprobe.SpeedProbe() as probe:
            loop = Loop(spec, objs, args.scratch, probe=probe)
            lat, start = [], perf()
            while True:
                lat.extend(loop.run_pass())
                if perf() - start >= args.seconds:
                    break
        result.update(passes=len(lat) // len(spec["requests"]), latencies=lat,
                      scaled=loop.scaled, probe=probe.samples, first=loop.first,
                      differed=sorted(loop.differed))
    result["peak_rss_mib"] = _peak_rss_mib()
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


def _traced(spec: dict, objs: dict, args) -> dict:
    """One untraced pass, then traced passes until --seconds have gone by."""
    import layertrace

    loop = Loop(spec, objs, args.scratch)
    start = perf()
    plain = sum(loop.run_pass())

    rec = layertrace.Recorder()
    rec.install()
    loop.on_output = rec.add_bytes
    loop.bind(build_objects(spec["objects"]))  # rebuilt through the traced factories
    setup = rec.snapshot()
    per_pass, traced = [], []
    while True:
        before = rec.snapshot()
        rec.keep = not per_pass
        traced.append(sum(loop.run_pass()))
        per_pass.append(layertrace.diff(rec.snapshot(), before))
        if perf() - start >= args.seconds:
            break
    rec.uninstall()
    layer = layertrace.per_layer(setup, per_pass)
    layer["trace.overhead_s"] = statistics.median(traced) - plain
    if args.spans:
        rec.write_spans(args.spans)
    return {"passes": 1 + len(traced), "first": loop.first, "differed": sorted(loop.differed),
            "per_layer": layer, "counts_repeat": all(layertrace.counts(p) == layertrace.counts(per_pass[0])
                                                    for p in per_pass)}


if __name__ == "__main__":
    sys.exit(main())
