"""Benchmark launcher: one workload, one seed, one run.

    python3 perfbench/run.py --workload closed_form --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout (``src/ratiodist`` must exist).  The
launcher times the set-up in fresh interpreters, runs the workload in its own
single-threaded process (``worker.py``), checks the first pass's outputs
against the SciPy reference (``reference.py``, computed here, in another
process than the program) and prints one JSON line:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 1`` the
metrics are the per-layer ones.  A record of the run, with the machine and
library versions, goes to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import workloads  # this file's directory is first on sys.path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"

SETUP_SAMPLES = 9
WORKER_TIMEOUT_S = 150


# accepted error per engine: |got - ref| <= rtol |ref| + atol * scale, where
# scale is the largest |ref| of the request (1 for a CDF)
TOLERANCE = {
    ("analytic", "pdf"): (1e-9, 1e-12),
    ("analytic", "cdf"): (0.0, 1e-9),
    ("mellin", "pdf"): (1e-7, 1e-9),
    ("broda-kan", "pdf"): (0.0, 1e-3),
    ("broda-kan", "cdf"): (0.0, 1e-3),
    ("gil-pelaez", "pdf"): (0.0, 1e-9),
    ("gil-pelaez", "cdf"): (0.0, 1e-9),
}
ENGINE_LAYER = {"analytic": "normal_ratio", "mellin": "mellin", "broda-kan": "cf", "gil-pelaez": "cf"}


def child_env() -> dict:
    env = dict(os.environ)
    env.update(PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0", OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return env


def worker(args: list, timeout: float) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(HERE / "worker.py")] + args, env=child_env(),
                          cwd=str(ROOT), capture_output=True, text=True, timeout=timeout)


def measure_setup(workload: str, seed: int) -> float:
    """Median set-up time over fresh interpreters (after one warm-up start,
    which also writes the bytecode caches of a fresh checkout)."""
    raw, scaled = [], []
    for i in range(SETUP_SAMPLES + 1):
        p = worker(["--workload", workload, "--seed", str(seed), "--setup-only"], 60)
        if p.returncode != 0:
            raise RuntimeError(f"set-up run failed:\n{p.stderr}")
        if i:
            sample = json.loads(p.stdout.strip().splitlines()[-1])
            raw.append(sample["setup_s"])
            scaled.append(sample["setup_scaled_s"])
    return statistics.median(raw), statistics.median(scaled)


# ---------------------------------------------------------------------------
# checks


def _parse_xy(text: str):
    import numpy as np

    lines = text.strip().splitlines()
    if not lines or lines[0] != "x,value":
        raise ValueError("missing x,value header")
    rows = [tuple(float(v) for v in ln.split(",")) for ln in lines[1:]]
    arr = np.array(rows, dtype=float).reshape(-1, 2)
    return arr[:, 0], arr[:, 1]


def check_grid(check: dict, text: str):
    """(number of values, peak-relative max error) of a pdf/cdf grid; raises on a bad output."""
    import numpy as np

    import reference

    x, got = _parse_xy(text)
    n = check["n"]
    if x.size != n or not np.all(np.isfinite(got)):
        raise ValueError(f"expected {n} finite values, got {x.size}")
    if check["interval"] is not None:
        lo, hi = check["interval"]
        if not np.allclose(x, np.linspace(lo, hi, n), rtol=0, atol=1e-12 * max(1.0, abs(lo), abs(hi))):
            raise ValueError("x grid is not the requested linspace")
    elif np.any(np.diff(x) <= 0):
        raise ValueError("x grid is not increasing")
    what = check["what"]
    if what == "pdf":
        if np.any(got < 0):
            raise ValueError("negative density")
        ref = reference.pdf(check["dist"], x)
        scale = max(float(np.max(np.abs(ref))), 1e-300)
    else:
        if np.any(got < 0) or np.any(got > 1) or np.any(np.diff(got) < 0):
            raise ValueError("CDF leaves [0, 1] or decreases")
        ref = reference.cdf(check["dist"], x)
        scale = 1.0
    rtol, atol = TOLERANCE[(check["engine"], what)]
    err = np.abs(got - ref)
    if np.any(err > rtol * np.abs(ref) + atol * scale):
        i = int(np.argmax(err - rtol * np.abs(ref)))
        raise ValueError(f"{what} at x={float(x[i])!r}: got {float(got[i])!r}, reference {float(ref[i])!r}")
    return n, float(np.max(err)) / scale


def check_modality(check: dict, text: str):
    import reference

    verdict = text.strip().splitlines()[0] if text.strip() else ""
    modes = reference.visible_modes(check["dist"])
    expect = "bimodal" if modes >= 2 else "unimodal"
    if verdict != expect:
        raise ValueError(f"verdict {verdict!r}, but the reference density shows {modes} mode(s)")
    return 1, 0.0


def check_point(req: dict, out: dict):
    import numpy as np

    import reference

    got = float(out["value"])
    c = req["check"]
    fn = reference.pdf if c["what"] == "pdf" else reference.cdf
    ref = float(fn(c["dist"], np.array([req["x"]]))[0])
    if (c["what"] == "pdf" and got < 0) or (c["what"] == "cdf" and not 0 <= got <= 1):
        raise ValueError(f"{c['what']} value {got!r} out of range")
    rtol, atol = TOLERANCE[(c["engine"], c["what"])]
    # a single point has no grid peak; its scale is its own value (1 for a CDF)
    scale = 1.0 if c["what"] == "cdf" else max(abs(ref), 1e-300)
    err = abs(got - ref)
    if not math.isfinite(got) or err > rtol * abs(ref) + atol * scale:
        raise ValueError(f"{req['fn']}({req['x']!r}) = {got!r}, reference {ref!r}")
    return 1, err / scale


def check_request(req: dict, out) -> tuple:
    """(values, {layer: max error}, reason or None) for one request's first-pass output."""
    errs = {}
    values = 0
    try:
        if req["kind"] == "call":
            if out["rc"] != 0:
                raise ValueError(f"raised {out['rc']}")
            v, e = check_point(req, out)
            layer = ENGINE_LAYER[req["check"]["engine"]]
            errs[layer] = max(errs.get(layer, 0.0), e)
            values += v
        else:
            for step, o in zip(req["steps"], out):
                if o["rc"] != 0:
                    raise ValueError(f"{step['argv'][0]} exited {o['rc']}: {o['stderr'].strip()[-300:]}")
                c = step["check"]
                if c["what"] == "modality":
                    v, e = check_modality(c, o["text"])
                    layer = "normal_ratio"
                else:
                    v, e = check_grid(c, o["text"])
                    layer = ENGINE_LAYER[c["engine"]]
                errs[layer] = max(errs.get(layer, 0.0), e)
                values += v
    except ValueError as exc:
        return 0, {}, str(exc)
    return values, errs, None


# ---------------------------------------------------------------------------


def environment() -> dict:
    import numpy
    import scipy

    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas_threads": {k: child_env()[k] for k in
                             ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
            "machine": platform.machine()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "ratiodist" / "__init__.py").is_file():
        print(f"error: no program source at {ROOT / 'src' / 'ratiodist'}", file=sys.stderr)
        return 2
    spec = workloads.build(args.workload, args.seed)
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    scratch = OUT / f"scratch-{tag}-{os.getpid()}"
    scratch.mkdir()
    result_path = OUT / f"{tag}.worker.json"
    setup_raw, setup_s = measure_setup(args.workload, args.seed) if args.trace == 0 else (None, None)
    wargs = ["--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--scratch", str(scratch), "--result", str(result_path)]
    if args.trace:
        wargs += ["--trace", "--spans", str(OUT / f"{tag}.spans.json")]
    try:
        p = worker(wargs, WORKER_TIMEOUT_S)
    finally:
        shutil.rmtree(scratch)
    if p.returncode != 0:
        print(p.stderr, file=sys.stderr)
        return 1
    with open(result_path, encoding="utf-8") as fh:
        res = json.load(fh)

    passes, reqs = res["passes"], spec["requests"]
    failed_ids, values_per_pass, max_err = [], 0, {}
    for req, out in zip(reqs, res["first"]):
        values, errs, reason = check_request(req, out)
        if reason is not None:
            failed_ids.append((req["id"], reason))
            continue
        values_per_pass += values
        for layer, e in errs.items():
            max_err[layer] = max(max_err.get(layer, 0.0), e)
    kept = {r["id"] for r in reqs if "fault" in r}
    unexpected = [fid for fid, _ in failed_ids if fid not in kept]
    correct = not unexpected and not res["differed"] and res.get("counts_repeat", True)

    if args.trace:
        metrics = dict(res["per_layer"])
        for layer in ("normal_ratio", "mellin", "cf"):
            metrics[f"{layer}.max_err"] = max_err.get(layer, 0.0)
    else:
        lat, scaled = res["latencies"], res["scaled"]
        metrics = {"points_per_s": values_per_pass * passes / sum(scaled),
                   "request_p50_s": statistics.median(scaled),
                   "setup_s": setup_s,
                   "peak_rss_mib": res["peak_rss_mib"]}
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "passes": passes, "requests_per_pass": len(reqs),
              "failed": [{"id": i, "reason": r, "kept": i in kept} for i, r in failed_ids],
              "differed": res["differed"], "metrics": metrics, "environment": environment()}
    if not args.trace:
        record["wall_clock"] = {"points_per_s": values_per_pass * passes / sum(lat),
                                "request_p50_s": statistics.median(lat), "setup_s": setup_raw}
        record["probe_median_s"] = {k: statistics.median(v) for k, v in res["probe"].items()}
    with open(OUT / f"{tag}.record.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    for fid, reason in failed_ids:
        print(f"{'kept failure' if fid in kept else 'FAILED'}: {fid}: {reason}", file=sys.stderr)

    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    if set(units) != set(metrics):
        raise RuntimeError(f"metrics {sorted(metrics)} do not match BENCHMARK.json {sorted(units)}")
    print(json.dumps({"correct": bool(correct), "attempted": passes * len(reqs),
                      "failed": passes * len(failed_ids),
                      "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
