"""Benchmark protocol: timing records, accuracy metric, CSV/JSON export."""

import csv
import json
import math

import numpy as np
import pytest

from ratiodist.bench import (
    BASELINE_METHOD,
    BASELINE_REL_TOL,
    BenchRecord,
    eps_max,
    export,
    method_ids,
    run_experiment,
)
from ratiodist.errors import InvalidParamsError

_CSV_HEADER = (
    "method_id,a,b,n_points,lo,hi,runs,reps,runtime_mean_s,runtime_cv,eps_max,speedup,setup_s"
)


def test_registry():
    ids = method_ids()
    assert set(ids) == {"analytic", "broda-kan", "mellin-de", "mellin-de-cheb"}
    assert BASELINE_METHOD in ids
    assert BASELINE_REL_TOL == 1e-3


def test_eps_max():
    assert eps_max([1.0, 2.0], [1.0, 2.5]) == 0.5
    assert eps_max([0.0], [0.0]) == 0.0
    rng = np.random.default_rng(5)
    v, r = rng.normal(size=40), rng.normal(size=40)
    perm = rng.permutation(40)
    assert eps_max(v, r) == eps_max(v[perm], r[perm])
    with pytest.raises(InvalidParamsError):
        eps_max([1.0, 2.0], [1.0])
    with pytest.raises(InvalidParamsError):
        eps_max([], [])


def test_run_experiment_analytic():
    rec = run_experiment("analytic", (1.5, 1.0), (-2.0, 5.0), n_points=50, runs=2, reps=10)
    assert rec.method_id == "analytic"
    assert rec.params == (1.5, 1.0)
    assert rec.n_points == 50
    assert rec.interval == (-2.0, 5.0)
    assert rec.runs == 2 and rec.reps_per_run == 10
    assert rec.runtime_mean_s > 0.0
    assert rec.runtime_cv >= 0.0
    assert rec.eps_max <= 1e-15  # same closed form as the reference
    assert math.isnan(rec.speedup_vs_baseline)


def test_run_experiment_speedup():
    base = run_experiment("analytic", (1.5, 1.0), (-2.0, 5.0), n_points=200, runs=1, reps=10)
    again = run_experiment(
        "analytic", (1.5, 1.0), (-2.0, 5.0), n_points=200, runs=1, reps=10, baseline=base
    )
    # same method against itself: near 1 modulo scheduler noise
    assert 0.2 < again.speedup_vs_baseline < 5.0
    scaled = run_experiment(
        "analytic",
        (1.5, 1.0),
        (-2.0, 5.0),
        n_points=200,
        runs=1,
        reps=10,
        baseline=10.0 * base.runtime_mean_s,
    )
    assert scaled.speedup_vs_baseline > again.speedup_vs_baseline


def test_run_experiment_label_and_tolerance():
    rec = run_experiment(
        "mellin-de",
        (1.5, 1.0),
        (-2.0, 5.0),
        n_points=20,
        runs=1,
        reps=10,
        rel_tol=1e-3,
        label="mellin-de@0.001",
    )
    assert rec.method_id == "mellin-de@0.001"
    assert rec.eps_max <= 1e-5


def test_run_experiment_cheb_setup():
    rec = run_experiment(
        "mellin-de-cheb", (1.5, 1.0), (-2.0, 5.0), n_points=40, runs=1, reps=10, n_nodes=65
    )
    assert rec.setup_time_s > 0.0
    assert rec.eps_max <= 1e-6
    # interpolant evaluation amortizes the quadrature cost spent in setup
    assert rec.runtime_mean_s < rec.setup_time_s


def test_run_experiment_broda_kan():
    rec = run_experiment("broda-kan", (1.5, 1.0), (-1.0, 2.0), n_points=5, runs=1, reps=10, n=128)
    assert rec.eps_max <= 1e-3


@pytest.mark.parametrize(
    "kwargs",
    [
        {"method": "fft"},
        {"reps": 9},
        {"runs": 0},
        {"n_points": 0},
        {"interval": (1.0, 1.0)},
        {"interval": (0.0, math.inf)},
        {"n": 64},  # analytic takes no options
    ],
)
def test_run_experiment_validation(kwargs):
    base = dict(
        method="analytic", params=(1.5, 1.0), interval=(-2.0, 5.0), n_points=5, runs=1, reps=10
    )
    base.update(kwargs)
    with pytest.raises(InvalidParamsError):
        run_experiment(**base)


def _record(method_id="analytic", speedup=2.0):
    return BenchRecord(
        method_id=method_id,
        params=(1.5, 1.0),
        n_points=1000,
        interval=(-2.105551275463989, 5.10555127546399),
        runs=3,
        reps_per_run=10,
        runtime_mean_s=0.12345678901234567,
        runtime_cv=0.014999999999999999,
        eps_max=1.5000000000000001e-05,
        speedup_vs_baseline=speedup,
        setup_time_s=0.5,
    )


def test_export_csv_round_trip(tmp_path):
    recs = [_record(), _record("mellin-de@0.001", math.nan)]
    path = tmp_path / "bench.csv"
    export(recs, "csv", str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == _CSV_HEADER
    rows = list(csv.DictReader(lines))
    assert len(rows) == 2
    r = rows[0]
    assert r["method_id"] == "analytic"
    # .17g text representation restores every float bit-exactly
    assert float(r["a"]) == 1.5 and float(r["b"]) == 1.0
    assert float(r["lo"]) == -2.105551275463989
    assert float(r["hi"]) == 5.10555127546399
    assert int(r["n_points"]) == 1000
    assert int(r["runs"]) == 3 and int(r["reps"]) == 10
    assert float(r["runtime_mean_s"]) == 0.12345678901234567
    assert float(r["runtime_cv"]) == 0.014999999999999999
    assert float(r["eps_max"]) == 1.5000000000000001e-05
    assert float(r["speedup"]) == 2.0
    assert float(r["setup_s"]) == 0.5
    assert math.isnan(float(rows[1]["speedup"]))


def test_export_json_round_trip(tmp_path):
    recs = [_record()]
    path = tmp_path / "bench.json"
    export(recs, "json", str(path))
    rows = json.loads(path.read_text())
    assert len(rows) == 1
    assert set(rows[0]) == set(_CSV_HEADER.split(","))
    assert rows[0]["runtime_mean_s"] == 0.12345678901234567
    assert rows[0]["method_id"] == "analytic"


_JSON_GOLDEN = """[
  {
    "method_id": "mellin-de",
    "a": -0.0,
    "b": 5e-324,
    "n_points": 1000,
    "lo": 0.3333333333333333,
    "hi": 1e+308,
    "runs": 3,
    "reps": 10,
    "runtime_mean_s": 0.3333333333333333,
    "runtime_cv": 0.0,
    "eps_max": Infinity,
    "speedup": NaN,
    "setup_s": 1e+308
  }
]
"""


def test_export_json_bytes_and_bits(tmp_path):
    # signed zero, the least subnormal, a 17-digit float, the edge of the
    # range, NaN and infinity are written as repr writes them and load back
    # bit for bit
    rec = BenchRecord("mellin-de", (-0.0, 5e-324), 1000, (1 / 3, 1e308), 3, 10,
                      1 / 3, 0.0, math.inf, math.nan, 1e308)
    path = tmp_path / "bench.json"
    export([rec], "json", str(path))
    assert path.read_bytes() == _JSON_GOLDEN.encode()
    (row,) = json.loads(path.read_text())
    fields = (rec.params + rec.interval
              + (rec.runtime_mean_s, rec.runtime_cv, rec.eps_max, rec.speedup_vs_baseline,
                 rec.setup_time_s))
    keys = ("a", "b", "lo", "hi", "runtime_mean_s", "runtime_cv", "eps_max", "speedup", "setup_s")
    assert [row[k].hex() for k in keys] == [v.hex() for v in fields]


def test_export_validation(tmp_path):
    with pytest.raises(InvalidParamsError):
        export([], "csv", str(tmp_path / "x.csv"))
    with pytest.raises(InvalidParamsError):
        export([_record()], "xml", str(tmp_path / "x.xml"))


@pytest.mark.parametrize(
    "kwargs",
    [
        {"runtime_cv": -0.1},
        {"eps_max": -1e-9},
        {"reps_per_run": 9},
        {"runs": 0},
        {"n_points": 0},
    ],
)
def test_bench_record_validation(kwargs):
    base = dict(
        method_id="analytic",
        params=(1.5, 1.0),
        n_points=10,
        interval=(0.0, 1.0),
        runs=1,
        reps_per_run=10,
        runtime_mean_s=0.1,
        runtime_cv=0.0,
        eps_max=0.0,
        speedup_vs_baseline=1.0,
    )
    base.update(kwargs)
    with pytest.raises(InvalidParamsError):
        BenchRecord(**base)
