"""Command-line entry points: grids, verdicts, intervals, bench exports."""

import csv
import importlib
import json
import math
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ratiodist import bench, cf, cli
from ratiodist.cf import sd_window
from ratiodist.cli import main
from ratiodist.normal_ratio import (
    BivNormalParams,
    HakeInputs,
    StdRatioParams,
    evaluation_interval,
    hake_params,
    std_ratio_cdf,
    std_ratio_pdf,
)


def _rows(text):
    lines = text.strip().splitlines()
    assert lines[0] == "x,value"
    return [(float(a), float(b)) for a, b in (ln.split(",") for ln in lines[1:])]


def test_pdf_analytic_cauchy(capsys):
    rc = main(["pdf", "--engine", "analytic", "--std-ratio", "0", "0",
               "--interval", "-1", "1", "--n", "3"])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == [
        "x,value",
        "-1,0.15915494309189535",
        "0,0.31830988618379069",
        "1,0.15915494309189535",
    ]


def test_pdf_out_file(tmp_path):
    out = tmp_path / "pdf.csv"
    rc = main(["pdf", "--engine", "analytic", "--std-ratio", "1.5", "1",
               "--interval", "-2", "5", "--n", "8", "--out", str(out)])
    assert rc == 0
    rows = _rows(out.read_text())
    assert len(rows) == 8
    sr = StdRatioParams(1.5, 1.0)
    for x, v in rows:
        assert math.isclose(v, std_ratio_pdf(sr, x), rel_tol=1e-15)


def test_pdf_mellin_matches_analytic(capsys):
    rc = main(["pdf", "--engine", "mellin", "--std-ratio", "1.5", "1",
               "--interval", "-1", "1", "--n", "5"])
    assert rc == 0
    sr = StdRatioParams(1.5, 1.0)
    for x, v in _rows(capsys.readouterr().out):
        assert math.isclose(v, std_ratio_pdf(sr, x), rel_tol=1e-8)


def test_pdf_broda_kan_cf_specs(capsys):
    rc = main(["pdf", "--engine", "broda-kan", "--num", "normal", "0", "1",
               "--den", "normal", "0", "1", "--interval", "-1", "1", "--n", "3"])
    assert rc == 0
    for x, v in _rows(capsys.readouterr().out):
        assert abs(v - 1.0 / (math.pi * (1.0 + x * x))) <= 1e-3


def test_pdf_gil_pelaez_single_dist(capsys):
    rc = main(["pdf", "--engine", "gil-pelaez", "--dist", "normal", "0", "1",
               "--interval", "-1", "1", "--n", "3"])
    assert rc == 0
    for x, v in _rows(capsys.readouterr().out):
        want = math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)
        assert math.isclose(v, want, rel_tol=1e-8)


def test_pdf_auto_interval_demo(capsys):
    # normal numerator over a chi-square denominator, CF route end to end
    rc = main(["pdf", "--engine", "broda-kan", "--num", "normal", "0", "1",
               "--den", "chisq", "5", "--auto-interval", "--n", "3"])
    assert rc == 0
    rows = _rows(capsys.readouterr().out)
    assert len(rows) == 3
    assert rows[1][0] == 0.0
    # f(0) = E[Y] / sqrt(2 pi) for X/Y with X standard normal, Y >= 0
    assert abs(rows[1][1] - 5.0 / math.sqrt(2.0 * math.pi)) <= 1e-2
    assert rows[0][1] < rows[1][1] and rows[2][1] < rows[1][1]


def test_cdf_broda_kan(capsys):
    rc = main(["cdf", "--engine", "broda-kan", "--std-ratio", "0", "0",
               "--interval", "0", "1", "--n", "2"])
    assert rc == 0
    rows = _rows(capsys.readouterr().out)
    assert abs(rows[0][1] - 0.5) <= 1e-3
    assert abs(rows[1][1] - 0.75) <= 1e-3


def test_a_warning_is_one_line_on_stderr(capsys):
    # the Broda-Kan CDF of N(1, 0.5)/chi2(5) on a coarse grid dips below 0;
    # its AccuracyWarning prints as its message alone, with no source
    # location, and does not stop the command where warnings are errors
    rc = main(["cdf", "--engine", "broda-kan", "--num", "normal", "1", "0.5", "--den", "chisq",
               "5", "--auto-interval", "--n", "4", "--grid-n", "64"])
    assert rc == 0
    assert capsys.readouterr().err == (
        "warning: CDF value -0.00032696597090509094 exceeds [0, 1] by more than 1e-8 before "
        "clamping; the integration grid or tolerance is likely inadequate\n")


@pytest.mark.parametrize("sub", ["pdf", "cdf"])
def test_broda_kan_builds_its_joint_cf_and_grid_once(sub, monkeypatch, capsys):
    calls = []

    def counted(name):
        build = getattr(cf, name)

        def call(*args, **kwargs):
            calls.append(name)
            return build(*args, **kwargs)
        return call

    for name in ("auto_grid", "bivariate_normal_joint_cf"):
        monkeypatch.setattr(cf, name, counted(name))
    assert main([sub, "--engine", "broda-kan", "--biv", "1", "2", "0.5", "0.7", "0.3",
                 "--interval", "0", "1", "--n", "5"]) == 0
    assert sorted(calls) == ["auto_grid", "bivariate_normal_joint_cf"]


_MELLIN_GRID = ["--engine", "mellin", "--std-ratio", "1.5", "1", "--interval", "0", "2", "--n", "5"]
_GP_GRID = ["--engine", "gil-pelaez", "--dist", "normal", "1", "0.5", "--interval", "0", "2",
            "--n", "5"]

# (engine module, function, a command that must call it through that module)
_CALLED = [
    ("normal_ratio", "ratio_pdf_phamgia", ["pdf", "--std-ratio", "1.5", "1", "--auto-interval"]),
    ("normal_ratio", "ratio_cdf", ["cdf", "--std-ratio", "1.5", "1", "--auto-interval"]),
    ("normal_ratio", "classify_modality", ["modality", "--std-ratio", "2.1", "1"]),
    ("mellin", "ratio_pdf_grid", ["pdf", *_MELLIN_GRID]),
    ("mellin", "ratio_interpolant", ["pdf", *_MELLIN_GRID, "--cheb-nodes", "17"]),
    ("mellin", "cheb_eval_many", ["pdf", *_MELLIN_GRID, "--cheb-nodes", "17"]),
    ("mellin", "normal_density", ["pdf", *_MELLIN_GRID]),
    ("cf", "gil_pelaez_pdf", ["pdf", *_GP_GRID]),
    ("cf", "gil_pelaez_cdf", ["cdf", *_GP_GRID]),
    ("cf", "normal_cf", ["pdf", *_GP_GRID]),
]


@pytest.mark.parametrize("module, name, argv", _CALLED, ids=[f"{m}.{n}" for m, n, _ in _CALLED])
def test_cli_calls_library_functions_through_their_module(module, name, argv, monkeypatch, capsys):
    mod, calls = importlib.import_module(f"ratiodist.{module}"), []
    fn = getattr(mod, name)

    def wrapped(*args, **kwargs):
        calls.append(name)
        return fn(*args, **kwargs)

    monkeypatch.setattr(mod, name, wrapped)
    assert main(argv) == 0, capsys.readouterr().err
    assert calls


def test_cdf_mellin_is_refused_before_set_up(monkeypatch, capsys):
    def refuse(*args):
        raise AssertionError("set-up ran for a cdf the engine does not have")

    monkeypatch.setitem(cli.ENGINES, "mellin", cli.ENGINES["mellin"]._replace(setup=refuse))
    assert main(["cdf", "--engine", "mellin", "--std-ratio", "1.5", "1", "--auto-interval"]) == 1
    assert "densities only" in capsys.readouterr().err


def test_cdf_analytic(capsys):
    rc = main(["cdf", "--engine", "analytic", "--std-ratio", "1.5", "1",
               "--interval", "-1", "2", "--n", "4"])
    assert rc == 0
    sr = StdRatioParams(1.5, 1.0)
    for x, v in _rows(capsys.readouterr().out):
        assert math.isclose(v, std_ratio_cdf(sr, x), rel_tol=1e-12)


def test_modality_verdicts(capsys):
    rc = main(["modality", "--std-ratio", "1.5", "0.2"])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "bimodal"
    assert "b*(1.5) = 0.4292076295684869" in out

    rc = main(["modality", "--std-ratio", "4", "7"])
    assert rc == 0
    assert capsys.readouterr().out.splitlines() == ["bimodal"]

    rc = main(["modality", "--std-ratio", "4", "7", "--practical"])
    assert rc == 0
    assert capsys.readouterr().out.splitlines() == ["unimodal"]


def test_interval_output(capsys):
    rc = main(["interval", "--std-ratio", "1.5", "1", "--k", "2"])
    assert rc == 0
    lo, hi = (float(v) for v in capsys.readouterr().out.strip().split(","))
    want = evaluation_interval(StdRatioParams(1.5, 1.0), 2.0)
    assert math.isclose(lo, want[0], rel_tol=1e-15)
    assert math.isclose(hi, want[1], rel_tol=1e-15)


def test_bench_csv(tmp_path):
    out = tmp_path / "bench.csv"
    rc = main(["bench", "--std-ratio", "1.5", "1", "--method", "analytic",
               "--interval", "-1", "1", "--n", "5", "--runs", "1", "--reps", "10",
               "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == ("method_id,a,b,n_points,lo,hi,runs,reps,"
                        "runtime_mean_s,runtime_cv,eps_max,speedup,setup_s")
    rows = list(csv.DictReader(lines))
    assert [r["method_id"] for r in rows] == ["mellin-de@0.001", "analytic"]
    # the baseline row is its own reference point
    assert float(rows[0]["speedup"]) == 1.0
    assert float(rows[1]["speedup"]) > 0.0


def test_bench_tolerance_sweep(tmp_path):
    # only the methods that take a tolerance are swept; the others run once
    out = tmp_path / "bench.csv"
    rc = main(["bench", "--std-ratio", "1.5", "1", "--method", "mellin-de", "--method", "analytic",
               "--rel-tol", "1e-3", "1e-4", "--interval", "-1", "1", "--n", "5", "--runs", "1",
               "--reps", "10", "--out", str(out)])
    assert rc == 0
    rows = list(csv.DictReader(out.read_text().splitlines()))
    assert [r["method_id"] for r in rows] == [
        "mellin-de@0.001", "mellin-de@0.001", "mellin-de@0.0001", "analytic"]


def test_bench_checks_out_before_running(monkeypatch, capsys, tmp_path):
    def refuse(*args, **kwargs):
        raise AssertionError("bench ran an experiment before checking --out")

    monkeypatch.setattr(bench, "run_experiment", refuse)
    argv = ["bench", "--std-ratio", "1.5", "1", "--method", "broda-kan",
            "--n", "50", "--runs", "1", "--reps", "10"]
    assert main(argv) == 1
    assert capsys.readouterr().err == "error: bench needs --out PATH for the records file\n"
    # an --out whose directory does not exist: one error line, and no file made
    out = tmp_path / "missing" / "b.csv"
    assert main(argv + ["--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "missing" in err
    assert not out.parent.exists()


def test_bench_json(tmp_path):
    out = tmp_path / "bench.json"
    rc = main(["bench", "--std-ratio", "1.5", "1", "--method", "analytic",
               "--interval", "-1", "1", "--n", "5", "--runs", "1", "--reps", "10",
               "--format", "json", "--out", str(out)])
    assert rc == 0
    rows = json.loads(out.read_text())
    assert len(rows) == 2
    assert {r["method_id"] for r in rows} == {"mellin-de@0.001", "analytic"}


@pytest.mark.parametrize("a, b, window", [
    ("0", "1", (-2.0, 2.0)),  # a = 0: no practical moments of the standardized ratio
    ("1", "0", (-2.0, 3.0)),  # b = 0: the union of the factors' 2-sd windows
    ("1.5", "1", evaluation_interval(StdRatioParams(1.5, 1.0), 2.0)),
])
def test_bench_default_window_is_the_interval_window(a, b, window, tmp_path, capsys):
    assert main(["interval", "--std-ratio", a, b]) == 0
    assert capsys.readouterr().out == f"{window[0]:.17g},{window[1]:.17g}\n"
    out = tmp_path / "bench.csv"
    rc = main(["bench", "--std-ratio", a, b, "--method", "analytic", "--n", "5", "--runs", "1",
               "--reps", "10", "--out", str(out)])
    assert rc == 0
    rows = list(csv.DictReader(out.read_text().splitlines()))
    assert {(float(r["lo"]), float(r["hi"])) for r in rows} == {window}


_HAKE = ["40", "65", "15", "18", "0.5", "50"]


@pytest.mark.parametrize(
    "argv",
    [
        ["pdf", "--engine", "mellin", "--biv", "1.5", "1", "1", "1", "0.5",
         "--interval", "0", "1", "--n", "2"],
        ["cdf", "--engine", "mellin", "--std-ratio", "1.5", "1",
         "--interval", "0", "1", "--n", "2"],
        ["pdf", "--engine", "gil-pelaez", "--std-ratio", "1.5", "1",
         "--interval", "0", "1", "--n", "2"],
        ["pdf", "--engine", "analytic", "--interval", "0", "1", "--n", "2"],
        ["pdf", "--engine", "analytic", "--std-ratio", "1.5", "1",
         "--interval", "1", "1", "--n", "2"],
        ["pdf", "--engine", "analytic", "--num", "normal", "0", "0",
         "--den", "normal", "0", "1", "--interval", "0", "1", "--n", "2"],
        # exactly one spec
        ["pdf", "--std-ratio", "1.5", "1", "--hake", *_HAKE, "--auto-interval", "--n", "3"],
        ["pdf", "--engine", "mellin", "--std-ratio", "1.5", "1", "--hake", *_HAKE,
         "--auto-interval", "--n", "3"],
        ["cdf", "--engine", "broda-kan", "--biv", "1", "2", "1", "1", "0",
         "--num", "normal", "0", "1", "--den", "chisq", "5", "--interval", "0", "1", "--n", "2"],
        ["modality", "--std-ratio", "1.5", "1", "--dist", "normal", "0", "1"],
        ["interval", "--engine", "gil-pelaez", "--dist", "normal", "0", "1", "--num", "normal",
         "0", "1"],
        ["pdf", "--engine", "mellin", "--num", "normal", "0", "1", "--interval", "0", "1"],
        # bad values, each on a spec's own flags
        ["pdf", "--std-ratio", "-1", "1", "--interval", "0", "1", "--n", "2"],
        ["modality", "--std-ratio", "-1", "1"],
        ["pdf", "--biv", "1", "2", "1", "1", "1.5", "--interval", "0", "1", "--n", "2"],
        ["pdf", "--hake", *_HAKE[:-1], "0", "--interval", "0", "1", "--n", "2"],
        ["pdf", "--hake", *_HAKE[:-1], "50.7", "--interval", "0", "1", "--n", "2"],
        ["interval", "--engine", "broda-kan", "--hake", *_HAKE[:-1], "inf"],
        ["pdf", "--engine", "broda-kan", "--num", "normal", "x", "1", "--den", "chisq", "5",
         "--auto-interval", "--n", "2"],
        ["pdf", "--engine", "gil-pelaez", "--dist", "chisq", "inf", "--auto-interval", "--n", "2"],
        # --n >= 0, and --k > 0 when given
        ["pdf", "--std-ratio", "1.5", "1", "--interval", "0", "1", "--n", "-3"],
        ["pdf", "--std-ratio", "1.5", "1", "--auto-interval", "--k", "0"],
        ["interval", "--engine", "broda-kan", "--std-ratio", "1.5", "1", "--k", "-1"],
        # the auto window must be finite, as --interval must
        ["interval", "--std-ratio", "1.5", "1", "--k", "1e308"],
        ["pdf", "--engine", "analytic", "--std-ratio", "1.5", "1", "--auto-interval",
         "--k", "1e308", "--n", "3"],
        # --cheb-nodes 0 is a bad node count, not "not given"
        ["pdf", "--engine", "mellin", "--std-ratio", "1.5", "1", "--interval", "0", "1",
         "--n", "3", "--cheb-nodes", "0"],
        # interval refuses a spec its engine does not take
        ["interval", "--engine", "gil-pelaez", "--std-ratio", "1.5", "1"],
        ["interval", "--engine", "analytic", "--num", "normal", "1", "1", "--den", "chisq", "5"],
        # a Cauchy law has no moments to size a window from
        ["interval", "--engine", "gil-pelaez", "--dist", "cauchy", "0", "1"],
        ["interval", "--engine", "broda-kan", "--num", "normal", "1", "0.5", "--den", "cauchy",
         "0.5", "1"],
        # an empty grid still builds its engine, so a spec it refuses exits 1
        ["pdf", "--engine", "mellin", "--biv", "1.5", "1", "1", "1", "0.5",
         "--interval", "0", "1", "--n", "0"],
        ["pdf", "--engine", "broda-kan", "--num", "uniform", "1", "2", "--den", "normal", "1", "1",
         "--interval", "0", "1", "--n", "0"],
        # a factor spec of an unknown family, or with the wrong number of values
        ["pdf", "--engine", "mellin", "--num", "gamma", "1", "--den", "normal", "0", "1",
         "--interval", "0", "1", "--n", "2"],
        ["pdf", "--engine", "mellin", "--num", "normal", "1", "--den", "normal", "0", "1",
         "--interval", "0", "1", "--n", "2"],
        # a grid needs --interval or --auto-interval
        ["pdf", "--std-ratio", "1.5", "1", "--n", "2"],
        # modality reads a normal spec only
        ["modality", "--dist", "normal", "0", "1"],
    ],
)
def test_errors_exit_one(argv, capsys):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1


def test_bench_without_a_spec_exits_one_and_writes_nothing(tmp_path, capsys):
    out = tmp_path / "bench.csv"
    assert main(["bench", "--method", "analytic", "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "error: bench needs --std-ratio A B\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("engine, spec", [
    ("analytic", ["--std-ratio", "1.5", "1"]),
    ("mellin", ["--std-ratio", "1.5", "1"]),
    ("mellin", ["--num", "uniform", "1", "2", "--den", "cauchy", "0.5", "1"]),
    ("broda-kan", ["--hake", *_HAKE]),
    ("gil-pelaez", ["--dist", "normal", "0", "1"]),
])
def test_empty_grid_writes_header_only(engine, spec, capsys):
    # --n 0 is a valid grid on every engine: the CSV header and no rows
    assert main(["pdf", "--engine", engine, *spec, "--interval", "0", "1", "--n", "0"]) == 0
    assert capsys.readouterr().out == "x,value\n"


_REPEATED = [
    ["pdf", "--engine", "analytic", "--std-ratio", "1.5", "1", "--auto-interval", "--n", "7"],
    ["cdf", "--engine", "analytic", "--hake", *_HAKE, "--auto-interval", "--n", "7"],
    ["modality", "--std-ratio", "3", "1.2", "--practical"],
    ["interval", "--engine", "broda-kan", "--std-ratio", "1.5", "1"],
    ["bench", "--std-ratio", "1.5", "1", "--method", "analytic", "--method", "mellin-de",
     "--rel-tol", "1e-3", "--interval", "-1", "1", "--n", "5", "--runs", "1", "--reps", "10",
     "--format", "json"],
]


def test_main_repeats_byte_identical_on_one_parser(tmp_path, capsys):
    # one argument tree serves every call of the process, and parsing leaves
    # nothing in it: a second run of each command, after an exit-1 and an
    # exit-2 call, writes the same bytes (bench: every field but its timings)
    def run(argv):
        out = tmp_path / "out"
        assert main(argv + ["--out", str(out)]) == 0
        if argv[0] != "bench":
            return out.read_bytes()
        return [{k: v for k, v in r.items() if not k.endswith("_s") and k not in
                 ("runtime_cv", "speedup")} for r in json.loads(out.read_text())]

    cli._parser.cache_clear()
    first = [run(argv) for argv in _REPEATED]
    assert main(["pdf", "--std-ratio", "-1", "1", "--interval", "0", "1", "--n", "2"]) == 1
    with pytest.raises(SystemExit):
        main(["cdf", "--engine", "fft", "--std-ratio", "0", "0"])
    assert [run(argv) for argv in _REPEATED] == first
    assert cli._parser.cache_info().misses == 1
    capsys.readouterr()


def test_tiny_numerator_sd_runs_end_to_end(capsys):
    # sigma1 = 1e-170 squares to 0: the window comes from the sds themselves
    assert main(["interval", "--engine", "analytic", "--biv", "1", "2", "1e-170", "1", "0"]) == 0
    assert capsys.readouterr().out == "0,1\n"
    # X1 = 1 to within 1e-20: F(w) = P(1/X2 <= w), X2 ~ N(2, 1), on the window [0, 1]
    assert main(["cdf", "--engine", "analytic", "--biv", "1", "2", "1e-20", "1", "0",
                 "--auto-interval", "--n", "5"]) == 0
    rows = _rows(capsys.readouterr().out)
    phi = lambda x: 0.5 * math.erfc(-x / math.sqrt(2.0))
    want = [phi(-2.0), 2.0 * phi(-2.0), 0.5 + phi(-2.0), phi(2.0 / 3.0) + phi(-2.0),
            phi(1.0) + phi(-2.0)]
    assert [x for x, _ in rows] == [0.0, 0.25, 0.5, 0.75, 1.0]
    for (_, v), w in zip(rows, want):
        assert abs(v - w) <= 1e-15


def test_bad_choice_exits_two():
    with pytest.raises(SystemExit) as exc:
        main(["pdf", "--engine", "fft", "--std-ratio", "0", "0"])
    assert exc.value.code == 2


def test_module_invocation():
    proc = subprocess.run(
        [sys.executable, "-m", "ratiodist", "pdf", "--engine", "analytic",
         "--std-ratio", "0", "0", "--interval", "0", "0.5", "--n", "2"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == "x,value"


def test_interval_broda_kan_hake(capsys):
    # the window comes from the marginal normal CFs the Broda-Kan grid is built from
    rc = main(["interval", "--engine", "broda-kan", "--hake", "40", "65", "15", "18", "0.5", "50"])
    assert rc == 0
    lo, hi = (float(v) for v in capsys.readouterr().out.strip().split(","))
    assert abs(lo - 0.16445) <= 5e-6 and abs(hi - 0.66888) <= 5e-6
    assert math.isclose(0.5 * (lo + hi), 25.0 / 60.0, rel_tol=1e-9)


def test_interval_num_den_same_window_on_mellin_and_broda_kan(capsys):
    # both engines size it from the factors' DensityFn.moments, k = 6
    spec = ["--num", "normal", "1", "1", "--den", "chisq", "5"]
    windows = []
    for engine in ("mellin", "broda-kan"):
        assert main(["interval", "--engine", engine] + spec) == 0
        windows.append(capsys.readouterr().out)
    assert windows[0] == windows[1]


_NORMAL_SPECS = [
    (["--std-ratio", "1.5", "1"], BivNormalParams(1.5, 1.0, 1.0, 1.0, 0.0)),
    (["--biv", "25", "60", "2.4", "2.1", "0.3"], BivNormalParams(25.0, 60.0, 2.4, 2.1, 0.3)),
    (["--biv", "0.3", "2", "0.05", "0.1", "0"], BivNormalParams(0.3, 2.0, 0.05, 0.1, 0.0)),
    (["--biv", "-3", "-7", "0.7", "1.3", "-0.2"], BivNormalParams(-3.0, -7.0, 0.7, 1.3, -0.2)),
    (["--hake", *_HAKE], hake_params(HakeInputs(40.0, 65.0, 15.0, 18.0, 0.5, 50.0))),
    (["--hake", "40.9095", "63.8842", "18.9856", "15.5006", "0.474003", "60"],
     hake_params(HakeInputs(40.9095, 63.8842, 18.9856, 15.5006, 0.474003, 60.0))),
]


@pytest.mark.parametrize("k", [None, 3.7])
@pytest.mark.parametrize("spec, params", _NORMAL_SPECS)
@pytest.mark.parametrize("engine", ["analytic", "mellin"])
def test_interval_normal_spec_equals_evaluation_interval(engine, spec, params, k, capsys):
    # the factors' means and sds through cf.sd_window give evaluation_interval bit for bit
    given = [] if k is None else ["--k", str(k)]
    assert main(["interval", "--engine", engine, *spec, *given]) == 0
    lo, hi = evaluation_interval(params, 2.0 if k is None else k)
    assert capsys.readouterr().out == f"{lo:.17g},{hi:.17g}\n"


@pytest.mark.parametrize("engine", ["analytic", "mellin"])
def test_interval_zero_denominator_mean_takes_union_window(engine, capsys):
    # mu2 = 0 has no practical moments: the union of N(1,1) and N(0,1) +/- 2 sd
    assert main(["interval", "--engine", engine, "--std-ratio", "1", "0"]) == 0
    assert capsys.readouterr().out == "-2,3\n"


def test_mellin_auto_interval_uniform_ratio(capsys):
    # U(1,2)/U(1,2) lies in [0.5, 2]; the window 1 +/- 6 sd (practical
    # variance 2/27) is cut to it, and the density is (4/t^2 - 1)/2 on [1, 2]
    rc = main(["pdf", "--engine", "mellin", "--num", "uniform", "1", "2", "--den", "uniform", "1",
               "2", "--auto-interval", "--n", "5"])
    assert rc == 0
    rows = _rows(capsys.readouterr().out)
    assert rows[0][0] == 0.5 and rows[-1][0] == 2.0
    assert rows[0][1] == 0.0 and rows[-1][1] == 0.0
    assert rows[2][0] == 1.25 and math.isclose(rows[2][1], 0.78, rel_tol=1e-12)


@pytest.mark.parametrize("num, den, support", [
    (["chisq", "3"], ["chisq", "4"], (0.0, math.inf)),
    (["uniform", "1", "2"], ["uniform", "-2", "-1"], (-2.0, -0.5)),
    (["chisq", "3"], ["uniform", "-2", "-1"], (-math.inf, 0.0)),
    (["uniform", "-1", "2"], ["uniform", "1", "2"], (-1.0, 2.0)),
    # real-line ratios keep the moment window bit for bit
    (["normal", "1", "0.5"], ["chisq", "5"], (-math.inf, math.inf)),
    (["chisq", "5"], ["normal", "3", "1"], (-math.inf, math.inf)),
    (["uniform", "1", "2"], ["normal", "1", "1"], (-math.inf, math.inf)),
])
def test_auto_interval_is_cut_to_the_ratio_support(num, den, support, capsys):
    assert main(["interval", "--engine", "mellin", "--num", *num, "--den", *den]) == 0
    got = tuple(float(v) for v in capsys.readouterr().out.split(","))
    moments = [cli._factor(s, cli._DENSITY).moments for s in (num, den)]
    lo, hi = sd_window(*[(mu, math.sqrt(var)) for mu, var in moments], 6.0)
    assert got == (max(lo, support[0]), min(hi, support[1]))


def test_interval_gil_pelaez_normal_reads_exact_moments(capsys):
    # the CF's own moments, not the h = 1e-4 stencil (off by 3.7e-6 of the width)
    assert main(["interval", "--engine", "gil-pelaez", "--dist", "normal", "0.3", "0.05"]) == 0
    lo, hi = (float(v) for v in capsys.readouterr().out.strip().split(","))
    assert abs(lo - 0.0) <= 1e-15 and abs(hi - 0.6) <= 1e-15


@pytest.mark.parametrize("dist, window", [
    (["chisq", "5"], (0.0, 5.0 + 6.0 * math.sqrt(10.0))),
    (["uniform", "1", "2"], (1.0, 2.0)),
    (["normal", "1", "0.5"], (-2.0, 4.0)),  # a law on the real line keeps its moment window
], ids=["chisq", "uniform", "normal"])
def test_dist_auto_interval_is_cut_to_the_law_support(dist, window, capsys):
    assert main(["interval", "--engine", "gil-pelaez", "--dist", *dist]) == 0
    assert tuple(float(v) for v in capsys.readouterr().out.split(",")) == window


def _readme_commands():
    """The ratiodist lines of the README's sh blocks, bench aside."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"```sh\n(.*?)```", text, re.S)
    return [shlex.split(ln)[1:] for block in blocks for ln in block.splitlines()
            if ln.startswith("ratiodist ") and not ln.startswith("ratiodist bench")]


def test_readme_examples_run(capsys):
    commands = _readme_commands()
    assert commands
    for argv in commands:
        assert main(argv) == 0, (argv, capsys.readouterr().err)


def test_gil_pelaez_far_tail_converges(capsys):
    # the CLI keeps the library's abs_floor, so the N(0,1) tail at |x| = 6 converges
    rc = main(["pdf", "--engine", "gil-pelaez", "--dist", "normal", "0", "1",
               "--interval", "-6", "6", "--n", "13", "--rel-tol", "1e-10"])
    assert rc == 0
    rows = _rows(capsys.readouterr().out)
    assert len(rows) == 13
    for x, v in rows:
        assert abs(v - math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)) <= 1e-12


_SPECS = {
    "std-ratio": ["--std-ratio", "1.5", "1"],
    "biv": ["--biv", "25", "60", "2.4", "2.1", "0.3"],
    "hake": ["--hake", "40", "65", "15", "18", "0.5", "50"],
    "num-den": ["--num", "normal", "1", "1", "--den", "chisq", "5"],
    "dist": ["--dist", "normal", "0", "1"],
}
# (engine, subcommand) -> the spec kinds it accepts; every other pair exits 1
_ACCEPTS = {
    ("analytic", "pdf"): {"std-ratio", "biv", "hake"},
    ("analytic", "cdf"): {"std-ratio", "biv", "hake"},
    ("mellin", "pdf"): {"std-ratio", "num-den"},  # correlated --biv/--hake refused
    ("mellin", "cdf"): set(),
    ("broda-kan", "pdf"): {"std-ratio", "biv", "hake", "num-den"},
    ("broda-kan", "cdf"): {"std-ratio", "biv", "hake", "num-den"},
    ("gil-pelaez", "pdf"): {"dist"},
    ("gil-pelaez", "cdf"): {"dist"},
}


def test_engine_table_covers_every_engine():
    assert {e for e, _ in _ACCEPTS} == set(cli.ENGINES)


def _check_grid(rc, captured, refusal):
    """Four finite rows when refusal is None; else exit 1 with one error line
    that contains refusal ("" takes any reason)."""
    if refusal is None:
        assert rc == 0, captured.err
        rows = _rows(captured.out)
        assert len(rows) == 4
        assert all(math.isfinite(x) and math.isfinite(v) for x, v in rows)
    else:
        assert rc == 1
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert refusal in captured.err


@pytest.mark.parametrize("spec", sorted(_SPECS))
@pytest.mark.parametrize("engine, sub", sorted(_ACCEPTS))
def test_engine_table_spec_matrix(engine, sub, spec, capsys):
    argv = [sub, "--engine", engine, *_SPECS[spec], "--auto-interval", "--n", "4",
            "--grid-n", "64"]
    rc = main(argv)
    _check_grid(rc, capsys.readouterr(), None if spec in _ACCEPTS[(engine, sub)] else "")


# one spec of each family of cli._FAMILIES; the explicit interval keeps clear of
# x = 0, where a Cauchy denominator's ratio density is infinite
_FAMILY = {
    "normal": ["normal", "1", "0.5"],
    "chisq": ["chisq", "5"],
    "uniform": ["uniform", "1", "2"],
    "cauchy": ["cauchy", "0.5", "1"],
}
_FAMILY_GRID = ["--interval", "0.5", "1.5", "--n", "4"]
_NO_CF = "decays like 1/t"


def test_family_specs_cover_every_family():
    assert set(_FAMILY) == set(cli._FAMILIES)


@pytest.mark.parametrize("den", sorted(_FAMILY))
@pytest.mark.parametrize("num", sorted(_FAMILY))
@pytest.mark.parametrize("engine, sub", [("mellin", "pdf"), ("mellin", "cdf"),
                                         ("broda-kan", "pdf"), ("broda-kan", "cdf")])
def test_engine_family_matrix_num_den(engine, sub, num, den, capsys):
    # mellin takes every density; broda-kan every CF, and uniform has none
    rc = main([sub, "--engine", engine, "--num", *_FAMILY[num], "--den", *_FAMILY[den],
               *_FAMILY_GRID])
    if engine == "mellin":
        refusal = None if sub == "pdf" else "densities only"
    else:
        refusal = _NO_CF if "uniform" in (num, den) else None
    _check_grid(rc, capsys.readouterr(), refusal)


@pytest.mark.parametrize("family", sorted(_FAMILY))
@pytest.mark.parametrize("sub", ["pdf", "cdf"])
def test_engine_family_matrix_gil_pelaez(sub, family, capsys):
    # chi-square(5)'s CF decays only like |t|^(-5/2) as it oscillates, and the
    # plain DE rule does not converge on it: a capability gap, refused loudly
    rc = main([sub, "--engine", "gil-pelaez", "--dist", *_FAMILY[family], *_FAMILY_GRID])
    refusal = {"chisq": "no convergence", "uniform": _NO_CF}.get(family)
    _check_grid(rc, capsys.readouterr(), refusal)


def test_grid_rows_are_written_as_per_row_formatting_writes_them(monkeypatch, tmp_path):
    # the one-pass writer against the per-row f-string it replaced, on the
    # values that format specially
    special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -2.2250738585072014e-308,
                        1e308, -1.7976931348623157e308, 0.1, 1.0 / 3.0, 123456789.0])
    engine = cli.Engine(frozenset({"normal"}), lambda cfg, xs: (lambda: special[:xs.size], None),
                        False, 2.0)
    monkeypatch.setitem(cli.ENGINES, "analytic", engine)
    out = tmp_path / "grid.csv"
    assert main(["pdf", "--std-ratio", "1", "2", "--interval", "1e-300", "1e300",
                 "--n", str(special.size), "--out", str(out)]) == 0
    xs = np.linspace(1e-300, 1e300, special.size)
    want = "x,value\n" + "".join(f"{x:.17g},{v:.17g}\n" for x, v in zip(xs.tolist(), special.tolist()))
    assert out.read_text(encoding="utf-8") == want
