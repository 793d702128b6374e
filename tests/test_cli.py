"""Command-line entry points: grids, verdicts, intervals, bench exports."""

import csv
import json
import math
import subprocess
import sys

import pytest

from ratiodist import bench, cli
from ratiodist.cli import main
from ratiodist.normal_ratio import StdRatioParams, evaluation_interval, std_ratio_cdf, std_ratio_pdf


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


def test_bench_checks_out_before_running(monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("bench ran an experiment before checking --out")

    monkeypatch.setattr(bench, "run_experiment", refuse)
    rc = main(["bench", "--std-ratio", "1.5", "1", "--method", "broda-kan",
               "--n", "50", "--runs", "1", "--reps", "10"])
    assert rc == 1
    assert capsys.readouterr().err == "error: bench needs --out PATH for the records file\n"


def test_bench_json(tmp_path):
    out = tmp_path / "bench.json"
    rc = main(["bench", "--std-ratio", "1.5", "1", "--method", "analytic",
               "--interval", "-1", "1", "--n", "5", "--runs", "1", "--reps", "10",
               "--format", "json", "--out", str(out)])
    assert rc == 0
    rows = json.loads(out.read_text())
    assert len(rows) == 2
    assert {r["method_id"] for r in rows} == {"mellin-de@0.001", "analytic"}


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
        # interval refuses a spec its engine does not take
        ["interval", "--engine", "gil-pelaez", "--std-ratio", "1.5", "1"],
        ["interval", "--engine", "analytic", "--num", "normal", "1", "1", "--den", "chisq", "5"],
    ],
)
def test_errors_exit_one(argv, capsys):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1


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


@pytest.mark.parametrize("spec", sorted(_SPECS))
@pytest.mark.parametrize("engine, sub", sorted(_ACCEPTS))
def test_engine_table_spec_matrix(engine, sub, spec, capsys):
    argv = [sub, "--engine", engine, *_SPECS[spec], "--auto-interval", "--n", "4",
            "--grid-n", "64"]
    rc = main(argv)
    captured = capsys.readouterr()
    if spec in _ACCEPTS[(engine, sub)]:
        assert rc == 0, captured.err
        rows = _rows(captured.out)
        assert len(rows) == 4
        assert all(math.isfinite(x) and math.isfinite(v) for x, v in rows)
    else:
        assert rc == 1
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
