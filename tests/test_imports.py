"""The package's import graph: what a fresh interpreter loads, and what resolves."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

_SRC = Path(__file__).resolve().parents[1] / "src"

_PUBLIC = """
AccuracyWarning BenchRecord BivNormalParams CharFn ChebInterpolant Chebyshev DensityFn
Grid2DConfig HakeInputs IntegrandError InvalidParamsError JointCharFn MODALITY_A0
Modality NonConvergenceError PracticalMoments QuadratureConfig QuadratureError QuadratureResult
RatioDistError RatioTransform SampleSet Sampler SingularProductError StdRatioParams Support
UndecayedCFError auto_grid bivariate_normal_joint_cf broda_kan_cdf broda_kan_pdf_indep
broda_kan_pdf_joint bvn_cdf cauchy_cf cauchy_density cf_decay_range cf_moments cheb_build
cheb_eval_many chi_square_cf chi_square_density chi_square_sampler classify_modality cohens_d
de_integrate eps_max erf erfc evaluation_interval export gil_pelaez_cdf gil_pelaez_pdf
hake_params ks_distance mc_ratio_samples modality_curve normal_approx_cdf normal_cf
normal_density normal_sampler practical_moments product_joint_cf product_pdf ratio_cdf
ratio_interpolant ratio_pdf ratio_pdf_grid ratio_pdf_hinkley ratio_pdf_phamgia
ratio_practical_moments run_experiment six_sigma_interval std_normal_cdf
std_ratio_cdf std_ratio_pdf to_standard uniform_density uniform_sampler
""".split()

_SUBMODULES = ["errors", "special", "quadrature", "normal_ratio", "mellin", "cf", "oracle", "bench"]

# Each probe prints one JSON object of facts about a fresh interpreter.
_PACKAGE_PROBE = """
import json, sys, types
import ratiodist
facts = {"loaded": sorted(m for m in sys.modules if m.startswith("ratiodist.")),
         "dir": sorted(dir(ratiodist)), "all": sorted(ratiodist.__all__)}
facts["submodules"] = {n: isinstance(getattr(ratiodist, n, None), types.ModuleType)
                       for n in SUBMODULES}
facts["missing"] = [n for n in ratiodist.__all__ if not hasattr(ratiodist, n)]
star = {}
exec("from ratiodist import *", star)
facts["star"] = sorted(n for n in star if n != "__builtins__")
print(json.dumps(facts))
"""

_CLI_PROBE = """
import json, sys, types
import ratiodist.cli
facts = {"loaded": sorted(m for m in sys.modules if m.startswith("ratiodist.")),
         "statistics": "statistics" in sys.modules}
import ratiodist
facts["submodules"] = {n: isinstance(getattr(ratiodist, n, None), types.ModuleType)
                       for n in ("cf", "bench")}
facts["methods_shared"] = ratiodist.bench.METHODS is getattr(ratiodist.cli, "METHODS", None)
print(json.dumps(facts))
"""


# Runs one CLI command, its output discarded, and lists what it loaded.
_COMMAND_PROBE = """
import contextlib, io, json, sys
from ratiodist.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    rc = main(ARGV) if ARGV else 0
print(json.dumps({"rc": rc, "loaded": sorted(m for m in sys.modules if m.startswith("ratiodist."))}))
"""


def _probe(code):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(_SRC), *filter(None, [os.environ.get("PYTHONPATH")])]))
    code = f"SUBMODULES = {_SUBMODULES!r}\n{code}"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


@pytest.fixture(scope="module")
def package():
    return _probe(_PACKAGE_PROBE)


@pytest.fixture(scope="module")
def cli():
    return _probe(_CLI_PROBE)


def test_import_ratiodist_loads_no_submodule(package):
    assert package["loaded"] == []


def test_all_holds_the_78_public_names(package):
    assert len(_PUBLIC) == 78
    assert package["all"] == sorted(_PUBLIC)
    assert package["missing"] == []


def test_every_submodule_resolves_on_the_package(package):
    assert package["submodules"] == {n: True for n in _SUBMODULES}


def test_star_import_binds_exactly_all_and_dir_lists_it(package):
    assert package["star"] == package["all"]
    assert set(package["all"]) <= set(package["dir"])


def test_import_cli_loads_neither_bench_nor_oracle_nor_statistics(cli):
    assert not {"ratiodist.bench", "ratiodist.oracle"} & set(cli["loaded"])
    assert not cli["statistics"]


def test_import_bench_loads_the_cli_and_no_oracle():
    # the bench's accuracy reference is the closed form itself, not a Monte Carlo helper
    loaded = _probe("import json, sys\nimport ratiodist.bench\n"
                    "print(json.dumps(sorted(m for m in sys.modules if m.startswith('ratiodist.'))))")
    assert loaded == sorted(f"ratiodist.{m}" for m in ("bench", "cli", "errors", "normal_ratio",
                                                       "special"))


def test_submodules_resolve_after_importing_cli(cli):
    assert cli["submodules"] == {"cf": True, "bench": True}


def test_bench_methods_are_the_cli_table(cli):
    assert cli["methods_shared"]


_BASE = {"cli", "errors", "normal_ratio", "special"}
_MELLIN, _CF = _BASE | {"mellin", "quadrature"}, _BASE | {"cf", "quadrature"}
_HAKE = ["--hake", "10", "15", "4", "4.5", "0.6", "30"]

# case -> (argv, or None to import ratiodist.cli only; the ratiodist modules loaded after it)
_COMMANDS = {
    "import-cli": (None, _BASE),
    "modality": (["modality", "--std-ratio", "2.1", "1"], _BASE),
    "interval": (["interval", "--std-ratio", "1.5", "1"], _BASE),
    "analytic-pdf-hake": (["pdf", *_HAKE, "--auto-interval", "--n", "5"], _BASE),
    "analytic-cdf-hake": (["cdf", *_HAKE, "--auto-interval", "--n", "5"], _BASE),
    "analytic-pdf-std-ratio": (["pdf", "--std-ratio", "1.5", "1", "--auto-interval", "--n", "5"],
                               _BASE),
    "analytic-cdf-std-ratio": (["cdf", "--std-ratio", "1.5", "1", "--auto-interval", "--n", "5"],
                               _BASE),
    "mellin-pdf": (["pdf", "--engine", "mellin", "--std-ratio", "1.5", "1", "--auto-interval",
                    "--n", "5"], _MELLIN),
    "mellin-pdf-cheb": (["pdf", "--engine", "mellin", "--num", "normal", "1", "0.5", "--den",
                         "chisq", "5", "--interval", "0.1", "1", "--n", "5", "--cheb-nodes", "17"],
                        _MELLIN),
    "broda-kan-pdf": (["pdf", "--engine", "broda-kan", "--biv", "1", "2", "0.5", "0.7", "0.3",
                       "--interval", "0", "1", "--n", "5", "--grid-n", "64"], _CF),
    "gil-pelaez-cdf": (["cdf", "--engine", "gil-pelaez", "--dist", "normal", "0", "1",
                        "--interval", "-1", "1", "--n", "5"], _CF),
    # a num-den or dist window reads the factors' DensityFn.moments, from mellin
    "broda-kan-num-den-window": (["pdf", "--engine", "broda-kan", "--num", "normal", "1", "0.5",
                                  "--den", "chisq", "5", "--auto-interval", "--n", "5",
                                  "--grid-n", "64"], _CF | _MELLIN),
    "interval-num-den": (["interval", "--num", "normal", "1", "0.5", "--den", "chisq", "5"],
                         _MELLIN),
    "gil-pelaez-dist-window": (["cdf", "--engine", "gil-pelaez", "--dist", "normal", "0", "1",
                                "--auto-interval", "--n", "5"], _CF | _MELLIN),
}


@pytest.mark.parametrize("case", _COMMANDS)
def test_a_command_loads_only_the_engine_it_runs(case):
    argv, loaded = _COMMANDS[case]
    facts = _probe(_COMMAND_PROBE.replace("ARGV", repr(argv)))
    assert facts["rc"] == 0
    assert facts["loaded"] == sorted(f"ratiodist.{m}" for m in loaded)
