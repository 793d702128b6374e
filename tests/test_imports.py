"""The package's import graph: what a fresh interpreter loads, and what resolves."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

_SRC = Path(__file__).resolve().parents[1] / "src"

_PUBLIC = """
AccuracyWarning BenchRecord BivNormalParams CharFn ChebInterpolant Chebyshev DensityFn Direct
Grid2DConfig GridError HakeInputs IntegrandError InvalidParamsError JointCharFn MODALITY_A0
Modality NonConvergenceError PracticalMoments QuadratureConfig QuadratureError QuadratureResult
RatioDistError RatioTransform SampleSet Sampler SingularProductError StdRatioParams Support
UndecayedCFError auto_grid bivariate_normal_joint_cf broda_kan_cdf broda_kan_pdf_indep
broda_kan_pdf_joint bvn_cdf cauchy_cf cauchy_density cf_decay_range cf_moments cheb_build
cheb_eval_many chi_square_cf chi_square_density chi_square_sampler classify_modality cohens_d
de_integrate eps_max erf erfc evaluation_interval export gil_pelaez_cdf gil_pelaez_pdf
hake_params ks_distance mc_ratio_samples method_ids modality_curve normal_approx_cdf normal_cf
normal_density normal_sampler practical_moments product_joint_cf product_pdf ratio_cdf
ratio_interpolant ratio_pdf ratio_pdf_grid ratio_pdf_hinkley ratio_pdf_phamgia
ratio_practical_moments reference_pdf_grid run_experiment six_sigma_interval std_normal_cdf
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


def test_all_holds_the_82_public_names(package):
    assert len(_PUBLIC) == 82
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


def test_submodules_resolve_after_importing_cli(cli):
    assert cli["submodules"] == {"cf": True, "bench": True}


def test_bench_methods_are_the_cli_table(cli):
    assert cli["methods_shared"]
