"""Numerical engines for distributions of ratios of random variables.

Closed forms for normal ratios (Hinkley 1969; Pham-Gia, Turkkan and
Marchand 2006), Mellin convolution of independent densities by double
exponential quadrature, characteristic-function inversion in one dimension
(Gil-Pelaez 1951) and two (Broda and Kan 2013), modality classification
(Marsaglia 2006), Hake-gain parameterizations, seeded Monte Carlo
cross-checks, and a timed benchmark protocol.

Names load on first use (PEP 562): ``import ratiodist`` imports no
submodule, and the first ``ratiodist.NAME`` (or ``from ratiodist import
NAME``) imports the one module that defines NAME and keeps the value here.
The submodules themselves resolve the same way.
"""

import importlib

__version__ = "0.1.0"

# defining module -> the public names it gives the package
_EXPORTS = {
    "errors": """AccuracyWarning IntegrandError InvalidParamsError NonConvergenceError
                 QuadratureError RatioDistError SingularProductError UndecayedCFError""",
    "special": "bvn_cdf erf erfc std_normal_cdf",
    "quadrature": """ChebInterpolant QuadratureConfig QuadratureResult cheb_build cheb_eval_many
                     de_integrate""",
    "normal_ratio": """MODALITY_A0 BivNormalParams HakeInputs Modality PracticalMoments
                       RatioTransform StdRatioParams classify_modality cohens_d
                       evaluation_interval hake_params modality_curve normal_approx_cdf
                       practical_moments ratio_cdf ratio_pdf_hinkley ratio_pdf_phamgia
                       ratio_practical_moments std_ratio_cdf std_ratio_pdf to_standard""",
    "mellin": """Chebyshev DensityFn Support cauchy_density chi_square_density
                 normal_density product_pdf ratio_interpolant ratio_pdf ratio_pdf_grid
                 uniform_density""",
    "cf": """CharFn Grid2DConfig JointCharFn auto_grid bivariate_normal_joint_cf broda_kan_cdf
             broda_kan_pdf_indep broda_kan_pdf_joint cauchy_cf cf_decay_range cf_moments
             chi_square_cf gil_pelaez_cdf gil_pelaez_pdf normal_cf product_joint_cf
             six_sigma_interval""",
    "oracle": """SampleSet Sampler chi_square_sampler ks_distance mc_ratio_samples normal_sampler
                 uniform_sampler""",
    "bench": "BenchRecord eps_max export run_experiment",
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = sorted(_HOME)


def __getattr__(name: str) -> object:
    """Import the module behind a public name or submodule, and keep the value."""
    if name in _EXPORTS:
        value = importlib.import_module(f".{name}", __name__)
    elif name in _HOME:
        value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list:
    return sorted({*globals(), *_HOME, *_EXPORTS})
