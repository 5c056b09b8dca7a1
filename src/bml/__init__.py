"""Balanced-metric laboratory for holomorphic bundles on P^1 and P^2.

Modules
-------
exactsheaf   exact rational sheaf bookkeeping and filtration invariants
quadrature   graded quadrature grids on P^1 and P^2
bundles      deterministic section bases of twisted bundles
kernels      the evaluation core: blocked GEMM sandwiches, log-dets, B(H)
bergman      Fubini-Study metrics and one-parameter Bergman degenerations
donaldson    energy functionals and asymptotic slope fits
balance      balanced-metric solvers, divergence detection, pinch diagnostics
config       experiment configuration with exact round-trip serialization
reporting    deterministic CSV/JSON emission
acceptance   end-to-end acceptance checks
cli          command-line entry point (``bml``)
"""

from .exactsheaf import (
    FiltrationSpec,
    SheafData,
    split_p1,
    mu,
    m_na,
    j_na,
    m2_slope_prediction,
    weight_sum_identity,
)
from .bundles import BundlePresentation, SectionBasis, split, euler_tp2, section_basis
from .bergman import (
    HermitianForm,
    OnePS,
    MetricField,
    one_ps,
    two_step_one_ps,
    fs_metric,
    bergman_path,
)
from .quadrature import QuadratureGrid, build_grid, build_grid_p1, build_grid_p2
from .donaldson import m2_along_path, m1_curve, asymptotic_slope_fit
from .balance import (
    BalanceState,
    t_iterate,
    lm_minimize,
    divergence_detect,
    delta_diagnostic,
    spectral_constant,
)

__version__ = "0.1.0"

__all__ = [
    "FiltrationSpec",
    "SheafData",
    "split_p1",
    "mu",
    "m_na",
    "j_na",
    "m2_slope_prediction",
    "weight_sum_identity",
    "BundlePresentation",
    "SectionBasis",
    "split",
    "euler_tp2",
    "section_basis",
    "HermitianForm",
    "OnePS",
    "MetricField",
    "one_ps",
    "two_step_one_ps",
    "fs_metric",
    "bergman_path",
    "QuadratureGrid",
    "build_grid",
    "build_grid_p1",
    "build_grid_p2",
    "m2_along_path",
    "m1_curve",
    "asymptotic_slope_fit",
    "BalanceState",
    "t_iterate",
    "lm_minimize",
    "divergence_detect",
    "delta_diagnostic",
    "spectral_constant",
    "__version__",
]
