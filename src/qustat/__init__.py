"""Quantum U-statistics: exact finite-n moments and their limit laws.

Public names are loaded from their submodules on first access (PEP 562),
so `import qustat.cli` does not import numpy before the CLI has set its
BLAS thread count.
"""

import importlib

__version__ = "0.1.0"

# submodule -> the public names it defines
_EXPORTS = {
    "apps": ("goodness_kernel", "homogeneity_kernel", "metrology_overlap", "run_test"),
    "ccr": (
        "CCRBasis", "LimitPolynomial", "build_ccr_basis", "fock_moments",
        "hermite_orthogonality_check", "kernel_to_limit", "limit_moment",
        "limit_to_poly", "quasifree_moment_wick",
    ),
    "errors": (
        "BudgetError", "ExpansionBudgetError", "QuStatError", "ToleranceError",
        "ValidationError",
    ),
    "hoeffding": (
        "DegeneracyReport", "HoeffdingComponent", "cond_expectation",
        "hoeffding_project", "kernel_components", "variance_formula",
    ),
    "operators": (
        "DensityMatrix", "HermitianOperator", "Kernel", "SiteSubset", "embed",
        "hermitize", "state_covariance", "symmetrize", "symmetrize_kernel",
    ),
    "serialize": ("matrix_from_json", "matrix_to_json"),
    "ustat": (
        "FluctuationForm", "FluctuationTerm", "UStatistic", "assemble_direct",
        "assemble_fluctuation", "centered_moments", "finite_law",
        "fluctuation_form", "variance_exact",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    if name in _EXPORTS:
        return importlib.import_module("." + name, __name__)
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    return getattr(importlib.import_module("." + module, __name__), name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
