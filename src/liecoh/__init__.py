"""Exact cohomology of left-invariant involutive structures on compact Lie
groups: classification, Levi-form analysis, root decompositions,
Chevalley-Eilenberg cohomology (plain, relative, bigraded), Kunneth/Bott
assembly, and the small-divisor torus model.

Names load on first use (PEP 562): ``import liecoh`` imports no
submodule, and ``liecoh.NAME`` imports only the submodule that defines
NAME.  ``liecoh.torus`` is always the torus-model submodule; the builtin
abelian algebra is ``liecoh.algebra.torus``.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "scalars": ("GaussianRational", "InputError", "ScalarParseError", "format_scalar", "parse_scalar"),
    "linalg": (
        "EigenSplit",
        "ExactMatrix",
        "Inertia",
        "NonHermitianError",
        "NonSplitError",
        "char_poly",
        "hermitian_inertia",
        "rank_kernel",
        "solve_linear",
        "split_eigen",
    ),
    "algebra": (
        "AlgebraError",
        "ClosureError",
        "LieAlgebra",
        "ParentMismatchError",
        "builtin_algebra",
        "su2",
        "su3",
    ),
    "subalgebra": ("Subalgebra", "parse_span"),
    "classify": (
        "BctReport",
        "ClassificationReport",
        "bct_check",
        "characteristic_space",
        "classify_structure",
        "levi_form",
    ),
    "roots": (
        "PositiveSystem",
        "RootDatum",
        "StandardStructure",
        "build_standard",
        "positive_system",
        "root_decomposition",
    ),
    "cohomology": (
        "BigradedComplex",
        "CochainComplex",
        "CohomologyTable",
        "GModule",
        "bigraded_cohomology",
        "bigraded_complex",
        "ce_cohomology",
        "ce_complex",
        "ce_differential",
        "relative_ce_cohomology",
    ),
    "decompose": (
        "AssemblyReport",
        "bott_dolbeault",
        "full_assembly",
        "killing_form",
        "kunneth_assemble",
    ),
    "torus": (
        "DivisorReport",
        "FourierData",
        "MuSpec",
        "liouville_report",
        "singular_lattice",
        "solve_dprime",
    ),
}

_SUBMODULES = {*_EXPORTS, "cli"}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_HOME, *_SUBMODULES})
