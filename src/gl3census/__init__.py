"""Exact counts of invertible 3x3 matrices over Z/n by permanent value.

The count is evaluated two independent ways: closed formulas (closed_form) and
exhaustive enumeration (oracle). The verify module cross-checks one against
the other, along with the structural maps (structure_maps) the formulas rest
on; those two load the first time they or a name they export is accessed.
See the CLI (gl3census) for the user-facing surface.
"""

import importlib

from .closed_form import BranchTag, CaseCensusRow, case_rows, count, gl3_order, qr_branch
from .matrices import CLASS_LABELS, ClassLabel, Mat2, Mat3, mat2, mat3, parse_mat3
from .modring import Modulus, NotAUnit, Residue, factorize, residue, totient
from .oracle import (
    CaseCensus,
    CensusTooLarge,
    ClassCensus,
    CountTable,
    case_census,
    census_2x2,
    census_naive,
    census_tiered,
    class_census,
)

__version__ = "0.1.0"

# structure_maps and verify, and the names they export, load on first access
# (PEP 562): no census uses them. numpy and the census engines above stay
# eager, so that a census call imports nothing.
_LAZY = {
    "structure_maps": (
        "EmptinessReport",
        "PivotNotUnit",
        "ShiftNotDivisible",
        "ShiftResult",
        "emptiness_scan",
        "fiber_count",
        "project",
        "psi_shift",
        "witness",
    ),
    "verify": ("CheckResult", "ModulusMismatch", "diff_tables", "run_suite"),
}
_LAZY_NAMES = {name: module for module, names in _LAZY.items() for name in names}


def __getattr__(name):
    module_name = name if name in _LAZY else _LAZY_NAMES.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f"{__name__}.{module_name}")
    value = module if name == module_name else getattr(module, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_LAZY, *_LAZY_NAMES})


__all__ = [
    "BranchTag",
    "CaseCensus",
    "CaseCensusRow",
    "CensusTooLarge",
    "CheckResult",
    "CLASS_LABELS",
    "ClassCensus",
    "ClassLabel",
    "CountTable",
    "EmptinessReport",
    "Mat2",
    "Mat3",
    "Modulus",
    "ModulusMismatch",
    "NotAUnit",
    "PivotNotUnit",
    "Residue",
    "ShiftNotDivisible",
    "ShiftResult",
    "case_census",
    "case_rows",
    "census_2x2",
    "census_naive",
    "census_tiered",
    "class_census",
    "count",
    "diff_tables",
    "emptiness_scan",
    "factorize",
    "fiber_count",
    "gl3_order",
    "mat2",
    "mat3",
    "parse_mat3",
    "project",
    "psi_shift",
    "qr_branch",
    "residue",
    "run_suite",
    "totient",
    "witness",
    "__version__",
]
