"""spherediv: decide, certify, and construct fractional divisions of spheres by rotations.

An r-tuple of rotations fractionally divides the sphere S^{d-1} when some
nonconstant square-integrable function f has rotated copies summing to the
constant 1 almost everywhere.  The package reduces the question to the
invertibility of finite matrices on spherical-harmonic spaces, certifies
singular cases with explicit verified divisors, implements the known
divisible families, and runs reproducible Monte-Carlo genericity studies.

``import spherediv`` loads numpy and the decision core (``errors``,
``sampling``, ``rotations``, ``harmonics``, ``fischer``, ``circle`` and
``divisibility``), which is all that ``divisibility_test`` needs.  The
names of ``experiments`` (studies and searches) and ``constructions``
(the known divisible families) resolve on first access, through the
module ``__getattr__`` of PEP 562, so a process that only decides tuples
never compiles or runs them.  ``spherediv.X``, ``from spherediv import X``
and ``from spherediv import *`` all bind the defining module's object.
"""

__version__ = "0.1.0"

import importlib

from .divisibility import (
    DegreeRecord,
    DivisibilityReport,
    DivisorFunction,
    HarmonicFunction,
    VerificationResult,
    ZonalBasis,
    build_zonal_basis,
    divisibility_test,
    kernel_witness,
    make_divisor,
    operator_gram,
    operator_matrix,
    verify_divisor,
    weighted_singular_values,
)
from .errors import (
    BasisConstructionError,
    InputDomainError,
    NoFixedPointError,
    NotSingularError,
)
from .harmonics import (
    GegenbauerTable,
    dim_harmonic,
    sphere_area,
    zonal_inner_product,
)
from .rotations import (
    Rotation,
    RotationTuple,
    fixed_point,
    haar_sample,
    planar_rotation,
)
from .sampling import as_rng, derive_rng, uniform_sphere

# each name loaded on first access -> the submodule that defines it
_LAZY = {
    **dict.fromkeys(
        (
            "CircleAnalysis",
            "PlanarDivision",
            "analyze_circle",
            "circle_bad_angles",
            "circle_sum_matrix",
            "odd_d4_suffix",
            "odd_d4_tuple",
            "planar_division",
        ),
        "constructions",
    ),
    **dict.fromkeys(
        (
            "GenericityResult",
            "GenericityStudy",
            "SearchRun",
            "SearchSettings",
            "cayley_rotation",
            "default_free_count",
            "run_genericity",
            "search_divisible",
        ),
        "experiments",
    ),
}

__all__ = [
    "BasisConstructionError",
    "DegreeRecord",
    "DivisibilityReport",
    "DivisorFunction",
    "GegenbauerTable",
    "HarmonicFunction",
    "InputDomainError",
    "NoFixedPointError",
    "NotSingularError",
    "Rotation",
    "RotationTuple",
    "VerificationResult",
    "ZonalBasis",
    "as_rng",
    "build_zonal_basis",
    "derive_rng",
    "dim_harmonic",
    "divisibility_test",
    "fixed_point",
    "haar_sample",
    "kernel_witness",
    "make_divisor",
    "operator_gram",
    "operator_matrix",
    "planar_rotation",
    "sphere_area",
    "uniform_sphere",
    "verify_divisor",
    "weighted_singular_values",
    "zonal_inner_product",
    *_LAZY,
]


def __getattr__(name):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__():
    return sorted({*globals(), *__all__})
