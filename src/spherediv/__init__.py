"""spherediv: decide, certify, and construct fractional divisions of spheres by rotations.

An r-tuple of rotations fractionally divides the sphere S^{d-1} when some
nonconstant square-integrable function f has rotated copies summing to the
constant 1 almost everywhere.  The package reduces the question to the
invertibility of finite matrices on spherical-harmonic spaces, certifies
singular cases with explicit verified divisors, implements the known
divisible families, and runs reproducible Monte-Carlo genericity studies.
"""

__version__ = "0.1.0"

from .constructions import (
    CircleAnalysis,
    PlanarDivision,
    analyze_circle,
    circle_bad_angles,
    circle_sum_matrix,
    odd_d4_suffix,
    odd_d4_tuple,
    planar_division,
)
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
from .experiments import (
    GenericityResult,
    GenericityStudy,
    SearchRun,
    SearchSettings,
    cayley_rotation,
    default_free_count,
    run_genericity,
    search_divisible,
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
