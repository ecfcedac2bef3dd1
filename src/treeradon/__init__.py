"""Exact quadratic optimal transport and perpendicular Radon transforms on
locally finite metric trees.

Everything is computed in exact rational arithmetic: Wasserstein-2
distances and optimal plans, displacement interpolation and extension of
geodesics issued from Dirac masses, the combinatorial perpendicular Radon
transform of vertex functions with its closed-form inversion, and
reconstruction of finitely supported measures from their projections onto
complete geodesics. A property suite (``run_suite``) exercises the
geometric guarantees on randomized trees.
"""

import types as _types

from .errors import (
    CompletenessError,
    DomainError,
    FileFormatError,
    GenerationError,
    GeodesicError,
    MeasureError,
    OracleInconsistencyError,
    PointLocationError,
    RadonError,
    SolverError,
    TreeStructureError,
)
from .generate import (
    SuiteConfig,
    gen_measure,
    gen_point,
    gen_tree,
    gen_vertex_function,
    random_rational,
    random_signed_rational,
)
from .geodesics import (
    Cat0Comparison,
    Geodesic,
    check_cat0_triangle,
    geodesic_through_flag,
    midpoint,
    path,
    perpendicular,
    points_aligned,
)
from .measures import (
    Measure,
    RadonSample,
    dirac,
    make_measure,
    pushforward_projection,
    second_moment,
    supported_on,
)
from .radon import (
    DoubleCountIdentity,
    FlagTable,
    ReconstructionResult,
    VertexFunction,
    double_count_check,
    enumerate_flags,
    flag_mass,
    flag_table,
    radon_forward,
    radon_invert,
    radon_oracle,
    reconstruct_measure,
    vertex_function,
)
from .transport import (
    CycleViolation,
    NonextendabilityWitness,
    TransportPlan,
    WassersteinGeodesic,
    check_nonextendable,
    dilate,
    extend_from_dirac,
    interpolate,
    is_cyclically_monotone,
    optimal_plan,
    w2_squared,
)
from .tree import (
    EdgeRecord,
    Flag,
    Subtree,
    Tree,
    TreePoint,
    build_tree,
    point_sort_key,
)
from .verify import (
    DiracExtensionCheck,
    PropertyResult,
    SuiteReport,
    ThalesCheck,
    check_dirac_preserved_extension,
    check_thales,
    comparison_point_distance_sq,
    run_suite,
    w2_squared_enumerated,
    w2_triangle_holds,
)

__version__ = "0.1.0"

# every public name bound above that is not a submodule;
# tests/test_public_api.py pins the list
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, _types.ModuleType))
