"""Exact quadratic optimal transport and perpendicular Radon transforms on
locally finite metric trees.

Everything is computed in exact rational arithmetic: Wasserstein-2
distances and optimal plans, displacement interpolation and extension of
geodesics issued from Dirac masses, the combinatorial perpendicular Radon
transform of vertex functions with its closed-form inversion, and
reconstruction of finitely supported measures from their projections onto
complete geodesics. A property suite (``run_suite``) exercises the
geometric guarantees on randomized trees.

Importing the package loads none of its modules. Each public name is
served from the module that defines it, which is imported the first time
one of its names is read (PEP 562), so a program that never touches the
property suite never loads ``treeradon.verify``. A module becomes an
attribute of the package once it is imported (``import treeradon.tree``).
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# Each public name under the module that defines it;
# tests/test_public_api.py pins the names.
_EXPORTS = {
    "errors": (
        "CompletenessError", "DomainError", "FileFormatError", "GenerationError",
        "GeodesicError", "MeasureError", "OracleInconsistencyError",
        "PointLocationError", "RadonError", "SolverError", "TreeStructureError",
    ),
    "generate": (
        "SuiteConfig", "gen_measure", "gen_point", "gen_tree", "gen_vertex_function",
        "random_rational", "random_signed_rational",
    ),
    "geodesics": (
        "Cat0Comparison", "Geodesic", "check_cat0_triangle", "geodesic_through_flag",
        "midpoint", "path", "perpendicular", "points_aligned",
    ),
    "measures": (
        "Measure", "RadonSample", "dirac", "make_measure", "pushforward_projection",
        "second_moment", "supported_on",
    ),
    "radon": (
        "DoubleCountIdentity", "FlagTable", "ReconstructionResult", "VertexFunction",
        "double_count_check", "enumerate_flags", "flag_mass", "flag_table",
        "radon_forward", "radon_invert", "radon_oracle", "reconstruct_measure",
        "vertex_function",
    ),
    "transport": (
        "CycleViolation", "NonextendabilityWitness", "TransportPlan",
        "WassersteinGeodesic", "check_nonextendable", "dilate", "extend_from_dirac",
        "interpolate", "is_cyclically_monotone", "optimal_plan", "w2_squared",
    ),
    "tree": (
        "EdgeRecord", "Flag", "Subtree", "Tree", "TreePoint", "build_tree",
        "point_sort_key",
    ),
    "verify": (
        "DiracExtensionCheck", "PropertyResult", "SuiteReport", "ThalesCheck",
        "check_dirac_preserved_extension", "check_thales",
        "comparison_point_distance_sq", "run_suite", "w2_squared_enumerated",
        "w2_triangle_holds",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str) -> object:
    """Import the module that defines the public ``name`` and keep its value."""
    try:
        module = _MODULE_OF[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(_import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(globals().keys() | _MODULE_OF.keys())
