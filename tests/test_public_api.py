"""The package's public names, pinned: adding or removing an export means
editing ``PUBLIC`` below, so every change to the surface shows in a diff."""

import treeradon

PUBLIC = {
    # errors
    "CompletenessError", "DomainError", "FileFormatError", "GenerationError",
    "GeodesicError", "MeasureError", "OracleInconsistencyError",
    "PointLocationError", "RadonError", "SolverError", "TreeStructureError",
    # generate
    "SuiteConfig", "gen_measure", "gen_point", "gen_tree", "gen_vertex_function",
    "random_rational", "random_signed_rational",
    # geodesics
    "Cat0Comparison", "Geodesic", "check_cat0_triangle", "geodesic_through_flag",
    "midpoint", "path", "perpendicular", "points_aligned",
    # measures
    "Measure", "RadonSample", "dirac", "make_measure", "pushforward_projection",
    "second_moment", "supported_on",
    # radon
    "DoubleCountIdentity", "FlagTable", "ReconstructionResult", "VertexFunction",
    "double_count_check", "enumerate_flags", "flag_mass", "flag_table",
    "radon_forward", "radon_invert", "radon_oracle", "reconstruct_measure",
    "vertex_function",
    # transport
    "CycleViolation", "NonextendabilityWitness", "TransportPlan",
    "WassersteinGeodesic", "check_nonextendable", "dilate", "extend_from_dirac",
    "interpolate", "is_cyclically_monotone", "optimal_plan", "w2_squared",
    "w2_squared_enumerated",
    # tree
    "EdgeRecord", "Flag", "Subtree", "Tree", "TreePoint", "build_tree",
    "point_sort_key",
    # verify
    "DiracExtensionCheck", "PropertyResult", "SuiteReport", "ThalesCheck",
    "check_dirac_preserved_extension", "check_thales",
    "comparison_point_distance_sq", "run_suite", "w2_triangle_holds",
}


def test_every_export_resolves():
    for name in treeradon.__all__:
        assert getattr(treeradon, name) is not None, name


def test_no_export_is_private():
    assert [name for name in treeradon.__all__ if name.startswith("_")] == []


def test_exports_are_exactly_the_pinned_list():
    assert len(treeradon.__all__) == len(set(treeradon.__all__))
    assert set(treeradon.__all__) == PUBLIC
