"""The named checks and the property suite harness."""

from fractions import Fraction as F

import pytest

from treeradon import (
    GenerationError,
    GeodesicError,
    SuiteConfig,
    check_dirac_preserved_extension,
    check_thales,
    comparison_point_distance_sq,
    dirac,
    make_measure,
    path,
    run_suite,
    w2_triangle_holds,
)


class TestThales:
    def test_tripod_strict(self, tripod):
        # dilating the z-Dirac from tip x halves onto o, which is also the
        # midpoint of x and y: lhs 0 < rhs 1 (oracle: both midpoints are o)
        geo = path(tripod, tripod.vertex_point("x"), tripod.vertex_point("y"))
        res = check_thales(tripod, geo, tripod.vertex_point("x"),
                           tripod.vertex_point("y"), dirac(tripod, tripod.vertex_point("z")))
        assert (res.lhs_sq, res.rhs_sq) == (0, 1)
        assert res.relation == "lt"

    def test_supported_measure_equality(self, tripod):
        # 1-D transport oracle: on the segment, halving from x scales every
        # distance by 1/2, so lhs^2 = (1/4) rhs-integral exactly
        geo = path(tripod, tripod.vertex_point("x"), tripod.vertex_point("y"))
        g = tripod.vertex_point("y")
        mu = make_measure(tripod, [
            (tripod.vertex_point("y"), F(1, 2)),
            (g, F(1, 4)),
            (tripod.point(0, F(1, 2)), F(1, 4)),
        ])
        res = check_thales(tripod, geo, tripod.vertex_point("x"), g, mu)
        assert res.relation == "eq"

    def test_dirac_at_g(self, tripod):
        geo = path(tripod, tripod.vertex_point("x"), tripod.vertex_point("y"))
        g = tripod.vertex_point("y")
        res = check_thales(tripod, geo, tripod.vertex_point("x"), g, dirac(tripod, g))
        assert res.lhs_sq == res.rhs_sq == 0

    def test_points_must_lie_on_geodesic(self, tripod):
        geo = path(tripod, tripod.vertex_point("x"), tripod.vertex_point("y"))
        with pytest.raises(GeodesicError):
            check_thales(tripod, geo, tripod.vertex_point("z"),
                         tripod.vertex_point("y"), dirac(tripod, tripod.vertex_point("o")))


class TestDiracExtension:
    def test_star3_passes(self, star3):
        mu = make_measure(star3, [
            (star3.vertex_point("a"), F(1, 2)),
            (star3.point(7, 2), F(1, 2)),
        ])
        out = check_dirac_preserved_extension(star3, star3.vertex_point("c"), mu, horizon=3)
        assert out.passed
        assert out.witnesses and all(w.violated for w in out.witnesses)

    def test_dirac_target_vacuous(self, star3):
        out = check_dirac_preserved_extension(
            star3, star3.vertex_point("c"), dirac(star3, star3.vertex_point("a")), horizon=2
        )
        assert out.passed and out.witnesses == ()

    def test_horizon_must_exceed_one(self, star3):
        with pytest.raises(ValueError):
            check_dirac_preserved_extension(
                star3, star3.vertex_point("c"), dirac(star3, star3.vertex_point("a")), horizon=1
            )


class TestExactHelpers:
    def test_triangle_helper_tight(self):
        # squares of 3, 4, 5: sqrt(25) <= sqrt(9) + sqrt(16) with equality
        assert w2_triangle_holds(F(49), F(9), F(16))
        assert not w2_triangle_holds(F(50), F(9), F(16))

    def test_comparison_point_identity(self):
        # aligned configuration: y between x and z at distance 1 from x on a
        # segment of length 3; at t the comparison distance is (3t-1)^2
        for t in (F(0), F(1, 3), F(1, 2), F(1)):
            val = comparison_point_distance_sq(F(1), F(4), F(9), t)
            assert val == (3 * t - 1) ** 2


class TestRunSuite:
    def test_default_suite_passes(self):
        report = run_suite(SuiteConfig(seed=42, trials=5))
        assert report.ok
        assert all(r.passes == 5 for r in report.properties)

    def test_trials_zero_empty_report(self):
        report = run_suite(SuiteConfig(seed=42, trials=0))
        assert report.ok
        assert all(r.trials == 0 and r.failures == 0 for r in report.properties)

    def test_injected_fault_detected(self):
        report = run_suite(SuiteConfig(seed=42, trials=3, inject_fault=True))
        assert not report.ok
        bad = {r.name for r in report.properties if r.failures}
        assert "radon.roundtrip" in bad
        victim = next(r for r in report.properties if r.name == "radon.roundtrip")
        assert victim.counterexample is not None
        assert "seed" in victim.counterexample

    def test_report_dict_is_duration_free(self):
        report = run_suite(SuiteConfig(seed=42, trials=1))
        payload = report.to_dict()
        assert "duration_seconds" not in payload
        assert payload["ok"] is True
        assert len(payload["properties"]) == len(report.properties)

    @pytest.mark.parametrize("bounds", [
        {"max_vertices": 1},
        {"min_valency": 1, "max_valency": 2},
    ], ids=["one-vertex", "valency-2"])
    def test_bounds_the_generator_cannot_meet_are_refused(self, bounds):
        # finite trees need two vertices and leafless ones valency 3, so
        # trials would fail in the generator, not in the library; the
        # configuration itself stays valid (gen-tree accepts it)
        config = SuiteConfig(trials=20, **bounds)
        with pytest.raises(GenerationError, match="^the property suite needs max_vertices >= 2 "
                                                  "and max_valency >= 3$"):
            run_suite(config)

    @pytest.mark.parametrize("bounds", [
        {"max_vertices": 2},
        {"min_valency": 1, "max_valency": 3},
        {"min_valency": 3, "max_valency": 3},
        {"max_vertices": 2, "max_valency": 3, "max_atoms": 1, "max_denominator": 2},
    ])
    def test_smallest_kept_bounds_pass(self, bounds):
        assert run_suite(SuiteConfig(seed=3, trials=2, **bounds)).ok

    def test_counts_sum_to_trials(self):
        report = run_suite(SuiteConfig(seed=13, trials=4))
        assert all(r.passes + r.failures == r.trials for r in report.properties)
