"""The named checks and the property suite harness."""

import itertools
import json
import random
from fractions import Fraction as F
from types import SimpleNamespace

import pytest
from hypothesis import example, given, strategies as st

from common import monotone_coupling
from conftest import DEEP, profile_settings
from treeradon import (
    GenerationError,
    GeodesicError,
    SuiteConfig,
    VertexFunction,
    build_tree,
    check_dirac_preserved_extension,
    check_thales,
    comparison_point_distance_sq,
    dirac,
    enumerate_flags,
    flag_mass,
    gen_tree,
    geodesic_through_flag,
    make_measure,
    path,
    perpendicular,
    run_suite,
    w2_squared_enumerated,
    w2_triangle_holds,
)
from treeradon import io, verify


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
        with pytest.raises(GeodesicError, match="^g must lie on the geodesic$"):
            check_thales(tripod, geo, tripod.vertex_point("x"),
                         tripod.vertex_point("z"), dirac(tripod, tripod.vertex_point("o")))


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


class TestEnumerationOracle:
    def test_more_than_six_atoms_refused(self, star3):
        seven = make_measure(star3, [(star3.point(3, k), F(1, 7)) for k in range(1, 8)])
        one = dirac(star3, star3.vertex_point("c"))
        for mu, nu in ((seven, one), (one, seven)):
            with pytest.raises(ValueError, match="^enumeration oracle is limited to small supports$"):
                w2_squared_enumerated(star3, mu, nu)


# The oracle searches on ints, the masses over the lcm of their denominators
# and the squared distances over the lcm of theirs. In the closed forms
# below neither lcm is one of its own denominators: the masses lie over 15,
# 21, 35 and 7 (lcm 105), and a tripod with legs 1/2, 2/3 and 3/5 puts the
# squared distances over 4, 9, 25 and their products.
SPLIT_MASSES = {
    1: (F(1),),
    2: (F(1, 3), F(2, 3)),
    3: (F(1, 15), F(1, 21), F(31, 35)),
    4: (F(1, 15), F(1, 21), F(1, 35), F(6, 7)),
    5: (F(1, 15), F(1, 21), F(1, 35), F(1, 7), F(5, 7)),
    6: (F(1, 15), F(1, 21), F(1, 35), F(1, 7), F(1, 5), F(18, 35)),
}


@pytest.mark.parametrize("count", sorted(SPLIT_MASSES))
def test_enumeration_with_a_dirac_is_the_second_moment(count):
    # from (or to) a Dirac at x the only coupling is the trivial one, so
    # W2² = Σ m·d²(x, y), each d² taken from tree.distance
    tree = build_tree({
        "vertices": ["o", "x", "y", "z"],
        "edges": [("o", "x", F(1, 2)), ("o", "y", F(2, 3)), ("o", "z", F(3, 5))],
    })
    points = [tree.vertex_point(v) for v in ("o", "x", "y", "z")]
    points += [tree.point(0, F(1, 4)), tree.point(1, F(1, 3)), tree.point(2, F(2, 5))]
    for x in points:
        targets = [p for p in points if p != x][:count]
        nu = make_measure(tree, zip(targets, SPLIT_MASSES[count]))
        expected = sum((m * tree.distance(x, y) ** 2 for y, m in nu.atoms), F(0))
        assert w2_squared_enumerated(tree, dirac(tree, x), nu) == expected
        assert w2_squared_enumerated(tree, nu, dirac(tree, x)) == expected


SIDE = 6 if DEEP else 5


@given(st.integers(0, 2**32 - 1), st.integers(1, SIDE), st.integers(1, SIDE), st.booleans())
@example(seed=0, n=SIDE, m=SIDE, equal=False)
@profile_settings(8)
def test_enumeration_on_one_geodesic_is_the_monotone_cost(seed, n, m, equal):
    """Both measures on one flag geodesic, where the monotone coupling is
    the unique optimal plan; up to 5×5 atoms in tier-1 and the oracle's
    own limit, 6×6, under ``TREERADON_SOLVER_PROFILE=solver-deep``."""
    rng = random.Random(seed)
    tree = gen_tree(SuiteConfig(seed=seed, max_vertices=12, max_denominator=6), "complete", rng)
    geodesic = geodesic_through_flag(tree, rng.choice(enumerate_flags(tree)))

    def on_geodesic(count):
        coordinates = set()
        while len(coordinates) < count:
            coordinates.add(F(rng.randint(-60, 60), rng.randint(1, 4)))
        weights = [1 if equal else rng.randint(1, 9) for _ in coordinates]
        total = sum(weights)
        return [(c, F(w, total)) for c, w in zip(sorted(coordinates), weights)]

    xs, ys = on_geodesic(n), on_geodesic(m)
    mu, nu = (make_measure(tree, [(geodesic.point_at(c), mass) for c, mass in atoms])
              for atoms in (xs, ys))
    expected = sum((mass * (x - y) ** 2 for x, y, mass in monotone_coupling(xs, ys)), F(0))
    assert w2_squared_enumerated(tree, mu, nu) == expected


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


def returning(**fields):
    """A stand-in that ignores its arguments and returns an object with
    ``fields`` as attributes."""
    return lambda *args, **kwargs: SimpleNamespace(**fields)


def constant(value):
    return lambda *args, **kwargs: value


def in_turn(*answers):
    """A stand-in that gives ``answers`` in turn, over and over."""
    answers = itertools.cycle(answers)
    return lambda *args: next(answers)


def counting():
    """A stand-in for ``w2_squared`` whose every answer exceeds the last."""
    count = itertools.count()
    return lambda *args: F(next(count))


def every_other_off_by_one(fn):
    """``fn`` with every second answer one too large."""
    calls = itertools.count()
    return lambda *args: fn(*args) + next(calls) % 2


def negated_perpendicular(tree, flag):
    real = perpendicular(tree, flag)
    return SimpleNamespace(vertices=real.vertices, contains=lambda point: not real.contains(point))


def fresh_atoms(tree, geodesic, mu):
    """A pushforward whose atoms differ from every other answer's."""
    return SimpleNamespace(atoms=object(), to_measure=lambda tree: mu)


# Per property: stand-ins that each make one of its checks fail on the
# first trial, and a phrase of the detail that check reports. A stand-in
# maps names reached from verify's namespace to their replacements; a
# Tree.distance stand-in answers the property's distance queries in the
# order it asks them.
FORCED = {
    "tree.metric_axioms": [
        ({"path": returning(length=F(-1))}, "path length != distance"),
        ({"Tree.distance": in_turn(F(0), F(1))}, "asymmetry at"),
        ({"Tree.distance": constant(F(1))}, "d(p,p) != 0 at"),
        ({"Tree.distance": constant(F(0))}, "zero distance"),
        ({"Tree.distance": in_turn(F(1), F(1), F(0), F(3), F(1))}, "triangle violated at"),
    ],
    "tree.projection_lipschitz": [
        ({"geodesic_through_flag": returning(project=lambda p: object())},
         "projection not idempotent"),
        ({"Tree.distance": in_turn(F(1), F(0))}, "projection expands"),
    ],
    "tree.perpendicular_level_set": [
        ({"perpendicular": negated_perpendicular}, "perpendicular membership")],
    "tree.cat0_inequality": [
        ({"check_cat0_triangle": returning(holds=False)}, "inequality violated at t=0"),
        ({"points_aligned": constant(True),
          "check_cat0_triangle": returning(holds=True, lhs=F(0), rhs=F(1))},
         "aligned triple not equal at t=0"),
        ({"points_aligned": constant(False),
          "check_cat0_triangle": returning(holds=True, lhs=F(0), rhs=F(0), strict=False)},
         "non-aligned triple not strict at t=1/4"),
    ],
    "measures.pushforward_mass": [
        ({"pushforward_projection": returning(total_mass=F(0))}, "pushforward mass 0")],
    "measures.pushforward_idempotent": [
        ({"pushforward_projection": fresh_atoms}, "projection is not idempotent")],
    "measures.pushforward_contracts": [({"w2_squared": counting()}, "pushforward expanded")],
    "transport.plan_marginals": [({"optimal_plan": returning(couplings=())}, "marginals drifted")],
    "transport.w2_triangle": [({"w2_triangle_holds": constant(False)}, "triangle fails")],
    "transport.geodesic_property": [({"w2_squared": constant(F(-1))}, "interpolation: W2^2")],
    "transport.optimal_plan_monotone": [
        ({"is_cyclically_monotone": constant(False)}, "optimal plan not monotone")],
    "transport.solver_matches_enumeration": [
        ({"w2_squared": constant(F(-1))}, "simplex -1 != enumeration")],
    "transport.dirac_extension": [
        ({"check_dirac_preserved_extension": returning(passed=False)},
         "dirac extension check failed")],
    "radon.roundtrip": [
        ({"radon_invert": constant(VertexFunction({"nowhere": F(1)}))}, "round trip failed")],
    "radon.double_counting": [
        ({"double_count_check": returning(holds=False, lhs=F(0), rhs=F(1))},
         "identity fails at")],
    "radon.injectivity_fixed_total": [
        ({"radon_forward": constant(None)}, "distinct functions with equal total share a table")],
    "radon.reconstruction_roundtrip": [
        ({"reconstruct_measure": returning(measure=SimpleNamespace(atoms=()))},
         "reconstruction mismatch")],
    "radon.flag_mass_refinement": [
        ({"flag_mass": constant(F(-1))}, "disagrees with branch masses"),
        ({"flag_mass": every_other_off_by_one(flag_mass)}, "refinement step"),
    ],
    "verify.thales_criterion": [
        ({"check_thales": returning(relation="gt")}, "branching configuration gave gt")],
    "verify.cat0_strictness_calibration": [
        ({"comparison_point_distance_sq": constant(F(-1))},
         "comparison-triangle coordinates disagree at t=0")],
}
FORCED_CASES = [
    pytest.param(name, stand_ins, detail, id=name if k == 0 else f"{name}-{k + 1}")
    for name, cases in sorted(FORCED.items()) for k, (stand_ins, detail) in enumerate(cases)
]


def run_alone(monkeypatch, name, check, config):
    """The suite's report on one property."""
    monkeypatch.setattr(verify, "_PROPERTIES", ((name, check),))
    report = run_suite(config)
    (result,) = report.properties
    return report, result


def test_every_property_is_forced_once():
    assert sorted(FORCED) == sorted(name for name, _ in verify._PROPERTIES)
    assert all(FORCED.values())


@pytest.mark.parametrize("name, stand_ins, detail", FORCED_CASES)
def test_a_forced_failure_is_reported(monkeypatch, tmp_path, name, stand_ins, detail):
    for target, stand_in in stand_ins.items():
        monkeypatch.setattr(f"treeradon.verify.{target}", stand_in)
    report, result = run_alone(monkeypatch, name, dict(verify._PROPERTIES)[name],
                               SuiteConfig(seed=1, trials=1))
    assert (result.passes, result.failures) == (0, 1)
    example = result.counterexample
    assert detail in example["detail"] and "tree" in example
    assert example["seed"] == f"1:{name}:0"
    out = tmp_path / "report.json"
    io.save_json(report.to_dict(), out)
    assert json.loads(out.read_text()) == json.loads(json.dumps(report.to_dict()))


def boom(cfg, rng):
    raise ZeroDivisionError("boom")


FLOOR = {"max_vertices": 2, "max_denominator": 2, "max_atoms": 1}


def test_a_raising_property_is_reported_with_its_seed(monkeypatch):
    # at the floor bounds there is nothing to shrink
    _, result = run_alone(monkeypatch, "boom", boom, SuiteConfig(seed=5, trials=1, **FLOOR))
    assert result.failures == 1
    assert result.counterexample == {"detail": "exception: ZeroDivisionError('boom')",
                                     "seed": "5:boom:0"}


def test_a_property_raising_while_shrinking_is_reported(monkeypatch):
    _, result = run_alone(monkeypatch, "boom", boom, SuiteConfig(seed=5, trials=1))
    assert result.counterexample == {
        "detail": "exception during shrink: ZeroDivisionError('boom')",
        "shrunk_bounds": FLOOR,
        "seed": "5:boom:0",
    }


def test_no_smaller_counterexample_keeps_the_original(monkeypatch):
    start = SuiteConfig(seed=5, trials=1)

    def only_at_start(cfg, rng):
        return {"detail": "fails at the starting bounds"} if cfg == start else None

    _, result = run_alone(monkeypatch, "only", only_at_start, start)
    assert result.failures == 1
    assert result.counterexample == {"detail": "fails at the starting bounds",
                                     "seed": "5:only:0"}
