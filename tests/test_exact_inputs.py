"""Every entry point that takes a number reads it with ``parse_rational``,
so floats, booleans and decimal strings never reach the exact core, and the
range checks after parsing hold."""

from fractions import Fraction as F

import pytest

from treeradon import (
    MeasureError,
    PointLocationError,
    WassersteinGeodesic,
    check_cat0_triangle,
    check_dirac_preserved_extension,
    check_nonextendable,
    comparison_point_distance_sq,
    dirac,
    extend_from_dirac,
    geodesic_through_flag,
    make_measure,
    optimal_plan,
)


def entry_points(star3):
    """One call per numeric argument, taking the value under test."""
    c, a, b = (star3.vertex_point(v) for v in "cab")
    mu = make_measure(star3, [(a, F(1, 2)), (b, F(1, 2))])
    plan = optimal_plan(star3, dirac(star3, c), mu)
    geodesic = geodesic_through_flag(star3, star3.flag("c", 0, 1))
    return {
        "Tree.point": lambda x: star3.point(0, x),
        "Geodesic.point_at": lambda x: geodesic.point_at(x),
        "check_cat0_triangle": lambda x: check_cat0_triangle(star3, a, b, c, x),
        "extend_from_dirac": lambda x: extend_from_dirac(star3, c, mu, x),
        "WassersteinGeodesic horizon": lambda x: WassersteinGeodesic(
            star3, plan, horizon=x).interval,
        "WassersteinGeodesic.at": lambda x: WassersteinGeodesic(star3, plan).at(x),
        "check_nonextendable epsilon": lambda x: check_nonextendable(star3, mu, a, epsilon=x),
        "comparison_point_distance_sq": lambda x: comparison_point_distance_sq(
            F(1), F(1), F(4), x),
        "check_dirac_preserved_extension horizon": lambda x: check_dirac_preserved_extension(
            star3, c, mu, horizon=x),
    }


NAMES = [
    "Tree.point", "Geodesic.point_at", "check_cat0_triangle", "extend_from_dirac",
    "WassersteinGeodesic horizon", "WassersteinGeodesic.at", "check_nonextendable epsilon",
    "comparison_point_distance_sq", "check_dirac_preserved_extension horizon",
]


@pytest.mark.parametrize("name", NAMES)
@pytest.mark.parametrize("value, error, message", [
    (0.5, TypeError, "cannot interpret float"),
    (True, TypeError, "booleans are not rationals"),
    ("1.5", ValueError, "decimal notation is not allowed"),
])
def test_inexact_number_rejected(star3, name, value, error, message):
    call = entry_points(star3)[name]
    with pytest.raises(error, match=message):
        call(value)


@pytest.mark.parametrize("name", NAMES)
def test_rational_string_accepted(star3, name):
    call = entry_points(star3)[name]
    value = "3" if "horizon" in name else "1/2"
    assert call(value) == call(F(value))


def test_range_checks(star3):
    c, a, b = (star3.vertex_point(v) for v in "cab")
    mu = make_measure(star3, [(a, F(1, 2)), (b, F(1, 2))])
    plan = optimal_plan(star3, dirac(star3, c), mu)
    with pytest.raises(ValueError, match="horizon must be positive"):
        WassersteinGeodesic(star3, plan, horizon=0)
    with pytest.raises(ValueError, match="horizon must be positive"):
        WassersteinGeodesic(star3, plan, horizon=F(-1, 2))
    with pytest.raises(ValueError, match="negative extension"):
        check_nonextendable(star3, mu, a, epsilon=F(-1, 3))
    # from b toward a the continuation at ε = 1/2 moves 1 past a; a point
    # 2 out on a's ray is too far to reach
    with pytest.raises(MeasureError, match="not reachable at constant speed"):
        check_nonextendable(star3, mu, a, epsilon=F(1, 2),
                            proposed_continuation=star3.point(3, 2))
    reachable = check_nonextendable(star3, mu, a, epsilon=F(1, 2),
                                    proposed_continuation=star3.point(3, 1))
    assert reachable.violated
    for t in (F(-1, 4), F(5, 4)):
        with pytest.raises(PointLocationError, match="outside \\[0, 1\\]"):
            check_cat0_triangle(star3, a, b, c, t)
