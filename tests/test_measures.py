"""Measures, pushforwards, second moments."""

from fractions import Fraction as F

import pytest

from treeradon import (
    GeodesicError,
    MeasureError,
    build_tree,
    dirac,
    make_measure,
    path,
    pushforward_projection,
    second_moment,
    supported_on,
)


class TestMakeMeasure:
    def test_two_atoms(self, tripod):
        mu = make_measure(tripod, [
            (tripod.vertex_point("x"), F(1, 2)),
            (tripod.vertex_point("y"), F(1, 2)),
        ])
        assert len(mu) == 2 and mu.total_mass == 1

    def test_duplicates_merge(self, tripod):
        x = tripod.vertex_point("x")
        mu = make_measure(tripod, [(x, F(1, 2)), (x, F(1, 2))])
        assert mu == dirac(tripod, x)
        assert mu.is_dirac

    def test_wrong_total_rejected(self, tripod):
        with pytest.raises(MeasureError, match="2/3"):
            make_measure(tripod, [
                (tripod.vertex_point("x"), F(1, 3)),
                (tripod.vertex_point("y"), F(1, 3)),
            ])

    def test_nonpositive_mass_rejected(self, tripod):
        with pytest.raises(MeasureError, match="nonpositive"):
            make_measure(tripod, [
                (tripod.vertex_point("x"), F(3, 2)),
                (tripod.vertex_point("y"), F(-1, 2)),
            ])

    def test_empty_rejected(self, tripod):
        with pytest.raises(MeasureError, match="at least one atom"):
            make_measure(tripod, [])

    def test_equivalent_locations_merge(self, tripod):
        # offset 0 on edge (o,x) is the vertex o itself
        mu = make_measure(tripod, [
            (tripod.point(0, 0), F(1, 2)),
            (tripod.vertex_point("o"), F(1, 2)),
        ])
        assert mu.is_dirac


class TestPushforward:
    def test_tripod_split_measure(self, tripod):
        geo = path(tripod, tripod.vertex_point("x"), tripod.vertex_point("y"))
        mu = make_measure(tripod, [
            (tripod.vertex_point("x"), F(1, 2)),
            (tripod.vertex_point("z"), F(1, 2)),
        ])
        sample = pushforward_projection(tripod, geo, mu)
        # z projects to o, which sits at coordinate 1 from the start x
        assert sample.atoms == ((F(0), F(1, 2)), (F(1), F(1, 2)))

    def test_supported_measure_unchanged(self, tripod):
        geo = path(tripod, tripod.vertex_point("x"), tripod.vertex_point("y"))
        mu = make_measure(tripod, [
            (tripod.point(0, F(1, 2)), F(1, 3)),
            (tripod.vertex_point("y"), F(2, 3)),
        ])
        assert supported_on(mu, geo)
        sample = pushforward_projection(tripod, geo, mu)
        assert sample.atoms == ((F(1, 2), F(1, 3)), (F(2), F(2, 3)))
        assert sample.to_measure(tripod) == mu

    def test_dirac_off_geodesic(self, tripod):
        geo = path(tripod, tripod.vertex_point("x"), tripod.vertex_point("y"))
        sample = pushforward_projection(tripod, geo, dirac(tripod, tripod.vertex_point("z")))
        assert sample.atoms == ((F(1), F(1)),)

    def test_mass_is_preserved(self, star3):
        from treeradon import geodesic_through_flag
        geo = geodesic_through_flag(star3, star3.flag("c", 0, 1))
        mu = make_measure(star3, [
            (star3.point(7, 3), F(1, 7)),
            (star3.vertex_point("a"), F(2, 7)),
            (star3.point(2, F(1, 2)), F(4, 7)),
        ])
        assert pushforward_projection(star3, geo, mu).total_mass == 1

    def test_geodesic_of_another_tree_rejected(self, tripod):
        twin = build_tree(tripod.describe())
        geo = path(twin, twin.vertex_point("x"), twin.vertex_point("y"))
        with pytest.raises(GeodesicError, match="different tree"):
            pushforward_projection(tripod, geo, dirac(tripod, tripod.vertex_point("z")))

    def test_non_maximal_geodesic_rejected(self, tripod):
        geo = path(tripod, tripod.vertex_point("x"), tripod.vertex_point("o"))
        with pytest.raises(GeodesicError, match="maximal"):
            pushforward_projection(tripod, geo, dirac(tripod, tripod.vertex_point("z")))


class TestSecondMoment:
    def test_dirac_at_base(self, tripod):
        x = tripod.vertex_point("x")
        assert second_moment(tripod, dirac(tripod, x), x) == 0

    def test_from_center(self, tripod):
        mu = make_measure(tripod, [
            (tripod.vertex_point("x"), F(1, 2)),
            (tripod.vertex_point("y"), F(1, 2)),
        ])
        assert second_moment(tripod, mu, tripod.vertex_point("o")) == 1

    def test_from_tip(self, tripod):
        # oracle: 0*(1/2) + d(x,y)^2*(1/2) = 4/2 = 2
        mu = make_measure(tripod, [
            (tripod.vertex_point("x"), F(1, 2)),
            (tripod.vertex_point("y"), F(1, 2)),
        ])
        assert second_moment(tripod, mu, tripod.vertex_point("x")) == 2
