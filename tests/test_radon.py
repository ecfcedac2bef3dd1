"""Combinatorial Radon transform, inversion, flag masses, reconstruction."""

import pickle
import random
import re
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from treeradon import (
    OracleInconsistencyError,
    PointLocationError,
    RadonError,
    RadonSample,
    SuiteConfig,
    Tree,
    TreePoint,
    VertexFunction,
    double_count_check,
    dirac,
    enumerate_flags,
    flag_mass,
    flag_table,
    gen_measure,
    gen_tree,
    gen_vertex_function,
    make_measure,
    perpendicular,
    pushforward_projection,
    radon_forward,
    radon_invert,
    radon_oracle,
    reconstruct_measure,
    vertex_function,
)


def signed_oracle(tree, parts):
    """Answers for the signed combination Σ weight·δ_point, which no
    ``Measure`` can hold: each part's projection, scaled and merged."""
    def oracle(geodesic):
        merged = {}
        for weight, point in parts:
            for c, m in pushforward_projection(tree, geodesic, dirac(tree, point)).atoms:
                merged[c] = merged.get(c, F(0)) + weight * m
        return RadonSample(geodesic, tuple(sorted((c, m) for c, m in merged.items() if m)))

    return oracle


def brute_flag_value(tree, h, flag):
    """Independent route: explicit component split, then the vertex sum."""
    return sum((h.value(v) for v in perpendicular(tree, flag).vertices), F(0))


class TestEnumerateFlags:
    def test_star3_count(self, star3):
        assert len(enumerate_flags(star3)) == 12  # 4 vertices x C(3,2)

    def test_valency_three_contributes_three(self, star3):
        assert sum(1 for f in enumerate_flags(star3) if f.vertex == "c") == 3

    def test_leaf_contributes_none(self, tripod):
        flags = enumerate_flags(tripod)
        assert len(flags) == 3
        assert all(f.vertex == "o" for f in flags)


class TestForward:
    def test_star3_values(self, star3):
        h = vertex_function(star3, {"c": 1, "a": 2, "b": 3, "d": 4})
        table = radon_forward(star3, h)
        assert table.value(star3.flag("c", 0, 1)) == 5   # h(c) + h(d)
        assert table.value(star3.flag("a", 3, 4)) == 10  # whole vertex set

    def test_zero_function(self, star3):
        table = radon_forward(star3, vertex_function(star3, {}))
        assert all(v == 0 for v in table.values.values())

    def test_matches_brute_force_split(self, star3):
        h = vertex_function(star3, {"c": F(7, 3), "a": -2, "b": F(1, 5), "d": 0})
        table = radon_forward(star3, h)
        for flag in enumerate_flags(star3):
            assert table.value(flag) == brute_flag_value(star3, h, flag)


def two_hubs():
    """Vertices a and b on one edge, with two rays at each: flags (a, {0,1}),
    (a, {0,2}), (a, {1,2}), (b, {0,3}), (b, {0,4}), (b, {3,4})."""
    return Tree(["a", "b"], [("a", "b", 1), ("a", None, None), ("a", None, None),
                             ("b", None, None), ("b", None, None)])


class TestForwardInputs:
    """``radon_forward`` given a hand-built ``VertexFunction``, which
    ``vertex_function`` has not checked."""

    def test_a_key_off_the_tree_is_refused(self):
        # it would count in the total but on no vertex: the flags would read
        # 6, 6, 6, 0, 0, 6 instead of 1, 1, 1, 0, 0, 1
        with pytest.raises(RadonError, match="'zz', not a vertex of the tree"):
            radon_forward(two_hubs(), VertexFunction({"a": 1, "zz": 5}))

    def test_an_alias_key_names_its_vertex(self):
        tree = Tree([0, 1], [(0, 1, 1), (0, None, None), (0, None, None),
                             (1, None, None), (1, None, None)])
        table = radon_forward(tree, VertexFunction({True: 2}))
        assert table == radon_forward(tree, vertex_function(tree, {1: 2}))

    @pytest.mark.parametrize("value", [0.5, "1/2", True, None])
    def test_a_value_that_is_not_an_int_or_a_fraction_is_refused(self, value):
        message = f"value {value!r} at vertex 'b' is not an int or a Fraction"
        with pytest.raises(RadonError, match=re.escape(message)):
            radon_forward(two_hubs(), VertexFunction({"a": F(1, 3), "b": value}))

    def test_every_entry_is_a_fraction(self):
        table = radon_forward(two_hubs(), VertexFunction({"a": 1, "b": 2}))
        assert table.entries == (1, 1, 3, 2, 2, 3)
        assert {type(entry) for entry in table.entries} == {F}


@pytest.mark.parametrize("call, message", [
    (lambda tree, h: radon_invert(tree, "x", 1), "the flag table is a str, not a FlagTable"),
    (lambda tree, h: radon_invert(tree, None, 1),
     "the flag table is a NoneType, not a FlagTable"),
    (lambda tree, h: double_count_check(tree, h, "a", "x"),
     "the flag table is a str, not a FlagTable"),
    (lambda tree, h: double_count_check(tree, "x", "a"),
     "the vertex function is a str, not a VertexFunction"),
    (lambda tree, h: radon_forward(tree, "x"),
     "the vertex function is a str, not a VertexFunction"),
    (lambda tree, h: radon_forward(tree, {"a": 1}),
     "the vertex function is a dict, not a VertexFunction"),
    (lambda tree, h: vertex_function(tree, "x"), "the mapping is a str, not a Mapping"),
    (lambda tree, h: flag_table(tree, [1]), "the mapping is a list, not a Mapping"),
    (lambda tree, h: vertex_function("t", {"a": 1}), "the tree is a str, not a Tree"),
    (lambda tree, h: flag_table(None, {}), "the tree is a NoneType, not a Tree"),
    (lambda tree, h: radon_forward("t", h), "the tree is a str, not a Tree"),
    (lambda tree, h: radon_invert(None, radon_forward(tree, h), 1),
     "the tree is a NoneType, not a Tree"),
    (lambda tree, h: double_count_check("t", h, "a"), "the tree is a str, not a Tree"),
    (lambda tree, h: reconstruct_measure(None, radon_oracle(tree, dirac(tree, TreePoint("a")))),
     "the tree is a NoneType, not a Tree"),
], ids=["invert-str", "invert-none", "double-count-table", "double-count-h", "forward-str",
        "forward-dict", "vertex-function-str", "flag-table-list", "vertex-function-tree",
        "flag-table-tree", "forward-tree", "invert-tree", "double-count-tree",
        "reconstruct-tree"])
def test_a_kernel_names_an_argument_of_the_wrong_kind(star3, call, message):
    # named by its type, not met by an AttributeError inside the kernel
    h = vertex_function(star3, {"c": 1, "a": F(2, 3)})
    with pytest.raises(RadonError) as info:
        call(star3, h)
    assert str(info.value) == message


def test_vertex_function_rejects_an_unknown_vertex(star3):
    with pytest.raises(PointLocationError, match="unknown vertex 'nope'"):
        vertex_function(star3, {"c": 1, "nope": 2})


def test_cached_total_keeps_equality_and_pickling(star3):
    h = vertex_function(star3, {"c": 1, "a": F(2, 3)})
    assert h.total == F(5, 3)
    assert h == vertex_function(star3, {"a": F(2, 3), "c": 1})
    assert pickle.loads(pickle.dumps(h)) == h


class TestDoubleCount:
    def test_star3_hub(self, star3):
        # oracle: exhaustive flag sums at c computed by the component split
        h = vertex_function(star3, {"c": 1, "a": 2, "b": 3, "d": 4})
        lhs = sum(brute_flag_value(star3, h, star3.flag("c", e, f))
                  for e, f in [(0, 1), (0, 2), (1, 2)])
        identity = double_count_check(star3, h, "c")
        assert identity.lhs == lhs == 12
        assert identity.holds

    def test_zero_function(self, star3):
        identity = double_count_check(star3, vertex_function(star3, {}), "a")
        assert identity.lhs == identity.rhs == 0

    def test_indicator_pascal(self, star3):
        # h = 1 at x of valency k: lhs = C(k,2), rhs = C(k-1,2) + (k-1)
        identity = double_count_check(star3, vertex_function(star3, {"c": 1}), "c")
        assert identity.lhs == 3 and identity.rhs == 1 + 2
        assert identity.holds

    def test_leaf_rejected(self, tripod):
        with pytest.raises(RadonError):
            double_count_check(tripod, vertex_function(tripod, {}), "x")


class TestInvert:
    def test_round_trip(self, star3):
        h = vertex_function(star3, {"c": 1, "a": 2, "b": 3, "d": 4})
        assert radon_invert(star3, radon_forward(star3, h), 10) == h

    def test_zero_table(self, star3):
        table = radon_forward(star3, vertex_function(star3, {}))
        assert radon_invert(star3, table, 0) == vertex_function(star3, {})

    def test_hub_value_formula(self, star3):
        # (1/2)(5+4+3) - (1/2)*10 = 1, flag sums produced by the forward map
        h = vertex_function(star3, {"c": 1, "a": 2, "b": 3, "d": 4})
        table = radon_forward(star3, h)
        flag_sum = sum(table.value(star3.flag("c", e, f))
                       for e, f in [(0, 1), (0, 2), (1, 2)])
        assert flag_sum == 12
        assert radon_invert(star3, table, 10).value("c") == F(1, 2) * flag_sum - F(1, 2) * 10 + 0

    def test_low_valency_rejected(self, tripod):
        with pytest.raises(RadonError, match="valency"):
            radon_invert(tripod, flag_table(tripod, {}), 0)

    def test_incomplete_table_rejected(self, star3):
        with pytest.raises(RadonError, match="no entry"):
            radon_invert(star3, flag_table(star3, {}), 0)

    def test_negative_and_zero_values(self, star3):
        h = vertex_function(star3, {"c": F(-3, 7), "a": 0, "b": F(2, 5), "d": -1})
        assert radon_invert(star3, radon_forward(star3, h), h.total) == h


class TestFlagMass:
    def test_both_atoms_inside(self, star3):
        mu = make_measure(star3, [
            (star3.vertex_point("c"), F(1, 2)),
            (star3.vertex_point("d"), F(1, 2)),
        ])
        assert flag_mass(star3, mu, star3.flag("c", 0, 1)) == 1

    def test_only_hub_inside(self, star3):
        mu = make_measure(star3, [
            (star3.vertex_point("c"), F(1, 2)),
            (star3.vertex_point("d"), F(1, 2)),
        ])
        assert flag_mass(star3, mu, star3.flag("c", 0, 2)) == F(1, 2)

    def test_ray_atom_projects_to_hub(self, star3):
        mu = dirac(star3, star3.point(3, F(1, 2)))  # beyond a
        assert flag_mass(star3, mu, star3.flag("c", 1, 2)) == 1

    def test_equals_perpendicular_mass(self, star3):
        mu = make_measure(star3, [
            (star3.point(5, 2), F(1, 4)),
            (star3.vertex_point("c"), F(1, 4)),
            (star3.point(2, F(1, 3)), F(1, 2)),
        ])
        for flag in enumerate_flags(star3):
            perp = perpendicular(star3, flag)
            expected = sum((m for p, m in mu.atoms if perp.contains(p)), F(0))
            assert flag_mass(star3, mu, flag) == expected


class TestReconstruction:
    def test_mixed_measure(self, star3):
        hidden = make_measure(star3, [
            (star3.vertex_point("c"), F(1, 4)),
            (star3.vertex_point("a"), F(1, 4)),
            (star3.point(1, F(1, 3)), F(1, 2)),
        ])
        result = reconstruct_measure(star3, radon_oracle(star3, hidden))
        assert result.measure == hidden
        assert result.interior_total == F(1, 2)

    def test_single_vertex_dirac(self, star3):
        hidden = dirac(star3, star3.vertex_point("c"))
        result = reconstruct_measure(star3, radon_oracle(star3, hidden))
        assert result.measure == hidden

    def test_uniform_on_vertices(self, star3):
        hidden = make_measure(star3, [
            (star3.vertex_point(v), F(1, 4)) for v in "cabd"
        ])
        result = reconstruct_measure(star3, radon_oracle(star3, hidden))
        assert result.measure == hidden

    def test_ray_atoms(self, star3):
        hidden = make_measure(star3, [
            (star3.point(8, F(7, 2)), F(2, 5)),
            (star3.vertex_point("b"), F(3, 5)),
        ])
        result = reconstruct_measure(star3, radon_oracle(star3, hidden))
        assert result.measure == hidden

    def test_atom_outside_skeleton_detected(self, star3):
        hidden = make_measure(star3, [
            (star3.point(1, F(1, 3)), F(1, 2)),
            (star3.vertex_point("c"), F(1, 2)),
        ])
        skeleton = [0, 2, 3, 4, 5, 6, 7, 8]  # edge 1 carries hidden mass
        with pytest.raises(OracleInconsistencyError, match="skeleton"):
            reconstruct_measure(star3, radon_oracle(star3, hidden), skeleton)

    @pytest.mark.parametrize("skeleton, bad", [
        ([0, "a"], "'a'"), ([0, None], "None"), ([0, [1]], "[1]"),
        ([-1], "-1"), ([0, 1.0], "1.0"),
    ])
    def test_bad_skeleton_id_is_an_unknown_edge(self, star3, skeleton, bad):
        # each id is checked before the set and the sort, so a non-int id
        # is refused by name, not by a TypeError from hashing or ordering
        hidden = dirac(star3, star3.vertex_point("c"))
        with pytest.raises(PointLocationError, match=rf"^unknown edge id {re.escape(bad)}$"):
            reconstruct_measure(star3, radon_oracle(star3, hidden), skeleton)

    def test_lying_oracle_detected(self, star3):
        # answers come from different measures depending on the geodesic
        mu1 = dirac(star3, star3.point(0, F(1, 2)))
        mu2 = dirac(star3, star3.point(0, F(1, 3)))
        flip = {"n": 0}

        def liar(geodesic):
            flip["n"] += 1
            src = mu1 if flip["n"] % 2 else mu2
            return pushforward_projection(star3, geodesic, src)

        with pytest.raises(OracleInconsistencyError):
            reconstruct_measure(star3, liar)

    def test_negative_vertex_mass_detected(self, star3):
        # the signed answers of 2·δ_a − δ_b invert to -1 at b
        liar = signed_oracle(star3, [(2, star3.vertex_point("a")),
                                     (-1, star3.vertex_point("b"))])
        with pytest.raises(OracleInconsistencyError, match="at 'b' is negative"):
            reconstruct_measure(star3, liar)

    def test_negative_interior_mass_detected(self, star3):
        # 2·δ_a − δ_p with p inside edge 0: every vertex mass is
        # nonnegative, but p carries -1
        liar = signed_oracle(star3, [(2, star3.vertex_point("a")),
                                     (-1, star3.point(0, F(1, 2)))])
        with pytest.raises(OracleInconsistencyError, match="not a probability"):
            reconstruct_measure(star3, liar)

    def test_interior_disagreement_detected(self, star3):
        # every other answer doubles the interior mass; vertex coordinates,
        # hence every flag reading, stay honest
        hidden = make_measure(star3, [
            (star3.point(0, F(1, 2)), F(1, 2)),
            (star3.vertex_point("c"), F(1, 2)),
        ])
        count = {"n": 0}

        def liar(geodesic):
            count["n"] += 1
            sample = pushforward_projection(star3, geodesic, hidden)
            if count["n"] % 2:
                return sample
            return RadonSample(geodesic, tuple(
                (c, m if geodesic.point_at(c).is_vertex else 2 * m) for c, m in sample.atoms))

        with pytest.raises(OracleInconsistencyError,
                           match="masses disagree across geodesics through edge 0"):
            reconstruct_measure(star3, liar)

    @pytest.mark.parametrize("as_float", [
        lambda c, m: (c, float(m)),
        lambda c, m: (float(c), m),
    ], ids=["float-mass", "float-coordinate"])
    def test_non_rational_answer_rejected(self, star3, as_float):
        # an answer is outside input: a float in it is refused where it
        # enters, not deep inside the flag sums (vertex atoms only, so no
        # float interior total is refused first by radon_invert)
        hidden = make_measure(star3, [(star3.vertex_point(v), F(1, 2)) for v in "ca"])

        def liar(geodesic):
            sample = pushforward_projection(star3, geodesic, hidden)
            return RadonSample(geodesic, tuple(as_float(c, m) for c, m in sample.atoms))

        with pytest.raises(TypeError, match="^cannot interpret float as an exact rational$"):
            reconstruct_measure(star3, liar)

    @pytest.mark.parametrize("answer", [None, 5, "x"], ids=["none", "int", "str"])
    def test_an_answer_that_is_not_a_sample_is_refused(self, star3, answer):
        # the oracle is outside input: an answer without atoms is named by
        # its type, not met by an AttributeError deep in the reading
        with pytest.raises(OracleInconsistencyError) as info:
            reconstruct_measure(star3, lambda geodesic: answer)
        assert str(info.value) == (f"the oracle answered with a {type(answer).__name__}, "
                                   "not a RadonSample")

    @pytest.mark.parametrize("extra", [
        lambda atoms: atoms[:1],
        lambda atoms: ((atoms[-1][0], F(0)),),
        lambda atoms: ((atoms[0][0], atoms[0][1] + 1),),
    ], ids=["copy-of-first", "zero-mass", "other-mass"])
    @pytest.mark.parametrize("parts", [
        [("c", 1)],
        [("c", F(1, 2)), ((0, F(1, 2)), F(1, 2))],
        [(v, F(1, 4)) for v in "cabd"],
        [("a", F(1, 3)), ((3, 2), F(1, 3)), ((1, F(1, 3)), F(1, 3))],
    ], ids=["dirac", "vertex-and-edge", "four-vertices", "ray"])
    def test_repeated_coordinate_detected(self, star3, parts, extra):
        # each answer lists one of its coordinates a second time; within
        # one answer the second reading must not replace the first
        hidden = make_measure(star3, [
            (star3.vertex_point(at) if isinstance(at, str) else star3.point(*at), mass)
            for at, mass in parts])
        repeated = []

        def liar(geodesic):
            atoms = pushforward_projection(star3, geodesic, hidden).atoms
            again = extra(atoms)
            repeated.append(again[0][0])
            return RadonSample(geodesic, atoms + again)

        with pytest.raises(OracleInconsistencyError) as info:
            reconstruct_measure(star3, liar)
        assert str(info.value) == f"an answer lists coordinate {repeated[0]} twice"

    def test_table_outside_the_transform_image_detected(self, star3):
        # 1/1000 moved from flag (c, {0, 2}) to flag (c, {0, 1}) on every
        # answer: the readings agree, the flag sum at c is unchanged, so the
        # inverse is the honest one and only the forward re-check sees it
        hidden = make_measure(star3, [(star3.vertex_point(v), F(1, 4)) for v in "cabd"])
        shift = {frozenset((0, 1)): F(1, 1000), frozenset((0, 2)): F(-1, 1000)}

        def liar(geodesic):
            atoms = dict(pushforward_projection(star3, geodesic, hidden).atoms)
            for i, joint in enumerate(geodesic.joints):
                if joint == "c":
                    c = geodesic.coordinate_of(star3.vertex_point("c"))
                    atoms[c] += shift.get(frozenset(geodesic.edges[i:i + 2]), 0)
            return RadonSample(geodesic, tuple(sorted(atoms.items())))

        with pytest.raises(OracleInconsistencyError, match="flag table is not a transform"):
            reconstruct_measure(star3, liar)

    def test_incomplete_tree_rejected(self, tripod):
        hidden = dirac(tripod, tripod.vertex_point("o"))
        from treeradon import CompletenessError
        with pytest.raises(CompletenessError):
            reconstruct_measure(tripod, radon_oracle(tripod, hidden))

    def test_provenance_rows(self, star3):
        hidden = make_measure(star3, [
            (star3.vertex_point("c"), F(1, 2)),
            (star3.point(2, F(2, 3)), F(1, 2)),
        ])
        result = reconstruct_measure(star3, radon_oracle(star3, hidden))
        assert len(result.flag_rows) == 12
        read = next(r for r in result.edge_reads if r.edge == 2)
        assert read.atoms == ((F(2, 3), F(1, 2)),)


@st.composite
def tree_and_function(draw):
    seed = draw(st.integers(0, 2**32 - 1))
    rng = random.Random(seed)
    cfg = SuiteConfig(seed=seed, max_vertices=9, max_valency=6, max_denominator=11)
    tree = gen_tree(cfg, "complete", rng)
    h = gen_vertex_function(cfg, tree, rng)
    return tree, h, rng, cfg


@given(tree_and_function())
@settings(max_examples=60, deadline=None)
def test_roundtrip_random(data):
    tree, h, _, _ = data
    assert radon_invert(tree, radon_forward(tree, h), h.total) == h


@given(tree_and_function())
@settings(max_examples=40, deadline=None)
def test_double_counting_random(data):
    tree, h, _, _ = data
    table = radon_forward(tree, h)
    for x in tree.vertices:
        assert double_count_check(tree, h, x, table=table).holds


@given(tree_and_function())
@settings(max_examples=30, deadline=None)
def test_reconstruction_random(data):
    tree, _, rng, cfg = data
    hidden = gen_measure(cfg, tree, rng)
    assert reconstruct_measure(tree, radon_oracle(tree, hidden)).measure == hidden
