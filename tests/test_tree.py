"""Tree construction, validation, metric queries."""

import random
import re
from collections import deque
from fractions import Fraction as F
from math import comb, gcd

import pytest
from hypothesis import given, settings, strategies as st

from common import leafless_description, random_caterpillar, random_tree
from conftest import profile_settings
from treeradon import (
    Flag,
    RadonError,
    SuiteConfig,
    Tree,
    TreePoint,
    TreeStructureError,
    PointLocationError,
    build_tree,
    dirac,
    flag_mass,
    flag_table,
    gen_point,
    gen_tree,
    geodesic_through_flag,
    make_measure,
    perpendicular,
    radon_oracle,
    reconstruct_measure,
)
from treeradon.tree import EdgeRecord, VertexRecord


class TestBuildTree:
    def test_tripod_valid(self, tripod):
        assert set(tripod.leaves) == {"x", "y", "z"}
        assert not tripod.geodesically_complete
        assert tripod.valency_profile == {"o": 3, "x": 1, "y": 1, "z": 1}

    def test_star3_valid(self, star3):
        assert star3.geodesically_complete
        assert set(star3.valency_profile.values()) == {3}
        assert star3.leaves == ()

    def test_valency_two_rejected(self):
        with pytest.raises(TreeStructureError, match="valency-2"):
            build_tree({
                "vertices": ["a", "m", "b", "t1", "t2", "t3", "t4"],
                "edges": [
                    ("a", "m", 1), ("m", "b", 1),
                    ("a", "t1", 1), ("a", "t2", 1),
                    ("b", "t3", 1), ("b", "t4", 1),
                ],
            })

    def test_cycle_rejected(self):
        with pytest.raises(TreeStructureError, match="cycle"):
            build_tree({
                "vertices": ["a", "b", "c"],
                "edges": [("a", "b", 1), ("b", "c", 1), ("c", "a", 1)],
            })

    def test_disconnected_rejected(self):
        with pytest.raises(TreeStructureError, match="disconnected"):
            build_tree({
                "vertices": ["a", "b", "c", "d"],
                "edges": [("a", "b", 1), ("c", "d", 1)],
            })

    def test_nonpositive_length_rejected(self):
        with pytest.raises(TreeStructureError, match="nonpositive"):
            build_tree({"vertices": ["a", "b"], "edges": [("a", "b", 0)]})

    def test_finite_length_ray_rejected(self):
        with pytest.raises(TreeStructureError, match="ray"):
            build_tree({"vertices": ["a"], "edges": [("a", None, 3)]})

    def test_infinite_two_endpoint_edge_rejected(self):
        with pytest.raises(TreeStructureError, match="infinite"):
            build_tree({"vertices": ["a", "b"], "edges": [("a", "b", "inf")]})

    @pytest.mark.parametrize("vertices", [[1, "1", "a", "b"], ["a", True, "True", "b"]])
    def test_ids_with_one_name_rejected(self, vertices):
        # files key vertices by str(v), so 1 and "1" would be one vertex there
        a, b, c, d = vertices
        with pytest.raises(TreeStructureError, match="share the name"):
            build_tree({"vertices": vertices,
                        "edges": [(a, b, 1), (a, c, 1), (a, d, 1)]})

    def test_isolated_vertex_rejected(self):
        with pytest.raises(TreeStructureError):
            build_tree({"vertices": ["a"], "edges": []})

    def test_dict_edge_form(self):
        tree = build_tree({
            "vertices": ["a", "b"],
            "edges": [{"u": "a", "v": "b", "len": "3/2"}],
        })
        assert tree.edges[0].length == F(3, 2)

    @pytest.mark.parametrize("description, message", [
        ([("o", "x", 1)], "tree description must be a mapping"),
        ({"vertices": ["o"]}, "tree description missing key 'edges'"),
        ({"edges": []}, "tree description missing key 'vertices'"),
        ({"vertices": "oxyz", "edges": []}, "tree description 'vertices' must be a list"),
        ({"vertices": ["o"], "edges": {}}, "tree description 'edges' must be a list"),
        ({"vertices": ["o"], "edges": [("o", None)]}, "unintelligible edge entry ('o', None)"),
        ({"vertices": ["o"], "edges": [5]}, "unintelligible edge entry 5"),
        ({"vertices": ["a", "b"], "edges": ["ab1"]}, "unintelligible edge entry 'ab1'"),
        ({"vertices": ["a", "b"], "edges": [b"ab1"]}, "unintelligible edge entry b'ab1'"),
        ({"vertices": [97, 98], "edges": [bytearray(b"ab\x01")]},
         "unintelligible edge entry bytearray(b'ab\\x01')"),
        ({"vertices": ["o", "x"], "edges": [("o", "x", "1.5")]},
         "bad edge length '1.5': decimal notation is not allowed: '1.5'"),
        ({"vertices": ["o", "x"], "edges": [("o", "x", "x")]},
         "bad edge length 'x': not a rational: 'x'"),
        ({"vertices": ["o", "x"], "edges": [("o", "x", True)]},
         "bad edge length True: booleans are not rationals"),
        # lengths parsed once per string still fail at the first bad edge
        ({"vertices": ["o", "x", "y", "z"],
          "edges": [("o", "x", "1/2"), ("o", "y", ["1"]), ("o", "z", "x")]},
         "bad edge length ['1']: cannot interpret list as an exact rational"),
        ({"vertices": ["o", "x", "y", "z"],
          "edges": [("o", "x", "1/2"), ("o", "y", "x/2"), ("o", "z", ["1"])]},
         "bad edge length 'x/2': not a rational: 'x/2'"),
        ({"vertices": ["o", "x", "y", "z"],
          "edges": [("o", "x", "1/2"), ("o", "y", "1/2"), ("o", "z", {"p": 1})]},
         "bad edge length {'p': 1}: cannot interpret dict as an exact rational"),
        ({"vertices": [], "edges": []}, "a tree needs at least one vertex"),
        ({"vertices": ["o", None], "edges": []}, "vertex id null is not allowed"),
        ({"vertices": ["o", ["x"]], "edges": []}, "vertex id ['x'] is not hashable"),
        ({"vertices": ["o", "x", "o"], "edges": []}, "duplicate vertex id 'o'"),
        ({"vertices": ["o", 1, True], "edges": []}, "duplicate vertex id True"),
        ({"vertices": [1, "1"], "edges": []}, "vertex ids 1 and '1' share the name '1'"),
        ({"vertices": ["o", "x"], "edges": [("q", "x", 1)]}, "edge 0 endpoint 'q' is not a vertex"),
        ({"vertices": ["o", "x"], "edges": [(["o"], "x", 1)]},
         "edge 0 endpoint ['o'] is not a vertex"),
        ({"vertices": ["o", "x"], "edges": [("o", "x", 1), ("x", "q", 1)]},
         "edge 1 endpoint 'q' is not a vertex"),
        ({"vertices": ["o", "x"], "edges": [("o", {"x": 1}, 1)]},
         "edge 0 endpoint {'x': 1} is not a vertex"),
        ({"vertices": ["o"], "edges": [("o", None, 1)]}, "edge 0 is a ray but has finite length"),
        ({"vertices": ["o", "x"], "edges": [("o", None, "inf"), ("x", "x", 1)]},
         "cycle detected: edge 1 is a self-loop at 'x'"),
        ({"vertices": ["o", "x"], "edges": [("o", "x", "inf")]},
         "edge 0 has two endpoints but infinite length"),
        ({"vertices": ["o", "x"], "edges": [("o", "x", "-1/2")]},
         "edge 0 has nonpositive length -1/2"),
        ({"vertices": ["o", "x"], "edges": [("o", "x", 0)]}, "edge 0 has nonpositive length 0"),
        ({"vertices": ["o", "x", "y", "z"], "edges": [("o", "x", 1), ("y", "z", 1)]},
         "disconnected: not all vertices are reachable"),
        ({"vertices": ["o", "x"], "edges": [("o", "x", 1), ("x", "o", 2)]},
         "cycle detected: too many finite edges for a tree"),
        ({"vertices": ["o", "x"], "edges": [("o", "x", 1), ("o", None, "inf")]},
         "valency-2 vertex 'o' is not allowed"),
        ({"vertices": ["o"], "edges": []}, "isolated vertex 'o' (valency 0)"),
    ], ids=lambda value: value if isinstance(value, str) else "")
    def test_every_construction_error_has_its_message(self, description, message):
        with pytest.raises(TreeStructureError) as caught:
            build_tree(description)
        assert str(caught.value) == message

    # Tree itself takes pre-parsed lengths: an int (not a bool) or a
    # Fraction, so that depths and distances stay exact
    @pytest.mark.parametrize("length, message", [
        (1.5, "edge 0 length 1.5 is not an int or a Fraction"),
        (True, "edge 0 length True is not an int or a Fraction"),
        ("3/2", "edge 0 length '3/2' is not an int or a Fraction"),
    ], ids=["float", "bool", "str"])
    def test_constructor_refuses_an_inexact_length(self, length, message):
        with pytest.raises(TreeStructureError) as caught:
            Tree(["a", "b", "c", "d"], [("a", "b", length), ("a", "c", 1), ("a", "d", 2)])
        assert str(caught.value) == message

    def test_constructor_stores_an_int_length_as_a_fraction(self):
        tree = Tree(["a", "b", "c", "d"], [("a", "b", 1), ("a", "c", F(1, 2)), ("a", "d", 2)])
        assert [type(rec.length) for rec in tree.edges] == [F, F, F]
        # a depth is the reduced int pair of the summed edge lengths
        summed = {"a": F(0), "b": F(1), "c": F(1, 2), "d": F(2)}
        for v, rec in tree._vertex.items():
            n, d = rec.depth
            assert (type(n), type(d)) == (int, int) and d > 0 and gcd(n, d) == 1
            assert F(n, d) == summed[v]
        distance = tree.distance(tree.vertex_point("b"), tree.vertex_point("d"))
        assert (distance, type(distance)) == (3, F)


# ---------------------------------------------------------------------- #
# Construction: lengths parsed once, records against a hand-built walk      #
# ---------------------------------------------------------------------- #

def records_by_hand(description):
    """The records a tree of ``description`` holds, built apart from
    ``Tree``: edges in list order, each endpoint swapped for the vertex
    list's own id, then vertices breadth first from the first one, each
    depth its parent's plus the length of the edge between them, summed as
    ``Fraction``s and kept as the sum's reduced int pair."""
    vertices = description["vertices"]
    own = {v: v for v in vertices}
    edges, incident = [], {v: [] for v in vertices}
    for eid, entry in enumerate(description["edges"]):
        u, v, raw = (entry["u"], entry["v"], entry["len"]) if isinstance(entry, dict) else entry
        u, v = own[u], None if v is None else own[v]
        edges.append(EdgeRecord(eid, u, v, None if v is None else F(raw)))
        for end in (u, v):
            if end is not None:
                incident[end].append(eid)
    first_flag, count = {}, 0
    for v in vertices:
        first_flag[v] = count
        count += comb(len(incident[v]), 2)
    found = {vertices[0]: (None, None, 0, F(0))}
    queue = deque([vertices[0]])
    while queue:
        w = queue.popleft()
        hops, depth = found[w][2:]
        for eid in incident[w]:
            rec = edges[eid]
            o = rec.u if rec.v == w else rec.v
            if o is not None and o not in found:
                found[o] = (w, eid, hops + 1, depth + rec.length)
                queue.append(o)
    return edges, {v: VertexRecord(v, tuple(incident[v]), parent, via, hops,
                                   depth.as_integer_ratio(), first_flag[v])
                   for v, (parent, via, hops, depth) in found.items()}


RECORD_TREES = ("leafless", "finite", "complete", "caterpillar", "int ids")


def record_description(kind, rng):
    """A tree description: ``leafless_description`` of up to 60 vertices, a
    ``gen_tree`` tree of up to 30, a caterpillar rooted at one end of its
    210-vertex spine, or a ``random_tree`` with int ids whose edges are
    (u, v, length) tuples that name vertex 1 as ``True``."""
    if kind == "leafless":
        return leafless_description(rng, rng.randint(1, 60))
    if kind in ("finite", "complete"):
        return gen_tree(SuiteConfig(max_vertices=30, max_valency=5), kind, rng).describe()
    if kind == "caterpillar":
        tree = random_caterpillar(rng, 210, False)
        while tree.vertices[0] != 0:
            tree = random_caterpillar(rng, 210, False)
        return tree.describe()
    description = random_tree(rng, rng.randint(2, 30), rng.random() < 0.5).describe()
    alias = {1: True}
    description["edges"] = [
        (alias.get(e["u"], e["u"]), alias.get(e["v"], e["v"]),
         "inf" if e["v"] is None else F(e["len"]))
        for e in description["edges"]
    ]
    return description


@given(st.integers(0, 2**32 - 1), st.sampled_from(RECORD_TREES))
@profile_settings(40)
def test_records_match_a_breadth_first_construction(seed, kind):
    description = record_description(kind, random.Random(seed))
    tree = build_tree(description)
    edges, vertex = records_by_hand(description)
    if kind == "caterpillar":
        assert max(record.hops for record in vertex.values()) >= 200
    assert tree.edges == tuple(edges)
    assert tree._vertex == vertex
    pairs = [*zip(tree.edges, edges), *((tree._vertex[v], vertex[v]) for v in vertex)]
    for got, want in pairs:
        assert type(got) is type(want)
        assert [type(field) for field in got] == [type(field) for field in want]
    depths = [record.depth for record in tree._vertex.values()]
    assert all(type(n) is int and type(d) is int for n, d in depths)
    for got, want in zip(tree.edges, edges):
        assert got.u is want.u and got.v is want.v
    seen = set()
    for v, record in tree._vertex.items():
        assert v is record.id is vertex[v].id
        assert record.parent is None or record.parent in seen
        seen.add(v)


class TestCompleteness:
    def test_tripod_incomplete(self, tripod):
        assert not tripod.geodesically_complete

    def test_star3_complete(self, star3):
        assert star3.geodesically_complete

    def test_single_vertex_three_rays(self):
        tree = build_tree({
            "vertices": ["o"],
            "edges": [("o", None, "inf")] * 3,
        })
        assert tree.geodesically_complete

    def test_queries_do_not_recount_leaves(self, star3, monkeypatch):
        # completeness is recorded at construction, so a query that needs it
        # does not rescan every vertex
        hidden = make_measure(star3, [(star3.vertex_point("a"), F(1, 2)),
                                      (star3.point(1, F(1, 3)), F(1, 2))])
        oracle = radon_oracle(star3, hidden)

        def no_scan(tree):
            raise AssertionError("leaves scanned")

        monkeypatch.setattr(Tree, "leaves", property(no_scan))
        assert geodesic_through_flag(star3, star3.flag("c", 0, 1)).is_complete
        assert reconstruct_measure(star3, oracle).measure == hidden


class TestPoints:
    def test_offset_zero_canonicalizes_to_vertex(self, tripod):
        assert tripod.point(0, 0) == tripod.vertex_point("o")

    def test_full_offset_canonicalizes_to_far_vertex(self, tripod):
        assert tripod.point(0, 1) == tripod.vertex_point("x")

    def test_interior_point(self, tripod):
        p = tripod.point(0, F(1, 3))
        assert not p.is_vertex and p.edge == 0 and p.offset == F(1, 3)

    def test_offset_bounds(self, tripod):
        with pytest.raises(PointLocationError):
            tripod.point(0, F(3, 2))
        with pytest.raises(PointLocationError):
            tripod.point(0, -1)

    def test_ray_offsets_unbounded(self, star3):
        p = star3.point(3, 100)
        assert p.offset == 100

    def test_unknown_vertex(self, tripod):
        with pytest.raises(PointLocationError):
            tripod.vertex_point("nope")
        with pytest.raises(PointLocationError, match="unknown vertex 'nope'"):
            tripod.incident_edges("nope")

    def test_canonical_point_rejects_non_points(self, tripod):
        for raw in ("o", ("o", None, None), None):
            with pytest.raises(PointLocationError, match="not a tree point"):
                tripod.canonical_point(raw)

    def test_edge_record_rejects_a_non_endpoint(self, star3):
        for rec in (star3.edge(0), star3.edge(3)):  # c–a and a ray at a
            for call in (rec.other_end, rec.endpoint_offset):
                with pytest.raises(PointLocationError, match="is not an endpoint of edge"):
                    call("b")

    def test_boolean_edge_id_rejected(self, tripod):
        with pytest.raises(PointLocationError):
            tripod.edge(True)
        with pytest.raises(PointLocationError):
            tripod.point(True, F(1, 2))

    def test_canonical_point_revalidates(self, tripod):
        raw = TreePoint(edge=1, offset=F(1, 1))
        assert tripod.canonical_point(raw) == tripod.vertex_point("y")

    def test_canonical_point_returns_canonical_input_itself(self, star3):
        for point in (star3.vertex_point("a"), star3.point(0, F(1, 3)), star3.point(3, 7)):
            assert star3.canonical_point(point) is point

    def test_canonical_point_rebuilds_everything_else(self, star3):
        ray_int = TreePoint(edge=3, offset=2)
        got = star3.canonical_point(ray_int)
        assert got == star3.point(3, 2) and got is not ray_int
        assert type(got.offset) is F
        assert star3.canonical_point(TreePoint(edge=0, offset=F(1, 2))) == star3.point(0, F(1, 2))
        assert star3.canonical_point(TreePoint(edge=0, offset=F(0))) == star3.vertex_point("c")
        assert star3.canonical_point(TreePoint(edge=0, offset=1)) == star3.vertex_point("a")
        assert star3.canonical_point(TreePoint(vertex="a", edge=0, offset=F(1, 2))) \
            == star3.vertex_point("a")

    @pytest.mark.parametrize("raw", [
        TreePoint(edge=0, offset=F(3, 2)),
        TreePoint(edge=0, offset=F(-1, 2)),
        TreePoint(edge=3, offset=F(-1)),
        TreePoint(edge=True, offset=F(1, 2)),
        TreePoint(edge=99, offset=F(1, 2)),
        TreePoint(edge=-1, offset=F(1, 2)),
        TreePoint(vertex="nope"),
        TreePoint(edge=0),
        TreePoint(),
    ])
    def test_canonical_point_rejects_bad_points(self, star3, raw):
        with pytest.raises(PointLocationError):
            star3.canonical_point(raw)


class TestMalformedFlag:
    # a Flag built by hand, not through Tree.flag, whose edge pair is not
    # two edges
    PAIRS = [frozenset({0}), frozenset({0, 1, 2}), frozenset()]

    @pytest.mark.parametrize("pair", PAIRS)
    @pytest.mark.parametrize("call", [
        lambda tree, flag: perpendicular(tree, flag),
        lambda tree, flag: geodesic_through_flag(tree, flag),
        lambda tree, flag: flag_mass(tree, dirac(tree, tree.vertex_point("c")), flag),
    ], ids=["perpendicular", "geodesic_through_flag", "flag_mass"])
    def test_rejected_with_the_flag_message(self, star3, call, pair):
        with pytest.raises(PointLocationError, match="^a flag needs two distinct edges$"):
            call(star3, Flag("c", pair))

    def test_missing_entry_names_it(self, star3):
        with pytest.raises(RadonError, match=r"no entry for Flag\('c', \{0\}\)"):
            flag_table(star3, {}).value(Flag("c", frozenset({0})))

    # an edge id is an int and not a bool, as Tree.edge requires; 1.0 and
    # True compare equal to edge 1 but are not edge ids
    @pytest.mark.parametrize("pair, message", [
        (frozenset({0, 1.0}), "unknown edge id 1.0"),
        (frozenset({0, True}), "unknown edge id True"),
        (frozenset({0, "x"}), "unknown edge id 'x'"),
        (None, "a flag needs two distinct edges"),
    ], ids=["float", "bool", "mixed", "none"])
    @pytest.mark.parametrize("call", [
        lambda tree, flag: perpendicular(tree, flag),
        lambda tree, flag: geodesic_through_flag(tree, flag),
        lambda tree, flag: flag_mass(tree, dirac(tree, tree.vertex_point("c")), flag),
    ], ids=["perpendicular", "geodesic_through_flag", "flag_mass"])
    def test_non_int_edge_id_rejected(self, star3, call, pair, message):
        with pytest.raises(PointLocationError, match=f"^{re.escape(message)}$"):
            call(star3, Flag("c", pair))

    @pytest.mark.parametrize("e, f", [(0, True), (True, 0), (0, 1.0), ("0", 1), (None, 1)],
                             ids=["bool-second", "bool-first", "float", "str", "none"])
    def test_tree_flag_rejects_non_int_ids(self, star3, e, f):
        with pytest.raises(PointLocationError, match="^unknown edge id "):
            star3.flag("c", e, f)

    def test_hand_built_flag_reports_the_smaller_edge_first(self, star3):
        # edges 7 and 9 are not at c; the message names the smaller, as
        # before a malformed pair was caught
        with pytest.raises(PointLocationError, match="^edge 7 is not incident"):
            star3.validate_flag(Flag("c", frozenset({9, 7})))
        assert star3.validate_flag(Flag("c", {1, 0})) == star3.flag("c", 0, 1)


class TestDistance:
    def test_tip_to_tip(self, tripod):
        assert tripod.distance(tripod.vertex_point("x"), tripod.vertex_point("y")) == 2

    def test_interior_through_center(self, tripod):
        p = tripod.point(0, F(3, 10))
        q = tripod.point(1, F(1, 2))
        assert tripod.distance(p, q) == F(4, 5)

    def test_identity(self, tripod):
        p = tripod.point(2, F(2, 7))
        assert tripod.distance(p, p) == 0

    def test_same_edge(self, tripod):
        p = tripod.point(0, F(1, 5))
        q = tripod.point(0, F(4, 5))
        assert tripod.distance(p, q) == F(3, 5)

    def test_ray_points(self, star3):
        p = star3.point(3, 2)       # 2 beyond a
        q = star3.point(7, F(1, 2))  # 1/2 beyond d
        assert star3.distance(p, q) == 2 + 1 + 1 + F(1, 2)


@st.composite
def tree_and_points(draw):
    seed = draw(st.integers(0, 2**32 - 1))
    rng = random.Random(seed)
    cfg = SuiteConfig(seed=seed, max_vertices=7, max_denominator=9)
    tree = gen_tree(cfg, rng.choice(("finite", "complete")), rng)
    points = [gen_point(tree, rng, 9) for _ in range(3)]
    return tree, points


@given(tree_and_points())
@settings(max_examples=60, deadline=None)
def test_metric_axioms(data):
    tree, (p, q, r) = data
    assert tree.distance(p, q) == tree.distance(q, p)
    assert tree.distance(p, p) == 0
    if tree.distance(p, q) == 0:
        assert p == q
    assert tree.distance(p, r) <= tree.distance(p, q) + tree.distance(q, r)
