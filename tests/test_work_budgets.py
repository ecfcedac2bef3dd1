"""Work budgets, one table: each row runs a workload on a fixed input with
``count_calls`` on what it counts (an owner and attribute names: a library
function, or ``Fraction`` operations) and holds the calls it returns, those
it is charged for, to the row's bound; the row also keeps the count measured
when it was written. A workload runs its own value checks and, where it has
one, its positive control: a call the counter must see. No bound is raised
to pass a change; a change that lowers the work lowers the bound."""

import json
import random
import tempfile
from fractions import Fraction as F
from pathlib import Path
from typing import Callable, NamedTuple

import pytest

import treeradon.tree
from common import (count_calls, hidden_measure, leafless_description, leafless_tree,
                    random_point, shuffled_leafless_tree, small_values)
from treeradon import (
    FlagTable,
    Geodesic,
    SuiteConfig,
    Tree,
    TreeStructureError,
    WassersteinGeodesic,
    build_tree,
    check_cat0_triangle,
    check_nonextendable,
    dilate,
    extend_from_dirac,
    gen_measure,
    gen_point,
    gen_tree,
    interpolate,
    make_measure,
    midpoint,
    optimal_plan,
    path,
    radon_forward,
    radon_invert,
    radon_oracle,
    reconstruct_measure,
    run_suite,
)
from treeradon import io, radon
from treeradon.geodesics import _travel
from treeradon.rationals import parse_length

SMALL = SuiteConfig(max_vertices=14, max_atoms=5, max_denominator=9)


def no_geodesic_up_to_time_one(built):
    """interpolate, dilate, midpoint and check_cat0_triangle locate each
    point from the tree's depths: for t <= 1 no Geodesic is set up, on 16
    generated trees of up to 14 vertices (seed 30)."""
    rng = random.Random(30)
    for mode in ("finite", "complete") * 8:
        tree = gen_tree(SMALL, mode, rng)
        mu, nu = gen_measure(SMALL, tree, rng), gen_measure(SMALL, tree, rng)
        x, y, z = (gen_point(tree, rng, SMALL.max_denominator) for _ in range(3))
        plan = optimal_plan(tree, mu, nu)
        for t in (0, F(1, 3), F(1, 2), 1):
            interpolate(tree, plan, t)
            dilate(tree, x, mu, t)
            check_cat0_triangle(tree, x, y, z, t)
        midpoint(tree, x, z)
    spent = len(built)
    path(tree, x, z)  # the counter sees the geodesic that path builds
    assert len(built) == spent + 1
    return spent


def no_geodesic_past_time_one(built):
    """Travel past time 1 reads the last edge of the tree's walk: extension
    from a Dirac, the default continuation of check_nonextendable and
    _travel itself set up no Geodesic, on 16 generated trees of up to 14
    vertices (seed 34)."""
    rng = random.Random(34)
    for mode in ("finite", "complete") * 8:
        tree = gen_tree(SMALL, mode, rng)
        mu = gen_measure(SMALL, tree, rng)
        x, y = (gen_point(tree, rng, SMALL.max_denominator) for _ in range(2))
        for t in (F(5, 4), 2, F(7, 3)):
            _travel(tree, x, y, t)
            _travel(tree, x, x, t)
        if not mu.is_dirac:
            check_nonextendable(tree, mu, mu.support[-1])
        if tree.geodesically_complete:
            family = WassersteinGeodesic.from_dirac(tree, x, mu, horizon=3)
            for t in (F(3, 2), 2, 3):
                family.at(t)
                extend_from_dirac(tree, x, mu, t)
    spent = len(built)
    path(tree, x, y)  # the counter sees the geodesic that path builds
    assert len(built) == spent + 1
    return spent


def travel_past_time_one_climbs_once(climbs):
    """Past time 1, ``_travel`` takes the distance from the vertex where the
    tree's walk met, so it finds no lowest common ancestor of its own; a
    distance between the same points does. 50 pairs on a 30-vertex leafless
    tree (seed 29)."""
    rng = random.Random(29)
    tree = leafless_tree(rng, 30)
    pairs = [(random_point(tree, rng), random_point(tree, rng)) for _ in range(50)]
    for p, q in pairs:
        _travel(tree, p, q, F(5, 2))
    spent = len(climbs)
    for p, q in pairs:
        tree._distance(p, q)
    assert len(climbs) - spent == sum(p.edge is None or p.edge != q.edge for p, q in pairs) > 40
    return spent


def reconstruction_validates_no_edge(validated):
    """Every edge id reconstruction hands on comes from the tree itself, so
    the validating ``Tree.edge`` is never called: a 6-atom measure on a
    40-vertex tree (seed 11)."""
    rng = random.Random(11)
    tree = shuffled_leafless_tree(rng, 40)
    hidden = make_measure(tree, [(gen_point(tree, rng, 12), F(1, 6)) for _ in range(6)])
    start = len(validated)
    assert reconstruct_measure(tree, radon_oracle(tree, hidden)).measure == hidden
    return len(validated) - start


def reconstruction_inversion_reads_no_flag_entry(read):
    """Reconstruction hands ``radon_invert`` a table of ints over one scale,
    so the inversion reads no flag entry's numerator or denominator: a
    6-atom measure on a 40-vertex tree (seed 11); only the calls made inside
    the inversion are charged. The same values as a table of entries are
    read once each per flag."""
    rng = random.Random(11)
    tree = shuffled_leafless_tree(rng, 40)
    hidden = make_measure(tree, [(gen_point(tree, rng, 12), F(1, 6)) for _ in range(6)])
    inside = []

    def invert(*args, _original=radon.radon_invert):
        start = len(read)
        inverted = _original(*args)
        inside.append(len(read) - start)
        return inverted

    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(radon, "radon_invert", invert)
        result = reconstruct_measure(tree, radon_oracle(tree, hidden))
    assert result.measure == hidden and len(inside) == 1
    entries = FlagTable(tree, [row.vertex_value for row in result.flag_rows])
    start = len(read)
    assert radon_invert(tree, entries, 1 - result.interior_total) == result.vertex_part
    assert len(read) - start == 2 * tree._flag_count
    return inside[0]


def construction_adds_no_fraction(added):
    """Depths are summed as int pairs, so building a 200-vertex leafless
    tree (seed 7) makes no ``Fraction`` addition."""
    description = leafless_description(random.Random(7), 200)
    start = len(added)
    tree = build_tree(description)
    spent = len(added) - start
    assert max(record.hops for record in tree._vertex.values()) > 1
    return spent


def each_distinct_length_string_is_parsed_once(parsed):
    """Tree construction parses each distinct length string once, and the
    edges that share a string share its Fraction: a leafless tree of 80
    vertices (seed 5) has 177 length strings, 44 of them distinct."""
    description = build_tree(leafless_description(random.Random(5), 80)).describe()
    strings = [entry["len"] for entry in description["edges"]]
    start = len(parsed)
    tree = build_tree(description)
    spent = len(parsed) - start
    assert parsed[start:] == [(string,) for string in dict.fromkeys(strings)]
    assert spent < len(strings)
    shared = {}
    for string, rec in zip(strings, tree.edges):
        assert shared.setdefault(string, rec.length) is rec.length
    # the same records as a tree whose lengths were each parsed alone
    alone = Tree(tree.vertices, [(rec.u, rec.v, parse_length(string))
                                 for rec, string in zip(tree.edges, strings)])
    assert alone.edges == tree.edges
    assert alone._vertex == tree._vertex
    return spent


def only_strings_share_a_parse(parsed):
    """1, "1" and Fraction(1) are equal as keys, and True equals 1, but only
    an exact str is looked up: each other length is parsed where it
    stands, on a tripod of three unit edges."""
    tree = build_tree({"vertices": ["o", "x", "y", "z"],
                       "edges": [("o", "x", "1"), ("o", "y", 1), ("o", "z", F(1))]})
    assert parsed == [("1",), (1,), (F(1),)]
    assert [rec.length for rec in tree.edges] == [1, 1, 1]
    spent = len(parsed)
    with pytest.raises(TreeStructureError) as caught:
        build_tree({"vertices": ["o", "x", "y", "z"],
                    "edges": [("o", "x", "1"), ("o", "y", 1), ("o", "z", True)]})
    assert str(caught.value) == "bad edge length True: booleans are not rationals"
    return spent


def library_files_never_use_the_pure_python_encoder(encoders):
    """json.dumps with an indent builds its pure-Python encoder through
    json.encoder._make_iterencode; the library's own shapes never need it:
    six files written from a leafless tree of 200 vertices (seed 7)."""
    json.dumps({"a": 1}, indent=2)
    assert len(encoders) == 1, "the counter does not see the pure-Python encoder"
    rng = random.Random(7)
    tree = leafless_tree(rng, 200)
    mu, nu = hidden_measure(tree, rng, 6), hidden_measure(tree, rng, 5)
    h = small_values(tree, rng)
    report = run_suite(SuiteConfig(trials=1))
    assert report.ok
    files = {
        "tree": lambda path: io.save_tree(tree, path),
        "measure": lambda path: io.save_measure(tree, mu, path),
        "h": lambda path: io.save_vertex_function(h, path),
        "table": lambda path: io.save_flag_table(radon_forward(tree, h), path),
        "plan": lambda path: io.save_plan(tree, optimal_plan(tree, mu, nu), path),
        "report": lambda path: io.save_json(report.to_dict(), path),
    }
    start = len(encoders)
    with tempfile.TemporaryDirectory() as tmp:
        for name, save in files.items():
            save(Path(tmp, f"{name}.json"))
    return len(encoders) - start


class Budget(NamedTuple):
    workload: Callable
    counted: tuple
    bound: int
    measured: int


BUDGETS = [
    #      workload                          counted                        bound  measured
    Budget(no_geodesic_up_to_time_one,       (Geodesic, "_set_up"),         0,     0),
    Budget(no_geodesic_past_time_one,        (Geodesic, "_set_up"),         0,     0),
    Budget(travel_past_time_one_climbs_once, (Tree, "_lca"),                0,     0),
    Budget(reconstruction_validates_no_edge, (Tree, "edge"),                0,     0),
    Budget(reconstruction_inversion_reads_no_flag_entry,
           (radon, "_numerator", "_denominator"),                           0,     0),
    Budget(construction_adds_no_fraction,    (F, "__add__", "__radd__"),    0,     0),
    Budget(each_distinct_length_string_is_parsed_once,
           (treeradon.tree, "parse_length"),                                44,    44),
    Budget(only_strings_share_a_parse,       (treeradon.tree, "parse_length"), 3,  3),
    Budget(library_files_never_use_the_pure_python_encoder,
           (json.encoder, "_make_iterencode"),                              0,     0),
]


@pytest.mark.parametrize("budget", BUDGETS, ids=lambda budget: budget.workload.__name__)
def test_work_budget(monkeypatch, budget):
    spent = budget.workload(count_calls(monkeypatch, *budget.counted))
    assert spent <= budget.bound, f"{spent} calls; bound {budget.bound}, {budget.measured} measured"
