"""Wire-format round trips and atomic writes."""

import json
import math
import tempfile
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from conftest import profile_settings
from treeradon import (
    DiracExtensionCheck,
    EdgeRecord,
    FileFormatError,
    Flag,
    SuiteConfig,
    TreePoint,
    gen_tree,
    make_measure,
    optimal_plan,
    radon_forward,
    vertex_function,
)
from treeradon import io


class TestTreeFiles:
    def test_round_trip(self, tmp_path, star3):
        target = tmp_path / "tree.json"
        io.save_tree(star3, target)
        again = io.load_tree(target)
        assert again.describe() == star3.describe()

    def test_round_trip_is_byte_stable(self, tmp_path, star3):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        io.save_tree(star3, a)
        io.save_tree(io.load_tree(a), b)
        assert a.read_bytes() == b.read_bytes()

    def test_malformed_json(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        with pytest.raises(FileFormatError):
            io.load_tree(bad)

    def test_missing_keys(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{\"vertices\": []}")
        with pytest.raises(FileFormatError):
            io.load_tree(bad)

    def test_generated_tree_round_trip(self, tmp_path):
        tree = gen_tree(SuiteConfig(seed=5, max_vertices=9), "complete")
        target = tmp_path / "t.json"
        io.save_tree(tree, target)
        assert io.load_tree(target).describe() == tree.describe()


class TestMeasureFiles:
    def test_vertex_atoms_ride_an_edge(self, tmp_path, star3):
        mu = make_measure(star3, [
            (star3.vertex_point("c"), F(1, 3)),
            (star3.point(1, F(2, 7)), F(2, 3)),
        ])
        target = tmp_path / "mu.json"
        io.save_measure(star3, mu, target)
        assert io.load_measure(star3, target) == mu

    def test_rational_strings_only(self, tmp_path, star3):
        target = tmp_path / "mu.json"
        mu = make_measure(star3, [(star3.vertex_point("c"), 1)])
        io.save_measure(star3, mu, target)
        assert "." not in target.read_text()

    def test_decimal_mass_rejected(self, tmp_path, star3):
        bad = tmp_path / "mu.json"
        bad.write_text('{"atoms": [{"edge": 0, "offset": "0", "mass": "0.5"}]}')
        with pytest.raises(FileFormatError):
            io.load_measure(star3, bad)


class TestFunctionAndTableFiles:
    def test_vertex_function_round_trip(self, tmp_path, star3):
        h = vertex_function(star3, {"c": F(-3, 7), "a": 2})
        target = tmp_path / "h.json"
        io.save_vertex_function(h, target)
        assert io.load_vertex_function(star3, target) == h

    @pytest.mark.parametrize("payload", [{}, [], {"value": {"c": "1"}}])
    def test_values_mapping_required(self, star3, payload):
        with pytest.raises(FileFormatError, match="^an h file needs a 'values' mapping$"):
            io.vertex_function_from_dict(star3, payload)

    def test_unknown_vertex_rejected(self, tmp_path, star3):
        bad = tmp_path / "h.json"
        bad.write_text('{"values": {"zz": "1"}}')
        with pytest.raises(FileFormatError):
            io.load_vertex_function(star3, bad)

    def test_flag_table_round_trip(self, tmp_path, star3):
        h = vertex_function(star3, {"c": 1, "a": 2, "b": 3, "d": 4})
        table = radon_forward(star3, h)
        target = tmp_path / "table.json"
        io.save_flag_table(table, target)
        again = io.load_flag_table(star3, target)
        assert again.values == table.values

    def test_boolean_edge_id_rejected(self, star3):
        # bool is an int subclass; `true` must not be read as edge 1
        with pytest.raises(FileFormatError):
            io.flag_table_from_dict(star3, {"flags": [
                {"x": "c", "e": True, "f": 2, "value": "1"}]})

    def test_duplicate_flag_rows_rejected(self, star3):
        # (c, 0, 1) and (c, 1, 0) are one flag; the second row must not
        # silently replace the first
        with pytest.raises(FileFormatError, match="flag rows 0 and 2 give the same flag"):
            io.flag_table_from_dict(star3, {"flags": [
                {"x": "c", "e": 0, "f": 1, "value": "1"},
                {"x": "c", "e": 0, "f": 2, "value": "3"},
                {"x": "c", "e": 1, "f": 0, "value": "5"}]})


class TestPlanFiles:
    def test_plan_payload(self, tmp_path, tripod):
        mu = make_measure(tripod, [(tripod.vertex_point("x"), 1)])
        nu = make_measure(tripod, [
            (tripod.vertex_point("y"), F(1, 2)),
            (tripod.vertex_point("z"), F(1, 2)),
        ])
        plan = optimal_plan(tripod, mu, nu)
        payload = io.plan_to_dict(tripod, plan)
        assert payload["w2_squared"] == "4"
        assert len(payload["couplings"]) == 2
        target = tmp_path / "plan.json"
        io.save_plan(tripod, plan, target)
        assert target.exists()


# ---------------------------------------------------------------------- #
# The canonical bytes                                                       #
# ---------------------------------------------------------------------- #


def reference_bytes(payload) -> bytes:
    """What save_json writes: the stdlib's indented, key-sorted, ASCII JSON."""
    return (json.dumps(payload, indent=2, sort_keys=True, ensure_ascii=True) + "\n").encode()


def written_bytes(payload) -> bytes:
    with tempfile.TemporaryDirectory() as directory:
        target = Path(directory) / "out.json"
        io.save_json(payload, target)
        return target.read_bytes()


# Strings hold the marks and brackets the writer lays out around.
TEXT = st.text(max_size=5) | st.lists(st.sampled_from(
    ['"', "\\", "\x00", "\n", "},{", "},\x00{", ",\x00", "[", "]", ": ", "\u00e9",
     "\u2603", "\U0001d11e", "a"]), max_size=4).map("".join)
NUMBERS = (st.integers() | st.sampled_from([2**64, -2**64 - 1, 3**90])
           | st.floats() | st.sampled_from([math.nan, math.inf, -math.inf]))
SCALARS = st.none() | st.booleans() | NUMBERS | TEXT


def dicts(values, **bounds):
    """Dicts keyed by str, by numbers and bools, or by None."""
    return st.one_of(
        st.dictionaries(TEXT, values, **bounds),
        st.dictionaries(st.integers() | st.floats() | st.booleans(), values, **bounds),
        st.dictionaries(st.none(), values, **bounds))


@st.composite
def dict_rows(draw, children):
    """A list of flat dicts, the shape of tree edges, measure atoms and
    flag rows: keys equal in every row or not, and sometimes an empty dict
    or a nested value among them."""
    keys = draw(st.lists(TEXT, min_size=1, max_size=4, unique=True))
    row = st.fixed_dictionaries({key: SCALARS for key in keys})
    rows = draw(st.lists(row | dicts(SCALARS, min_size=1, max_size=4), min_size=1, max_size=5))
    odd = draw(st.sampled_from([None, {}, "nested"]))
    if odd == "nested":
        odd = {draw(TEXT): draw(st.lists(children, max_size=2))}
    if odd is not None:
        rows.insert(draw(st.integers(0, len(rows))), odd)
    return rows


PAYLOADS = st.recursive(SCALARS, lambda children: st.one_of(
    st.lists(children, max_size=4),
    st.lists(children, max_size=4).map(tuple),
    dicts(children, max_size=4),
    dict_rows(children),
), max_leaves=30)


@profile_settings(150)
@given(PAYLOADS)
def test_save_json_writes_the_stdlib_bytes(payload):
    assert written_bytes(payload) == reference_bytes(payload)


# A set or a Fraction in each kind of place, and keys that do not sort
# together: json.dumps raises TypeError on each
UNENCODABLE = [place(bad) for bad in ({1, 2}, F(1, 3)) for place in (
    lambda bad: bad,
    lambda bad: {"a": 1, "b": bad},
    lambda bad: [{"a": 1}, {"a": bad}],
    lambda bad: {"a": [1, {"b": [bad]}]},
    lambda bad: {1: [bad]},
)] + [{1: "a", "b": 2}, [{"a": 1}, {None: 1, 2: 1}], {"a": {1: [], "b": []}}]


@pytest.mark.parametrize("payload", UNENCODABLE)
def test_unencodable_payloads_raise_type_error(tmp_path, payload):
    with pytest.raises(TypeError):
        json.dumps(payload, indent=2, sort_keys=True, ensure_ascii=True)
    with pytest.raises(TypeError):
        io.save_json(payload, tmp_path / "out.json")
    assert list(tmp_path.iterdir()) == []


# json.dumps writes a tuple subclass as a list of its fields; save_json
# refuses the library's records instead, as it would any other object,
# under any key
RECORDS = [DiracExtensionCheck(True, ()), TreePoint(vertex="a"), Flag("a", frozenset((0, 1))),
           EdgeRecord(0, "a", "b", F(1))]


@pytest.mark.parametrize("place", [lambda record: record, lambda record: {"check": record},
                                   lambda record: [1, record], lambda record: {1: record},
                                   lambda record: [{1: record}]],
                         ids=["top level", "under a str key", "in a list", "under an int key",
                              "under an int key in a list"])
@pytest.mark.parametrize("record", RECORDS, ids=lambda record: type(record).__name__)
def test_records_are_not_json(tmp_path, record, place):
    with pytest.raises(TypeError, match=f"^Object of type {type(record).__name__} is not JSON "
                                        "serializable$"):
        io.save_json(place(record), tmp_path / "out.json")
    assert list(tmp_path.iterdir()) == []
