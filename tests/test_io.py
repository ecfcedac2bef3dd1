"""Wire-format round trips and atomic writes."""

from fractions import Fraction as F

import pytest

from treeradon import (
    FileFormatError,
    SuiteConfig,
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
