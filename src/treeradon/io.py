r"""JSON wire formats with exact rational round-trips.

Every rational is a decimal-free string ("p/q" or "p"); ray lengths are
"inf". Writers emit canonical, sorted JSON so identical inputs produce
byte-identical files; writes go through a temporary file and an atomic
replace.

Formats:
  tree      {"vertices": [...], "edges": [{"u":..., "v":...|null, "len":...}]}
  measure   {"atoms": [{"edge": id, "offset": "p/q", "mass": "p/q"}]}
            (vertex atoms use offset 0 or the full length on the smallest
            incident edge)
  h         {"values": {"<vertex>": "p/q", ...}}
  table     {"flags": [{"x":..., "e": id, "f": id, "value": "p/q"}]}
  plan      {"w2_squared": "p/q", "couplings": [{"src": point, "dst": point,
             "mass": "p/q"}]}

Files are the bytes of ``json.dumps(payload, indent=2, sort_keys=True,
ensure_ascii=True)``, but written through the stdlib's C encoder, which
``json`` skips whenever an indent is asked for. The C encoder writes a
container compactly, with ``",\x00"`` between items. An encoded string
never holds a raw control character (``json`` escapes them all), so each
``\x00`` marks an item boundary, and ``str.replace`` turns it into the
newline and indent that the indented encoder writes there.
"""

from __future__ import annotations

import json
import os
import tempfile
from collections.abc import Mapping
from fractions import Fraction
from itertools import chain

from .errors import FileFormatError
from .measures import Measure, make_measure
from .radon import FlagTable, VertexFunction, vertex_function
from .rationals import format_rational, parse_rational
from .transport import TransportPlan
from .tree import Tree, TreePoint, build_tree

# ---------------------------------------------------------------------- #
# Generic JSON plumbing                                                     #
# ---------------------------------------------------------------------- #


# One C call writes a container whose items are all scalars: compact, with
# the ",\x00" item mark that _canonical lays out.
_compact = json.JSONEncoder(separators=(",\x00", ": "), sort_keys=True).encode
_SCALARS = frozenset((str, int, float, bool, type(None)))


def _flat_dicts(items) -> bool:
    """Whether every item is a non-empty dict whose values are scalars."""
    return (set(map(type, items)) == {dict} and all(items)
            and _SCALARS.issuperset(map(type, chain.from_iterable(map(dict.values, items)))))


def _canonical(node, depth: int) -> str:
    r"""``node`` as ``json.dumps(node, indent=2, sort_keys=True,
    ensure_ascii=True)`` writes it ``depth`` levels deep.

    A container of scalars, or a list of non-empty dicts of scalars, is one
    C call laid out by ``str.replace``; in the list, each ``},\x00{`` is the
    boundary between two dicts, since no scalar writes a brace outside a
    string. Any other dict, list or tuple recurses into its items, a key
    that is not a str written as the C encoder writes it alone (an int,
    float, bool or None quoted, any other key a ``TypeError``); anything
    else is the stdlib's own indented call, shifted to its depth (a newline
    never sits inside an encoded string). A tuple subclass, such as a
    result record or a ``TreePoint``, raises the stdlib's ``TypeError`` for
    an unencodable object wherever it sits, where ``json.dumps`` would
    write its fields as a list."""
    kind = type(node)
    if kind in _SCALARS:
        return _compact(node)
    pad = "\n" + "  " * depth
    inner = pad + "  "
    if kind is dict or kind is list or kind is tuple:
        if not node:
            return "{}" if kind is dict else "[]"
        if _SCALARS.issuperset(map(type, node.values() if kind is dict else node)):
            text = _compact(node)
            return text[0] + inner + text[1:-1].replace(",\x00", "," + inner) + pad + text[-1]
        if kind is dict:
            # '{"1": null}' less its brace and ': null}' is the key '"1"'
            return "{" + inner + ("," + inner).join(
                (_compact(key) if type(key) is str else _compact({key: None})[1:-7])
                + ": " + _canonical(value, depth + 1)
                for key, value in sorted(node.items())) + pad + "}"
        if _flat_dicts(node):
            deeper = inner + "  "
            text = _compact(node)[2:-2].replace("},\x00{", inner + "}," + inner + "{" + deeper)
            return ("[" + inner + "{" + deeper + text.replace(",\x00", "," + deeper)
                    + inner + "}" + pad + "]")
        return "[" + inner + ("," + inner).join(
            _canonical(item, depth + 1) for item in node) + pad + "]"
    if isinstance(node, tuple):
        raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")
    return json.dumps(node, indent=2, sort_keys=True, ensure_ascii=True).replace("\n", pad)


def save_json(payload, path) -> None:
    """Canonical, atomic JSON write.

    The file holds ``json.dumps(payload, indent=2, sort_keys=True,
    ensure_ascii=True)`` and a newline, byte for byte; ``_canonical`` makes
    those bytes in the C encoder wherever the payload's shape allows."""
    text = _canonical(payload, 0) + "\n"
    directory = os.path.dirname(os.path.abspath(path))
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except OSError as exc:
        # strerror: the exception's own text names the random temp file
        raise FileFormatError(f"cannot write {path}: {exc.strerror}") from exc
    finally:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)


def load_json(path):
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise FileFormatError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError, ints past the digit limit
        raise FileFormatError(f"{path} is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise FileFormatError(f"{path} is nested too deeply to read") from exc


def read_rational(raw, context: str) -> Fraction:
    """Parse a file field or command-line value as an exact rational; a
    bad one raises :class:`FileFormatError` naming ``context``."""
    try:
        return parse_rational(raw)
    except (ValueError, TypeError) as exc:
        raise FileFormatError(f"bad rational in {context}: {raw!r}") from exc


# ---------------------------------------------------------------------- #
# Trees                                                                     #
# ---------------------------------------------------------------------- #


def load_tree(path) -> Tree:
    payload = load_json(path)
    if not isinstance(payload, Mapping) or "vertices" not in payload or "edges" not in payload:
        raise FileFormatError(f"{path}: a tree file needs 'vertices' and 'edges'")
    return build_tree(payload)


def save_tree(tree: Tree, path) -> None:
    save_json(tree.describe(), path)


# ---------------------------------------------------------------------- #
# Points and measures                                                       #
# ---------------------------------------------------------------------- #


def point_to_dict(tree: Tree, point: TreePoint) -> dict:
    """Encode a point as edge + offset; vertices ride their smallest
    incident edge at offset 0 (or the full length at the far end)."""
    if point.is_vertex:
        eid = tree._vertex[point.vertex].incident[0]
        offset = tree.edges[eid].endpoint_offset(point.vertex)
        return {"edge": eid, "offset": format_rational(offset)}
    return {"edge": point.edge, "offset": format_rational(point.offset)}


def point_from_dict(tree: Tree, payload, context: str = "point") -> TreePoint:
    if not isinstance(payload, Mapping) or "edge" not in payload or "offset" not in payload:
        raise FileFormatError(f"{context}: expected {{'edge', 'offset'}}")
    return tree.point(_edge_id(payload["edge"], context),
                      read_rational(payload["offset"], context))


def _edge_id(raw, context: str) -> int:
    # bool is an int subclass, but `true` in a file is not edge 1
    if not isinstance(raw, int) or isinstance(raw, bool):
        raise FileFormatError(f"{context}: edge id must be an integer")
    return raw


def measure_to_dict(tree: Tree, measure: Measure) -> dict:
    atoms = []
    for point, mass in measure.atoms:
        entry = point_to_dict(tree, point)
        entry["mass"] = format_rational(mass)
        atoms.append(entry)
    return {"atoms": atoms}


def measure_from_dict(tree: Tree, payload) -> Measure:
    if not isinstance(payload, Mapping) or not isinstance(payload.get("atoms"), list):
        raise FileFormatError("a measure file needs an 'atoms' list")
    atoms = []
    for i, entry in enumerate(payload["atoms"]):
        point = point_from_dict(tree, entry, context=f"atom {i}")
        if "mass" not in entry:
            raise FileFormatError(f"atom {i} has no mass")
        atoms.append((point, read_rational(entry["mass"], f"atom {i}")))
    return make_measure(tree, atoms)


def load_measure(tree: Tree, path) -> Measure:
    return measure_from_dict(tree, load_json(path))


def save_measure(tree: Tree, measure: Measure, path) -> None:
    save_json(measure_to_dict(tree, measure), path)


# ---------------------------------------------------------------------- #
# Vertex functions and flag tables                                          #
# ---------------------------------------------------------------------- #


def vertex_function_to_dict(h: VertexFunction) -> dict:
    return {"values": {str(v): format_rational(x) for v, x in sorted(
        h.values.items(), key=lambda item: str(item[0]))}}


def vertex_function_from_dict(tree: Tree, payload) -> VertexFunction:
    if not isinstance(payload, Mapping) or "values" not in payload:
        raise FileFormatError("an h file needs a 'values' mapping")
    raw = payload["values"]
    if not isinstance(raw, Mapping):
        raise FileFormatError("'values' must map vertex ids to rationals")
    by_name = {str(v): v for v in tree.vertices}
    values = {}
    for key, value in raw.items():
        vertex = by_name.get(str(key))
        if vertex is None:
            raise FileFormatError(f"unknown vertex {key!r} in h file")
        values[vertex] = read_rational(value, f"h[{key}]")
    return vertex_function(tree, values)


def load_vertex_function(tree: Tree, path) -> VertexFunction:
    return vertex_function_from_dict(tree, load_json(path))


def save_vertex_function(h: VertexFunction, path) -> None:
    save_json(vertex_function_to_dict(h), path)


def flag_table_to_dict(table: FlagTable) -> dict:
    rows = []
    for flag, value in table.values.items():
        e, f = flag.edges
        rows.append({"x": flag.vertex, "e": e, "f": f,
                     "value": format_rational(value)})
    rows.sort(key=lambda row: (str(row["x"]), row["e"], row["f"]))
    return {"flags": rows}


def flag_table_from_dict(tree: Tree, payload) -> FlagTable:
    if not isinstance(payload, Mapping) or not isinstance(payload.get("flags"), list):
        raise FileFormatError("a flag table file needs a 'flags' list")
    by_name = {str(v): v for v in tree.vertices}
    # by flag position: each flag's value, and the row that gave it
    entries: list[Fraction | None] = [None] * tree._flag_count
    row_at: list[int | None] = [None] * tree._flag_count
    for i, row in enumerate(payload["flags"]):
        if not isinstance(row, Mapping):
            raise FileFormatError(f"flag row {i} is not an object")
        try:
            vertex = by_name.get(str(row["x"]))
            if vertex is None:
                raise FileFormatError(f"unknown vertex {row['x']!r}")
            flag = tree.flag(vertex,
                             _edge_id(row["e"], f"flag row {i}"),
                             _edge_id(row["f"], f"flag row {i}"))
            at = tree._flag_position(vertex, *flag.edges)
            if row_at[at] is not None:
                raise FileFormatError(f"flag rows {row_at[at]} and {i} give the same flag")
            row_at[at] = i
            entries[at] = read_rational(row["value"], f"flag row {i}")
        except KeyError as exc:
            raise FileFormatError(f"flag row {i} missing key {exc}") from None
    return FlagTable(tree, tuple(entries))


def load_flag_table(tree: Tree, path) -> FlagTable:
    return flag_table_from_dict(tree, load_json(path))


def save_flag_table(table: FlagTable, path) -> None:
    save_json(flag_table_to_dict(table), path)


# ---------------------------------------------------------------------- #
# Transport plans                                                           #
# ---------------------------------------------------------------------- #


def plan_to_dict(tree: Tree, plan: TransportPlan) -> dict:
    return {
        "w2_squared": format_rational(plan.squared_cost),
        "couplings": [
            {
                "src": point_to_dict(tree, src),
                "dst": point_to_dict(tree, dst),
                "mass": format_rational(mass),
            }
            for src, dst, mass in plan.couplings
        ],
    }


def save_plan(tree: Tree, plan: TransportPlan, path) -> None:
    save_json(plan_to_dict(tree, plan), path)
