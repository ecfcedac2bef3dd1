"""Fuzz every CLI subcommand with malformed input files and flags.

Each example starts from valid tree, measure, vertex-function and
flag-table documents, then replaces, drops or appends random JSON values
(wrong types, missing keys, huge or zero lengths, unhashable and bool ids)
at random places, renames vertex ids, or swaps a whole document for junk.
The output path is sometimes an existing directory or a path in a missing
directory, so every subcommand's write is fuzzed too. Whatever the input,
``cli.main`` must return 0, 1 or 2, let no exception escape, and write at
most one ``error:`` line and no traceback to stderr.
"""

import contextlib
import json
import os
import tempfile
from io import StringIO

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from treeradon import build_tree, io, radon_forward, vertex_function
from treeradon.cli import main

STAR3 = {
    "vertices": ["c", "a", "b", "d"],
    "edges": [
        {"u": "c", "v": "a", "len": "1"}, {"u": "c", "v": "b", "len": "3/2"},
        ["c", "d", "1"],
        {"u": "a", "v": None, "len": "inf"}, {"u": "a", "v": None, "len": "inf"},
        {"u": "b", "v": None, "len": "inf"}, ["b", None, "inf"],
        {"u": "d", "v": None, "len": "inf"}, {"u": "d", "v": None, "len": "inf"},
    ],
}
TRIPOD = {
    "vertices": [0, 1, 2, 3],
    "edges": [{"u": 0, "v": t, "len": "2/3"} for t in (1, 2, 3)],
}
MEASURES = [
    {"atoms": [{"edge": 0, "offset": "1/3", "mass": "1/2"},
               {"edge": 1, "offset": "0", "mass": "1/4"},
               {"edge": 2, "offset": "1", "mass": "1/4"}]},
    {"atoms": [{"edge": 3, "offset": "5", "mass": "2/3"},
               {"edge": 0, "offset": "1/2", "mass": "1/3"}]},
]
H = {"values": {"c": "1", "a": "-2/3", "b": "0", "d": "5"}}
_star3 = build_tree(STAR3)
TABLE = io.flag_table_to_dict(radon_forward(
    _star3, vertex_function(_star3, {"c": 1, "a": 2, "d": -1})))

JUNK = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 10**30)
    | st.floats(allow_infinity=True, allow_nan=True) | st.text(max_size=4)
    | st.sampled_from(["inf", "0", "-1", "1/0", "3/2", "1e3", "10" * 20, "a", "c", "", "-0"]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                max_size=3),
    max_leaves=6,
)


@st.composite
def mutated(draw, value):
    """``value`` with a few of its nodes replaced, dropped or extended."""
    roll = draw(st.integers(0, 29))
    if roll == 0:
        return draw(JUNK)
    if isinstance(value, dict):
        out = {}
        for key, item in value.items():
            if draw(st.integers(0, 29)) == 0:
                continue
            out[key] = draw(mutated(item))
        if roll == 1:
            out[draw(st.sampled_from(["u", "v", "len", "edge", "offset", "mass", "x"]))] = draw(JUNK)
        return out
    if isinstance(value, list):
        out = [draw(mutated(item)) for item in value if draw(st.integers(0, 29))]
        if roll == 1:
            out.insert(draw(st.integers(0, len(out))), draw(JUNK))
        return out
    return value


def document(base):
    return st.one_of(st.just(base), mutated(base), JUNK)


@st.composite
def renamed(draw, tree):
    """``tree`` with its vertex ids swapped for arbitrary JSON scalars, the
    same in every edge, so null, bool, float and colliding ids get past
    the endpoint checks. Ids drawn from 1, "1", 2.0 and "2.0" often share
    a name without being equal."""
    scalars = (st.none() | st.booleans() | st.integers(-2, 3) | st.floats() | st.text(max_size=2)
               | st.sampled_from([1, "1", 2.0, "2.0"]))
    names = {v: draw(scalars) for v in tree["vertices"]}

    def edge(entry):
        if isinstance(entry, dict):
            return {**entry, "u": names[entry["u"]], "v": names.get(entry["v"])}
        return [names[entry[0]], names.get(entry[1]), entry[2]]

    return {"vertices": list(names.values()), "edges": [edge(e) for e in tree["edges"]]}


TREES = st.sampled_from([STAR3, TRIPOD]).flatmap(lambda base: document(base) | renamed(base))
RATIONAL_FLAGS = st.sampled_from(["1", "0", "1/2", "2", "-1", "x", "1.5", "1/0", "10" * 20])
# Output placeholders, each resolved inside the run's temporary directory.
OUTPUTS = {"OUT": "out.json", "DIR": "taken", "MISSING": os.path.join("missing", "out.json")}
OUT = st.sampled_from(["OUT"] * 4 + ["DIR", "MISSING"])


def run(argv, files):
    """Write the documents, run ``main`` in process; return (code, stderr)."""
    with tempfile.TemporaryDirectory() as tmp:
        os.mkdir(os.path.join(tmp, "taken"))
        paths = {name: os.path.join(tmp, out) for name, out in OUTPUTS.items()}
        for name, doc in files.items():
            paths[name] = os.path.join(tmp, f"{name}.json")
            with open(paths[name], "w") as handle:
                json.dump(doc, handle)
        argv = [paths.get(arg, arg) for arg in argv]
        err = StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(StringIO()):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse's own exit
                code = exc.code
    return code, err.getvalue()


def check(code, stderr):
    assert code in (0, 1, 2)
    assert "Traceback" not in stderr
    assert sum("error:" in line for line in stderr.splitlines()) <= 1


@st.composite
def command(draw, name):
    """argv (with file and output placeholders) and the documents it reads."""
    if name == "gen-tree":
        argv = ["gen-tree", "--seed", str(draw(st.integers(0, 9))),
                "--max-vertices", str(draw(st.integers(-1, 6))),
                "--mode", draw(st.sampled_from(["finite", "complete"])),
                "--min-valency", str(draw(st.integers(-1, 4))),
                "--max-valency", str(draw(st.integers(-1, 5))),
                "--max-denominator", str(draw(st.integers(-1, 9))), "--out", draw(OUT)]
        return argv, {}
    if name == "verify":
        argv = ["verify", "--seed", str(draw(st.integers(0, 9))),
                "--trials", str(draw(st.integers(-1, 1))),
                "--max-vertices", str(draw(st.integers(-1, 5))),
                "--min-valency", str(draw(st.integers(0, 4))),
                "--max-valency", str(draw(st.integers(0, 4))),
                "--max-atoms", str(draw(st.integers(-1, 3))),
                "--max-denominator", str(draw(st.integers(0, 5))), "--out", draw(OUT)]
        return argv, {}
    files = {"tree": draw(TREES)}
    if name == "radon":
        files["h"] = draw(document(H))
        return ["radon", "tree", "h", "--out", draw(OUT)], files
    if name == "invert":
        files["table"] = draw(document(TABLE))
        return ["invert", "tree", "table", "--total", draw(RATIONAL_FLAGS),
                "--out", draw(OUT)], files
    files["mu"] = draw(st.sampled_from(MEASURES).flatmap(document))
    if name == "reconstruct":
        argv = ["reconstruct", "tree", "mu", "--out", draw(OUT)]
        skeleton = draw(st.sampled_from([None, "0,1,2", "0,x", "99", "-1", ",,", "True"]))
        return argv + ([] if skeleton is None else ["--skeleton", skeleton]), files
    files["nu"] = draw(st.sampled_from(MEASURES).flatmap(document))
    argv = [name, "tree", "mu", "nu"]
    if name == "interpolate":
        argv += ["--t", draw(RATIONAL_FLAGS)]
    return argv + ["--out", draw(OUT)], files


@pytest.mark.parametrize("name", ["gen-tree", "radon", "invert", "w2", "plan",
                                  "interpolate", "reconstruct", "verify"])
@given(data=st.data())
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_every_subcommand_survives_malformed_input(name, data):
    argv, files = data.draw(command(name))
    check(*run(argv, files))


# Every file argument of every subcommand, each replaced by a file that
# json cannot turn into a value: nesting past the recursion limit, an
# integer literal past the int-from-string digit limit, and bytes that are
# not UTF-8.
PATHOLOGICAL = {"deep": b"[" * 100000, "huge-int": b"1" * 5000, "not-utf8": b'{"\xff": 1}'}
FILE_ARGUMENTS = [(argv, slot) for argv in (
    ["radon", "tree", "h", "--out", "OUT"],
    ["invert", "tree", "table", "--total", "1", "--out", "OUT"],
    ["w2", "tree", "mu", "nu"],
    ["plan", "tree", "mu", "nu", "--out", "OUT"],
    ["interpolate", "tree", "mu", "nu", "--t", "1/2", "--out", "OUT"],
    ["reconstruct", "tree", "mu", "--out", "OUT"],
) for slot in argv[1:] if slot in ("tree", "h", "table", "mu", "nu")]


@pytest.mark.parametrize("kind", sorted(PATHOLOGICAL))
@pytest.mark.parametrize("argv, slot", FILE_ARGUMENTS,
                         ids=[f"{argv[0]}-{slot}" for argv, slot in FILE_ARGUMENTS])
def test_pathological_json_is_one_line_error(tmp_path, argv, slot, kind):
    valid = {"tree": STAR3, "h": H, "table": TABLE, "mu": MEASURES[0], "nu": MEASURES[1]}
    paths = {}
    for name in argv[1:]:
        if name in valid:
            paths[name] = tmp_path / f"{name}.json"
            paths[name].write_bytes(PATHOLOGICAL[kind] if name == slot
                                    else json.dumps(valid[name]).encode())
    argv = [str(paths[arg]) if arg in paths else arg for arg in argv]
    argv = [str(tmp_path / "out.json") if arg == "OUT" else arg for arg in argv]
    err = StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(StringIO()):
        code = main(argv)
    lines = err.getvalue().splitlines()
    assert code == 2
    assert len(lines) == 1 and lines[0].startswith("error: ")
