"""Command-line behaviour: exit codes, determinism, file formats."""

import argparse
import hashlib
import json
import os
import random
import subprocess
import sys
from fractions import Fraction as F

import pytest

from common import STAR3, TRIPOD, count_calls, distinct_points, pivots_per_solve, random_masses
from treeradon import (
    SolverError,
    SuiteConfig,
    gen_measure,
    gen_point,
    gen_tree,
    gen_vertex_function,
    io,
    make_measure,
    optimal_plan,
    transport,
    vertex_function,
)
from treeradon.cli import _build_parser, _suite_config, main
from treeradon.verify import run_suite


def write_star3(tmp_path):
    path = tmp_path / "star3.json"
    star3 = io.build_tree(STAR3)
    io.save_tree(star3, path)
    return path, star3


def write_tripod(tmp_path):
    path = tmp_path / "tripod.json"
    tripod = io.build_tree(TRIPOD)
    io.save_tree(tripod, path)
    return path, tripod


def write_seeded_16x16(tmp_path):
    """star3 and two 16-atom measures with random masses, from a fixed seed."""
    tree_file, star3 = write_star3(tmp_path)
    rng = random.Random(16)
    files = []
    for name in ("mu", "nu"):
        def spot():
            eid = rng.randrange(len(star3.edges))
            stretch = rng.randint(1, 4) if star3.edge(eid).is_ray else 1
            return star3.point(eid, F(rng.randint(0, 12), 12) * stretch)

        points = distinct_points(16, spot)
        path = tmp_path / f"{name}.json"
        io.save_measure(star3, make_measure(star3, zip(points, random_masses(rng, 16))), path)
        files.append(path)
    return tree_file, *files


class TestGenTree:
    def test_writes_valid_tree(self, tmp_path, capsys):
        out = tmp_path / "t.json"
        code = main(["gen-tree", "--seed", "1", "--max-vertices", "6",
                     "--mode", "complete", "--out", str(out)])
        assert code == 0
        tree = io.load_tree(out)
        assert tree.geodesically_complete

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        argv = ["gen-tree", "--seed", "1", "--max-vertices", "6", "--mode", "complete"]
        assert main(argv + ["--out", str(a)]) == 0
        assert main(argv + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_bogus_mode_is_usage_error(self, tmp_path, capsys):
        code = main(["gen-tree", "--mode", "bogus", "--out", str(tmp_path / "t.json")])
        assert code == 2


class TestRadonInvert:
    def test_forward_then_invert_round_trip(self, tmp_path, capsys):
        tree_file, star3 = write_star3(tmp_path)
        h_file = tmp_path / "h.json"
        io.save_vertex_function(
            vertex_function(star3, {"c": 1, "a": 2, "b": 3, "d": 4}), h_file)
        table_file = tmp_path / "table.json"
        assert main(["radon", str(tree_file), str(h_file), "--out", str(table_file)]) == 0
        rows = json.loads(table_file.read_text())["flags"]
        assert len(rows) == 12
        by_key = {(r["x"], r["e"], r["f"]): r["value"] for r in rows}
        assert by_key[("c", 0, 1)] == "5"

        out_file = tmp_path / "h2.json"
        assert main(["invert", str(tree_file), str(table_file),
                     "--total", "10", "--out", str(out_file)]) == 0
        assert out_file.read_bytes() == h_file.read_bytes()

    def test_missing_total_is_usage_error(self, tmp_path):
        tree_file, _ = write_star3(tmp_path)
        code = main(["invert", str(tree_file), str(tree_file), "--out", str(tmp_path / "x")])
        assert code == 2

    def test_duplicate_flag_rows_are_usage_error(self, tmp_path, capsys):
        tree_file, _ = write_star3(tmp_path)
        table_file = tmp_path / "table.json"
        table_file.write_text(json.dumps({"flags": [
            {"x": "c", "e": 0, "f": 1, "value": "1"},
            {"x": "c", "e": 1, "f": 0, "value": "5"}]}))
        code = main(["invert", str(tree_file), str(table_file),
                     "--total", "1", "--out", str(tmp_path / "h.json")])
        assert code == 2
        lines = capsys.readouterr().err.splitlines()
        assert lines == ["error: flag rows 0 and 1 give the same flag"]
        assert not (tmp_path / "h.json").exists()

    def test_malformed_h_file(self, tmp_path, capsys):
        tree_file, _ = write_star3(tmp_path)
        h_file = tmp_path / "h.json"
        h_file.write_text("{broken")
        code = main(["radon", str(tree_file), str(h_file), "--out", str(tmp_path / "t")])
        assert code == 2

    def test_leafy_tree_is_domain_error(self, tmp_path, capsys):
        tree_file, tripod = write_tripod(tmp_path)
        table_file = tmp_path / "table.json"
        io.save_flag_table(
            __import__("treeradon").radon_forward(tripod, vertex_function(tripod, {})),
            table_file)
        code = main(["invert", str(tree_file), str(table_file),
                     "--total", "0", "--out", str(tmp_path / "h.json")])
        assert code == 1


class TestW2AndPlan:
    def test_tip_diracs(self, tmp_path, capsys):
        tree_file, tripod = write_tripod(tmp_path)
        mu_file, nu_file = tmp_path / "mu.json", tmp_path / "nu.json"
        io.save_measure(tripod, make_measure(tripod, [(tripod.vertex_point("x"), 1)]), mu_file)
        io.save_measure(tripod, make_measure(tripod, [(tripod.vertex_point("y"), 1)]), nu_file)
        assert main(["w2", str(tree_file), str(mu_file), str(nu_file)]) == 0
        assert capsys.readouterr().out.strip() == "4"

    def test_identical_measures(self, tmp_path, capsys):
        tree_file, tripod = write_tripod(tmp_path)
        mu_file = tmp_path / "mu.json"
        io.save_measure(tripod, make_measure(tripod, [(tripod.vertex_point("x"), 1)]), mu_file)
        assert main(["w2", str(tree_file), str(mu_file), str(mu_file)]) == 0
        assert capsys.readouterr().out.strip() == "0"

    def test_three_atom_case_matches_oracle(self, tmp_path, capsys):
        from treeradon import w2_squared_enumerated
        tree_file, tripod = write_tripod(tmp_path)
        mu = make_measure(tripod, [
            (tripod.vertex_point("x"), F(1, 3)),
            (tripod.vertex_point("y"), F(1, 3)),
            (tripod.point(2, F(1, 2)), F(1, 3)),
        ])
        nu = make_measure(tripod, [
            (tripod.vertex_point("o"), F(1, 2)),
            (tripod.vertex_point("z"), F(1, 2)),
        ])
        mu_file, nu_file = tmp_path / "mu.json", tmp_path / "nu.json"
        io.save_measure(tripod, mu, mu_file)
        io.save_measure(tripod, nu, nu_file)
        assert main(["w2", str(tree_file), str(mu_file), str(nu_file)]) == 0
        printed = capsys.readouterr().out.strip()
        assert printed == str(w2_squared_enumerated(tripod, mu, nu))

    def test_solver_error_is_one_error_line(self, tmp_path, capsys, monkeypatch):
        # a valid input can run past the pivot limit; the CLI reports it as
        # a failure (exit 1) on one line, not a traceback
        def give_up(supply, demand, cost):
            raise SolverError("pivot limit exceeded")

        monkeypatch.setattr("treeradon.transport._transportation_simplex", give_up)
        tree_file, tripod = write_tripod(tmp_path)
        mu_file, nu_file = tmp_path / "mu.json", tmp_path / "nu.json"
        io.save_measure(tripod, make_measure(tripod, [(tripod.vertex_point("x"), 1)]), mu_file)
        io.save_measure(tripod, make_measure(tripod, [(tripod.vertex_point("y"), 1)]), nu_file)
        assert main(["w2", str(tree_file), str(mu_file), str(nu_file)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == ["error: pivot limit exceeded"]
        assert "Traceback" not in captured.err

    def test_plan_file(self, tmp_path, capsys):
        tree_file, tripod = write_tripod(tmp_path)
        mu_file, nu_file = tmp_path / "mu.json", tmp_path / "nu.json"
        io.save_measure(tripod, make_measure(tripod, [(tripod.vertex_point("x"), 1)]), mu_file)
        io.save_measure(tripod, make_measure(tripod, [(tripod.vertex_point("y"), 1)]), nu_file)
        out = tmp_path / "plan.json"
        assert main(["plan", str(tree_file), str(mu_file), str(nu_file),
                     "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["w2_squared"] == "4"

    def test_interpolate(self, tmp_path, capsys):
        tree_file, tripod = write_tripod(tmp_path)
        mu_file, nu_file = tmp_path / "mu.json", tmp_path / "nu.json"
        io.save_measure(tripod, make_measure(tripod, [(tripod.vertex_point("x"), 1)]), mu_file)
        io.save_measure(tripod, make_measure(tripod, [(tripod.vertex_point("y"), 1)]), nu_file)
        out = tmp_path / "mid.json"
        assert main(["interpolate", str(tree_file), str(mu_file), str(nu_file),
                     "--t", "1/2", "--out", str(out)]) == 0
        mid = io.load_measure(tripod, out)
        assert mid == make_measure(tripod, [(tripod.vertex_point("o"), 1)])


# Digests of the files written at the commit before the solver moved from
# Fractions to scaled integers; the pivot sequence, and so the plan, must
# not change.
SEEDED_16X16_INPUT_SHA256 = (
    "0217482167cd21268ed762ec661d45173822fd8265d0b8ae13e748c6651d29ac",
    "76ed9659e518c38c8819c619a5dc34824f382c64a589f46eac6b1fb8930b7243",
)
SEEDED_16X16_PLAN_SHA256 = "d946611cfdc24075de2fbf518821c54aaacc8e8deff04937e11542da6068ca28"


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_seeded_16x16_plan_files_are_byte_identical(tmp_path, capsys):
    tree_file, mu_file, nu_file = write_seeded_16x16(tmp_path)
    assert (_sha256(mu_file), _sha256(nu_file)) == SEEDED_16X16_INPUT_SHA256
    inputs = [str(tree_file), str(mu_file), str(nu_file)]
    plan_file, w2_file = tmp_path / "plan.json", tmp_path / "w2.json"
    assert main(["plan", *inputs, "--out", str(plan_file)]) == 0
    assert main(["w2", *inputs, "--out", str(w2_file)]) == 0
    assert _sha256(plan_file) == SEEDED_16X16_PLAN_SHA256
    assert _sha256(w2_file) == SEEDED_16X16_PLAN_SHA256


def write_seeded_equal_mass_inputs(tmp_path):
    """A generated leafless tree and two 32-atom measures with every mass
    1/32, from a fixed seed. Spots with denominators up to 4 on a
    ten-vertex tree give 189 distinct costs among 1,024 cells: the solver
    takes 781 pivots, 663 of them degenerate, and several plans are
    optimal, so a different entering or leaving choice changes the plan
    file."""
    size, seed = 32, 11
    config = SuiteConfig(seed=seed, max_vertices=24, max_denominator=4)
    rng = random.Random(seed)
    tree = gen_tree(config, "complete", rng)
    tree_file = tmp_path / "tree.json"
    io.save_tree(tree, tree_file)
    files = [tree_file]
    for name in ("mu", "nu"):
        points = distinct_points(size, lambda: gen_point(tree, rng, config.max_denominator))
        path = tmp_path / f"{name}.json"
        io.save_measure(tree, make_measure(tree, ((p, F(1, size)) for p in points)), path)
        files.append(path)
    return files


# Digests of the inputs and of the plan file written at the commit before
# the solver kept its basis as one rooted tree; ties make the plan depend
# on the exact pivot sequence.
SEEDED_EQUAL_MASS_INPUT_SHA256 = (
    "49c940abb71c55aac19d3a9010a8cd0fdeb2793347a710c0fb6d02db1ef25ee1",
    "2cd9621fe863c1c781e6e08844c472e0f29661e8cfc8640de40c3bf3587ae71f",
    "2c66b381b82bae5385aedbffe6de924ba9bbdc96b43c93d2e7478cdffa676fd4",
)
SEEDED_EQUAL_MASS_PLAN_SHA256 = "48b74dacbfd1c9271b24805f66d3e0a87174ba2318841d31d39f2861dddb73ba"


def test_seeded_equal_mass_32x32_plan_file_is_byte_identical(tmp_path, capsys):
    files = write_seeded_equal_mass_inputs(tmp_path)
    assert tuple(_sha256(f) for f in files) == SEEDED_EQUAL_MASS_INPUT_SHA256
    plan_file = tmp_path / "plan.json"
    assert main(["plan", *map(str, files), "--out", str(plan_file)]) == 0
    assert _sha256(plan_file) == SEEDED_EQUAL_MASS_PLAN_SHA256


@pytest.mark.parametrize("write, first, pivots", [(write_seeded_16x16, 45, 162),
                                                   (write_seeded_equal_mass_inputs, 127, 781)],
                         ids=["write_seeded_16x16-162", "write_seeded_equal_mass_inputs-781"])
def test_seeded_plans_take_the_same_number_of_pivots(tmp_path, monkeypatch, write, first,
                                                     pivots):
    # equal plan files do not prove an equal pivot sequence, so count the
    # calls of transport._pivot, one per pivot. Both inputs have ties, so
    # the first solve's pivots are followed by Bland's, counted apart:
    # Bland's count is the one pinned before the first solve existed.
    tree_file, mu_file, nu_file = write(tmp_path)
    tree = io.load_tree(tree_file)
    mu, nu = io.load_measure(tree, mu_file), io.load_measure(tree, nu_file)
    pivoted = count_calls(monkeypatch, transport, "_pivot")
    blands = count_calls(monkeypatch, transport, "_bland_simplex")
    optimal_plan(tree, mu, nu)
    assert len(blands) == 1
    assert pivots_per_solve(pivoted) == [first, pivots]


# Digests of the interpolate files written at the commit before Wasserstein
# geodesics walked their plan's path segments directly; the bench transport
# digest leaves interpolated measures out.
SEEDED_INTERPOLATE_SHA256 = {
    ("16x16", "1/3"): "568ba8a6247fdf23127ce8a2914dcef7435d96d130a9d58c253610537538a798",
    ("16x16", "1/2"): "4cb5e844b0345e6bb67cbe03a5e2a73e11558788a5c16286a39444aca76ff2f2",
    ("32x32", "1/3"): "8f3bff8911b90da49d68c2bfc20dc734335854faeef4b055a19b273a5e3b8139",
    ("32x32", "1/2"): "4d4648f1728a691778901abbbd1e97db53eb35b6f049981b3a49866a443530d0",
}


def test_seeded_interpolate_files_are_byte_identical(tmp_path, capsys):
    for name, write in (("16x16", write_seeded_16x16),
                        ("32x32", write_seeded_equal_mass_inputs)):
        tree_file, mu_file, nu_file = write(tmp_path)
        inputs = [str(tree_file), str(mu_file), str(nu_file)]
        out = tmp_path / "out.json"
        for t, ends in (("0", mu_file), ("1", nu_file)):
            assert main(["interpolate", *inputs, "--t", t, "--out", str(out)]) == 0
            assert out.read_bytes() == ends.read_bytes()
        for t in ("1/3", "1/2"):
            assert main(["interpolate", *inputs, "--t", t, "--out", str(out)]) == 0
            assert _sha256(out) == SEEDED_INTERPOLATE_SHA256[(name, t)]


def write_seeded_reconstruct_inputs(tmp_path, seed):
    """A generated leafless tree and a hidden measure on it, from a fixed seed."""
    config = SuiteConfig(seed=seed, max_vertices=12, max_valency=5, max_atoms=6,
                         max_denominator=11)
    rng = random.Random(seed)
    tree = gen_tree(config, "complete", rng)
    tree_file, hidden_file = tmp_path / f"tree-{seed}.json", tmp_path / f"hidden-{seed}.json"
    io.save_tree(tree, tree_file)
    io.save_measure(tree, gen_measure(config, tree, rng), hidden_file)
    return tree_file, hidden_file


# Digests of the inputs and of the reconstruct output files written at the
# commit before reconstruction dropped its per-edge queries; the provenance
# must not change.
SEEDED_RECONSTRUCT_SHA256 = {
    (7, None): (
        "d5fc44df250942eec88654080b528c25fec46258689afde51971170d4c67b951",
        "732668901431dbaa3f118706e10d68700130e042ea5d6f8e71db5fbc5653412b",
        "eedb4966ff3a6f657d26ea7b7ab42c736179b114eca48a928acab79eab1d1821",
    ),
    (10, "0,1,2,3,4,6,8,9,10,12,14"): (
        "ade863f69e54f8e7b4016fa169dad2c9d7312efbf42e73bafe6e4b959e88b3b8",
        "53bad6bca6740bf21fbce9ea160ebb932cce46e55d71c9e78de072e89160b65f",
        "1d5f285a3fdc7dff1749864f6e8ea247507ed0444c353d1378a6d92a2c1e4f8e",
    ),
}


@pytest.mark.parametrize("seed, skeleton", list(SEEDED_RECONSTRUCT_SHA256))
def test_seeded_reconstruct_files_are_byte_identical(tmp_path, capsys, seed, skeleton):
    tree_file, hidden_file = write_seeded_reconstruct_inputs(tmp_path, seed)
    out = tmp_path / "rec.json"
    argv = ["reconstruct", str(tree_file), str(hidden_file), "--out", str(out)]
    if skeleton is not None:
        argv += ["--skeleton", skeleton]
    assert main(argv) == 0
    digests = (_sha256(tree_file), _sha256(hidden_file), _sha256(out))
    assert digests == SEEDED_RECONSTRUCT_SHA256[(seed, skeleton)]


def write_seeded_radon_inputs(tmp_path):
    """A generated leafless tree of 208 vertices and two vertex functions
    on it, from a fixed seed: one with denominators up to 12, and one with
    a distinct prime denominator per vertex, whose flag values carry
    denominators of hundreds of digits."""
    seed = 6
    config = SuiteConfig(seed=seed, max_vertices=400)
    rng = random.Random(seed)
    tree = gen_tree(config, "complete", rng)
    primes = [p for p in range(1009, 4096) if all(p % d for d in range(2, 64))]
    functions = {
        "small": gen_vertex_function(config, tree, rng),
        "prime": vertex_function(tree, {v: F(rng.randint(-50, 50), p)
                                        for v, p in zip(tree.vertices, primes)}),
    }
    tree_file = tmp_path / "tree.json"
    io.save_tree(tree, tree_file)
    h_files = {}
    for kind, h in functions.items():
        h_files[kind] = tmp_path / f"h-{kind}.json"
        io.save_vertex_function(h, h_files[kind])
    return tree_file, h_files, {kind: h.total for kind, h in functions.items()}


# Digests of the files written at the commit before the Radon kernels summed
# each vertex's flags as integers and took at most one subtraction per flag,
# keyed by h kind: (h file, radon table file). Inverting the table must give
# the h file back byte for byte.
SEEDED_RADON_TREE_SHA256 = "3a28fcb2a15724db3821aeb11680bdfc91189b605efc8292676b0b82ef73bcea"
SEEDED_RADON_SHA256 = {
    "small": ("07d0e2e715ba7e48be313b6576461d686d38dc479c9bcaccf6ed0944eea15e9a",
              "a0f73d94d71e71e3d1aa1aad1052e6d1ea24348e0abb3d0ba36d41fe6106d919"),
    "prime": ("2ccbb4d643f81f26cc35f112f412c72b30498f464627a0007c902c217bcd0a0e",
              "86e24e12447ec1bbf28c0d549e166d8264b8bc62e6231895175b9b960721e8cd"),
}


def test_seeded_radon_and_invert_files_are_byte_identical(tmp_path, capsys):
    tree_file, h_files, totals = write_seeded_radon_inputs(tmp_path)
    got = {}
    for kind, h_file in h_files.items():
        table_file, inverse_file = tmp_path / f"table-{kind}.json", tmp_path / f"inv-{kind}.json"
        assert main(["radon", str(tree_file), str(h_file), "--out", str(table_file)]) == 0
        assert main(["invert", str(tree_file), str(table_file), f"--total={totals[kind]}",
                     "--out", str(inverse_file)]) == 0
        assert inverse_file.read_bytes() == h_file.read_bytes()
        got[kind] = (_sha256(h_file), _sha256(table_file))
    assert _sha256(tree_file) == SEEDED_RADON_TREE_SHA256
    assert got == SEEDED_RADON_SHA256


# Digests of the hidden measure on the seeded 208-vertex radon tree and of
# the reconstruct output written from it, at the commit before geodesic
# coordinates were measured from the origin.
SEEDED_RECONSTRUCT_AT_SCALE_SHA256 = (
    "2637f16d6b77506fdf33bc5b72f73db51486d75d47e73854a816e0e4bc439a04",
    "65342b5c61acda4dbaf676009432d10baa6b03fa9692d0a1e9321a704875b36b",
)


def test_seeded_reconstruct_at_scale_is_byte_identical(tmp_path, capsys):
    tree_file, _, _ = write_seeded_radon_inputs(tmp_path)
    tree = io.load_tree(tree_file)
    rng = random.Random(208)
    points = [tree.vertex_point(v) for v in rng.sample(tree.vertices, 4)]
    for rec in rng.sample(tree.edges, 6):
        scale = F(rng.randint(1, 9)) if rec.is_ray else rec.length
        points.append(tree.point(rec.id, scale * F(rng.randint(1, 5), 6)))
    weights = [rng.randint(1, 12) for _ in points]
    hidden_file, out = tmp_path / "hidden.json", tmp_path / "rec.json"
    io.save_measure(tree, make_measure(tree, [(p, F(w, sum(weights)))
                                              for p, w in zip(points, weights)]), hidden_file)
    assert main(["reconstruct", str(tree_file), str(hidden_file), "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert io.measure_from_dict(tree, payload["measure"]) == io.load_measure(tree, hidden_file)
    assert any(row["interior"] != "0" for row in payload["provenance"]["flag_subtractions"])
    assert (_sha256(hidden_file), _sha256(out)) == SEEDED_RECONSTRUCT_AT_SCALE_SHA256


# Digests of ``treeradon gen-tree`` files, keyed by (mode, min valency, max
# valency, max vertices, seed), written at the commit before the generator
# stopped recounting degrees; they pin both the contraction of valency-2
# vertices and the rays attached in complete mode.
SEEDED_GEN_TREE_SHA256 = {
    ("finite", 3, 5, 8, 0): "ae5e0401f8ead4017d855e6dc9586eae5da9aec175f1b47205cd172cf23e0edb",
    ("finite", 3, 5, 8, 1): "ba56f6d12efafeaa27c51c780e179a4e94ca8a06bdaad8ad24919ffec29571d8",
    ("finite", 3, 5, 8, 2): "fa7570f7be6bf8a7f52f9826bad7540709926a1bef049552fe50abf57194a751",
    ("finite", 1, 3, 8, 0): "d38b6764c60fcf573e94649775147d1df0c1720b57b31faa45af9988f62eff38",
    ("finite", 1, 3, 8, 1): "ba56f6d12efafeaa27c51c780e179a4e94ca8a06bdaad8ad24919ffec29571d8",
    ("finite", 1, 3, 8, 2): "458db34722eee83f8c56fcbd37ccb911d4cf00a56b8056e709ef02bd7a3b1962",
    ("finite", 1, 5, 60, 0): "8b1f5c56faa0c36483545d9df5ee0590351675606c72e2c2a05f8dfb2cfdbee3",
    ("finite", 1, 5, 60, 1): "5def3925c3c1e59ee33ca891f4e816f3fae037957c2fac7ec533417d2d58c2ba",
    ("finite", 1, 5, 60, 2): "597be9f8add0b60a42c63cc9f93565647146c301034c7c0dda5432b58b9497e7",
    ("finite", 4, 6, 60, 0): "6e37637a951f7a1320b7e6fe5acff404978cc77d01a148f2c6f525ae40aeef1f",
    ("finite", 4, 6, 60, 1): "5def3925c3c1e59ee33ca891f4e816f3fae037957c2fac7ec533417d2d58c2ba",
    ("finite", 4, 6, 60, 2): "d45e25992a79c24e1f4fb59986f40ee2bffaa94b979c59ab18db55673bb93221",
    ("complete", 3, 5, 8, 0): "181e7512cf1e77c1e32b3f7bc0a40714d48b9cb198b15301f28156df27fbec2e",
    ("complete", 3, 5, 8, 1): "5a9bc562f16024904757a71b3121fc71fb109b65d4e9b9565bae5e75b828afbb",
    ("complete", 3, 5, 8, 2): "003dd64e75b7f6988692e70e96e3a64e3e36e17ed2e6e78f5dc74f96ec1e9b6e",
    ("complete", 1, 3, 8, 0): "428a5eb775b1169083c1a1aba2a026bc863c03d7d69c9ffada99ac83dde42f38",
    ("complete", 1, 3, 8, 1): "5a9bc562f16024904757a71b3121fc71fb109b65d4e9b9565bae5e75b828afbb",
    ("complete", 1, 3, 8, 2): "003dd64e75b7f6988692e70e96e3a64e3e36e17ed2e6e78f5dc74f96ec1e9b6e",
    ("complete", 1, 5, 60, 0): "a4a436be34f82a1612b02d438e88a19901f7b3f4a5079a4100d17e3230cbd001",
    ("complete", 1, 5, 60, 1): "3a9a4c347d272d832bc0412b9fe33e08a9b817e15cd0bf7df92659882c370cb4",
    ("complete", 1, 5, 60, 2): "1a7ba1826c6fd7d4074ee1de1061a7d34df4988e8d226dc8dded4daa2c86973c",
    ("complete", 4, 6, 60, 0): "d2d807b3c1ef874afe5a56782bb2b067f566927426725539ba9ac01bd330c815",
    ("complete", 4, 6, 60, 1): "bb52815de1d10cf540ffb7022e186837f8c461ad732b1f326fc3ea232f0ffcb9",
    ("complete", 4, 6, 60, 2): "17d390a5082e89a2e6fee95cceaebaafcbee5d6e999fa7d35d8078ad9e4ddfa8",
}


def test_seeded_gen_tree_files_are_byte_identical(tmp_path, capsys):
    got = {}
    for mode, lo, hi, max_vertices, seed in SEEDED_GEN_TREE_SHA256:
        out = tmp_path / f"{mode}-{lo}-{hi}-{max_vertices}-{seed}.json"
        assert main(["gen-tree", "--seed", str(seed), "--mode", mode,
                     "--min-valency", str(lo), "--max-valency", str(hi),
                     "--max-vertices", str(max_vertices), "--out", str(out)]) == 0
        got[(mode, lo, hi, max_vertices, seed)] = _sha256(out)
    assert got == SEEDED_GEN_TREE_SHA256


TRIPOD_EDGES = [{"u": "o", "v": t, "len": "1"} for t in ("x", "y", "z")]
MEASURE = {"atoms": [{"edge": 0, "offset": "0", "mass": "1"}]}


@pytest.mark.parametrize("command, tree, payload", [
    ("w2", {"vertices": 5, "edges": TRIPOD_EDGES}, MEASURE),
    ("w2", {"vertices": ["o", "x", "y", "z"], "edges": 3}, MEASURE),
    ("w2", {"vertices": [["o"], "x", "y", "z"], "edges": TRIPOD_EDGES}, MEASURE),
    ("w2", {"vertices": ["o", "x", "y", "z"],
            "edges": [{"u": ["o"], "v": "x", "len": "1"}] + TRIPOD_EDGES[1:]}, MEASURE),
    ("w2", {"vertices": ["o", "x", "y", "z"],
            "edges": [{"u": "o", "v": ["x"], "len": "1"}] + TRIPOD_EDGES[1:]}, MEASURE),
    ("w2", {"vertices": [None, "x", "y", "z"],
            "edges": [{"u": None, "v": t, "len": "1"} for t in "xyz"]},
     {"atoms": [{"edge": 0, "offset": "1/2", "mass": "1"}]}),
    ("w2", {"vertices": [1, "1", "a", "b"],
            "edges": [{"u": 1, "v": t, "len": "1"} for t in ("1", "a", "b")]}, MEASURE),
    ("w2", None, {"atoms": 5}),
    ("w2", None, {"atoms": [{"edge": True, "offset": "0", "mass": "1"}]}),
    ("invert --total 1", None, {"flags": 5}),
    ("invert --total 1", None, {"flags": [5]}),
    ("invert --total 1", None, {"flags": [{"x": ["o"], "e": 0, "f": 1, "value": "1"}]}),
    ("interpolate --t abc", None, MEASURE),
    ("invert --total 1.5", None, {"flags": []}),
    ("invert --total x", None, {"flags": []}),
], ids=["vertices-int", "edges-int", "vertex-list", "endpoint-u-list", "endpoint-v-list",
        "vertex-null", "ids-one-name", "atoms-int", "edge-bool", "flags-int", "flag-row-int", "flag-vertex-list",
        "t-word", "total-decimal", "total-word"])
def test_malformed_input_is_one_line_error(tmp_path, command, tree, payload):
    tree_file = tmp_path / "tree.json"
    data_file = tmp_path / "data.json"
    tree_file.write_text(json.dumps(tree or {"vertices": ["o", "x", "y", "z"],
                                             "edges": TRIPOD_EDGES}))
    data_file.write_text(json.dumps(payload))
    name, *flags = command.split()
    data_files = [str(data_file)] * (1 if name == "invert" else 2)
    argv = [name, str(tree_file), *data_files, *flags]
    if name != "w2":
        argv += ["--out", str(tmp_path / "out.json")]
    proc = subprocess.run([sys.executable, "-m", "treeradon.cli", *argv],
                          capture_output=True, text=True)
    assert proc.returncode in (1, 2)
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


# Error paths with the exit code and message each gives; "data" is the
# payload's file, on the tripod tree (x has edge 0 only).
@pytest.mark.parametrize("command, payload, code, message", [
    ("interpolate tree data data --t 3/2 --out OUT", MEASURE, 1,
     "interpolation parameter 3/2 outside [0, 1]"),
    ("w2 tree missing data", MEASURE, 2, "cannot read "),
    ("w2 tree data data", {"atoms": [{"edge": 0, "offset": "0"}]}, 2, "atom 0 has no mass"),
    ("radon tree data --out OUT", {"values": ["1"]}, 2,
     "'values' must map vertex ids to rationals"),
    ("invert tree data --total 1 --out OUT", {"flags": [{"x": "o", "e": 0, "f": 1}]}, 2,
     "flag row 0 missing key 'value'"),
    ("invert tree data --total 1 --out OUT",
     {"flags": [{"x": "o", "e": 0, "f": 0, "value": "1"}]}, 1, "a flag needs two distinct edges"),
    ("invert tree data --total 1 --out OUT",
     {"flags": [{"x": "x", "e": 0, "f": 1, "value": "1"}]}, 1,
     "edge 1 is not incident to vertex 'x'"),
    ("invert tree data --total 1 --out OUT", {"flags": {}}, 2,
     "a flag table file needs a 'flags' list"),
    ("invert tree data --total 1 --out OUT", {"flags": [3]}, 2, "flag row 0 is not an object"),
    ("reconstruct tree data --skeleton a,b --out OUT", MEASURE, 2, "bad skeleton list 'a,b'"),
    # int() reads these as edge ids 10, 0, 0 and -1
    ("reconstruct tree data --skeleton 1_0 --out OUT", MEASURE, 2, "bad skeleton list '1_0'"),
    ("reconstruct tree data --skeleton 0,+0 --out OUT", MEASURE, 2, "bad skeleton list '0,+0'"),
    ("reconstruct tree data --skeleton \uff10 --out OUT", MEASURE, 2,
     "bad skeleton list '\uff10'"),
    ("reconstruct tree data --skeleton -1 --out OUT", MEASURE, 2, "bad skeleton list '-1'"),
], ids=["t-outside", "missing-file", "atom-no-mass", "values-list", "row-no-value",
        "row-same-edge", "row-edge-not-incident", "flags-dict", "flag-row-int", "skeleton-word",
        "skeleton-underscore", "skeleton-plus", "skeleton-full-width", "skeleton-negative"])
def test_error_path_exit_and_message(tmp_path, capsys, command, payload, code, message):
    tree_file, _ = write_tripod(tmp_path)
    data_file = tmp_path / "data.json"
    data_file.write_text(json.dumps(payload))
    names = {"tree": str(tree_file), "data": str(data_file),
             "missing": str(tmp_path / "missing.json"), "OUT": str(tmp_path / "out.json")}
    assert main([names.get(arg, arg) for arg in command.split()]) == code
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: " + message)


def test_three_letter_edge_string_is_refused(tmp_path, capsys):
    # "ox1" is a sequence of three items, but not the edge o-x of length 1
    tree_file = tmp_path / "tree.json"
    tree_file.write_text(json.dumps({"vertices": ["o", "x", "y", "z"],
                                     "edges": ["ox1", *TRIPOD_EDGES[1:]]}))
    data_file = tmp_path / "h.json"
    data_file.write_text(json.dumps({"values": {"o": "1"}}))
    out = tmp_path / "out.json"
    assert main(["radon", str(tree_file), str(data_file), "--out", str(out)]) == 1
    assert capsys.readouterr().err.splitlines() == ["error: unintelligible edge entry 'ox1'"]
    assert not out.exists()


@pytest.mark.parametrize("where", ["existing-directory", "missing-parent"])
def test_unwritable_out_is_one_line_error(tmp_path, capsys, where):
    if where == "existing-directory":
        out = tmp_path / "taken"
        out.mkdir()
    else:
        out = tmp_path / "missing" / "t.json"
    assert main(["gen-tree", "--seed", "1", "--out", str(out)]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: cannot write {out}: ")
    assert not list(tmp_path.rglob("*.tmp"))


class TestReconstruct:
    def test_round_trip(self, tmp_path, capsys):
        tree_file, star3 = write_star3(tmp_path)
        hidden = make_measure(star3, [
            (star3.vertex_point("c"), F(1, 4)),
            (star3.vertex_point("a"), F(1, 4)),
            (star3.point(1, F(1, 3)), F(1, 2)),
        ])
        hidden_file = tmp_path / "hidden.json"
        io.save_measure(star3, hidden, hidden_file)
        out = tmp_path / "rec.json"
        assert main(["reconstruct", str(tree_file), str(hidden_file),
                     "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        recovered = io.measure_from_dict(star3, payload["measure"])
        assert recovered == hidden
        assert payload["provenance"]["interior_total"] == "1/2"

    def test_inconsistent_skeleton_is_domain_error(self, tmp_path, capsys):
        tree_file, star3 = write_star3(tmp_path)
        hidden = make_measure(star3, [
            (star3.point(1, F(1, 3)), F(1, 2)),
            (star3.vertex_point("c"), F(1, 2)),
        ])
        hidden_file = tmp_path / "hidden.json"
        io.save_measure(star3, hidden, hidden_file)
        code = main(["reconstruct", str(tree_file), str(hidden_file),
                     "--skeleton", "0,2,3,4,5,6,7,8", "--out", str(tmp_path / "r.json")])
        assert code == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("interior", [True, False], ids=["interior-mass", "vertex-mass"])
    def test_empty_skeleton_is_the_empty_list(self, tmp_path, capsys, interior):
        # "" is the empty list, as "," is, and not "all edges"
        tree_file, star3 = write_star3(tmp_path)
        atom = star3.point(1, F(1, 3)) if interior else star3.vertex_point("a")
        hidden = make_measure(star3, [(atom, F(1, 2)), (star3.vertex_point("c"), F(1, 2))])
        hidden_file = tmp_path / "hidden.json"
        io.save_measure(star3, hidden, hidden_file)
        outcomes = []
        for skeleton in ("", ","):
            out = tmp_path / f"r{len(skeleton)}.json"
            code = main(["reconstruct", str(tree_file), str(hidden_file),
                         "--skeleton", skeleton, "--out", str(out)])
            outcomes.append((code, capsys.readouterr().err,
                             out.read_bytes() if out.exists() else None))
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][0] == (1 if interior else 0)


class TestVerify:
    def test_default_run_passes(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main(["verify", "--trials", "3", "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["ok"] is True
        assert "duration_seconds" not in payload

    def test_trials_zero(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert main(["verify", "--trials", "0", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert all(p["trials"] == 0 for p in payload["properties"])

    def test_injected_fault_fails(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main(["verify", "--trials", "2", "--inject-fault", "--out", str(out)])
        assert code == 1
        assert json.loads(out.read_text())["ok"] is False

    def test_failing_report_is_the_stdlib_bytes(self, tmp_path, capsys):
        # the shrunk counterexample nests dicts and lists under str keys,
        # so the writer's recursive layout runs, not only its one-call shapes
        out = tmp_path / "r.json"
        assert main(["verify", "--inject-fault", "--trials", "2", "--out", str(out)]) == 1
        report = run_suite(SuiteConfig(trials=2, inject_fault=True))
        expected = json.dumps(report.to_dict(), indent=2, sort_keys=True, ensure_ascii=True) + "\n"
        assert out.read_bytes() == expected.encode()

    def test_unsatisfiable_bounds_are_one_line_error(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert main(["verify", "--trials", "2", "--min-valency", "1", "--max-valency", "2",
                     "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "error: the property suite needs max_vertices >= 2 and max_valency >= 3"]
        assert not out.exists()

    def test_report_reruns_byte_identical(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["verify", "--trials", "2", "--seed", "9", "--out", str(a)]) == 0
        assert main(["verify", "--trials", "2", "--seed", "9", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


def test_default_gen_tree_is_suite_config_default(tmp_path, capsys):
    out, expected = tmp_path / "cli.json", tmp_path / "lib.json"
    assert main(["gen-tree", "--out", str(out)]) == 0
    io.save_tree(gen_tree(SuiteConfig()), expected)
    assert out.read_bytes() == expected.read_bytes()


def test_default_verify_is_suite_config_default_at_20_trials(tmp_path, capsys):
    out, expected = tmp_path / "cli.json", tmp_path / "lib.json"
    assert main(["verify", "--out", str(out)]) == 0
    io.save_json(run_suite(SuiteConfig()).to_dict(), expected)
    assert out.read_bytes() == expected.read_bytes()


def test_unset_bounds_keep_the_suite_config_defaults(tmp_path):
    # the bounds default to argparse.SUPPRESS, so an option not given
    # leaves SuiteConfig's own default in place
    for argv in (["verify"], ["gen-tree", "--out", str(tmp_path / "t.json")]):
        assert _suite_config(_build_parser().parse_args(argv)) == SuiteConfig()


# Reports pinned byte for byte: a passing run, the self-test's failing run
# with its shrunk counterexample, and a run on larger trees and measures.
# A change to the suite's draws, checks or payloads changes a digest.
PINNED_REPORTS = [
    (["--seed", "1", "--trials", "20"], 0,
     "32e71aaae37c6d0cd3d96addd9340fd10eb34d76c9498caf75f75c1c40fe242b"),
    (["--inject-fault", "--trials", "20"], 1,
     "a94630cd9b37ea683664e3bbe657ed8ba279371931b530e5f1401e67837f4935"),
    (["--seed", "3", "--trials", "20", "--max-vertices", "30", "--max-atoms", "8",
      "--max-denominator", "30"], 0,
     "632158246d5441a808edb36148903621e76fadcf13a8c7b9e25e933ba5f11a0a"),
]


@pytest.mark.parametrize("args, code, digest", PINNED_REPORTS,
                         ids=["seed-1", "inject-fault", "seed-3-large"])
def test_verify_reports_are_pinned(tmp_path, capsys, args, code, digest):
    out = tmp_path / "report.json"
    assert main(["verify", *args, "--out", str(out)]) == code
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


# Every subcommand's arguments by dest: (option strings, default, type,
# required, choices, action, help). Written from the parser that declared
# each option in each subcommand, so a shared declaration that drops or
# changes one fails here. The generator's bounds default to
# argparse.SUPPRESS: an option not given stays out of the namespace, and
# the SuiteConfig that _suite_config builds keeps its own default.
_TREE_MU_NU = {
    "tree": ((), None, None, True, None, "_StoreAction", None),
    "mu": ((), None, None, True, None, "_StoreAction", None),
    "nu": ((), None, None, True, None, "_StoreAction", None),
}
_BOUNDS = {
    "seed": (("--seed",), argparse.SUPPRESS, int, False, None,
             "_StoreAction", None),
    "max_vertices": (("--max-vertices",), argparse.SUPPRESS, int, False, None,
                     "_StoreAction", None),
    "min_valency": (("--min-valency",), argparse.SUPPRESS, int, False, None,
                    "_StoreAction", None),
    "max_valency": (("--max-valency",), argparse.SUPPRESS, int, False, None,
                    "_StoreAction", None),
    "max_denominator": (("--max-denominator",), argparse.SUPPRESS, int, False, None,
                        "_StoreAction", None),
}
_OUT = (("--out",), None, None, True, None, "_StoreAction", None)
CLI_OPTIONS = {
    "gen-tree": {
        **_BOUNDS,
        "mode": (("--mode",), "complete", None, False, ("finite", "complete"),
                 "_StoreAction", None),
        "out": _OUT,
    },
    "radon": {
        "tree": _TREE_MU_NU["tree"],
        "h": ((), None, None, True, None, "_StoreAction", None),
        "out": _OUT,
    },
    "invert": {
        "tree": _TREE_MU_NU["tree"],
        "table": ((), None, None, True, None, "_StoreAction", None),
        "total": (("--total",), None, None, True, None, "_StoreAction",
                  "the function total, as p/q"),
        "out": _OUT,
    },
    "w2": {
        **_TREE_MU_NU,
        "out": (("--out",), None, None, False, None, "_StoreAction", "optional plan file"),
    },
    "plan": {**_TREE_MU_NU, "out": _OUT},
    "interpolate": {
        **_TREE_MU_NU,
        "t": (("--t",), None, None, True, None, "_StoreAction", "parameter in [0,1], as p/q"),
        "out": _OUT,
    },
    "reconstruct": {
        "tree": _TREE_MU_NU["tree"],
        "hidden": ((), None, None, True, None, "_StoreAction",
                   "measure file served through the oracle"),
        "skeleton": (("--skeleton",), None, None, False, None, "_StoreAction",
                     "comma-separated edge ids (default: all)"),
        "out": _OUT,
    },
    "verify": {
        **_BOUNDS,
        "trials": (("--trials",), argparse.SUPPRESS, int, False, None,
                   "_StoreAction", None),
        "max_atoms": (("--max-atoms",), argparse.SUPPRESS, int, False, None,
                      "_StoreAction", None),
        "inject_fault": (("--inject-fault",), False, None, False, None, "_StoreTrueAction",
                         "self-test: mutate one check so the suite must fail"),
        "out": (("--out",), None, None, False, None, "_StoreAction", "report file"),
    },
}


def test_every_subcommand_declares_its_options():
    parser = _build_parser()
    commands = next(a for a in parser._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
    got = {
        name: {
            a.dest: (tuple(a.option_strings), a.default, a.type, a.required, a.choices,
                     type(a).__name__, a.help)
            for a in command._actions if not isinstance(a, argparse._HelpAction)
        }
        for name, command in commands.items()
    }
    assert got == CLI_OPTIONS


class TestUsage:
    def test_no_command(self):
        assert main([]) == 2

    def test_unknown_flag(self, tmp_path):
        assert main(["gen-tree", "--nope", "--out", str(tmp_path / "t")]) == 2


def test_console_entry_point(tmp_path):
    out = tmp_path / "t.json"
    proc = subprocess.run(
        [sys.executable, "-m", "treeradon.cli", "gen-tree", "--seed", "3",
         "--max-vertices", "5", "--out", str(out)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert io.load_tree(out).geodesically_complete


def test_files_are_utf8_under_an_ascii_locale(tmp_path):
    # JSON is UTF-8 whatever the locale: vertex names stored as raw UTF-8
    # bytes must load, and come back in the flag table
    tree = io.build_tree({"vertices": ["β", "x", "y", "z"],
                          "edges": [("β", tip, 1) for tip in "xyz"]})
    tree_file, h_file, out = tmp_path / "tree.json", tmp_path / "h.json", tmp_path / "table.json"
    io.save_tree(tree, tree_file)
    io.save_vertex_function(vertex_function(tree, {"β": 1}), h_file)
    for path in (tree_file, h_file):
        payload = json.loads(path.read_text(encoding="utf-8"))
        path.write_bytes(json.dumps(payload, ensure_ascii=False).encode("utf-8"))
        assert "β".encode("utf-8") in path.read_bytes()
    env = {**os.environ, "LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0"}
    proc = subprocess.run(
        [sys.executable, "-m", "treeradon.cli", "radon", str(tree_file), str(h_file),
         "--out", str(out)],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert {flag["x"] for flag in json.loads(out.read_text())["flags"]} == {"β"}
