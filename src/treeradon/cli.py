"""Command-line interface.

Subcommands: gen-tree, radon, invert, w2, plan, interpolate, reconstruct,
verify. Outputs are pure functions of (inputs, flags, seed): repeated runs
produce byte-identical files. Exit codes: 0 success, 1 domain/validation
failure or a solver that gives up, 2 usage error or malformed input file.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields

from . import io
from .errors import DomainError, FileFormatError, SolverError
from .radon import radon_forward, radon_invert, radon_oracle, reconstruct_measure
from .rationals import format_rational
from .transport import interpolate, optimal_plan

USAGE_ERROR = 2
DOMAIN_ERROR = 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="treeradon",
        description="Exact optimal transport and perpendicular Radon "
                    "transforms on metric trees.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # The generator's bounds, shared by gen-tree and verify. An option not
    # given stays out of the parsed namespace, so _suite_config keeps
    # SuiteConfig's default for it and the parser never loads the generator.
    bounds = argparse.ArgumentParser(add_help=False)
    for field in ("seed", "max_vertices", "min_valency", "max_valency", "max_denominator"):
        bounds.add_argument("--" + field.replace("_", "-"), type=int, default=argparse.SUPPRESS)
    pair = argparse.ArgumentParser(add_help=False)
    for name in ("tree", "mu", "nu"):
        pair.add_argument(name)

    p = sub.add_parser("gen-tree", parents=[bounds], help="generate a random tree file")
    p.add_argument("--mode", choices=("finite", "complete"), default="complete")
    p.add_argument("--out", required=True)
    p.set_defaults(run=_cmd_gen_tree)

    p = sub.add_parser("radon", help="forward transform of a vertex function")
    p.add_argument("tree")
    p.add_argument("h")
    p.add_argument("--out", required=True)
    p.set_defaults(run=_cmd_radon)

    p = sub.add_parser("invert", help="invert a flag table")
    p.add_argument("tree")
    p.add_argument("table")
    p.add_argument("--total", required=True, help="the function total, as p/q")
    p.add_argument("--out", required=True)
    p.set_defaults(run=_cmd_invert)

    p = sub.add_parser("w2", parents=[pair], help="squared transport distance and a plan")
    p.add_argument("--out", help="optional plan file")
    p.set_defaults(run=_cmd_w2)

    p = sub.add_parser("plan", parents=[pair], help="optimal plan between two measures")
    p.add_argument("--out", required=True)
    p.set_defaults(run=_cmd_plan)

    p = sub.add_parser("interpolate", parents=[pair], help="displacement interpolation")
    p.add_argument("--t", required=True, help="parameter in [0,1], as p/q")
    p.add_argument("--out", required=True)
    p.set_defaults(run=_cmd_interpolate)

    p = sub.add_parser("reconstruct",
                       help="recover a measure from its projection oracle")
    p.add_argument("tree")
    p.add_argument("hidden", help="measure file served through the oracle")
    p.add_argument("--skeleton", help="comma-separated edge ids (default: all)")
    p.add_argument("--out", required=True)
    p.set_defaults(run=_cmd_reconstruct)

    p = sub.add_parser("verify", parents=[bounds], help="run the property suite")
    p.add_argument("--trials", type=int, default=argparse.SUPPRESS)
    p.add_argument("--max-atoms", type=int, default=argparse.SUPPRESS)
    p.add_argument("--inject-fault", action="store_true",
                   help="self-test: mutate one check so the suite must fail")
    p.add_argument("--out", help="report file")
    p.set_defaults(run=_cmd_verify)

    return parser


def _suite_config(args):
    """The SuiteConfig that the parsed options set; fields they lack keep
    their defaults."""
    # imported here, as verify is: only the commands that draw need the generator
    from .generate import SuiteConfig

    options = vars(args)
    return SuiteConfig(**{f.name: options[f.name] for f in fields(SuiteConfig)
                          if f.name in options})


def _load_pair(args):
    """The tree and the two measures that ``tree mu nu`` name."""
    tree = io.load_tree(args.tree)
    return tree, io.load_measure(tree, args.mu), io.load_measure(tree, args.nu)


def _cmd_gen_tree(args) -> int:
    from .generate import gen_tree

    tree = gen_tree(_suite_config(args), mode=args.mode)
    io.save_tree(tree, args.out)
    complete = "complete" if tree.geodesically_complete else "has leaves"
    valencies = ",".join(str(k) for k in sorted(tree.valency_profile.values()))
    print(f"wrote {args.out}: {len(tree.vertices)} vertices, "
          f"{len(tree.edges)} edges, valencies [{valencies}], {complete}")
    return 0


def _cmd_radon(args) -> int:
    tree = io.load_tree(args.tree)
    h = io.load_vertex_function(tree, args.h)
    io.save_flag_table(radon_forward(tree, h), args.out)
    print(f"wrote {args.out}")
    return 0


def _cmd_invert(args) -> int:
    tree = io.load_tree(args.tree)
    table = io.load_flag_table(tree, args.table)
    total = io.read_rational(args.total, "--total")
    io.save_vertex_function(radon_invert(tree, table, total), args.out)
    print(f"wrote {args.out}")
    return 0


def _cmd_w2(args) -> int:
    tree, mu, nu = _load_pair(args)
    plan = optimal_plan(tree, mu, nu)
    print(format_rational(plan.squared_cost))
    if args.out:
        io.save_plan(tree, plan, args.out)
    return 0


def _cmd_plan(args) -> int:
    tree, mu, nu = _load_pair(args)
    io.save_plan(tree, optimal_plan(tree, mu, nu), args.out)
    print(f"wrote {args.out}")
    return 0


def _cmd_interpolate(args) -> int:
    tree, mu, nu = _load_pair(args)
    t = io.read_rational(args.t, "--t")
    if not 0 <= t <= 1:
        raise DomainError(f"interpolation parameter {t} outside [0, 1]")
    plan = optimal_plan(tree, mu, nu)
    io.save_measure(tree, interpolate(tree, plan, t), args.out)
    print(f"wrote {args.out}")
    return 0


def _cmd_reconstruct(args) -> int:
    tree = io.load_tree(args.tree)
    hidden = io.load_measure(tree, args.hidden)
    skeleton = None
    if args.skeleton is not None:
        entries = [x for x in map(str.strip, args.skeleton.split(",")) if x]
        # ASCII digits only: int() also reads "1_0", "+0" and full-width digits
        if not all(x.isascii() and x.isdigit() for x in entries):
            raise FileFormatError(f"bad skeleton list {args.skeleton!r}")
        skeleton = [int(x) for x in entries]
    result = reconstruct_measure(tree, radon_oracle(tree, hidden), skeleton)
    payload = {
        "measure": io.measure_to_dict(tree, result.measure),
        "provenance": {
            "interior_total": format_rational(result.interior_total),
            "interior_reads": [
                {
                    "edge": read.edge,
                    "atoms": [
                        {"offset": format_rational(o), "mass": format_rational(m)}
                        for o, m in read.atoms
                    ],
                }
                for read in result.edge_reads
            ],
            "flag_subtractions": [
                {
                    "x": row.flag.vertex,
                    "e": row.flag.edges[0],
                    "f": row.flag.edges[1],
                    "raw": format_rational(row.raw_mass),
                    "interior": format_rational(row.interior_subtracted),
                    "vertex_value": format_rational(row.vertex_value),
                }
                for row in result.flag_rows
            ],
            "vertex_values": io.vertex_function_to_dict(result.vertex_part)["values"],
        },
    }
    io.save_json(payload, args.out)
    print(f"wrote {args.out}")
    return 0


def _cmd_verify(args) -> int:
    # imported here: verify is the largest module and no other command needs it
    from .verify import run_suite

    report = run_suite(_suite_config(args))
    if args.out:
        io.save_json(report.to_dict(), args.out)
    for result in report.properties:
        status = "ok" if result.failures == 0 else "FAIL"
        print(f"{status:4s} {result.name}: {result.passes}/{result.trials}")
    print(f"suite {'passed' if report.ok else 'FAILED'} "
          f"in {report.duration_seconds:.2f}s", file=sys.stderr)
    return 0 if report.ok else 1


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else USAGE_ERROR
    try:
        return args.run(args)
    except FileFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except (DomainError, SolverError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return DOMAIN_ERROR


if __name__ == "__main__":
    sys.exit(main())
