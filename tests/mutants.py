"""A kept list of mutants of ``src/treeradon``, and the runner that tries
the tier-1 tests against each.

A mutant is one small deliberate fault: one exact piece of source text,
``old``, replaced by ``new`` (DeMillo, Lipton and Sayward, *Hints on test
data selection*, 1978). The tests kill a mutant when they fail with it in
place. One that no test can tell from the library, because it computes the
same results, is marked equivalent: its reason begins with "equivalent:"
and says why.

Run from anywhere, with the test requirements installed::

    python tests/mutants.py            # every mutant
    python tests/mutants.py NAME ...   # the named mutants

Each mutant is applied to its own temporary copy of ``src/``, ``tests/``
and what the tests read beside them (``demos/``, ``bench/``,
``pyproject.toml``), so no Hypothesis example database
carries over from one mutant to the next. Tier-1 runs there, less
``tests/test_mutant_list.py``, with ``-x --hypothesis-seed=0``, under a
timeout and an address-space limit set on the child process only; a
timeout counts as a kill. The unmutated copy runs
first, and must pass. One line per mutant says killed, survived or
equivalent; the exit status is 0 when every verdict is the one the list
expects. ``tests/test_mutant_list.py`` checks that every mutant still
applies, so the list cannot rot silently.

A verbatim test copy of a kernel is retired when this list kills the same
mutants without its tests.
"""

from __future__ import annotations

import os
import resource
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "demos", "bench", "pyproject.toml")
TIMEOUT_S = 300  # tier-1 takes under a minute on 2 vCPUs
# the enumeration oracle alone holds about 0.5 GB at 6x6
ADDRESS_SPACE = 3 << 30


class Mutant(NamedTuple):
    name: str
    file: str  # a module of src/treeradon
    old: str  # occurs exactly once in the file
    new: str
    reason: str  # what breaks; "equivalent: ..." when nothing can

    @property
    def equivalent(self) -> bool:
        return self.reason.startswith("equivalent:")

    def apply(self, source: str) -> str:
        return source.replace(self.old, self.new)


MUTANTS = (
    # __init__, errors, rationals
    Mutant("init-all-short", "__init__.py",
           "__all__ = sorted(_MODULE_OF)", "__all__ = sorted(_MODULE_OF)[1:]",
           "the public name list loses its first name"),
    Mutant("errors-liar-not-domain", "errors.py",
           "class OracleInconsistencyError(DomainError):",
           "class OracleInconsistencyError(RuntimeError):",
           "a liar oracle's error is no longer a domain error"),
    Mutant("rationals-bool", "rationals.py",
           'raise TypeError("booleans are not rationals")', "return Fraction(value)",
           "True is read as the rational 1"),
    Mutant("rationals-exponent", "rationals.py",
           'if "." in text or "e" in text.lower():', 'if "." in text:',
           "'1e3' is named not a rational instead of decimal notation"),
    Mutant("rationals-plus-inf", "rationals.py",
           '{"inf", "+inf", "infinity"}', '{"inf", "infinity"}',
           "a ray written '+inf' no longer loads"),
    # tree
    Mutant("tree-pair-start", "tree.py",
           "return i * (2 * k - i - 3) // 2 - 1", "return i * (2 * k - i - 3) // 2",
           "every flag position past a vertex's first edge is off by one"),
    Mutant("tree-position-order", "tree.py",
           "if j < i:\n            i, j = j, i", "if j <= i:\n            i, j = j, i",
           "equivalent: a flag's two edges are distinct, so i == j never occurs"),
    Mutant("tree-meet-deeper", "tree.py",
           "return (pn, pd) if pn * qd <= qn * pd else (qn, qd)",
           "return (pn, pd) if pn * qd >= qn * pd else (qn, qd)",
           "two points of one edge meet at the deeper one"),
    Mutant("tree-foot-sign", "tree.py",
           "c = -c  # u is", "c = +c  # u is",
           "a point inside an edge whose lower end is u sits below u"),
    Mutant("tree-lca-climb", "tree.py",
           "while b.hops > a.hops:", "while b.hops > a.hops + 1:",
           "the deeper vertex stops one hop short of the other's level"),
    Mutant("tree-valency-two", "tree.py",
           "if k == 2:", "if k == 20:",
           "a vertex of valency 2 is accepted"),
    Mutant("tree-zero-length", "tree.py",
           "if ratio[0] <= 0:", "if ratio[0] < 0:",
           "an edge of length 0 is accepted"),
    # geodesics
    Mutant("geodesics-chart-sign", "geodesics.py",
           "return base + offset if sign > 0 else base - offset",
           "return base - offset if sign > 0 else base + offset",
           "every chart runs against its edge"),
    Mutant("geodesics-project-apex", "geodesics.py",
           "while v.hops >= top:", "while v.hops > top:",
           "equivalent: a path has one vertex at its highest level, the apex, and "
           "the climb returns the apex's anchor after the loop as well"),
    Mutant("geodesics-travel-back", "geodesics.py",
           "return tree.point(eid, offset + sign * extra)",
           "return tree.point(eid, offset - sign * extra)",
           "travel past time 1 runs back along its last edge"),
    Mutant("geodesics-flag-walk", "geodesics.py",
           "neg_edges[::-1] + pos_edges", "neg_edges + pos_edges",
           "a flag geodesic's negative side is listed outward-in"),
    Mutant("geodesics-cat0-range", "geodesics.py",
           "if not 0 <= t <= 1:\n        raise PointLocationError(f\"interpolation",
           "if not 0 <= t <= 2:\n        raise PointLocationError(f\"interpolation",
           "a comparison at t in (1, 2] is accepted"),
    Mutant("geodesics-cat0-holds", "geodesics.py",
           "return self.lhs <= self.rhs", "return self.lhs < self.rhs",
           "an aligned triple fails the CAT(0) inequality"),
    # measures
    Mutant("measures-zero-mass", "measures.py",
           "if mass.numerator <= 0:", "if mass.numerator < 0:",
           "an atom of mass 0 is accepted"),
    Mutant("measures-merge-last", "measures.py",
           "merged[point] = known + mass", "merged[point] = mass",
           "a repeated point keeps only its last mass"),
    Mutant("measures-projection-merge", "measures.py",
           "(coord, None, known[2] + n)", "(coord, None, n)",
           "atoms projecting to one point keep only the last one's mass"),
    Mutant("measures-total", "measures.py",
           "if total != scale:", "if total > scale:",
           "masses summing below 1 are accepted"),
    # radon: the forward transform and its table
    Mutant("radon-forward-rest", "radon.py",
           "rj - bi if bj is None else ri - bj", "ri - bi if bj is None else ri - bj",
           "a flag with the parent edge subtracts from the wrong rest"),
    Mutant("radon-forward-empty", "radon.py",
           "ri if bj is zero else rj if bi is zero", "ri if bj is zero else ri if bi is zero",
           "a flag beside an empty first branch takes the wrong rest"),
    Mutant("radon-forward-switch", "radon.py",
           "if scale >> 64:", "if scale >> 65:",
           "a scale of 65 bits stays in the int regime"),
    Mutant("radon-forward-zero-sums", "radon.py",
           "if inside is not zero and record.parent is not None:",
           "if record.parent is not None:",
           "equivalent: every sum keeps its value; in ints 0 + 0 is the shared 0, and "
           "past 64 bits an empty branch only costs its flags a subtraction"),
    Mutant("radon-entries-unkept", "radon.py",
           'object.__setattr__(self, "entries", entries)\n            return entries',
           "return entries",
           "a table's entries are built again on every read"),
    Mutant("radon-flag-sum-times", "radon.py",
           "sum(numerators[start:start + k * (k - 1) // 2]) * times, scale",
           "sum(numerators[start:start + k * (k - 1) // 2]), scale",
           "an int table's flag sums miss the total's denominator"),
    Mutant("radon-flag-sum-scale", "radon.py",
           "scale = lcm(total_denominator, *denominators)", "scale = lcm(*denominators)",
           "a vertex's scale need not hold the total's denominator"),
    Mutant("radon-invert-formula", "radon.py",
           "(k - 1) * (k - 2) * scaled_total", "(k - 2) * (k - 2) * scaled_total",
           "the inversion's total term is wrong past valency 3"),
    Mutant("radon-invert-grouping", "radon.py",
           "numerator * (lcm_k // (k - 1)), 2 * scale * lcm_k",
           "numerator * lcm_k // (k - 1), 2 * scale * lcm_k",
           "equivalent: k - 1 divides lcm_k, so both groupings divide exactly"),
    Mutant("radon-invert-leafy", "radon.py",
           "    if not tree.geodesically_complete:\n        raise RadonError(",
           "    if False:\n        raise RadonError(",
           "a tree with leaves is inverted"),
    Mutant("radon-double-count-rhs", "radon.py",
           "rhs = comb(k - 1, 2) * h.total", "rhs = comb(k, 2) * h.total",
           "the identity's closed side counts x's own flags"),
    Mutant("radon-table-duplicate-keys", "radon.py",
           "first = key_at.setdefault(at, flag)", "first = key_at[at] = flag",
           "two keys naming one flag keep the last"),
    # radon: reconstruction
    Mutant("radon-router-position", "radon.py",
           "at = first + _pair_start(k, j) + i if j < i else row + j",
           "at = row + j if j < i else first + _pair_start(k, j) + i",
           "the routing records the wrong flag at a joint"),
    Mutant("radon-router-fallback", "radon.py",
           "if fallback is None:", "if True:",
           "with every flag read, the routing takes the last other edge"),
    Mutant("radon-reread-identity", "radon.py",
           "elif known is not mass and known != mass:", "elif known is not mass:",
           "two equal readings of a flag as distinct objects disagree"),
    Mutant("radon-interior-last-wins", "radon.py",
           "known = interior.setdefault(spot, mass)", "known = interior[spot] = mass",
           "an interior atom read twice is not cross-checked"),
    Mutant("radon-skeleton-ignored", "radon.py",
           "if spot.edge not in skeleton_set:", "if spot.edge not in range(len(tree.edges)):",
           "mass outside the candidate skeleton is accepted"),
    Mutant("radon-duplicate-coordinate", "radon.py",
           "if len(seen) == count:", "if len(seen) < count:",
           "an answer listing a coordinate twice is accepted"),
    Mutant("radon-own-edge-fold", "radon.py",
           "inside[position(foot, edge, eid)] -= mass", "inside[position(foot, edge, eid)] += mass",
           "an interior atom counts inside the flags of its own edge"),
    Mutant("radon-held-added", "radon.py",
           "value = raw_mass - held if held else raw_mass",
           "value = raw_mass + held if held else raw_mass",
           "interior mass is added to a flag's reading, not subtracted"),
    Mutant("radon-negative-mass", "radon.py",
           "        if value < 0:\n            raise OracleInconsistencyError(",
           "        if value < -1:\n            raise OracleInconsistencyError(",
           "a negative vertex mass above -1 is accepted"),
    Mutant("radon-forward-check", "radon.py",
           "if radon_forward(tree, vertex_part) != table:",
           "if radon_forward(tree, vertex_part) is None:",
           "a table that is no transform is inverted anyway"),
    # transport
    Mutant("transport-theta-max", "transport.py",
           "theta, _, _, cut = min(minus)", "theta, _, _, cut = max(minus)",
           "the largest flow on the minus side leaves"),
    Mutant("transport-leave-row-tie", "transport.py",
           "(flow[c], c, parent[c] - n, c) for c in rows[::2]",
           "(flow[c], -c, parent[c] - n, c) for c in rows[::2]",
           "a tie between leaving cells on the row's path goes to the last row"),
    Mutant("transport-leave-column-tie", "transport.py",
           "(flow[c], parent[c], c - n, c) for c in columns[::2]",
           "(flow[c], -parent[c], c - n, c) for c in columns[::2]",
           "a tie with a leaving cell on the column's path goes to the last row"),
    Mutant("transport-bland-last-column", "transport.py",
           "for j, x in enumerate(map(sub, cost[i], v)):",
           "for j, x in reversed(list(enumerate(map(sub, cost[i], v)))):",
           "Bland's rule enters the last negative cell of its row"),
    Mutant("transport-scan-tie", "transport.py",
           "if least < best:", "if least <= best:",
           "a tie between rows in the block search goes to the later row"),
    Mutant("transport-unique-count", "transport.py",
           "if tight == n + m - 1:", "if tight <= n + m:",
           "an optimum with one tight cell off the basis counts as unique"),
    Mutant("transport-drop-sign", "transport.py",
           "basis[6] -= r  # drop", "basis[6] += r  # drop",
           "the row bounds rise where they should fall"),
    Mutant("transport-mass-scale", "transport.py",
           "mass_scale = math.lcm(mu_scale, nu_scale)", "mass_scale = mu_scale * nu_scale",
           "equivalent: any common multiple of the two scales gives the same pivots "
           "and the same Fractions"),
    # verify, io, cli, generate
    Mutant("verify-triangle-strict", "verify.py",
           "residual * residual <= 4 * b_sq * c_sq", "residual * residual < 4 * b_sq * c_sq",
           "the W2 triangle inequality fails at equality"),
    Mutant("verify-enumeration-max", "verify.py",
           "if result is None or candidate < result:", "if result is None or candidate > result:",
           "the enumeration oracle returns the costliest plan"),
    Mutant("verify-no-fault", "verify.py",
           "mutated[victim] = mutated.get(victim, _ZERO) + 1",
           "mutated[victim] = mutated.get(victim, _ZERO)",
           "--inject-fault injects nothing"),
    Mutant("io-flat-dicts", "io.py",
           r'.replace("},\x00{", inner + "}," + inner + "{" + deeper)', "",
           "a list of flat objects is written on one line"),
    Mutant("io-recursion", "io.py",
           "except RecursionError as exc:", "except MemoryError as exc:",
           "a deeply nested file escapes as a RecursionError"),
    Mutant("io-duplicate-rows", "io.py",
           "if row_at[at] is not None:", "if row_at[at] is None and False:",
           "two rows of a flag table file for one flag keep the last"),
    Mutant("cli-verify-exit", "cli.py",
           "return 0 if report.ok else 1", "return 0",
           "a failing property suite exits 0"),
    Mutant("cli-domain-code", "cli.py",
           "        return DOMAIN_ERROR", "        return USAGE_ERROR",
           "a domain error exits with the usage code"),
    Mutant("generate-valency", "generate.py",
           "if degree[j] < config.max_valency]", "if degree[j] <= config.max_valency]",
           "generated trees exceed the valency bound"),
    Mutant("generate-denominator", "generate.py",
           "if self.max_denominator < 2:", "if self.max_denominator < 1:",
           "a denominator bound of 1 is accepted"),
)


def _limit_memory() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE, ADDRESS_SPACE))


def run_tier1(mutant: Mutant | None) -> tuple[str, float, str]:
    """``(outcome, seconds, first failure)`` for tier-1 on a fresh copy of
    the repository with ``mutant`` (if any) applied; the outcome is
    "passed", "failed" or "timeout"."""
    with tempfile.TemporaryDirectory(prefix="treeradon-mutant-") as tmp:
        for part in COPIED:
            source, target = ROOT / part, Path(tmp, part)
            if source.is_dir():
                shutil.copytree(source, target, ignore=shutil.ignore_patterns(
                    "__pycache__", ".hypothesis", ".pytest_cache"))
            else:
                shutil.copy2(source, target)
        if mutant is not None:
            module = Path(tmp, "src", "treeradon", mutant.file)
            module.write_text(mutant.apply(module.read_text(encoding="utf-8")), encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=str(Path(tmp, "src")), PYTHONDONTWRITEBYTECODE="1")
        env.pop("TREERADON_SOLVER_PROFILE", None)  # tier-1 sizes, whatever the caller's
        start = time.monotonic()
        # its own session, so a timeout also ends the CLI and demo processes it started
        child = subprocess.Popen(
            [sys.executable, "-m", "pytest", "-q", "-x", "-rfE", "--hypothesis-seed=0",
             "-p", "no:cacheprovider", "--basetemp", str(Path(tmp, "pytest")),
             # the list's own test fails on any mutant, by design
             "--ignore", "tests/test_mutant_list.py", "tests"],
            cwd=tmp, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
            preexec_fn=_limit_memory, start_new_session=True)
        try:
            output, _ = child.communicate(timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(child.pid, signal.SIGKILL)
            child.communicate()
            return "timeout", time.monotonic() - start, ""
        seconds = time.monotonic() - start
        first = next((line.split(" - ")[0] for line in output.splitlines()
                      if line.startswith(("FAILED ", "ERROR "))), "")
        return ("passed" if child.returncode == 0 else "failed"), seconds, first


def main(names: list[str]) -> int:
    by_name = {mutant.name: mutant for mutant in MUTANTS}
    unknown = [name for name in names if name not in by_name]
    if unknown:
        print("unknown mutants:", *unknown, file=sys.stderr)
        return 2
    outcome, seconds, first = run_tier1(None)
    print(f"{'unmutated':32} {outcome:10} {seconds:6.1f} s  {first}", flush=True)
    if outcome != "passed":
        return 1
    counts = {"killed": 0, "survived": 0, "equivalent": 0}
    unexpected = []
    for mutant in [by_name[name] for name in names] or MUTANTS:
        outcome, seconds, first = run_tier1(mutant)
        verdict = ("killed" if outcome != "passed"
                   else "equivalent" if mutant.equivalent else "survived")
        if verdict != ("equivalent" if mutant.equivalent else "killed"):
            unexpected.append(mutant.name)
        counts[verdict] += 1
        note = " (timeout)" if outcome == "timeout" else ""
        print(f"{mutant.name:32} {verdict + note:10} {seconds:6.1f} s  {first or mutant.reason}",
              flush=True)
    print(", ".join(f"{count} {verdict}" for verdict, count in counts.items()))
    if unexpected:
        print("not as the list expects:", *unexpected)
    return 1 if unexpected else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
