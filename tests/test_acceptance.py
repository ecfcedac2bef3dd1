"""Acceptance gate: the eight desk-scale criteria at their stated sizes.

Every check is exact (rational equality); there are no tolerances. Each
test prints one PASS/FAIL line; run with ``pytest tests/test_acceptance.py
-v -s`` to see them. Stated runtime budgets are asserted as well since
they are part of the criteria.
"""

import random
import time
from fractions import Fraction as F

from treeradon import (
    SuiteConfig,
    check_cat0_triangle,
    check_nonextendable,
    check_thales,
    dirac,
    double_count_check,
    extend_from_dirac,
    gen_measure,
    gen_point,
    gen_tree,
    gen_vertex_function,
    geodesic_through_flag,
    enumerate_flags,
    make_measure,
    path,
    points_aligned,
    radon_forward,
    radon_invert,
    radon_oracle,
    random_rational,
    reconstruct_measure,
    w2_squared,
    w2_squared_enumerated,
)
from treeradon.geodesics import _travel


def _report(number, label, failures, total, elapsed=None, budget=None):
    ok = failures == 0 and (budget is None or elapsed <= budget)
    timing = f", {elapsed:.1f}s" if elapsed is not None else ""
    print(f"ACCEPTANCE {number} ({label}): "
          f"{'PASS' if ok else 'FAIL'} [{total - failures}/{total}{timing}]")
    assert failures == 0, f"criterion {number}: {failures}/{total} cases failed"
    if budget is not None:
        assert elapsed <= budget, f"criterion {number}: {elapsed:.1f}s over {budget}s budget"


def test_acceptance_1_radon_roundtrip():
    """1000 random leafless trees (<=50 vertices, valencies 3-6,
    denominators <=100): inversion recovers every random vertex function."""
    cfg = SuiteConfig(seed=101, max_vertices=50, min_valency=3, max_valency=6,
                      max_denominator=100)
    failures = 0
    started = time.perf_counter()
    for case in range(1000):
        rng = random.Random(f"acc1:{case}")
        tree = gen_tree(cfg, "complete", rng)
        h = gen_vertex_function(cfg, tree, rng)
        if radon_invert(tree, radon_forward(tree, h), h.total) != h:
            failures += 1
    elapsed = time.perf_counter() - started
    _report(1, "radon inversion round-trip", failures, 1000, elapsed, budget=60)


def test_acceptance_2_double_counting():
    """The flag-sum identity holds at every vertex of every generated tree,
    100 random vertex functions per tree."""
    cfg = SuiteConfig(seed=202, max_vertices=50, min_valency=3, max_valency=6,
                      max_denominator=100)
    failures = 0
    total = 0
    for tree_case in range(20):
        tree_rng = random.Random(f"acc2:tree:{tree_case}")
        tree = gen_tree(cfg, "complete", tree_rng)
        for h_case in range(100):
            rng = random.Random(f"acc2:{tree_case}:{h_case}")
            h = gen_vertex_function(cfg, tree, rng)
            table = radon_forward(tree, h)
            total += 1
            if not all(double_count_check(tree, h, x, table=table).holds
                       for x in tree.vertices):
                failures += 1
    _report(2, "double-counting identity", failures, total)


def test_acceptance_3_measure_reconstruction():
    """500 random finitely supported measures (<=10 atoms, mixed
    vertex/interior) recovered exactly from the projection oracle."""
    cfg = SuiteConfig(seed=303, max_vertices=12, min_valency=3, max_valency=5,
                      max_atoms=10, max_denominator=30)
    failures = 0
    saw_vertex_atom = saw_interior_atom = False
    started = time.perf_counter()
    for case in range(500):
        rng = random.Random(f"acc3:{case}")
        tree = gen_tree(cfg, "complete", rng)
        hidden = gen_measure(cfg, tree, rng)
        for point, _ in hidden.atoms:
            if point.is_vertex:
                saw_vertex_atom = True
            else:
                saw_interior_atom = True
        if reconstruct_measure(tree, radon_oracle(tree, hidden)).measure != hidden:
            failures += 1
    elapsed = time.perf_counter() - started
    assert saw_vertex_atom and saw_interior_atom, "support mix was not exercised"
    _report(3, "measure reconstruction", failures, 500, elapsed, budget=120)


def test_acceptance_4_solver_vs_enumeration():
    """1000 random instances with supports <=4: the simplex value equals the
    brute-force minimum over transportation-polytope vertices."""
    cfg = SuiteConfig(seed=404, max_vertices=8, max_atoms=4, max_denominator=20)
    failures = 0
    for case in range(1000):
        rng = random.Random(f"acc4:{case}")
        tree = gen_tree(cfg, "complete", rng)
        mu = gen_measure(cfg, tree, rng)
        nu = gen_measure(cfg, tree, rng)
        if w2_squared(tree, mu, nu) != w2_squared_enumerated(tree, mu, nu):
            failures += 1
    _report(4, "solver vs polytope enumeration", failures, 1000)


def test_acceptance_5_geodesic_property():
    """200 random (x, mu): the extended family from the Dirac at x scales
    exactly, W2^2(mu_s, mu_t) = (t-s)^2 W2^2(mu_0, mu_1), on the full grid."""
    cfg = SuiteConfig(seed=505, max_vertices=8, max_atoms=4, max_denominator=12)
    grid = (F(0), F(1, 4), F(1, 2), F(3, 4), F(1), F(3, 2), F(2))
    failures = 0
    for case in range(200):
        rng = random.Random(f"acc5:{case}")
        tree = gen_tree(cfg, "complete", rng)
        x = gen_point(tree, rng, cfg.max_denominator)
        mu = gen_measure(cfg, tree, rng)
        base = w2_squared(tree, dirac(tree, x), mu)
        snaps = {t: extend_from_dirac(tree, x, mu, t) for t in grid}
        ok = all(
            w2_squared(tree, snaps[s], snaps[t]) == (t - s) ** 2 * base
            for i, s in enumerate(grid)
            for t in grid[i + 1:]
        )
        if not ok:
            failures += 1
    _report(5, "exact geodesic scaling", failures, 200)


def test_acceptance_6_thales_criterion():
    """200 random configurations: the halving inequality always holds;
    equality exactly for measures supported on the geodesic, strict in the
    branching configuration with d(x,g) > d(x,y); both outcomes >=50 times."""
    cfg = SuiteConfig(seed=606, max_vertices=9, max_atoms=4, max_denominator=10)
    failures = 0
    strict_seen = equality_seen = 0
    case = 0
    while strict_seen + equality_seen < 200:
        # 255 cases reach 200 configurations; a geodesic that claims every
        # point would skip every strict case and never get there
        assert case < 2_000, (f"{case} cases gave only {strict_seen} strict and "
                              f"{equality_seen} equality configurations of 200")
        rng = random.Random(f"acc6:{case}")
        case += 1
        tree = gen_tree(cfg, "complete", rng)
        geo = geodesic_through_flag(tree, rng.choice(enumerate_flags(tree)))
        want_equality = (strict_seen + equality_seen) % 2 == 0
        if want_equality:
            coords = [rng.choice((-1, 1)) * random_rational(rng, 10) for _ in range(3)]
            weights = [random_rational(rng, 10) for _ in coords]
            total = sum(weights)
            mu = make_measure(tree, ((geo.point_at(c), w / total)
                                     for c, w in zip(coords, weights)))
            c0 = rng.choice((-1, 1)) * random_rational(rng, 10)
            x, g = geo.point_at(c0), geo.point_at(c0 + random_rational(rng, 10))
            res = check_thales(tree, geo, x, g, mu)
            equality_seen += 1
            if res.relation != "eq":
                failures += 1
        else:
            mu = gen_measure(cfg, tree, rng)
            off = [p for p, _ in mu.atoms if not geo.contains(p)]
            if not off:
                continue
            y = off[0]
            foot = geo.project(y)
            cw = geo.coordinate_of(foot)
            arm = tree.distance(y, foot)
            x = geo.point_at(cw - 1)
            g = geo.point_at(cw + arm + 1)  # d(x,g) = arm + 2 > d(x,y) = arm + 1
            res = check_thales(tree, geo, x, g, mu)
            strict_seen += 1
            if res.relation != "lt":
                failures += 1
    assert strict_seen >= 50 and equality_seen >= 50
    _report(6, "thales halving criterion", failures, strict_seen + equality_seen)


def test_acceptance_7_nonextendability_witness():
    """200 random non-Dirac measures and support points: the two-cycle
    violation appears for every proposed constant-speed extension; the
    convexity gap (1+e)^2 > 1+e^2 is checked symbolically per epsilon."""
    cfg = SuiteConfig(seed=707, max_vertices=8, max_atoms=4, max_denominator=10)
    failures = 0
    for case in range(200):
        rng = random.Random(f"acc7:{case}")
        tree = gen_tree(cfg, "complete", rng)
        mu = gen_measure(cfg, tree, rng)
        while mu.is_dirac:
            mu = gen_measure(cfg, tree, rng)
        y = rng.choice(mu.support)
        epsilon = random_rational(rng, 10)
        assert (1 + epsilon) ** 2 > 1 + epsilon ** 2  # strict convexity, exact
        witnesses = [check_nonextendable(tree, mu, y, epsilon)]
        # alternative proposals: stall at y, and stop partway along the
        # deterministic continuation
        witnesses.append(check_nonextendable(tree, mu, y, epsilon,
                                             proposed_continuation=y))
        y_prime = witnesses[0].y_prime
        partway = _travel(tree, y_prime, y, 1 + epsilon / 2)
        witnesses.append(check_nonextendable(tree, mu, y, epsilon,
                                             proposed_continuation=partway))
        if not all(w.violated for w in witnesses):
            failures += 1
    _report(7, "non-extendability witnesses", failures, 200)


def _strict_interior_point(tree, edge_id, rng):
    rec = tree.edge(edge_id)
    if rec.is_ray:
        return tree.point(edge_id, random_rational(rng, 10))
    den = rng.randint(2, 10)
    return tree.point(edge_id, rec.length * F(rng.randint(1, den - 1), den))


def test_acceptance_8_cat0_comparison():
    """500 random triangles: the comparison inequality never fails, is
    strict for non-aligned triples at interior t, and is an equality for
    aligned triples."""
    cfg = SuiteConfig(seed=808, max_vertices=9, max_denominator=12)
    failures = 0
    aligned_seen = nonaligned_seen = 0
    for case in range(500):
        rng = random.Random(f"acc8:{case}")
        if case % 3 == 1:
            # forced non-aligned: three points strictly inside three distinct
            # branches at a vertex (every complete-mode vertex has valency >= 3)
            tree = gen_tree(cfg, "complete", rng)
            hub = rng.choice(tree.vertices)
            x, y, z = (
                _strict_interior_point(tree, eid, rng)
                for eid in rng.sample(list(tree.incident_edges(hub)), 3)
            )
        else:
            tree = gen_tree(cfg, rng.choice(("finite", "complete")), rng)
            x = gen_point(tree, rng, cfg.max_denominator)
            z = gen_point(tree, rng, cfg.max_denominator)
            if case % 3 == 0 and x != z:
                seg = path(tree, x, z)
                den = rng.randint(2, 9)
                y = seg.point_at(seg.length * F(rng.randint(0, den), den))
            else:
                y = gen_point(tree, rng, cfg.max_denominator)
        aligned = points_aligned(tree, x, y, z)
        if aligned:
            aligned_seen += 1
        else:
            nonaligned_seen += 1
        ok = True
        for t in (F(0), F(1, 4), F(1, 2), F(3, 4), F(1)):
            res = check_cat0_triangle(tree, x, y, z, t)
            if not res.holds:
                ok = False
            interior = 0 < t < 1
            if aligned and res.lhs != res.rhs:
                ok = False
            if not aligned and interior and not res.strict:
                ok = False
            if not interior and res.lhs != res.rhs:
                ok = False  # endpoint parameters are always equalities
        if not ok:
            failures += 1
    assert aligned_seen >= 50 and nonaligned_seen >= 50
    _report(8, "comparison-triangle inequality", failures, 500)
