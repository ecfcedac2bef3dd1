"""Executable property suites for the library's geometric guarantees.

``run_suite`` executes the union of every invariant declared across the
modules: metric axioms, projection contraction, perpendiculars as level
sets, the comparison-triangle inequality with its strictness calibration,
pushforward behaviour, plan marginals, the squared-form triangle
inequality for the transport metric, exact geodesic scaling, cyclical
monotonicity, solver-vs-enumeration agreement, the Radon round trip,
double counting, injectivity at fixed total, measure reconstruction, flag
mass refinement, the Thales midpoint criterion and Dirac extension
behaviour. Failures carry reproducible seeds and are shrunk by reducing
vertex count first, then denominators, then atom count.

Equality-vs-strictness is always decided on squared quantities in exact
rationals; there is no tolerance anywhere.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cache

from .errors import GenerationError, GeodesicError
from .generate import (
    SuiteConfig,
    gen_measure,
    gen_point,
    gen_tree,
    gen_vertex_function,
    random_rational,
)
from .geodesics import (
    Geodesic,
    check_cat0_triangle,
    geodesic_through_flag,
    midpoint,
    path,
    perpendicular,
    points_aligned,
)
from .measures import Measure, dirac, make_measure, pushforward_projection
from .radon import (
    double_count_check,
    enumerate_flags,
    flag_mass,
    radon_forward,
    radon_invert,
    radon_oracle,
    reconstruct_measure,
    vertex_function,
)
from .rationals import parse_rational
from .tree import Flag, Tree, TreePoint
from .transport import (
    NonextendabilityWitness,
    WassersteinGeodesic,
    check_nonextendable,
    dilate,
    is_cyclically_monotone,
    optimal_plan,
    w2_squared,
)

_ZERO = Fraction(0)
_HALF = Fraction(1, 2)


# ---------------------------------------------------------------------- #
# Exact helpers                                                             #
# ---------------------------------------------------------------------- #

def w2_triangle_holds(a_sq: Fraction, b_sq: Fraction, c_sq: Fraction) -> bool:
    """Exact check of sqrt(a) <= sqrt(b) + sqrt(c) on squared quantities.

    Equivalent to a <= b + c + 2*sqrt(b*c); the square root is eliminated
    by squaring the residual, so only rational comparisons remain.
    """
    residual = a_sq - b_sq - c_sq
    return residual <= 0 or residual * residual <= 4 * b_sq * c_sq


def comparison_point_distance_sq(d_xy_sq: Fraction, d_yz_sq: Fraction,
                                 d_xz_sq: Fraction, t) -> Fraction:
    """Squared distance from y' to the parameter-t point of side x'z' in the
    Euclidean comparison triangle, computed from planar coordinates.

    With x'=(0,0), z'=(l,0) and y'=(a,b): a*l = (dxy^2 + l^2 - dyz^2)/2 and
    |y'-(t*l,0)|^2 = dxy^2 - 2*t*l*a + t^2*l^2, all rational in the squared
    side lengths. No square roots appear.
    """
    t = parse_rational(t)
    if d_xz_sq == 0:
        return d_xy_sq
    return d_xy_sq - t * (d_xy_sq + d_xz_sq - d_yz_sq) + t * t * d_xz_sq


def w2_squared_enumerated(tree: Tree, mu: Measure, nu: Measure) -> Fraction:
    """Brute-force oracle for ``w2_squared``: minimum cost over all extreme
    points of the transportation polytope, found by enumerating saturating
    allocation orders with memoization. It shares no code with the simplex,
    its cost matrix included: the squared distances come from
    ``tree.distance``. The search runs on ints, the masses over the lcm of
    their denominators and the squared distances over the lcm of theirs;
    scaling by a positive constant keeps every comparison and tie, and the
    minimum comes back over the product of the two scales. Exponential;
    supports of size > 6 are refused.
    """
    if len(mu) > 6 or len(nu) > 6:
        raise ValueError("enumeration oracle is limited to small supports")
    squares = [[tree.distance(p, q) ** 2 for q, _ in nu.atoms] for p, _ in mu.atoms]
    cost_scale = math.lcm(*(c.denominator for row in squares for c in row))
    cost = [[c.numerator * (cost_scale // c.denominator) for c in row] for row in squares]
    masses = [m for _, m in mu.atoms + nu.atoms]
    mass_scale = math.lcm(*(m.denominator for m in masses))
    ints = tuple(m.numerator * (mass_scale // m.denominator) for m in masses)
    supplies, demands = ints[:len(mu)], ints[len(mu):]

    @cache
    def best(s, d):
        if not any(s):
            return 0
        result = None
        for i, si in enumerate(s):
            if si == 0:
                continue
            for j, dj in enumerate(d):
                if dj == 0:
                    continue
                q = min(si, dj)
                ns = s[:i] + (si - q,) + s[i + 1:]
                nd = d[:j] + (dj - q,) + d[j + 1:]
                candidate = q * cost[i][j] + best(ns, nd)
                if result is None or candidate < result:
                    result = candidate
        return result

    return Fraction(best(supplies, demands), mass_scale * cost_scale)


# ---------------------------------------------------------------------- #
# Named checks                                                              #
# ---------------------------------------------------------------------- #

@dataclass(frozen=True)
class ThalesCheck:
    """Squared sides of the halving comparison for one (x, g, mu) triple."""

    lhs_sq: Fraction
    rhs_sq: Fraction

    @property
    def relation(self) -> str:
        if self.lhs_sq == self.rhs_sq:
            return "eq"
        return "lt" if self.lhs_sq < self.rhs_sq else "gt"


def check_thales(tree: Tree, geodesic: Geodesic, x: TreePoint, g: TreePoint,
                 mu: Measure) -> ThalesCheck:
    """Compare the halved measure against the halved distance to a Dirac.

    lhs^2 = W^2(half-dilation of mu from x, Dirac at midpoint(x, g)) and
    rhs^2 = W^2(mu, Dirac at g)/4. The inequality lhs <= rhs always holds;
    equality for all x, g on a maximal geodesic characterizes measures
    supported on it (choose d(x,g) > d(x,y) for an off-geodesic support
    point y to see strictness in branching trees).
    """
    x = tree.canonical_point(x)
    g = tree.canonical_point(g)
    if not geodesic.contains(x):
        raise GeodesicError("x must lie on the geodesic")
    if not geodesic.contains(g):
        raise GeodesicError("g must lie on the geodesic")
    mid = midpoint(tree, x, g)
    half = dilate(tree, x, mu, _HALF)
    lhs_sq = w2_squared(tree, half, dirac(tree, mid))
    rhs_sq = w2_squared(tree, mu, dirac(tree, g)) / 4
    return ThalesCheck(lhs_sq=lhs_sq, rhs_sq=rhs_sq)


@dataclass(frozen=True)
class DiracExtensionCheck:
    """Outcome of the Dirac-extension behaviour check."""

    geodesic_property_ok: bool
    witnesses: tuple[NonextendabilityWitness, ...]

    @property
    def passed(self) -> bool:
        return self.geodesic_property_ok and all(w.violated for w in self.witnesses)


def _scaling_failure(tree: Tree, snapshots, base: Fraction):
    """The first (s, t, W²(μ_s, μ_t), (t−s)²·base) with s < t whose two
    values differ, or None."""
    times = sorted(snapshots)
    for i, s in enumerate(times):
        for t in times[i + 1:]:
            got = w2_squared(tree, snapshots[s], snapshots[t])
            want = (t - s) * (t - s) * base
            if got != want:
                return s, t, got, want
    return None


def check_dirac_preserved_extension(tree: Tree, x: TreePoint, mu: Measure,
                                    horizon) -> DiracExtensionCheck:
    """Assert that geodesics from a Dirac extend exactly and geodesics onto
    a Dirac inside a non-Dirac support do not.

    The extension from the Dirac at ``x`` through ``mu`` is sampled up to
    ``horizon`` and must scale exactly; for non-Dirac ``mu`` the two-cycle
    violation must appear for extensions toward each sampled support point.
    """
    horizon = parse_rational(horizon)
    if horizon <= 1:
        raise ValueError("horizon must exceed 1")
    family = WassersteinGeodesic.from_dirac(tree, x, mu, horizon)
    times = {_ZERO, _HALF, Fraction(1), (1 + horizon) / 2, horizon}
    snapshots = {t: family.at(t) for t in times}
    ok = _scaling_failure(tree, snapshots, family.plan.squared_cost) is None
    witnesses = ()
    if not mu.is_dirac:
        targets = mu.support[:2]
        witnesses = tuple(check_nonextendable(tree, mu, y) for y in targets)
    return DiracExtensionCheck(geodesic_property_ok=ok, witnesses=witnesses)


# ---------------------------------------------------------------------- #
# Property suite                                                            #
# ---------------------------------------------------------------------- #

def _jsonable(value):
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if value is None or isinstance(value, (str, int, bool)):
        return value
    return repr(value)


def _measure_payload(measure: Measure):
    return [[repr(p), str(m)] for p, m in measure.atoms]


def _random_flag(tree: Tree, rng: random.Random) -> Flag:
    flags = enumerate_flags(tree)
    return rng.choice(flags)


def _random_coordinate(rng: random.Random, cfg: SuiteConfig) -> Fraction:
    sign = rng.choice((-1, 1))
    return sign * random_rational(rng, cfg.max_denominator)


def _measure_on_geodesic(cfg, tree, geodesic, rng) -> Measure:
    count = rng.randint(1, cfg.max_atoms)
    points = [geodesic.point_at(_random_coordinate(rng, cfg)) for _ in range(count)]
    weights = [random_rational(rng, cfg.max_denominator) for _ in points]
    total = sum(weights)
    return make_measure(tree, ((p, w / total) for p, w in zip(points, weights)))


def _prop_metric_axioms(cfg, rng):
    mode = rng.choice(("finite", "complete"))
    tree = gen_tree(cfg, mode, rng)
    p, q, r = (gen_point(tree, rng, cfg.max_denominator) for _ in range(3))
    dpq = tree.distance(p, q)
    if dpq != tree.distance(q, p):
        return {"tree": tree.describe(), "detail": f"asymmetry at {p!r}, {q!r}"}
    if tree.distance(p, p) != 0:
        return {"tree": tree.describe(), "detail": f"d(p,p) != 0 at {p!r}"}
    if dpq == 0 and p != q:
        return {"tree": tree.describe(), "detail": f"zero distance {p!r} != {q!r}"}
    if tree.distance(p, r) > dpq + tree.distance(q, r):
        return {"tree": tree.describe(), "detail": f"triangle violated at {p!r},{q!r},{r!r}"}
    seg = path(tree, p, q)
    if seg.length != dpq:
        return {"tree": tree.describe(), "detail": "path length != distance"}
    return None


def _prop_projection_lipschitz(cfg, rng):
    tree = gen_tree(cfg, "complete", rng)
    geo = geodesic_through_flag(tree, _random_flag(tree, rng))
    p = gen_point(tree, rng, cfg.max_denominator)
    q = gen_point(tree, rng, cfg.max_denominator)
    pp, qq = geo.project(p), geo.project(q)
    if geo.project(pp) != pp:
        return {"tree": tree.describe(), "detail": f"projection not idempotent at {p!r}"}
    if tree.distance(pp, qq) > tree.distance(p, q):
        return {"tree": tree.describe(),
                "detail": f"projection expands {p!r},{q!r}"}
    return None


def _prop_perpendicular_level_set(cfg, rng):
    tree = gen_tree(cfg, "complete", rng)
    flag = _random_flag(tree, rng)
    geo = geodesic_through_flag(tree, flag)
    perp = perpendicular(tree, flag)
    root = tree.vertex_point(flag.vertex)
    samples = [gen_point(tree, rng, cfg.max_denominator) for _ in range(4)]
    samples.extend(tree.vertex_point(v) for v in perp.vertices)
    for point in samples:
        in_level_set = geo.project(point) == root
        if perp.contains(point) != in_level_set:
            return {
                "tree": tree.describe(),
                "detail": f"{point!r}: perpendicular membership {perp.contains(point)} "
                          f"but projection-to-root {in_level_set} for {flag!r}",
            }
    return None


def _cat0_case(cfg, rng, calibrate):
    mode = rng.choice(("finite", "complete"))
    tree = gen_tree(cfg, mode, rng)
    x, y, z = (gen_point(tree, rng, cfg.max_denominator) for _ in range(3))
    aligned = points_aligned(tree, x, y, z)
    for t in (_ZERO, Fraction(1, 4), _HALF, Fraction(3, 4), Fraction(1)):
        res = check_cat0_triangle(tree, x, y, z, t)
        if not res.holds:
            return {"tree": tree.describe(), "detail": f"inequality violated at t={t}"}
        interior = 0 < t < 1
        if aligned and res.lhs != res.rhs:
            return {"tree": tree.describe(), "detail": f"aligned triple not equal at t={t}"}
        if not aligned and interior and not res.strict:
            return {"tree": tree.describe(),
                    "detail": f"non-aligned triple not strict at t={t}"}
        if calibrate:
            dyx = tree.distance(y, x)
            dyz = tree.distance(y, z)
            dxz = tree.distance(x, z)
            expected = comparison_point_distance_sq(dyx * dyx, dyz * dyz, dxz * dxz, t)
            if res.rhs != expected:
                return {"tree": tree.describe(),
                        "detail": f"comparison-triangle coordinates disagree at t={t}"}
    return None


def _prop_cat0_inequality(cfg, rng):
    return _cat0_case(cfg, rng, calibrate=False)


def _prop_cat0_calibration(cfg, rng):
    return _cat0_case(cfg, rng, calibrate=True)


def _prop_pushforward_mass(cfg, rng):
    tree = gen_tree(cfg, "complete", rng)
    geo = geodesic_through_flag(tree, _random_flag(tree, rng))
    mu = gen_measure(cfg, tree, rng)
    sample = pushforward_projection(tree, geo, mu)
    if sample.total_mass != 1:
        return {"tree": tree.describe(), "mu": _measure_payload(mu),
                "detail": f"pushforward mass {sample.total_mass}"}
    return None


def _prop_pushforward_idempotent(cfg, rng):
    tree = gen_tree(cfg, "complete", rng)
    geo = geodesic_through_flag(tree, _random_flag(tree, rng))
    mu = gen_measure(cfg, tree, rng)
    once = pushforward_projection(tree, geo, mu)
    again = pushforward_projection(tree, geo, once.to_measure(tree))
    if once.atoms != again.atoms:
        return {"tree": tree.describe(), "mu": _measure_payload(mu),
                "detail": "projection is not idempotent on its own image"}
    return None


def _prop_pushforward_contracts(cfg, rng):
    tree = gen_tree(cfg, "complete", rng)
    geo = geodesic_through_flag(tree, _random_flag(tree, rng))
    mu = gen_measure(cfg, tree, rng, max_atoms=3)
    nu = gen_measure(cfg, tree, rng, max_atoms=3)
    before = w2_squared(tree, mu, nu)
    after = w2_squared(
        tree,
        pushforward_projection(tree, geo, mu).to_measure(tree),
        pushforward_projection(tree, geo, nu).to_measure(tree),
    )
    if after > before:
        return {"tree": tree.describe(), "detail": f"pushforward expanded {before} -> {after}"}
    return None


def _prop_plan_marginals(cfg, rng):
    tree = gen_tree(cfg, "complete", rng)
    mu = gen_measure(cfg, tree, rng)
    nu = gen_measure(cfg, tree, rng)
    plan = optimal_plan(tree, mu, nu)  # marginals are verified on construction
    left: dict = {}
    right: dict = {}
    for p, q, m in plan.couplings:
        left[p] = left.get(p, _ZERO) + m
        right[q] = right.get(q, _ZERO) + m
    if left != dict(mu.atoms) or right != dict(nu.atoms):
        return {"tree": tree.describe(), "detail": "marginals drifted"}
    return None


def _prop_w2_triangle(cfg, rng):
    tree = gen_tree(cfg, "complete", rng)
    mu, nu, kappa = (gen_measure(cfg, tree, rng, max_atoms=3) for _ in range(3))
    a = w2_squared(tree, mu, kappa)
    b = w2_squared(tree, mu, nu)
    c = w2_squared(tree, nu, kappa)
    if not w2_triangle_holds(a, b, c):
        return {"tree": tree.describe(), "detail": f"triangle fails: {a}, {b}, {c}"}
    return None


def _prop_geodesic_property(cfg, rng):
    # the Dirac extension past time 1 is transport.dirac_extension's check
    tree = gen_tree(cfg, "complete", rng)
    mu = gen_measure(cfg, tree, rng, max_atoms=3)
    nu = gen_measure(cfg, tree, rng, max_atoms=3)
    family = WassersteinGeodesic(tree, optimal_plan(tree, mu, nu))
    times = (_ZERO, Fraction(1, 4), Fraction(3, 4), Fraction(1))
    snaps = {t: family.at(t) for t in times}
    failure = _scaling_failure(tree, snaps, family.plan.squared_cost)
    if failure is not None:
        s, t, got, want = failure
        return {"tree": tree.describe(),
                "detail": f"interpolation: W2^2({s},{t}) = {got}, expected {want}"}
    return None


def _prop_optimal_monotone(cfg, rng):
    tree = gen_tree(cfg, "complete", rng)
    mu = gen_measure(cfg, tree, rng, max_atoms=4)
    nu = gen_measure(cfg, tree, rng, max_atoms=4)
    plan = optimal_plan(tree, mu, nu)
    exhaustive = len(plan.couplings) <= 6
    verdict = is_cyclically_monotone(tree, plan, max_cycle_len=3, exhaustive=exhaustive)
    if verdict is not True:
        return {"tree": tree.describe(),
                "detail": f"optimal plan not monotone: {verdict!r}"}
    return None


def _prop_solver_enumeration(cfg, rng):
    tree = gen_tree(cfg, "complete", rng)
    mu = gen_measure(cfg, tree, rng, max_atoms=4)
    nu = gen_measure(cfg, tree, rng, max_atoms=4)
    fast = w2_squared(tree, mu, nu)
    slow = w2_squared_enumerated(tree, mu, nu)
    if fast != slow:
        return {"tree": tree.describe(), "mu": _measure_payload(mu),
                "nu": _measure_payload(nu),
                "detail": f"simplex {fast} != enumeration {slow}"}
    return None


def _prop_radon_roundtrip(cfg, rng):
    tree = gen_tree(cfg, "complete", rng)
    h = gen_vertex_function(cfg, tree, rng)
    recovered = radon_invert(tree, radon_forward(tree, h), h.total)
    if cfg.inject_fault:
        # Harness self-check: mutate one recovered value so the comparison
        # below must fail, proving the suite detects computational faults.
        victim = tree.vertices[0]
        mutated = dict(recovered.values)
        mutated[victim] = mutated.get(victim, _ZERO) + 1
        recovered = vertex_function(tree, mutated)
    if recovered != h:
        return {"tree": tree.describe(),
                "h": _jsonable(dict(h.values)),
                "recovered": _jsonable(dict(recovered.values)),
                "detail": "round trip failed"}
    return None


def _prop_double_counting(cfg, rng):
    tree = gen_tree(cfg, "complete", rng)
    h = gen_vertex_function(cfg, tree, rng)
    table = radon_forward(tree, h)
    for x in tree.vertices:
        identity = double_count_check(tree, h, x, table=table)
        if not identity.holds:
            return {"tree": tree.describe(), "h": _jsonable(dict(h.values)),
                    "detail": f"identity fails at {x!r}: {identity.lhs} != {identity.rhs}"}
    return None


def _prop_radon_injectivity(cfg, rng):
    tree = gen_tree(cfg, "complete", rng)
    if len(tree.vertices) < 2:
        return None  # needs two vertices to shift mass between
    h = gen_vertex_function(cfg, tree, rng)
    a, b = rng.sample(list(tree.vertices), 2)
    delta = random_rational(rng, cfg.max_denominator)
    shifted = dict(h.values)
    shifted[a] = shifted.get(a, _ZERO) + delta
    shifted[b] = shifted.get(b, _ZERO) - delta
    l = vertex_function(tree, shifted)
    # delta > 0 and a != b, so l(a) != h(a): the two functions differ
    if radon_forward(tree, h) == radon_forward(tree, l):
        return {"tree": tree.describe(),
                "detail": "distinct functions with equal total share a table"}
    return None


def _prop_reconstruction(cfg, rng):
    tree = gen_tree(cfg, "complete", rng)
    mu = gen_measure(cfg, tree, rng)
    result = reconstruct_measure(tree, radon_oracle(tree, mu))
    if result.measure != mu:
        return {"tree": tree.describe(), "mu": _measure_payload(mu),
                "got": _measure_payload(result.measure),
                "detail": "reconstruction mismatch"}
    return None


def _prop_flag_mass_refinement(cfg, rng):
    tree = gen_tree(cfg, "complete", rng)
    mu = gen_measure(cfg, tree, rng)
    x = rng.choice(tree.vertices)
    e, f, g = rng.sample(list(tree.incident_edges(x)), 3)

    def branch_mass(edge):
        # Brute force: an atom sits in the branch through `edge` iff the
        # path from x to it leaves through that edge.
        total = _ZERO
        root = tree.vertex_point(x)
        for point, mass in mu.atoms:
            if point == root:
                continue
            if path(tree, root, point).edges[0] == edge:
                total += mass
        return total

    m_ef = flag_mass(tree, mu, tree.flag(x, e, f))
    m_eg = flag_mass(tree, mu, tree.flag(x, e, g))
    if m_ef != 1 - branch_mass(e) - branch_mass(f):
        return {"tree": tree.describe(), "detail": f"flag mass at ({x!r},{{{e},{f}}}) "
                                                   "disagrees with branch masses"}
    if m_ef - m_eg != branch_mass(g) - branch_mass(f):
        return {"tree": tree.describe(),
                "detail": "refinement step is not the exchanged component mass"}
    return None


def _prop_thales(cfg, rng):
    tree = gen_tree(cfg, "complete", rng)
    geo = geodesic_through_flag(tree, _random_flag(tree, rng))
    if rng.random() < 0.5:
        mu = _measure_on_geodesic(cfg, tree, geo, rng)
        c1 = _random_coordinate(rng, cfg)
        c2 = c1 + random_rational(rng, cfg.max_denominator)
        x, g = geo.point_at(c1), geo.point_at(c2)
        res = check_thales(tree, geo, x, g, mu)
        if res.relation != "eq":
            return {"tree": tree.describe(), "mu": _measure_payload(mu),
                    "detail": f"supported measure gave {res.relation}"}
    else:
        mu = gen_measure(cfg, tree, rng)
        off = [p for p, _ in mu.atoms if not geo.contains(p)]
        if not off:
            return None  # measure happened to live on the geodesic; skip
        y = off[0]
        foot = geo.project(y)
        cw = geo.coordinate_of(foot)
        arm = tree.distance(y, foot)
        x = geo.point_at(cw - 1)
        g = geo.point_at(cw + arm + 1)  # d(x,g) = arm+2 > d(x,y) = arm+1
        res = check_thales(tree, geo, x, g, mu)
        if res.relation != "lt":
            return {"tree": tree.describe(), "mu": _measure_payload(mu),
                    "detail": f"branching configuration gave {res.relation}"}
    return None


def _prop_dirac_extension(cfg, rng):
    tree = gen_tree(cfg, "complete", rng)
    x = gen_point(tree, rng, cfg.max_denominator)
    mu = gen_measure(cfg, tree, rng, max_atoms=3)
    outcome = check_dirac_preserved_extension(tree, x, mu, horizon=2)
    if not outcome.passed:
        return {"tree": tree.describe(), "mu": _measure_payload(mu),
                "detail": "dirac extension check failed"}
    return None


_PROPERTIES = (
    ("tree.metric_axioms", _prop_metric_axioms),
    ("tree.projection_lipschitz", _prop_projection_lipschitz),
    ("tree.perpendicular_level_set", _prop_perpendicular_level_set),
    ("tree.cat0_inequality", _prop_cat0_inequality),
    ("measures.pushforward_mass", _prop_pushforward_mass),
    ("measures.pushforward_idempotent", _prop_pushforward_idempotent),
    ("measures.pushforward_contracts", _prop_pushforward_contracts),
    ("transport.plan_marginals", _prop_plan_marginals),
    ("transport.w2_triangle", _prop_w2_triangle),
    ("transport.geodesic_property", _prop_geodesic_property),
    ("transport.optimal_plan_monotone", _prop_optimal_monotone),
    ("transport.solver_matches_enumeration", _prop_solver_enumeration),
    ("transport.dirac_extension", _prop_dirac_extension),
    ("radon.roundtrip", _prop_radon_roundtrip),
    ("radon.double_counting", _prop_double_counting),
    ("radon.injectivity_fixed_total", _prop_radon_injectivity),
    ("radon.reconstruction_roundtrip", _prop_reconstruction),
    ("radon.flag_mass_refinement", _prop_flag_mass_refinement),
    ("verify.thales_criterion", _prop_thales),
    ("verify.cat0_strictness_calibration", _prop_cat0_calibration),
)


@dataclass
class PropertyResult:
    name: str
    trials: int
    passes: int
    failures: int
    counterexample: dict | None


@dataclass
class SuiteReport:
    seed: int
    trials: int
    properties: list[PropertyResult]
    duration_seconds: float

    @property
    def ok(self) -> bool:
        return all(r.failures == 0 for r in self.properties)

    def to_dict(self) -> dict:
        # Duration is left out so report files stay a pure function of
        # (inputs, flags, seed).
        return {
            "seed": self.seed,
            "trials": self.trials,
            "ok": self.ok,
            "properties": [
                {
                    "name": r.name,
                    "trials": r.trials,
                    "passes": r.passes,
                    "failures": r.failures,
                    "counterexample": _jsonable(r.counterexample),
                }
                for r in self.properties
            ],
        }


def _shrink(check, cfg: SuiteConfig, name: str, payload: dict) -> dict:
    """Hunt for a smaller counterexample: vertices, then denominators, then
    atoms; each shrink step re-samples a handful of fresh seeds."""
    best = payload
    current = cfg
    for field, floor in (("max_vertices", 2), ("max_denominator", 2), ("max_atoms", 1)):
        while getattr(current, field) > floor:
            reduced = replace(
                current, **{field: max(floor, getattr(current, field) // 2)}
            )
            found = None
            for probe in range(10):
                rng = random.Random(f"{cfg.seed}:{name}:shrink:{field}:{probe}")
                try:
                    found = check(reduced, rng)
                except Exception as exc:  # a crash is a counterexample too
                    found = {"detail": f"exception during shrink: {exc!r}"}
                if found is not None:
                    found["shrunk_bounds"] = {
                        "max_vertices": reduced.max_vertices,
                        "max_denominator": reduced.max_denominator,
                        "max_atoms": reduced.max_atoms,
                    }
                    break
            if found is None:
                break
            current = reduced
            best = {**found, "seed": best.get("seed")}
    return best


def run_suite(config: SuiteConfig) -> SuiteReport:
    """Execute every property ``config.trials`` times; failures are data.

    Bounds under which the generator itself cannot draw a suite's trees
    (finite trees need two vertices, leafless ones valency 3) are refused
    before any trial runs, so a failure always comes from the library.
    """
    if config.max_vertices < 2 or config.max_valency < 3:
        raise GenerationError("the property suite needs max_vertices >= 2 and max_valency >= 3")
    started = time.perf_counter()
    results = []
    for name, check in _PROPERTIES:
        passes = failures = 0
        counterexample = None
        for trial in range(config.trials):
            seed_key = f"{config.seed}:{name}:{trial}"
            rng = random.Random(seed_key)
            try:
                payload = check(config, rng)
            except Exception as exc:
                payload = {"detail": f"exception: {exc!r}"}
            if payload is None:
                passes += 1
            else:
                failures += 1
                if counterexample is None:
                    payload.setdefault("seed", seed_key)
                    counterexample = _shrink(check, config, name, payload)
        results.append(PropertyResult(name, config.trials, passes, failures,
                                      counterexample))
    duration = time.perf_counter() - started
    return SuiteReport(seed=config.seed, trials=config.trials,
                       properties=results, duration_seconds=duration)
