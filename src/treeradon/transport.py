"""Exact quadratic optimal transport between finitely supported measures.

The solver is a transportation simplex with a north-west corner start and
Bland's rule for anti-cycling. Distances enter only through their squares,
so every cost and mass is rational; the solver scales masses and costs to
integers over their common denominators and pivots in exact Python ints,
which leaves every sign, comparison and tie, and so the pivot sequence,
as it would be over the rationals. The basis is one spanning tree rooted
at row 0 (parent, depth and dual potential per node); each pivot re-hangs
only the subtree its leaving cell cuts off, and the entering scan tests
whole rows at C speed before it looks at single cells. Plans, costs and
every other value at the API stay exact Fractions; a plan's squared cost
is summed from the solver's own cost matrix.

Displacement interpolation, dilation from a Dirac mass and its extension
past time 1 all evaluate one ``WassersteinGeodesic``, which moves atoms
along explicit constant-speed trajectories. Past its target a trajectory
follows the geodesics' one walk rule (``geodesics._onward``): the
smallest other incident edge identifier at every vertex, which makes
every output deterministic. Trajectories keep
no state between calls, so plans and Wasserstein geodesics are safe to
share across threads.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from operator import sub

from .errors import CompletenessError, MeasureError, SolverError
from .geodesics import _onward, path
from .measures import Measure, dirac, make_measure
from .tree import Tree, TreePoint, point_sort_key

_ZERO = Fraction(0)
_ONE = Fraction(1)


@dataclass(frozen=True)
class TransportPlan:
    """A coupling of two measures with its exact squared cost."""

    source: Measure
    target: Measure
    couplings: tuple[tuple[TreePoint, TreePoint, Fraction], ...]
    squared_cost: Fraction


# ---------------------------------------------------------------------- #
# Exact transportation simplex                                              #
# ---------------------------------------------------------------------- #

def _scaled(values, scale: int) -> list[int]:
    """Each Fraction times ``scale``, as an int (``scale`` clears every
    denominator)."""
    return [x.numerator * (scale // x.denominator) for x in values]


def _northwest_corner(supply, demand):
    """Initial basic feasible solution with exactly n+m-1 basis cells."""
    n, m = len(supply), len(demand)
    s = list(supply)
    d = list(demand)
    alloc = {}
    i = j = 0
    while True:
        q = min(s[i], d[j])
        alloc[(i, j)] = q
        s[i] -= q
        d[j] -= q
        if i == n - 1 and j == m - 1:
            break
        if s[i] == 0 and i < n - 1:
            i += 1
        elif j < m - 1:
            j += 1
        else:
            i += 1
    return alloc


def _hang(cost, adj, n, parent, depth, pot, top):
    """Hang every node that ``top`` reaches without passing its parent:
    set each one's parent, depth and potential (``pot[b] = c − pot[a]``
    across the basis cell joining it to its parent a) from ``top``'s own,
    which the caller sets. Returns the set of nodes reached, ``top`` and its
    parent included."""
    seen = {top, parent[top]}
    stack = [top]
    while stack:
        a = stack.pop()
        for b in adj[a]:
            if b not in seen:
                seen.add(b)
                parent[b] = a
                depth[b] = depth[a] + 1
                pot[b] = (cost[a][b - n] if a < n else cost[b][a - n]) - pot[a]
                stack.append(b)
    return seen


def _rooted_basis(cost, cells, n, m):
    """The basis tree over rows 0..n-1 and columns n..n+m-1 (nodes), rooted
    at row 0, as ``(adj, parent, depth, pot)``.

    ``pot`` holds the dual potentials, u_i at node i and v_j at node n+j,
    with u_0 pinned to 0, so every potential is an int and
    u_i + v_j = c_ij on every basis cell. The root is its own parent.
    """
    adj = [set() for _ in range(n + m)]
    for i, j in cells:
        adj[i].add(n + j)
        adj[n + j].add(i)
    parent, depth, pot = [0] * (n + m), [0] * (n + m), [0] * (n + m)
    if len(_hang(cost, adj, n, parent, depth, pot, 0)) < n + m:
        raise SolverError("basis does not span the bipartite graph")
    return adj, parent, depth, pot


def _transportation_simplex(supply, demand, cost):
    """Exact min-cost allocation for equal total supply and demand.

    The pivots run on Python ints: masses are scaled by the lcm M of their
    denominators and costs by the lcm L of theirs. Positive scaling keeps
    every sign, comparison and tie, so the pivot sequence is the one the
    rational problem would take, and the result is returned as Fractions
    over M.

    North-west corner start, then Bland's rule: the entering cell is the
    first (row-major) with negative reduced cost; the leaving cell is the
    lexicographically smallest among the minimum-allocation cells on the
    minus side of the pivot cycle.

    The basis is one spanning tree rooted at row 0, kept as parent, depth
    and potential per node (network simplex in its spanning-tree form). A
    row is tested for a negative reduced cost at C speed,
    ``min(map(sub, row, v)) < u_i``, and only the first row that passes is
    scanned cell by cell. The pivot cycle is the entering cell plus the
    tree paths from its row and column up to their lowest common ancestor.
    Removing the leaving cell cuts one subtree off the root; only that
    subtree is re-hung, below the entering cell, with fresh parents, depths
    and potentials. Those are the values a full recompute from u_0 = 0
    would give, since the basis tree fixes them.
    """
    n, m = len(supply), len(demand)
    mass_scale = math.lcm(*(x.denominator for x in itertools.chain(supply, demand)))
    cost_scale = math.lcm(*(c.denominator for row in cost for c in row))
    cost = [_scaled(row, cost_scale) for row in cost]
    alloc = _northwest_corner(_scaled(supply, mass_scale), _scaled(demand, mass_scale))
    adj, parent, depth, pot = _rooted_basis(cost, alloc, n, m)

    def cell(c):
        """The basis cell joining node c to its parent."""
        return (c, parent[c] - n) if c < n else (parent[c], c - n)

    max_pivots = 1000 + 100 * n * m
    for _ in range(max_pivots):
        # basis cells have reduced cost exactly 0, so only nonbasic cells
        # can pass the test c_ij - v_j < u_i
        v = pot[n:]
        for i, row in enumerate(cost):
            u = pot[i]
            if min(map(sub, row, v)) < u:
                j = next(j for j, r in enumerate(map(sub, row, v)) if r < u)
                break
        else:
            return {c: Fraction(q, mass_scale) for c, q in alloc.items() if q > 0}
        # Climb to the lowest common ancestor. The cycle's signs alternate
        # from + on the entering cell, so a path cell is on the minus side
        # when it is an even number of cells from the entering row or
        # column, that is when its child node is a row on the row's path or
        # a column on the column's path.
        plus, minus = [], []
        a, b = i, n + j
        while a != b:
            if depth[a] >= depth[b]:
                (minus if a < n else plus).append(a)
                a = parent[a]
            else:
                (minus if b >= n else plus).append(b)
                b = parent[b]
        plus = list(map(cell, plus))
        minus = list(map(cell, minus))
        theta = min(alloc[c] for c in minus)
        leaving = min(c for c in minus if alloc[c] == theta)
        alloc[(i, j)] = theta
        for c in plus:
            alloc[c] += theta
        for c in minus:
            alloc[c] -= theta
        del alloc[leaving]
        # the leaving cell's child node heads the subtree it cuts off; as a
        # minus cell, it lies on the row's path, and its subtree holds the
        # entering row, exactly when that child is a row
        il, jl = leaving
        cut = il if parent[il] == n + jl else n + jl
        adj[il].discard(n + jl)
        adj[n + jl].discard(il)
        adj[i].add(n + j)
        adj[n + j].add(i)
        top, below = (i, n + j) if cut < n else (n + j, i)
        parent[top] = below
        depth[top] = depth[below] + 1
        pot[top] = cost[i][j] - pot[below]
        _hang(cost, adj, n, parent, depth, pot, top)
    raise SolverError("pivot limit exceeded")


def _cost_matrix(tree, sources, targets):
    """Squared distances between the atoms of two measures, one row per
    source atom; each atom is canonicalised and has its foot found once."""
    def feet(atoms):
        points = [tree.canonical_point(p) for p, _ in atoms]
        return [(p, tree._foot(p)) for p in points]

    columns = feet(targets)
    matrix = []
    for p, p_foot in feet(sources):
        row = []
        for q, q_foot in columns:
            d = tree._feet_distance(p, p_foot, q, q_foot)
            row.append(d * d)
        matrix.append(row)
    return matrix


def optimal_plan(tree: Tree, mu: Measure, nu: Measure) -> TransportPlan:
    """An optimal coupling for the squared-distance cost.

    Every pair goes through the exact transportation simplex. From (or to)
    a Dirac its only feasible plan is the unique coupling; between identical
    measures the identity is the only plan of cost 0. The squared cost sums
    the solver's own cost matrix over the couplings.
    """
    cost = _cost_matrix(tree, mu.atoms, nu.atoms)
    alloc = sorted(_transportation_simplex(
        [m for _, m in mu.atoms], [m for _, m in nu.atoms], cost
    ).items())
    couplings = tuple((mu.atoms[i][0], nu.atoms[j][0], q) for (i, j), q in alloc)
    total = sum((q * cost[i][j] for (i, j), q in alloc), _ZERO)
    _check_marginals(mu, nu, couplings)
    return TransportPlan(mu, nu, couplings, total)


def _check_marginals(mu, nu, couplings):
    left: dict[TreePoint, Fraction] = {}
    right: dict[TreePoint, Fraction] = {}
    for p, q, mass in couplings:
        left[p] = left.get(p, _ZERO) + mass
        right[q] = right.get(q, _ZERO) + mass
    if left != dict(mu.atoms) or right != dict(nu.atoms):
        raise SolverError("plan marginals do not match the measures")


def w2_squared(tree: Tree, mu: Measure, nu: Measure) -> Fraction:
    """The exact squared Wasserstein-2 distance.

    The unsquared distance is irrational in general; comparisons should be
    made through squares (see ``w2_triangle_holds`` in the verify module).
    """
    return optimal_plan(tree, mu, nu).squared_cost


# ---------------------------------------------------------------------- #
# Constant-speed trajectories                                               #
# ---------------------------------------------------------------------- #

class _Trajectory:
    """Constant-speed motion from ``src`` through ``dst``, continued past
    ``dst`` on demand.

    Speed is d(src, dst) per unit time, so ``position(1) == dst``. Past
    ``dst`` each call walks afresh: it finishes ``dst``'s edge in the
    travel direction, then takes the geodesics' one walk rule
    (``geodesics._onward``, the smallest other edge id) at every vertex.
    With ``bounce=True`` a leaf reverses the direction instead of failing,
    which keeps the walk constant-speed in trees with leaves. Nothing is
    cached, so a trajectory is immutable and safe to share.
    """

    def __init__(self, tree: Tree, src: TreePoint, dst: TreePoint, bounce: bool = False):
        self.tree = tree
        self.src = tree.canonical_point(src)
        self.dst = tree.canonical_point(dst)
        self.bounce = bounce
        if self.src == self.dst:
            self.segment = None
            self.unit = _ZERO
        else:
            self.segment = path(tree, self.src, self.dst)
            self.unit = self.segment.length

    def position(self, t) -> TreePoint:
        t = Fraction(t)
        if t < 0:
            raise ValueError(f"negative time {t}")
        if self.unit == 0:
            return self.src
        s = t * self.unit
        if s <= self.unit:
            return self.segment.point_at(s)
        extra = s - self.unit
        tree = self.tree
        eid = self.segment.edges[-1]
        rec = tree.edge(eid)
        offset = rec.endpoint_offset(self.dst.vertex) if self.dst.is_vertex else self.dst.offset
        sign = self.segment._chart[-1][1]
        # a dst on a vertex has no room left on its edge, so the first pass
        # turns straight onto the walk rule there
        while True:
            if sign < 0:
                room = offset
            else:
                room = None if rec.length is None else rec.length - offset
            if room is None or extra <= room:
                return tree.point(eid, offset + sign * extra)
            extra -= room
            vertex = rec.u if sign < 0 else rec.v
            eid = _onward(tree, vertex, eid, self.bounce)
            if eid is None:
                raise CompletenessError(
                    "trajectory hits a leaf; the tree is not geodesically complete"
                )
            rec = tree.edge(eid)
            offset = rec.endpoint_offset(vertex)
            sign = 1 if offset == 0 else -1


def interpolate(tree: Tree, plan: TransportPlan, t) -> Measure:
    """Displacement interpolation: each coupled mass slides a fraction ``t``
    along its path. ``t`` must lie in [0, 1]."""
    return WassersteinGeodesic(tree, plan).at(t)


def dilate(tree: Tree, x: TreePoint, mu: Measure, t) -> Measure:
    """The point on the Wasserstein geodesic from the Dirac at ``x`` to
    ``mu`` at parameter ``t`` in [0, 1]."""
    return WassersteinGeodesic.from_dirac(tree, x, mu).at(t)


def extend_from_dirac(tree: Tree, x: TreePoint, mu: Measure, t) -> Measure:
    """Continue the geodesic issued from the Dirac at ``x`` to any time
    ``t ≥ 0``: for t ≤ 1 this is the dilation; beyond 1 each atom keeps
    moving past its target along the deterministic extension."""
    t = Fraction(t)
    return WassersteinGeodesic.from_dirac(tree, x, mu, horizon=max(t, _ONE)).at(t)


class WassersteinGeodesic:
    """A measure-valued geodesic: a plan plus per-coupling trajectories.

    Evaluation at times s, t inside the interval satisfies
    W²(μ_s, μ_t) = (t−s)²·W²(μ_0, μ_1) exactly.
    """

    def __init__(self, tree: Tree, plan: TransportPlan, horizon=_ONE):
        horizon = Fraction(horizon)
        if horizon <= 0:
            raise ValueError("horizon must be positive")
        if horizon > 1 and not tree.geodesically_complete:
            raise CompletenessError("extension beyond time 1 needs a leafless tree")
        self.tree = tree
        self.plan = plan
        self.interval = (_ZERO, horizon)
        self._trajectories = tuple(
            (_Trajectory(tree, src, dst), mass) for src, dst, mass in plan.couplings
        )

    @classmethod
    def from_dirac(cls, tree: Tree, x: TreePoint, mu: Measure, horizon=_ONE):
        plan = optimal_plan(tree, dirac(tree, x), mu)
        return cls(tree, plan, horizon)

    def at(self, t) -> Measure:
        t = Fraction(t)
        lo, hi = self.interval
        if not lo <= t <= hi:
            raise ValueError(f"time {t} outside parameter interval [{lo}, {hi}]")
        return make_measure(
            self.tree, ((trajectory.position(t), mass) for trajectory, mass in self._trajectories)
        )


# ---------------------------------------------------------------------- #
# Optimality certificates                                                   #
# ---------------------------------------------------------------------- #

@dataclass(frozen=True)
class CycleViolation:
    """A cycle of coupled pairs whose shifted cost beats the plan's cost.

    Falsy, so ``is_cyclically_monotone`` reads naturally in conditions.
    """

    pairs: tuple[tuple[TreePoint, TreePoint], ...]
    base_cost: Fraction
    shifted_cost: Fraction

    def __bool__(self) -> bool:
        return False


def is_cyclically_monotone(tree: Tree, plan: TransportPlan, max_cycle_len: int = 2,
                           exhaustive: bool = False):
    """Check all cycles of support pairs up to ``max_cycle_len``.

    Returns True when no cycle improves, else a :class:`CycleViolation`
    witness. ``exhaustive=True`` checks every cycle length but refuses
    supports larger than 8.
    """
    pairs = [(p, q) for p, q, _ in plan.couplings]
    n = len(pairs)
    if exhaustive:
        if n > 8:
            raise ValueError("exhaustive mode is bounded to supports of size 8")
        top = n
    else:
        top = min(max_cycle_len, n)

    # cost[a][b] = d²(source of pair a, target of pair b), each taken once
    cost = [[tree.distance(p, q) ** 2 for _, q in pairs] for p, _ in pairs]
    for length in range(2, top + 1):
        for combo in itertools.combinations(range(n), length):
            base = sum(cost[k][k] for k in combo)
            first = combo[0]
            for rest in itertools.permutations(combo[1:]):
                order = (first,) + rest
                shifted = sum(cost[order[k]][order[(k + 1) % length]] for k in range(length))
                if shifted < base:
                    return CycleViolation(
                        tuple(pairs[k] for k in order), base, shifted
                    )
    return True


@dataclass(frozen=True)
class NonextendabilityWitness:
    """The two-cycle certificate that a geodesic toward a Dirac inside the
    support cannot continue past time 1.

    ``continued_cost`` is the travel cost of the continued pair,
    ((1+ε)·d(y′, y))²; ``swapped_cost`` is d²(y′, y) + d²(y, y″). Any
    constant-speed continuation has d(y, y″) ≤ ε·d(y′, y), so the strict
    convexity (1+ε)² > 1+ε² makes the violation unavoidable for ε > 0.
    """

    y_prime: TreePoint
    y: TreePoint
    y_continued: TreePoint
    epsilon: Fraction
    continued_cost: Fraction
    swapped_cost: Fraction

    @property
    def violated(self) -> bool:
        return self.continued_cost > self.swapped_cost

    @property
    def cycle(self):
        return ((self.y_prime, self.y_continued), (self.y, self.y))


def check_nonextendable(tree: Tree, mu0: Measure, y: TreePoint, epsilon=_ONE,
                        proposed_continuation: TreePoint | None = None) -> NonextendabilityWitness:
    """Witness that the geodesic from ``mu0`` to the Dirac at ``y`` (a
    support point) admits no extension past time 1.

    The stationary atom at ``y`` pairs with itself; a moving atom ``y′``
    continued to time 1+ε lands at ``y″``. Swapping targets in that
    two-cycle is strictly cheaper than the continued transport whenever
    ε > 0. By default ``y″`` follows the deterministic smallest-edge-id
    continuation (reversing at leaves); a caller may propose any ``y″``
    reachable at constant speed instead.
    """
    y = tree.canonical_point(y)
    if mu0.is_dirac:
        raise MeasureError("the measure is a Dirac mass; its geodesics do extend")
    if mu0.mass_at(y) == 0:
        raise MeasureError(f"{y!r} is not in the support of the measure")
    epsilon = Fraction(epsilon)
    if epsilon < 0:
        raise ValueError(f"negative extension {epsilon}")

    y_prime = next(
        p for p in sorted(mu0.support, key=point_sort_key) if p != y
    )
    d = tree.distance(y_prime, y)
    if proposed_continuation is None:
        y2 = _Trajectory(tree, y_prime, y, bounce=True).position(1 + epsilon)
    else:
        y2 = tree.canonical_point(proposed_continuation)
        if tree.distance(y, y2) > epsilon * d:
            raise MeasureError(
                "proposed continuation is not reachable at constant speed"
            )
    travel = (1 + epsilon) * d
    d_tail = tree.distance(y, y2)
    return NonextendabilityWitness(
        y_prime=y_prime,
        y=y,
        y_continued=y2,
        epsilon=epsilon,
        continued_cost=travel * travel,
        swapped_cost=d * d + d_tail * d_tail,
    )
