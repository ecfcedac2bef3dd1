"""Exact quadratic optimal transport between finitely supported measures.

The solver is a transportation simplex from a north-west corner start, and
every plan is the one Bland's rule reaches. It solves first by block
search, a faster entering rule. At that optimum it counts the tight
cells, where the cost equals the sum of the dual potentials. When there
are exactly n+m-1 of them, the optimum is unique, so it is Bland's, and
it is returned. Otherwise, and when the first solve reaches its cap of
10·(n+m) pivots, Bland's rule solves again from the start.

Distances enter only through their squares, so every cost and mass is
rational. The squared distances arrive at the solver as ints over one
scale, built from the atoms' depths, which the tree gives as int pairs,
with no Fraction arithmetic. The masses are scaled once, in
``optimal_plan``: M is the lcm of the two measures' scales
(``Measure._integer_masses``), and the solver takes ints over M and
returns its flows as ints over M. It pivots in exact Python ints, which
leaves every sign, comparison and tie, and so the pivot sequence, as it
would be over the rationals. The basis is one spanning tree rooted at
row 0 (child list, parent, dual potential and allocation per node), read
off the north-west staircase as it is walked. One row scan (``_scan``)
serves both entering rules: it skips every row whose lower bound on its
reduced costs is not negative, and reads the rest in blocks, of ⌈√n⌉
rows for block search and of one row for Bland's rule. Each pivot, under
either rule, finds its cycle by stamping the entering row's path to the
root, turns over only the path from the entering cell to the leaving
one, and shifts the potentials of the side it re-hangs. Plans, costs and
every other value at the API stay exact Fractions. ``optimal_plan``
checks each row and column sum of the flows against its measure's masses
over M, sums the squared cost against the solver's own cost matrix as
one int, and then makes the plan's only Fractions: one per coupling and
one for the cost.

Displacement interpolation, dilation from a Dirac mass and its extension
past time 1 all evaluate one ``WassersteinGeodesic``, which keeps its
plan's couplings, checked once when it is built, and moves each coupled
mass at constant speed along the path from its source to its target; the
atoms it locates are canonical and go to the measure core unchecked.
Each evaluation compares its time with 1 once. Up to time 1 every point
is located from the tree's depths, compared as int pairs
(``Tree._point_along``), and past it from the last edge of the tree's
walk from source to target (``geodesics._travel`` over ``Tree._walk``),
whose climb also gives the distance, so no path is built at any time.
Past its target the mass follows the geodesics' one walk rule
(``geodesics._onward``): the smallest other incident edge identifier at
every vertex, which makes every output deterministic, and it turns back
at a leaf. Each evaluation walks afresh and nothing is
cached, so plans and Wasserstein geodesics are safe to share across
threads.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import partial
from operator import sub
from typing import NamedTuple

from .errors import CompletenessError, MeasureError, SolverError, _require
from .geodesics import _travel
from .measures import Measure, _foreign_atom, _measure, dirac
from .rationals import parse_rational
from .tree import Tree, TreePoint

_ZERO = Fraction(0)
_ONE = Fraction(1)


class TransportPlan(NamedTuple):
    """A coupling of two measures with its exact squared cost."""

    source: Measure
    target: Measure
    couplings: tuple[tuple[TreePoint, TreePoint, Fraction], ...]
    squared_cost: Fraction


# ---------------------------------------------------------------------- #
# Exact transportation simplex                                              #
# ---------------------------------------------------------------------- #

def _northwest_basis(supply, demand, cost):
    """The north-west corner start as its basis tree over rows 0..n-1 and
    columns n..n+m-1 (nodes), rooted at row 0, as
    ``(children, parent, pot, flow)``.

    The corner's n+m-1 cells form a staircase: each shares its row or its
    column with the cell before it, so each hangs one new node from a node
    already hung, column j below row i when j advances, row i below column
    j when i advances (also at the last column with supply left, which
    only unbalanced masses leave). ``children`` lists each node's children
    and ``parent`` its parent; the root is its own parent. ``pot`` holds
    the dual potentials, u_i at node i and v_j at node n+j, with u_0
    pinned to 0, so u_i + v_j = c_ij on every basis cell; ``flow`` holds
    each cell's allocation on its child node.
    """
    n, m = len(supply), len(demand)
    children = [[] for _ in range(n + m)]
    parent, pot, flow = ([0] * (n + m) for _ in range(3))
    i = j = 0
    s, d = supply[0], demand[0]
    a, b = 0, n
    while True:
        q = min(s, d)
        s -= q
        d -= q
        children[a].append(b)
        parent[b] = a
        pot[b] = cost[i][j] - pot[a]
        flow[b] = q
        if i == n - 1 and j == m - 1:
            return children, parent, pot, flow
        if (s == 0 or j == m - 1) and i < n - 1:
            i += 1
            s = supply[i]
            a, b = n + j, i
        else:
            j += 1
            d = demand[j]
            a, b = i, n + j


def _hang(children, parent, flow, path, below, q):
    """Hang ``path[0]`` below ``below`` by turning over ``path``, its
    chain of parents up to the node whose parent link leaves the basis:
    each node's parent becomes the node before it, and each cell's flow
    moves down with it, the entering cell taking ``q``."""
    for c in path:
        children[parent[c]].remove(c)
        children[below].append(c)
        parent[c] = below
        flow[c], q = q, flow[c]
        below = c


def _start(supply, demand, cost):
    """The north-west corner of the int masses as the state a solve
    pivots, ``[children, parent, u, v, flow, bound, drop, stamp]``. The
    basis is one spanning tree rooted at row 0 (network simplex in its
    spanning-tree form); ``u`` and ``v`` are the row and column
    potentials; row i's least reduced cost is at least ``bound[i] -
    drop``, exactly at the start, where ``drop`` is 0; ``stamp`` marks the
    nodes of an entering row's path to the root."""
    n = len(supply)
    children, parent, pot, flow = _northwest_basis(supply, demand, cost)
    u, v = pot[:n], pot[n:]
    bound = [min(map(sub, row, v)) - ui for row, ui in zip(cost, u)]
    return [children, parent, u, v, flow, bound, 0, [-1] * len(pot)]


def _allocation(basis):
    """The basis cells with positive flow, as ``{(i, j): int}``."""
    _, parent, u, _, flow, _, _, _ = basis
    n = len(u)
    return {(c, parent[c] - n) if c < n else (parent[c], c - n): flow[c]
            for c in range(1, len(flow)) if flow[c] > 0}


def _scan(basis, cost, first, block):
    """``(i, least)``: the entering row and its least reduced cost, or
    ``least`` 0 when no reduced cost is negative. Rows are tested from row
    ``first`` on, wrapping past the last, and the scan stops at the end of
    the first block of ``block`` rows that holds a negative reduced cost;
    of the rows tested, the one with the most negative least reduced cost
    enters (the first such row on a tie).

    A row whose bound rules out a negative reduced cost is passed over;
    any other row is tested once, ``min(map(sub, row, v)) - u_i``, and
    that minimum is its new bound.
    """
    _, _, u, v, _, bound, drop, _ = basis
    n = len(u)
    best = i = 0
    for p, a in enumerate(itertools.chain(range(first, n), range(first))):
        if bound[a] < drop:
            least = min(map(sub, cost[a], v)) - u[a]
            bound[a] = least + drop
            if least < best:
                best, i = least, a
        if best and p % block == block - 1:
            break
    return i, best


def _pivot(basis, k, i, j, r):
    """Pivot ``k`` of a solve: cell (i, j), of reduced cost ``r`` < 0,
    enters ``basis``.

    The pivot cycle is the entering cell plus the tree paths from its row
    and column up to their lowest common ancestor, found as the first node
    of the column's climb that the row's climb to the root stamped. The
    leaving cell is the least (flow, cell) on the minus side of the cycle.
    Removing it cuts the tree in two: side I holds the entering row, side
    J the entering column. The side without the root is re-hung below the
    entering cell by turning over the path from the entering cell's end on
    that side up to the cut (``_hang``); no other node's parent changes.
    The entering cell's reduced cost r must become 0, so that side's
    potentials shift by r, its rows one way and its columns the other
    (Ahuja, Magnanti and Orlin, *Network Flows*, 1993, ch. 11), in one
    walk down its child lists, with no cost looked up.

    After the shift only the cells with their row on side J and their
    column on side I lose reduced cost, each by exactly |r|. So each row on
    side J loses |r| of bound: all of them through ``drop``, which rises
    by |r|, when side J holds the root, else through the shift itself, as
    a re-hung row's bound moves by -s; a row of a re-hung side I gets back
    what ``drop`` took.
    """
    children, parent, u, v, flow, bound, _, stamp = basis
    n = len(u)
    # stamp the row's path up to the root; the column's climb stops at
    # the first stamped node, the lowest common ancestor
    a, rows = i, [i]
    while a:
        a = parent[a]
        rows.append(a)
    for a in rows:
        stamp[a] = k
    b, columns = n + j, []
    while stamp[b] != k:
        columns.append(b)
        b = parent[b]
    del rows[rows.index(b):]
    # The cycle's signs alternate from + on the entering cell, so a
    # path cell is on the minus side when it is an even number of cells
    # from the entering row or column, that is when its child node is a
    # row on the row's path or a column on the column's path. The
    # least (flow, cell) among them gives theta and the leaving cell.
    minus = [(flow[c], c, parent[c] - n, c) for c in rows[::2]]
    minus += [(flow[c], parent[c], c - n, c) for c in columns[::2]]
    theta, _, _, cut = min(minus)
    if theta:
        for c in rows[1::2]:
            flow[c] += theta
        for c in columns[1::2]:
            flow[c] += theta
        for f, _, _, c in minus:
            flow[c] = f - theta
    # the leaving cell's child node heads the subtree it cuts off; as a
    # minus cell, it lies on the row's path, and its subtree is side I,
    # holding the entering row, exactly when that child is a row
    if cut < n:
        top, path, below, s = i, rows, n + j, r
        basis[6] -= r  # drop
    else:
        top, path, below, s = n + j, columns, i, -r
    _hang(children, parent, flow, path[:path.index(cut) + 1], below, theta)
    # the side ``top`` heads shifts, its rows by s and its columns by -s,
    # with s = r on side I and -r on side J
    order = [top]
    for c in order:
        order += children[c]
        if c < n:
            u[c] += s
            bound[c] -= s
        else:
            v[c - n] -= s


def _first_solve_cap(n, m):
    """The most pivots the first solve of ``_transportation_simplex`` takes
    before it hands an n×m problem to ``_bland_simplex``."""
    return 10 * (n + m)


def _transportation_simplex(supply, demand, cost):
    """Exact min-cost allocation for equal total supply and demand: the
    allocation ``_bland_simplex`` returns, found with fewer pivots where
    the optimum is unique.

    The pivots run on Python ints: the costs arrive as the ints of
    ``_cost_matrix``, and the supplies and demands as ints over the one
    mass scale M that ``optimal_plan`` forms; the flows are returned as
    ints over M, ``{(i, j): flow}``. Positive scaling keeps every sign,
    comparison and tie, so the pivot sequence is the one the rational
    problem would take. (Fraction costs give the same allocation, pivoted
    in Fractions.)

    The first solve starts from the north-west corner and enters by block
    search (Grigoriadis, Math. Programming Study 26, 1986): ``_scan``
    reads rows in blocks of ⌈√n⌉ from the row after the last entering
    row, and at the end of the first block that holds a negative reduced
    cost the most negative one seen enters (the first row's, and in it
    the first column's, on a tie). Each pivot is ``_pivot``. The scan and
    the pivot are the ones Bland's rule takes too.

    At its optimum the potentials certify uniqueness: every optimal plan
    lives on the tight cells, where c_ij = u_i + v_j (complementary
    slackness; Peyré and Cuturi, *Computational Optimal Transport*, 2019,
    §3). When those are exactly the n+m-1 basis cells, they form a
    spanning tree, the marginals fix the one plan on them, and that plan
    is returned; it is the one Bland's rule reaches too. With any other
    tight cell, the optimum may have ties, and ``_bland_simplex`` solves
    again from the start, so the plan is Bland's. It does the same when
    the first solve has taken ``_first_solve_cap`` pivots, 10·(n+m), since
    its leaving rule does not rule out cycling; no input costs more than
    Bland's own solve plus that cap.
    """
    n, m = len(supply), len(demand)
    basis = _start(supply, demand, cost)
    _, _, u, v, _, _, _, _ = basis
    block = math.isqrt(n - 1) + 1
    i = n - 1
    for k in range(_first_solve_cap(n, m)):
        i, best = _scan(basis, cost, i + 1, block)
        if not best:
            tight = sum(list(map(sub, row, v)).count(ui) for row, ui in zip(cost, u))
            if tight == n + m - 1:
                return _allocation(basis)
            break
        j = list(map(sub, cost[i], v)).index(best + u[i])
        _pivot(basis, k, i, j, best)
    return _bland_simplex(supply, demand, cost)


def _bland_simplex(supply, demand, cost):
    """Exact min-cost allocation for equal total supply and demand, by
    Bland's rule from the north-west corner: the entering cell is the
    first (row-major) with negative reduced cost; the leaving cell is the
    lexicographically smallest among the minimum-allocation cells on the
    minus side of the pivot cycle (``_pivot``). Masses and costs are taken
    as in ``_transportation_simplex``, which calls this only on inputs
    whose optimum its first solve could not prove unique.

    The entering row is the first solve's scan (``_scan``) in blocks of
    one row from row 0, which stops at the first row whose least reduced
    cost is negative: that row holds Bland's cell, and only that row is
    read a second time, up to its first negative reduced cost. Past
    1000 + 100·n·m pivots it raises :class:`SolverError`.
    """
    basis = _start(supply, demand, cost)
    _, _, u, v, _, _, _, _ = basis
    for k in range(1000 + 100 * len(supply) * len(demand)):
        i, least = _scan(basis, cost, 0, 1)
        if not least:
            return _allocation(basis)
        # basis cells have reduced cost exactly 0, so only nonbasic cells
        # can pass the test c_ij - v_j < u_i
        ui = u[i]
        for j, x in enumerate(map(sub, cost[i], v)):
            if x < ui:
                break
        _pivot(basis, k, i, j, x - ui)
    raise SolverError("pivot limit exceeded")


def _cost_matrix(tree, sources, targets):
    """Squared distances between the atoms of two measures, one row per
    source atom, as ``(matrix, scale)``: ints with
    ``matrix[i][j] == scale · d²``, where ``scale`` is the lcm of the
    reduced denominators of the d².

    Each atom, canonical as its measure holds it, has its foot found once;
    an atom the tree lacks fails that lookup and raises :class:`MeasureError`.
    Every pair's distance is P + Q − 2·M, with P and Q the atoms' depths and
    M the depth where their paths to the root meet (``Tree._meet``), which
    for two atoms of one edge is the shallower one's. The feet and meets
    give each depth as an int pair, so no ``Fraction`` enters the
    arithmetic: scaled by the lcm D of the denominators of every depth
    involved, each distance is an int, and so is each D²·d²; dividing these
    and D² by their gcd leaves the least scale.
    """
    def feet(atoms):
        found = []
        for p, _ in atoms:
            try:
                found.append(tree._foot(p))
            except (KeyError, IndexError):  # an unknown vertex, or an edge id past the tree's
                raise _foreign_atom(p) from None
        return found

    rows, columns = feet(sources), feet(targets)
    meet = tree._meet
    meets = [[meet(p, q) for q in columns] for p in rows]
    chain = itertools.chain.from_iterable
    lcd = math.lcm(*{md for _, md in chain(meets)}, *(foot[2] for foot in rows + columns))
    sources_depth = [foot[1] * (lcd // foot[2]) for foot in rows]
    targets_depth = [foot[1] * (lcd // foot[2]) for foot in columns]
    matrix = [[(p + q - 2 * mn * (lcd // md)) ** 2 for q, (mn, md) in zip(targets_depth, row)]
              for p, row in zip(sources_depth, meets)]
    common = math.gcd(lcd * lcd, *chain(matrix))
    return [[c // common for c in row] for row in matrix], lcd * lcd // common


def optimal_plan(tree: Tree, mu: Measure, nu: Measure) -> TransportPlan:
    """An optimal coupling for the squared-distance cost.

    Every pair goes through the exact transportation simplex. From (or to)
    a Dirac its only feasible plan is the unique coupling; between identical
    measures the identity is the only plan of cost 0.

    The masses are scaled once, here: M is the lcm of the two measures'
    scales (``Measure._integer_masses``), and the solver takes and returns
    ints over M. Each row and column of the flows is summed as ints and
    must equal its measure's masses over M exactly, or :class:`SolverError`
    is raised. The squared cost sums the flows against the solver's own
    cost matrix as one int. The plan's only ``Fraction``s are made last:
    one per coupling, its flow over M, and one for the cost. A mass that
    is neither an int nor a ``Fraction`` raises :class:`MeasureError`
    naming its atom before any solving, as does a ``mu`` or ``nu`` that is
    not a :class:`Measure`, naming its kind.
    """
    _require(mu, Measure, "the source measure", MeasureError)
    _require(nu, Measure, "the target measure", MeasureError)
    (mu_scale, mu_masses), (nu_scale, nu_masses) = mu._integer_masses, nu._integer_masses
    mass_scale = math.lcm(mu_scale, nu_scale)
    supply = [f * (mass_scale // mu_scale) for f in mu_masses]
    demand = [f * (mass_scale // nu_scale) for f in nu_masses]
    cost, scale = _cost_matrix(tree, mu.atoms, nu.atoms)
    alloc = sorted(_transportation_simplex(supply, demand, cost).items())
    left, right, total = [0] * len(supply), [0] * len(demand), 0
    for (i, j), f in alloc:
        left[i] += f
        right[j] += f
        total += f * cost[i][j]
    if left != supply or right != demand:
        raise SolverError("plan marginals do not match the measures")
    couplings = tuple((mu.atoms[i][0], nu.atoms[j][0], Fraction(f, mass_scale))
                      for (i, j), f in alloc)
    return TransportPlan(mu, nu, couplings, Fraction(total, mass_scale * scale))


def w2_squared(tree: Tree, mu: Measure, nu: Measure) -> Fraction:
    """The exact squared Wasserstein-2 distance.

    The unsquared distance is irrational in general; comparisons should be
    made through squares (see ``w2_triangle_holds`` in the verify module).
    """
    return optimal_plan(tree, mu, nu).squared_cost


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
    t = parse_rational(t)
    return WassersteinGeodesic.from_dirac(tree, x, mu, horizon=max(t, _ONE)).at(t)


class WassersteinGeodesic:
    """A measure-valued geodesic: a plan whose coupled masses each travel
    at constant speed along the path from their source to their target
    (``Tree._point_along`` up to time 1, ``geodesics._travel`` past it,
    chosen once per evaluation). The constructor takes the plan as outside
    input: it makes each coupling's points canonical points of ``tree``
    and parses its mass, once. ``at`` builds no path at any time and
    hands the atoms it locates to ``measures._measure`` unchecked.

    Evaluation at times s, t inside the interval satisfies
    W²(μ_s, μ_t) = (t−s)²·W²(μ_0, μ_1) exactly. A horizon past 1 needs a
    leafless tree and a plan from a Dirac mass: a geodesic from a measure
    that is not a Dirac does not extend, and its continued atoms would
    break the scaling. A ``plan`` that is not a :class:`TransportPlan`
    raises :class:`MeasureError` naming its kind.
    """

    def __init__(self, tree: Tree, plan: TransportPlan, horizon=_ONE):
        _require(plan, TransportPlan, "the plan", MeasureError)
        horizon = parse_rational(horizon)
        if horizon <= 0:
            raise ValueError("horizon must be positive")
        if horizon > 1 and not tree.geodesically_complete:
            raise CompletenessError("extension beyond time 1 needs a leafless tree")
        if horizon > 1 and not plan.source.is_dirac:
            raise MeasureError("extension beyond time 1 needs a plan from a Dirac mass")
        self.tree = tree
        self.plan = plan
        self.interval = (_ZERO, horizon)
        self._couplings = tuple(
            (tree.canonical_point(src), tree.canonical_point(dst), parse_rational(mass))
            for src, dst, mass in plan.couplings
        )

    @classmethod
    def from_dirac(cls, tree: Tree, x: TreePoint, mu: Measure, horizon=_ONE):
        plan = optimal_plan(tree, dirac(tree, x), mu)
        return cls(tree, plan, horizon)

    def at(self, t) -> Measure:
        t = parse_rational(t)
        lo, hi = self.interval
        if not lo <= t <= hi:
            raise ValueError(f"time {t} outside parameter interval [{lo}, {hi}]")
        # one comparison decides for every coupling which side of time 1 it is on
        move = self.tree._point_along if t <= 1 else partial(_travel, self.tree)
        return _measure((move(src, dst, t), mass) for src, dst, mass in self._couplings)


# ---------------------------------------------------------------------- #
# Optimality certificates                                                   #
# ---------------------------------------------------------------------- #

class CycleViolation(NamedTuple):
    """A cycle of coupled pairs whose shifted cost beats the plan's cost.

    Falsy, unlike other tuples, so ``is_cyclically_monotone`` reads naturally in conditions.
    """

    pairs: tuple[tuple[TreePoint, TreePoint], ...]
    base_cost: Fraction
    shifted_cost: Fraction

    def __bool__(self) -> bool:
        return False


def _squared_distances(tree: Tree, sources, targets) -> tuple[list[list[int]], int]:
    """``(table, scale)`` with ``table[i][j] == scale · d²(sources[i],
    targets[j])`` as ints, each d² from ``tree.distance`` and ``scale`` the
    lcm of their denominators: the exhaustive searches' table, which shares
    no code with the simplex's ``_cost_matrix``."""
    squares = [[tree.distance(p, q) ** 2 for q in targets] for p in sources]
    scale = math.lcm(*(c.denominator for row in squares for c in row))
    return [[c.numerator * (scale // c.denominator) for c in row] for row in squares], scale


def is_cyclically_monotone(tree: Tree, plan: TransportPlan, max_cycle_len: int = 2,
                           exhaustive: bool = False):
    """Check all cycles of support pairs up to ``max_cycle_len``.

    Returns True when no cycle improves, else a :class:`CycleViolation`
    witness. ``exhaustive=True`` checks every cycle length but refuses
    supports larger than 8. The table of squared distances
    (``_squared_distances``) is taken once, so cycles are summed and
    compared as ints; a witness carries its costs back as Fractions over
    the table's scale. A ``plan`` that is not a :class:`TransportPlan`
    raises :class:`MeasureError`.
    """
    _require(plan, TransportPlan, "the plan", MeasureError)
    pairs = [(p, q) for p, q, _ in plan.couplings]
    n = len(pairs)
    if exhaustive:
        if n > 8:
            raise ValueError("exhaustive mode is bounded to supports of size 8")
        top = n
    else:
        top = min(max_cycle_len, n)

    # cost[a][b] = scale · d²(source of pair a, target of pair b)
    cost, scale = _squared_distances(tree, [p for p, _ in pairs], [q for _, q in pairs])
    for length in range(2, top + 1):
        for combo in itertools.combinations(range(n), length):
            base = sum(cost[k][k] for k in combo)
            first = combo[0]
            for rest in itertools.permutations(combo[1:]):
                order = (first,) + rest
                shifted = sum(cost[order[k]][order[(k + 1) % length]] for k in range(length))
                if shifted < base:
                    return CycleViolation(tuple(pairs[k] for k in order),
                                          Fraction(base, scale), Fraction(shifted, scale))
    return True


class NonextendabilityWitness(NamedTuple):
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
    (the first other atom of ``mu0``) continued to time 1+ε lands at
    ``y″``. Swapping targets in that two-cycle is strictly cheaper than the
    continued transport whenever ε > 0. By default ``y″`` follows the deterministic smallest-edge-id
    continuation (reversing at leaves); a caller may propose any ``y″``
    reachable at constant speed instead. A ``mu0`` that is not a
    :class:`Measure` raises :class:`MeasureError`.
    """
    _require(mu0, Measure, "the measure", MeasureError)
    y = tree.canonical_point(y)
    if mu0.is_dirac:
        raise MeasureError("the measure is a Dirac mass; its geodesics do extend")
    if mu0.mass_at(y) == 0:
        raise MeasureError(f"{y!r} is not in the support of the measure")
    epsilon = parse_rational(epsilon)
    if epsilon < 0:
        raise ValueError(f"negative extension {epsilon}")

    y_prime = next(p for p in mu0.support if p != y)
    d = tree.distance(y_prime, y)
    if proposed_continuation is None:
        y2 = _travel(tree, y_prime, y, 1 + epsilon)
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
