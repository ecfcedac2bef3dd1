"""The integer transportation simplex that per-row bounds replaced, kept
for the tests.

``_scaled``, ``_northwest_corner``, ``_hang``, ``_rooted_basis`` and
``_transportation_simplex`` are the library functions of those names,
kept verbatim from before the entering scan kept a lower bound per row:
the scan here tests every row from row 0 after each pivot, the re-hang
looks each potential up from the costs, and allocations are keyed by
cell. The pivot rule is the same, so the library must return the same
allocation, cell for cell, on every instance. It is the tests' one copy
of Bland's rule: ``test_simplex_reference`` compares the library with it
on bench-sized trees, and ``test_transport`` on small instances, ties
and single rows or columns, and compares the north-west corner start
with its ``_northwest_corner``.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from operator import sub

from treeradon.errors import SolverError


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
        else:
            j += 1
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
