"""The perpendicular Radon transform on trees and its exact inversion.

The combinatorial transform sums a vertex function over the perpendicular
of each flag; with k(x) the valency, the closed form

    h(x) = 1/(k(x)-1) · Σ_{ef∋x} Rh(x, ef)  -  (k(x)-2)/2 · Σ_y h(y)

recovers the function exactly whenever every valency is at least 3.
Both directions are plain sums, kept to few ``Fraction`` operations:
``radon_forward`` sums ints over one scale L, the lcm of h's
denominators, and returns a table that holds the ints and L. The table
builds its entries on their first read, one ``Fraction`` per distinct
flag value; inversion and double counting never read them.
``radon_invert`` and the double-counting check sum the flags at each
vertex as integers: on such a table, slices of its ints over L; on any
other, the flag values at that vertex's own scale, the lcm of their
denominators. The inversion then builds one ``Fraction`` per distinct
value it finds. One scale serves the forward transform only while it
fits in 64 bits: when the denominators are distinct primes it is as
large as all of them, and reducing every flag value by it costs more
than a ``Fraction`` pass that takes at most one subtraction per flag.

A flag table holds one value per flag of its tree, by position in
``enumerate_flags`` order: each vertex's record in the tree holds the
position of its first flag, and a flag's position is that plus the index
of its edge pair among the vertex's C(k,2) pairs. So the kernels build no
``Flag`` key: ``radon_forward`` appends each value in order, the flag sums
read one slice per vertex, and reconstruction keeps its readings in lists
by position. A table belongs to one tree object; a kernel given a table
of another tree raises :class:`RadonError`. The inversion and the
double-counting check ask that once per call, then sum each vertex's
slice with C-level iteration.

The measure-level transform is the family of projections onto complete
geodesics; ``reconstruct_measure`` recovers a finitely supported measure
from the projections onto flag geodesics alone. Each answer gives the flag
mass at every joint of its geodesic, so a flag already read is not queried
again and a second reading of it is cross-checked. Past its flag, each
queried geodesic continues through flags no answer has read yet, so fewer
of its joints re-read known flags. The routing computes the position of
every flag it tests, from the incoming edge's index found once per vertex,
and records the one it passes through at each joint, so reading an answer
computes no flag position. One loop over the flags reads every answer;
interior atoms are read directly (interior level sets are singletons), the
interior mass inside each perpendicular comes from the forward transform
of the atoms' foot vertices, and the vertex part is inverted. The
per-query records, the oracle's ``RadonSample`` and reconstruction's
``FlagRow`` and ``EdgeRead``, are ``typing.NamedTuple``s built in C.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction
from itertools import combinations, repeat
from math import comb, lcm
from operator import attrgetter, floordiv, mul
from typing import Callable, Iterable, Iterator, NamedTuple

from .errors import (
    CompletenessError,
    MeasureError,
    OracleInconsistencyError,
    PointLocationError,
    RadonError,
)
from .geodesics import Geodesic, _flag_geodesic, geodesic_through_flag
from .measures import Measure, RadonSample, _measure, pushforward_projection
from .rationals import parse_rational
from .tree import Flag, Tree, TreePoint, VertexId, _new, _pair_start

_ZERO = Fraction(0)
_ONE = Fraction(1)
_numerator = attrgetter("numerator")
_denominator = attrgetter("denominator")
# the value types radon_forward takes (bool, an int subclass, aside)
_RATIONALS = (int, Fraction)
_RATIONAL_TYPES = frozenset(_RATIONALS)


# A dataclass, not a NamedTuple: cached_property needs an instance dict.
@dataclass(frozen=True)
class VertexFunction:
    """A finitely supported rational function on the vertices.

    Zero values are dropped at construction, so equality means equality as
    functions. ``value`` returns 0 for vertices without an entry.
    """

    values: Mapping[VertexId, Fraction]

    @cached_property
    def total(self) -> Fraction:
        return sum(self.values.values(), _ZERO)

    def value(self, vertex: VertexId) -> Fraction:
        return self.values.get(vertex, _ZERO)


def vertex_function(tree: Tree, values: Mapping) -> VertexFunction:
    """Build a vertex function, validating keys against the tree; a
    ``tree`` that is not a :class:`Tree`, or ``values`` that are not a
    mapping, raise :class:`RadonError`."""
    _require(tree, Tree, "the tree")
    _require(values, Mapping, "the mapping")
    cleaned: dict[VertexId, Fraction] = {}
    for vertex, raw in values.items():
        vertex = tree._record(vertex).id
        value = parse_rational(raw)
        if value != 0:
            cleaned[vertex] = value
    return VertexFunction(cleaned)


# A dataclass, not a NamedTuple: __post_init__ checks the entries' count.
@dataclass(frozen=True)
class FlagTable:
    """Values of the combinatorial transform, one per flag of ``tree``.

    ``entries`` holds the values by flag position, in
    :func:`enumerate_flags` order, with ``None`` where the table has no
    entry. A flag's position is the position of its vertex's first flag,
    which the vertex's record in the tree holds, plus the index of its
    edge pair among the vertex's C(k,2) pairs. A table belongs to its ``tree``
    object: the kernels refuse a table of any other tree, even one built
    from the same description. Build a table from a ``{Flag: value}``
    mapping with :func:`flag_table`.

    A table that :func:`radon_forward` returns in its int regime holds its
    entries as ints over one scale, which the flag sums read instead of the
    entries, and builds ``entries`` from them on its first read, one
    ``Fraction`` per distinct value; later reads return the same tuple.
    That form is private: ``==``, ``hash``, ``repr``, pickling, copying
    and ``dataclasses.replace`` see the entries alone, and a table built
    or replaced from entries has no ints.
    """

    tree: Tree
    entries: tuple[Fraction | None, ...]
    # (numerators, L): every entry as an int over one scale L. Only
    # radon_forward sets it; init=False, so a table built or replaced from
    # entries, ``dataclasses.replace`` included, never keeps stale ints.
    _ints: tuple[tuple[int, ...], int] | None = field(init=False, compare=False, repr=False,
                                                      default=None)

    def __post_init__(self) -> None:
        object.__setattr__(self, "entries", tuple(self.entries))
        if len(self.entries) != self.tree._flag_count:
            raise RadonError(f"a flag table of this tree needs {self.tree._flag_count} "
                             f"entries, not {len(self.entries)}")

    def __getattr__(self, name: str):
        # Python asks this only for a name missing from the instance: on a
        # table from radon_forward's int regime, ``entries`` until its first
        # read, which builds and stores them. Two threads reading at once
        # may each build them, with equal results.
        if name == "entries" and self._ints is not None:
            numerators, scale = self._ints
            shared = {n: Fraction(n, scale) for n in set(numerators)}
            entries = tuple(map(shared.__getitem__, numerators))
            object.__setattr__(self, "entries", entries)
            return entries
        raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}",
                             name=name, obj=self)

    @property
    def values(self) -> dict[Flag, Fraction]:
        """The entries present, as a ``{Flag: Fraction}`` mapping in
        :func:`enumerate_flags` order; built afresh on every read."""
        return {flag: value for flag, value in zip(enumerate_flags(self.tree), self.entries)
                if value is not None}

    def value(self, flag: Flag) -> Fraction:
        """The entry at ``flag``'s position; :class:`RadonError` when the
        table has none there or ``Tree.validate_flag`` refuses the flag."""
        try:
            vertex, (e, f) = self.tree.validate_flag(flag)
        except PointLocationError:
            entry = None
        else:
            entry = self.entries[self.tree._flag_position(vertex, e, f)]
        if entry is None:
            raise RadonError(f"flag table has no entry for {flag!r}")
        return entry

    def __len__(self) -> int:
        """The number of entries present."""
        return sum(value is not None for value in self.entries)


def flag_table(tree: Tree, values: Mapping) -> FlagTable:
    """Build a flag table of ``tree`` from a ``{Flag: value}`` mapping, the
    twin of :func:`vertex_function`.

    Each value is parsed as an exact rational and stored at its flag's
    position (see :class:`FlagTable`). A key that ``Tree.validate_flag``
    refuses is ignored, two keys that name one flag raise
    :class:`RadonError`, and a flag without an entry, or with the value
    ``None``, has none in the table. The table belongs to ``tree``: the
    kernels refuse it with any other tree object. A ``tree`` that is not a
    :class:`Tree`, or ``values`` that are not a mapping, raise
    :class:`RadonError`.
    """
    _require(tree, Tree, "the tree")
    _require(values, Mapping, "the mapping")
    entries: list[Fraction | None] = [None] * tree._flag_count
    key_at: dict[int, object] = {}  # the key that gave each position
    for flag, raw in values.items():
        try:
            vertex, (e, f) = tree.validate_flag(flag)
        except PointLocationError:
            continue  # not a flag of this tree
        at = tree._flag_position(vertex, e, f)
        first = key_at.setdefault(at, flag)
        if first is not flag:
            raise RadonError(f"keys {first!r} and {flag!r} name the same flag")
        entries[at] = None if raw is None else parse_rational(raw)
    return FlagTable(tree, tuple(entries))


def enumerate_flags(tree: Tree) -> list[Flag]:
    """All flags, vertex by vertex; a valency-k vertex contributes C(k,2)."""
    flags = []
    for v in tree.vertices:
        for pair in combinations(tree._vertex[v].incident, 2):
            flags.append(_new(Flag, (v, frozenset(pair))))
    return flags


def radon_forward(tree: Tree, h: VertexFunction) -> FlagTable:
    """The combinatorial transform: per flag, the sum of h over the
    perpendicular's vertices.

    The perpendicular of (x, {e, f}) is everything except the two branches
    through e and f, so its vertex sum is Σh minus the two branch sums.
    One backward pass over the tree's vertex records, which list every
    parent before its children, gives each vertex's subtree sum, and Σh is
    the root's. Σh minus one branch is taken once per edge to a child of x
    (for the edge to x's parent it is x's own subtree sum), so each flag
    costs at most one subtraction, and none beside an empty branch: a
    ray's, or one that no nonzero value reached, whose sum is the shared
    zero object (tested by identity; a sum that cancels is merely added).

    The number type is chosen once, from L, the lcm of h's denominators.
    Up to 64 bits, the sums are ints over L, and the table keeps them and L
    for the flag sums of :func:`radon_invert` and
    :func:`double_count_check`, which read no entry. The table builds its
    entries on their first read: each distinct flag numerator becomes one
    ``Fraction(n, L)``, shared by the flags that have it. Past 64 bits,
    the sums stay in ``Fraction``s: with a distinct prime per vertex,
    ``Fraction(n, L)`` would take a gcd of numbers of L's size per flag.
    ``tree`` must be a :class:`Tree`, ``h`` a :class:`VertexFunction`,
    each of its values an int (not a bool) or a ``Fraction``, and each key
    a vertex of the tree; :class:`RadonError` names any other.
    """
    _require(tree, Tree, "the tree")
    _require(h, VertexFunction, "the vertex function")
    values = h.values
    if not _RATIONAL_TYPES.issuperset(map(type, values.values())):
        for x, value in values.items():
            if isinstance(value, bool) or not isinstance(value, _RATIONALS):
                raise RadonError(f"value {value!r} at vertex {x!r} is not an int or a Fraction")
    denominators = list(map(_denominator, values.values()))
    # the lcm stops past 64 bits: over a distinct prime per vertex, the
    # whole of it costs nearly a tenth of the Fraction pass
    scale, ints = 1, True
    for d in set(denominators):
        scale = lcm(scale, d)
        if scale >> 64:
            ints = False
            break
    if ints:
        zero, seeds = 0, map(mul, map(_numerator, values.values()),
                             map(floordiv, repeat(scale), denominators))
    else:
        zero, seeds = _ZERO, [v if type(v) is Fraction else Fraction(v)
                              for v in values.values()]
    subtree = dict.fromkeys(tree.vertices, zero)
    subtree.update(zip(values, seeds))
    if len(subtree) != len(tree.vertices):
        stray = next(v for v in values if v not in tree._vertex)
        raise RadonError(f"vertex function has a value at {stray!r}, not a vertex of the tree")
    vertex, edges = tree._vertex, tree.edges
    for record in reversed(vertex.values()):
        inside = subtree[record.id]
        if inside is not zero and record.parent is not None:
            subtree[record.parent] += inside
    total = subtree[tree.vertices[0]]
    table: list = []
    for x in tree.vertices:
        record = vertex[x]
        inc, via = record.incident, record.parent_edge
        # Per incident edge: Σh over the rest and Σh over its branch. A
        # ray's branch is empty, held as zero like a branch that no nonzero
        # value reached, so a flag with an empty branch is the other edge's
        # rest. The parent edge's rest is x's subtree, so a flag with it
        # subtracts the other edge's branch from that, and its own branch
        # (None) is never needed. A flag on two other edges is the first
        # one's rest less the second one's branch, so the last of them has
        # its rest read only beside an empty branch, and gets one only then.
        last = inc[-2] if inc[-1] == via and len(inc) > 1 else inc[-1]
        ends, empty = [], False
        for eid in inc:
            rec = edges[eid]
            if eid == via:
                ends.append((subtree[x], None))
                continue
            inside = zero if rec.v is None else subtree[rec.v if rec.u == x else rec.u]
            if inside is zero:
                empty = True
                ends.append((total, zero))
            else:
                ends.append((total - inside if empty or eid != last else None, inside))
        # the pairs in combinations order, so each value lands at its flag's
        # position; each is one rest less at most one branch
        table += [ri if bj is zero else rj if bi is zero else rj - bi if bj is None else ri - bj
                  for (ri, bi), (rj, bj) in combinations(ends, 2)]
    if not ints:
        return FlagTable(tree, tuple(table))
    # no __init__: the entries wait for their first read (FlagTable.__getattr__)
    flags = object.__new__(FlagTable)
    vars(flags).update(tree=tree, _ints=(tuple(table), scale))
    return flags


def _require(value, kind: type, role: str) -> None:
    """Raise :class:`RadonError` unless ``value`` is a ``kind``; asked once
    per kernel call, so a wrong kind is named, not a missing attribute."""
    if not isinstance(value, kind):
        raise RadonError(f"{role} is a {type(value).__name__}, not a {kind.__name__}")


def _flag_sums(tree: Tree, table: FlagTable, vertices: Iterable[VertexId],
               total: Fraction = _ZERO) -> Iterator[tuple[int, int, int]]:
    """Per vertex x of ``vertices``, in turn: its valency k and Σ Rh(x, ef)
    over the C(k,2) flags at x, as an integer numerator over a scale D_x
    that ``total``'s denominator divides. The flags at x are one slice of
    the table, summed by C-level iteration. Whether the table belongs to
    the tree, and whether it is a :class:`FlagTable` at all, is asked
    once, before the first vertex.

    A table from the forward transform's int regime holds its entries as
    ints over one scale L, so each D_x is the lcm of L and ``total``'s
    denominator, and a flag sum is the sum of an int slice: no entry's
    numerator or denominator is read. Any other table is summed at each
    vertex's own scale, the lcm of its flag values' denominators and of
    ``total``'s. One scale for such a table would be the lcm of every
    denominator in it, and each vertex would pay for the denominators of
    all the others.
    """
    _require(table, FlagTable, "the flag table")
    if table.tree is not tree:
        raise RadonError("the flag table belongs to another tree")
    records = tree._vertex
    if table._ints is not None:
        numerators, over = table._ints
        scale = lcm(over, total.denominator)
        times = scale // over
        for x in vertices:
            record = records[x]
            k, start = len(record.incident), record.first_flag
            yield k, sum(numerators[start:start + k * (k - 1) // 2]) * times, scale
        return
    entries, total_denominator = table.entries, total.denominator
    for x in vertices:
        record = records[x]
        k, start = len(record.incident), record.first_flag
        values = entries[start:start + k * (k - 1) // 2]
        try:
            denominators = list(map(_denominator, values))
        except AttributeError:  # name the first flag with a None or a non-rational entry
            for pair, value in zip(combinations(record.incident, 2), values):
                if not hasattr(value, "denominator"):
                    flag = Flag(x, frozenset(pair))
                    table.value(flag)  # a None: the table has no entry there
                    raise RadonError(
                        f"flag table entry {value!r} for {flag!r} is not a rational") from None
            raise
        scale = lcm(total_denominator, *denominators)
        # yielded, not listed: with a distinct prime per flag, D_x and the
        # sum reach thousands of digits, and holding all V of them at once
        # is slower than holding one vertex's at a time
        yield k, sum(map(mul, map(_numerator, values),
                         map(floordiv, repeat(scale), denominators))), scale


class DoubleCountIdentity(NamedTuple):
    """Both sides of the flag-sum identity at one vertex.

    Summing Rh over the C(k,2) flags at x counts every other vertex once
    per flag avoiding its branch, C(k-1,2) times, and x itself C(k,2)
    times; hence lhs = C(k-1,2)·Σh + (k-1)·h(x).
    """

    vertex: VertexId
    lhs: Fraction
    rhs: Fraction

    @property
    def holds(self) -> bool:
        return self.lhs == self.rhs


def double_count_check(tree: Tree, h: VertexFunction, x: VertexId,
                       table: FlagTable | None = None) -> DoubleCountIdentity:
    """Evaluate the double-counting identity at ``x``; both sides are
    computed independently (flag sums vs. the closed form). ``tree`` must
    be a :class:`Tree`, ``h`` a :class:`VertexFunction` and ``table``, if
    given, a :class:`FlagTable`; :class:`RadonError` names any other
    kind."""
    _require(tree, Tree, "the tree")
    _require(h, VertexFunction, "the vertex function")
    k = tree.valency(x)
    if k < 2:
        raise RadonError(f"vertex {x!r} has valency {k}; no flags exist there")
    if table is None:
        table = radon_forward(tree, h)
    rhs = comb(k - 1, 2) * h.total + (k - 1) * h.value(x)
    [(_, flag_sum, scale)] = _flag_sums(tree, table, (x,))
    return DoubleCountIdentity(vertex=x, lhs=Fraction(flag_sum, scale), rhs=rhs)


def radon_invert(tree: Tree, table: FlagTable, total) -> VertexFunction:
    """Recover the vertex function from its flag table and its total sum.

    Requires every valency ≥ 3 (equivalently: no leaves, given that
    valency 2 is banned); the table must cover every flag. Each h(x) is
    built from integers at the scale D_x of :func:`_flag_sums`, one scale
    for every vertex when the table comes from the forward transform's int
    regime: with S/D_x the flag sum and T/D_x the total,
    h(x) = (2S − (k−1)(k−2)·T) / (2·D_x·(k−1)). That is put over
    2·D_x·M, M the lcm of every k − 1 in the tree, and one ``Fraction`` is
    built per distinct pair of numerator and denominator, shared by the
    vertices that have it: over one scale, one per distinct value. A
    ``tree`` that is not a :class:`Tree`, or a ``table`` that is not a
    :class:`FlagTable`, raises :class:`RadonError`.
    """
    _require(tree, Tree, "the tree")
    total = parse_rational(total)
    # construction bans valency 0 and 2, so without leaves every k >= 3
    if not tree.geodesically_complete:
        raise RadonError(
            f"inversion needs valency >= 3 everywhere; vertex {tree.leaves[0]!r} has 1"
        )
    lcm_k = lcm(*{len(record.incident) - 1 for record in tree._vertex.values()})
    values: dict[VertexId, Fraction] = {}
    shared: dict[tuple[int, int], Fraction] = {}
    total_numerator, total_denominator = total.numerator, total.denominator
    for x, (k, flag_sum, scale) in zip(tree.vertices,
                                       _flag_sums(tree, table, tree.vertices, total)):
        scaled_total = total_numerator * (scale // total_denominator)
        numerator = 2 * flag_sum - (k - 1) * (k - 2) * scaled_total
        if numerator:
            key = numerator * (lcm_k // (k - 1)), 2 * scale * lcm_k
            value = shared.get(key)
            if value is None:
                value = shared[key] = Fraction(*key)
            values[x] = value
    return VertexFunction(values)


# ---------------------------------------------------------------------- #
# Measure-level transform                                                   #
# ---------------------------------------------------------------------- #

def radon_oracle(tree: Tree, mu: Measure) -> Callable[[Geodesic], RadonSample]:
    """Hide a known measure behind its transform, for reconstruction runs."""

    def oracle(geodesic: Geodesic) -> RadonSample:
        return pushforward_projection(tree, geodesic, mu)

    return oracle


def flag_mass(tree: Tree, mu: Measure, flag: Flag) -> Fraction:
    """The measure of the flag's perpendicular, read off the transform.

    It is the atom of the projection onto the geodesic through the flag at
    the flag vertex (coordinate 0 by the origin convention).
    """
    geodesic = geodesic_through_flag(tree, flag)
    sample = pushforward_projection(tree, geodesic, mu)
    return sample.mass_at(_ZERO)


# ---------------------------------------------------------------------- #
# Reconstruction                                                            #
# ---------------------------------------------------------------------- #

class EdgeRead(NamedTuple):
    """Provenance of one interior read: the atoms seen inside an edge."""

    edge: int
    atoms: tuple[tuple[Fraction, Fraction], ...]  # (offset, mass)


class FlagRow(NamedTuple):
    """Provenance of one flag query during reconstruction."""

    flag: Flag
    raw_mass: Fraction
    interior_subtracted: Fraction
    vertex_value: Fraction


class ReconstructionResult(NamedTuple):
    measure: Measure
    interior_atoms: tuple[tuple[TreePoint, Fraction], ...]
    interior_total: Fraction
    vertex_part: VertexFunction
    edge_reads: tuple[EdgeRead, ...]
    flag_rows: tuple[FlagRow, ...]


def _router(tree: Tree, raw: list, position_at: dict) -> Callable[[Tree, VertexId, int], int]:
    """Reconstruction's next-edge rule for ``_flag_geodesic``, which records
    the flag it routes through.

    At ``vertex``, entered by ``via``, the rule takes the smallest-id edge
    that forms with ``via`` a flag whose entry in ``raw`` is None, else
    the smallest-id other edge, and stores the position of the flag
    {via, taken edge} at ``vertex`` in ``position_at[vertex]``. ``via``'s
    index among the vertex's incident edges is found once; the position
    of each flag tested follows from it and the other edge's index by the
    tree module's one statement of the flag-position rule, ``_pair_start``,
    with no ``Tree._flag_position`` call.
    """
    records = tree._vertex

    def routed(tree: Tree, vertex: VertexId, via: int) -> int:
        record = records[vertex]
        inc = record.incident
        k, i, first = len(inc), inc.index(via), record.first_flag
        row = first + _pair_start(k, i)  # the flags (via, inc[j]) for j > i
        fallback = None
        for j, eid in enumerate(inc):
            if j != i:
                at = first + _pair_start(k, j) + i if j < i else row + j
                if raw[at] is None:
                    position_at[vertex] = at
                    return eid
                if fallback is None:
                    fallback = eid, at
        eid, position_at[vertex] = fallback
        return eid

    return routed


def reconstruct_measure(tree: Tree, oracle: Callable[[Geodesic], RadonSample],
                        candidate_skeleton: Iterable[int] | None = None) -> ReconstructionResult:
    """Recover a finitely supported measure from its projection oracle.

    Only flag geodesics are queried. The perpendicular of a flag is a level
    set of the projection, so one answer on any complete geodesic gives the
    flag mass at every joint of it: flags are walked in order, and a flag no
    earlier answer has read queries a geodesic through its two edges. Past
    the flag, that geodesic is routed: at each vertex it takes the
    smallest-id edge forming an unread flag with the edge it came in by,
    and otherwise the smallest-id other edge. The routing records the
    position of the flag it passes through at each joint, and the queried
    flag's own position is its place in the flag order, so each answer is
    read joint by joint with no flag position computed again. Every edge
    lies on a queried geodesic, so every interior atom is read verbatim
    (interior level sets are single points) and kept under its canonical
    point. The interior mass inside each perpendicular is the forward
    transform of the interior atoms placed on their foot vertices, less
    each atom at the flags of its foot that contain its own edge. It is
    subtracted, and the remaining vertex table is inverted with total 1
    minus the interior mass.

    Interior sightings and flag readings are cross-checked across every
    queried geodesic; an answer that is not a ``RadonSample``,
    disagreement, a coordinate listed twice in one answer, mass outside
    the skeleton, or a vertex table that is not a genuine transform of a
    nonnegative function all raise :class:`OracleInconsistencyError`. A reading is compared by value
    unless it is the very object already held, as the shared zero of two
    joints without an atom is. A ``tree`` that is not a :class:`Tree`
    raises :class:`RadonError`.
    """
    _require(tree, Tree, "the tree")
    if not tree.geodesically_complete:
        raise CompletenessError("reconstruction needs a tree without leaves")
    if candidate_skeleton is None:
        skeleton = list(range(len(tree.edges)))
    else:
        # each id is validated before the set and the sort, which would
        # fail on an unhashable or non-int id with a bare TypeError
        skeleton = sorted({tree.edge(eid).id for eid in candidate_skeleton})

    skeleton_set = set(skeleton)
    interior: dict[TreePoint, Fraction] = {}
    flags = enumerate_flags(tree)
    # flag masses read so far, by flag position; None until read
    raw: list[Fraction | None] = [None] * len(flags)
    # the position of the flag a queried geodesic reads at each joint: the
    # routing records every joint past the origin as it walks
    position_at: dict[VertexId, int] = {}
    routed = _router(tree, raw, position_at)

    for at, flag in enumerate(flags):
        if raw[at] is not None:
            continue
        position_at[flag.vertex] = at
        geodesic = _flag_geodesic(tree, flag, routed)
        point_at = geodesic.point_at
        # on a complete geodesic every vertex atom sits on a joint
        at_joint: dict[VertexId, Fraction] = {}
        seen: set[TreePoint] = set()
        sample = oracle(geodesic)
        if not isinstance(sample, RadonSample):
            raise OracleInconsistencyError(
                f"the oracle answered with a {type(sample).__name__}, not a RadonSample")
        for coord, mass in sample.atoms:
            spot = point_at(coord)
            mass = parse_rational(mass)
            count = len(seen)
            seen.add(spot)
            if len(seen) == count:
                raise OracleInconsistencyError(f"an answer lists coordinate {coord} twice")
            if spot.vertex is not None:
                at_joint[spot.vertex] = mass
                continue
            if spot.edge not in skeleton_set:
                raise OracleInconsistencyError(
                    f"interior mass on edge {spot.edge} outside the candidate skeleton"
                )
            known = interior.setdefault(spot, mass)
            if known is not mass and known != mass:
                raise OracleInconsistencyError(
                    f"masses disagree across geodesics through edge {spot.edge}: "
                    f"{known} vs {mass} at offset {spot.offset}"
                )
        for joint in geodesic.joints:
            read = position_at[joint]
            mass = at_joint.get(joint, _ZERO)
            known = raw[read]
            if known is None:
                raw[read] = mass
            elif known is not mass and known != mass:
                raise OracleInconsistencyError(
                    f"flag {flags[read]!r} reads {known} on one geodesic and {mass} on another"
                )

    # Interior mass inside each perpendicular is the forward transform of
    # the atoms put on their foot vertices, less each atom's mass at every
    # flag of its foot that contains the atom's own edge: that branch holds
    # the atom. A zero inside costs no subtraction.
    interior_total = sum(interior.values(), _ZERO)
    on_foot: dict[VertexId, Fraction] = {}
    footed = [(tree._foot_vertex(point), point.edge, mass) for point, mass in interior.items()]
    for foot, _, mass in footed:
        known = on_foot.get(foot)
        on_foot[foot] = mass if known is None else known + mass
    inside = list(radon_forward(tree, VertexFunction(on_foot)).entries)
    position = tree._flag_position
    for foot, edge, mass in footed:
        for eid in tree._vertex[foot].incident:
            if eid != edge:
                inside[position(foot, edge, eid)] -= mass

    flag_rows = []
    values = []
    for flag, raw_mass, held in zip(flags, raw, inside):
        value = raw_mass - held if held else raw_mass
        values.append(value)
        flag_rows.append(_new(FlagRow, (flag, raw_mass, held, value)))
    table = FlagTable(tree, tuple(values))

    vertex_part = radon_invert(tree, table, _ONE - interior_total)

    for vertex, value in vertex_part.values.items():
        if value < 0:
            raise OracleInconsistencyError(
                f"inverted vertex mass at {vertex!r} is negative ({value})"
            )
    if radon_forward(tree, vertex_part) != table:
        raise OracleInconsistencyError(
            "flag table is not a transform of any vertex function with the "
            "implied total; oracle data is inconsistent"
        )

    # canonical points (the tree's own vertex ids) with Fraction masses
    atoms = [(TreePoint(v), m) for v, m in vertex_part.values.items()]
    atoms.extend(interior.items())
    try:
        measure = _measure(atoms)
    except MeasureError as exc:
        raise OracleInconsistencyError(f"reconstructed masses are not a probability: {exc}") from exc

    ordered = tuple(atom for atom in measure.atoms if not atom[0].is_vertex)
    reads: dict[int, list[tuple[Fraction, Fraction]]] = {eid: [] for eid in skeleton}
    for point, mass in ordered:
        reads[point.edge].append((point.offset, mass))
    return ReconstructionResult(
        measure=measure,
        interior_atoms=ordered,
        interior_total=interior_total,
        vertex_part=vertex_part,
        edge_reads=tuple(_new(EdgeRead, (eid, tuple(seen))) for eid, seen in reads.items()),
        flag_rows=tuple(flag_rows),
    )
