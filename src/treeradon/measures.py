"""Finitely supported probability measures on a tree and their projections.

Measures are canonical: duplicate locations merge at construction and
atoms are stored in a fixed order, so value equality is geometric
equality. Masses are positive rationals summing exactly to one, which
makes membership in the quadratic Wasserstein space automatic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm
from operator import itemgetter
from typing import NamedTuple

from .errors import GeodesicError, MeasureError, _require
from .geodesics import Geodesic
from .rationals import parse_rational
from .tree import Tree, TreePoint, _new, point_sort_key

_ZERO = Fraction(0)
_ONE = Fraction(1)


# A dataclass, not a NamedTuple: cached_property needs an instance dict, and
# len() counts atoms, not fields.
@dataclass(frozen=True)
class Measure:
    """A finitely supported probability measure: ``((location, mass), ...)``.

    Build it with :func:`make_measure` or :func:`dirac`, or take it from
    interpolation, reconstruction or generation: every atom is then a
    canonical point of the tree used there, and the atoms come in
    ``point_sort_key`` order. Functions that take a ``Measure`` trust that
    and check or sort nothing again, so a measure goes with the tree it
    was made on or one built from the same description. Given a tree that
    lacks one of its atoms, ``pushforward_projection``, ``supported_on``,
    ``optimal_plan`` and ``w2_squared`` raise :class:`MeasureError` naming
    that atom; a tree with the same names and other lengths gives a wrong
    value.

    The masses' integer view, ``_integer_masses``, is computed once and
    kept, like ``VertexFunction.total``: by the measure core, which checks
    the total with it, or on first use for a measure built by hand.
    Equality and hashing read the atoms alone.
    """

    atoms: tuple[tuple[TreePoint, Fraction], ...]

    @cached_property
    def _integer_masses(self) -> tuple[int, tuple[int, ...]]:
        """``(scale, numerators)``: the lcm of the masses' denominators, and
        each mass times it as an int, in atom order. An int mass (a
        hand-built Dirac's ``1``) counts as its own numerator over 1; any
        other mass, a bool included, raises :class:`MeasureError` naming
        its atom."""
        for point, mass in self.atoms:
            if isinstance(mass, bool) or not isinstance(mass, (int, Fraction)):
                raise MeasureError(f"mass {mass!r} at {point!r} is not a rational")
        scale = lcm(*(mass.denominator for _, mass in self.atoms))
        return scale, tuple(mass.numerator * (scale // mass.denominator)
                            for _, mass in self.atoms)

    @property
    def total_mass(self) -> Fraction:
        return sum((m for _, m in self.atoms), _ZERO)

    @property
    def support(self) -> tuple[TreePoint, ...]:
        return tuple(p for p, _ in self.atoms)

    @property
    def is_dirac(self) -> bool:
        return len(self.atoms) == 1

    def mass_at(self, point: TreePoint) -> Fraction:
        for p, m in self.atoms:
            if p == point:
                return m
        return _ZERO

    def __len__(self) -> int:
        return len(self.atoms)


def make_measure(tree: Tree, atoms) -> Measure:
    """A measure from atoms given from outside: ``(point, mass)`` pairs
    with positive rational masses summing exactly to one. Each point is
    made a canonical point of ``tree`` and each mass a ``Fraction``, once,
    on the way into the core, ``_measure``."""
    return _measure((tree.canonical_point(point), parse_rational(mass)) for point, mass in atoms)


def _measure(atoms) -> Measure:
    """The one core, for canonical points of one tree with ``Fraction``
    masses. Each mass must be positive, which its numerator's sign tells.
    The first mass at a point is stored as it is, by one ``setdefault``,
    the point's one hash; only a repeated point, which leaves the dict's
    size as it was, adds. The atoms are sorted by ``point_sort_key``, and
    the total is checked as one integer sum over the measure's integer
    view, which the measure then keeps."""
    merged: dict[TreePoint, Fraction] = {}
    for point, mass in atoms:
        if mass.numerator <= 0:
            raise MeasureError(f"nonpositive mass {mass} at {point!r}")
        size = len(merged)
        known = merged.setdefault(point, mass)
        if len(merged) == size:
            merged[point] = known + mass
    if not merged:
        raise MeasureError("a measure needs at least one atom")
    measure = Measure(tuple(sorted(merged.items(), key=lambda item: point_sort_key(item[0]))))
    scale, numerators = measure._integer_masses
    total = sum(numerators)
    if total != scale:
        raise MeasureError(f"masses sum to {Fraction(total, scale)}, not 1")
    return measure


def dirac(tree: Tree, point: TreePoint) -> Measure:
    """The unit mass at a single point."""
    return Measure(((tree.canonical_point(point), _ONE),))


def _foreign_atom(point: TreePoint) -> MeasureError:
    """The error for a measure's atom that the tree it came with lacks, raised
    where the tree's lookup of it fails."""
    return MeasureError(f"atom {point!r} is not a point of this tree")


class RadonSample(NamedTuple):
    """A 1-D pushforward along one geodesic: ``(geodesic, atoms)``, the
    atoms ``((coordinate, mass), ...)``.

    Coordinates live in the geodesic's own arc-length system. Like the
    tree's value types, a sample is a ``typing.NamedTuple``: immutable,
    equal to and hashed as the plain tuple of its fields, and built in C
    through ``tuple.__new__`` by ``pushforward_projection``, once per query.
    """

    geodesic: Geodesic
    atoms: tuple[tuple[Fraction, Fraction], ...]

    @property
    def total_mass(self) -> Fraction:
        return sum((m for _, m in self.atoms), _ZERO)

    def mass_at(self, coordinate: Fraction) -> Fraction:
        for c, m in self.atoms:
            if c == coordinate:
                return m
        return _ZERO

    def to_measure(self, tree: Tree) -> Measure:
        """Place the sample back on ``tree``, the geodesic's own tree, as
        atoms on the geodesic. ``point_at`` gives canonical points, so they
        go to the measure core unchecked; each mass is parsed once, since a
        hand-built sample may carry ``"p/q"`` strings."""
        if self.geodesic.tree is not tree:
            raise GeodesicError("geodesic belongs to a different tree")
        point_at = self.geodesic.point_at
        return _measure((point_at(c), parse_rational(m)) for c, m in self.atoms)


def pushforward_projection(tree: Tree, geodesic: Geodesic, measure: Measure) -> RadonSample:
    """Project a measure onto a geodesic: each atom moves to its nearest
    point, masses at equal coordinates merge.

    Each atom's nearest point and raw coordinate come from one parent-link
    lookup (``Geodesic._project``); raw coordinates are measured from the
    origin, so nothing is shifted, no distance is taken and no coordinate
    is searched for twice. Distinct points of a geodesic have distinct
    coordinates, so masses merge by nearest point, which for an atom off
    the geodesic's own edges is a vertex and hashes as its id: no
    coordinate is hashed. Masses merge as the ints of the measure's
    integer view (``Measure._integer_masses``, one scale for all its
    atoms), so no ``Fraction`` is added: a point that received two or more
    atoms gets one ``Fraction`` of its summed ints over that scale, and a
    lone atom's mass passes through as the object the measure holds. The
    ``(coordinate, mass)`` pairs are sorted by coordinate alone.

    The geodesic must be maximal (complete in a leafless tree, or ending at
    leaves), since projections onto extendable segments are not part of the
    transform. The measure must be made on ``tree``: its atoms are taken as
    the canonical points the measure holds, and are not checked. An atom
    the tree lacks fails the projection's lookup, which raises
    :class:`MeasureError` naming it, as does a mass that is neither an int
    nor a ``Fraction``, and a ``measure`` that is not a :class:`Measure`; a
    ``geodesic`` that is not a :class:`Geodesic` raises
    :class:`GeodesicError`.
    """
    _require(geodesic, Geodesic, "the geodesic", GeodesicError)
    _require(measure, Measure, "the measure", MeasureError)
    if geodesic.tree is not tree:
        raise GeodesicError("geodesic belongs to a different tree")
    if not geodesic.is_maximal:
        raise GeodesicError("projection target must be a maximal geodesic")
    scale, numerators = measure._integer_masses
    # near point -> (coordinate, the lone atom's mass or None once merged, summed int)
    merged: dict[TreePoint, tuple[Fraction, Fraction | None, int]] = {}
    for (point, mass), n in zip(measure.atoms, numerators):
        try:
            near, coord = geodesic._project(point)
        except (KeyError, IndexError):  # an unknown vertex, or an edge id past the tree's
            raise _foreign_atom(point) from None
        known = merged.get(near)
        merged[near] = (coord, mass, n) if known is None else (coord, None, known[2] + n)
    atoms = [(coord, Fraction(n, scale) if mass is None else mass)
             for coord, mass, n in merged.values()]
    atoms.sort(key=itemgetter(0))
    return _new(RadonSample, (geodesic, tuple(atoms)))


def second_moment(tree: Tree, measure: Measure, base: TreePoint) -> Fraction:
    """The exact integral of squared distance to ``base``; a ``measure``
    that is not a :class:`Measure` raises :class:`MeasureError`."""
    _require(measure, Measure, "the measure", MeasureError)
    total = _ZERO
    for point, mass in measure.atoms:
        d = tree.distance(base, point)
        total += mass * d * d
    return total


def supported_on(measure: Measure, geodesic: Geodesic) -> bool:
    """True iff every atom lies on the geodesic (atoms are not checked).
    An atom the geodesic's tree lacks fails the projection's lookup, which
    raises :class:`MeasureError` naming it, as does a ``measure`` that is
    not a :class:`Measure`."""
    _require(measure, Measure, "the measure", MeasureError)
    for point, _ in measure.atoms:
        try:
            if geodesic._raw_of(point) is None:
                return False
        except (KeyError, IndexError):  # an unknown vertex, or an edge id past the tree's
            raise _foreign_atom(point) from None
    return True
