"""Recovering a hidden measure from its projections onto geodesics.

The measure is hidden behind an oracle answering one projection per query.
Only geodesics through flags are asked, and each answer gives the flag mass
at every joint of its geodesic, so a flag read once is not asked again.
Interior atoms are read directly (their level sets are single points);
vertex masses come out of the flag-table inversion after the interior
contribution is subtracted from each perpendicular.
"""

from fractions import Fraction as F

from treeradon import build_tree, make_measure, radon_oracle, reconstruct_measure

star = build_tree({
    "vertices": ["c", "a", "b", "d"],
    "edges": [
        ("c", "a", 1), ("c", "b", 1), ("c", "d", 1),
        ("a", None, "inf"), ("a", None, "inf"),
        ("b", None, "inf"), ("b", None, "inf"),
        ("d", None, "inf"), ("d", None, "inf"),
    ],
})

hidden = make_measure(star, [
    (star.vertex_point("c"), F(1, 4)),
    (star.vertex_point("a"), F(1, 8)),
    (star.point(1, F(1, 3)), F(1, 2)),   # inside the spoke toward b
    (star.point(7, F(9, 4)), F(1, 8)),   # out on a ray past d
])
print("hidden measure:")
for point, mass in hidden.atoms:
    print(f"  {mass} at {point}")

oracle = radon_oracle(star, hidden)  # only projections leave this closure
result = reconstruct_measure(star, oracle)

print("\ninterior atoms read verbatim from the flag-geodesic queries:")
for point, mass in result.interior_atoms:
    print(f"  {mass} at {point}")
print("interior total:", result.interior_total)

print("\nvertex part recovered by inversion with total",
      1 - result.interior_total, ":")
print(" ", dict(result.vertex_part.values))

print("\nfirst flag subtractions (raw projection mass minus interior part):")
for row in result.flag_rows[:3]:
    print(f"  {row.flag}: raw {row.raw_mass} - interior {row.interior_subtracted}"
          f" = {row.vertex_value}")

print("\nexact recovery:", result.measure == hidden)
