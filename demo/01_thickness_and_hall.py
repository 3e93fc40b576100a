"""Thickness of product sets and the bistochastic-mass identity.

Thickness is the cheapest cross cover (a union of full rows and full columns)
containing a set.  It is computed by max-flow, certified by the min cut, and
equals the largest mass a bistochastic plan can place on the set.
"""

from fractions import Fraction

from virtcont import DiscreteSpace, ProductSet, max_bistochastic_mass, thickness

n = 6
space = DiscreteSpace.uniform(n)

# a band around the diagonal
band = ProductSet(space, space,
                  [[abs(i - j) <= 1 for j in range(n)] for i in range(n)])
res = thickness(band)
print("thickness of the diagonal band:", res.value)
print("cover rows:", res.cover_x, " cover columns:", res.cover_y)

# the Hall identity: an optimal plan puts exactly that much mass on the band
hall = max_bistochastic_mass(band)
print("max bistochastic mass on the band:", hall.mass)
print("plan is bistochastic:", hall.plan.is_bistochastic())

# non-uniform weights move the optimum
heavy = DiscreteSpace(tuple(f"a{i}" for i in range(3)),
                      (Fraction(2, 3), Fraction(1, 6), Fraction(1, 6)))
corner = ProductSet(heavy, heavy,
                    [[i == 0 and j == 0 for j in range(3)] for i in range(3)])
print("single heavy cell:", thickness(corner).value, "(the atom weight 2/3)")
