"""Thickness: flow solver vs brute force vs the fractional cover LP."""

import random
from fractions import Fraction

from virtcont import (DiscreteSpace, ProductSet, thickness,
                      thickness_of_level_set, verify_thickness_result)

from lp_oracle import cover_lp_data, dense_lp_solve
from util import brute_thickness, fn_on, rand_set, rand_space


def _single_cell(xs, ys, i, j):
    member = [[a == i and b == j for b in range(ys.size)]
              for a in range(xs.size)]
    return ProductSet(xs, ys, member)


def test_empty_set_has_thickness_zero():
    # in both regimes: the regime's zero, an empty cover, a zero fractional
    # pair, and no flow or cells
    for one in (Fraction(1), 1.0):
        xs = DiscreteSpace(["a", "b", "c"], [one / 4, one / 4, one / 2])
        ys = DiscreteSpace(["p", "q"], [one / 3, 2 * one / 3])
        res = thickness(ProductSet.empty(xs, ys))
        zero = one * 0
        assert type(res.value) is type(zero) and res.value == zero
        assert (res.cover_x, res.cover_y, res.flow, res.cells) == ([], [], [], [])
        assert res.fractional_f == [zero] * 3 and res.fractional_g == [zero] * 2
        assert {type(v) for v in res.fractional_f + res.fractional_g} == {type(zero)}


def test_single_cell_uniform_grid():
    s = DiscreteSpace.uniform(4)
    res = thickness(_single_cell(s, s, 1, 2))
    assert res.value == Fraction(1, 4)
    assert verify_thickness_result(_single_cell(s, s, 1, 2), res) == []


def test_diagonal_and_full():
    s = DiscreteSpace.uniform(4)
    diag = ProductSet(s, s, [[i == j for j in range(4)] for i in range(4)])
    assert thickness(diag).value == 1
    assert brute_thickness(diag) == 1
    assert thickness(ProductSet.full(s, s)).value == 1


def test_properties_on_random_sets():
    rng = random.Random(7)
    for _ in range(40):
        xs = rand_space(rng, rng.randint(1, 5), "x")
        ys = rand_space(rng, rng.randint(1, 5), "y")
        z = rand_set(rng, xs, ys)
        w = rand_set(rng, xs, ys)
        tz, tw = thickness(z).value, thickness(w).value
        # oracle agreement and certificate validity
        assert tz == brute_thickness(z)
        assert verify_thickness_result(z, thickness(z)) == []
        # monotone under inclusion
        zw = z.union(w)
        tzw = thickness(zw).value
        assert tzw >= max(tz, tw)
        # bounded by the smaller marginal measure of the support
        assert tz <= 1
        # subadditive on unions
        assert tzw <= tz + tw


def test_continuity_from_below():
    # growing sets: thickness of the union is the limit of the thicknesses
    s = DiscreteSpace.uniform(5)
    prev = Fraction(0)
    member = [[False] * 5 for _ in range(5)]
    for k in range(5):
        member[k][k] = True
        cur = thickness(ProductSet(s, s, [row[:] for row in member])).value
        assert cur >= prev
        prev = cur
    assert prev == 1


def test_flow_value_matches_cover_lp():
    rng = random.Random(13)
    for _ in range(25):
        xs = rand_space(rng, rng.randint(1, 4), "x")
        ys = rand_space(rng, rng.randint(1, 4), "y")
        z = rand_set(rng, xs, ys)
        A, b, c = cover_lp_data(z)
        value, _, _ = dense_lp_solve(A, b, c)
        assert thickness(z).value == -value


def test_no_upper_semicontinuity_for_shrinking_bands():
    # Z_k = {0 < |x - y| < 1/k} on a grid shrinks to the empty set while the
    # thickness stays bounded away from zero until the band dies out.
    n = 12
    s = DiscreteSpace.uniform(n)
    pts = [Fraction(2 * i + 1, 2 * n) for i in range(n)]
    values = []
    for k in (2, 3, 4, 6):
        z = ProductSet(s, s, [[0 < abs(pts[i] - pts[j]) < Fraction(1, k)
                               for j in range(n)] for i in range(n)])
        assert not z.is_empty()
        values.append(thickness(z).value)
    assert min(values) >= Fraction(1, 2)
    empty = ProductSet(s, s, [[0 < abs(pts[i] - pts[j]) < Fraction(1, 2 * n)
                               for j in range(n)] for i in range(n)])
    assert empty.is_empty()


def test_level_set_thickness():
    n = 10
    s = DiscreteSpace.uniform(n)
    f = fn_on(s, s, lambda i, j: Fraction(1) if (i, j) == (0, 0) else Fraction(0))
    assert thickness_of_level_set(f, Fraction(1, 2)) == Fraction(1, 10)
    assert thickness_of_level_set(f, Fraction(2)) == 0
