"""Thickness: flow solver vs brute force vs the fractional cover LP."""

import random
from dataclasses import replace
from fractions import Fraction
from math import inf, nan, nextafter

import pytest
from hypothesis import example, given, strategies as st

from virtcont import (DiscreteSpace, Plan, ProductSet, sr_norm, thickness,
                      thickness_of_level_set, verify_thickness_result)
from virtcont.model import DEFAULT_TOL, ValidationError, left_sum
from virtcont.thickness import verify_cover

from lp_oracle import cover_lp_data, dense_lp_solve
from util import (brute_thickness, fn_on, rand_set, rand_space,
                  reference_pair_violations)


def _single_cell(xs, ys, i, j):
    member = [[a == i and b == j for b in range(ys.size)]
              for a in range(xs.size)]
    return ProductSet(xs, ys, member)


def test_empty_set_has_thickness_zero():
    # in both regimes: the regime's zero, an empty cover, a zero fractional
    # pair, and a zero plan
    for one in (Fraction(1), 1.0):
        xs = DiscreteSpace(["a", "b", "c"], [one / 4, one / 4, one / 2])
        ys = DiscreteSpace(["p", "q"], [one / 3, 2 * one / 3])
        res = thickness(ProductSet.empty(xs, ys))
        zero = one * 0
        assert type(res.value) is type(zero) and res.value == zero
        assert (res.cover_x, res.cover_y) == ([], [])
        assert res.plan == Plan.zero(xs, ys)
        assert {type(v) for row in res.plan.mass for v in row} == {type(zero)}
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


def _sets(weight):
    """Sets of any cells on sides of 1 to 6 atoms, weighted in one regime."""
    @st.composite
    def sets(draw):
        nr, nc = draw(st.integers(1, 6)), draw(st.integers(1, 6))

        def space(n, prefix):
            parts = [draw(st.integers(1, 9)) for _ in range(n)]
            return DiscreteSpace([f"{prefix}{i}" for i in range(n)],
                                 [weight(p, sum(parts)) for p in parts])

        xs, ys = space(nr, "x"), space(nc, "y")
        return ProductSet(xs, ys, [[draw(st.booleans()) for _ in range(nc)]
                                   for _ in range(nr)])
    return sets()


_GAP = "witness plan mass != cover weight (duality gap)"


def _both_sides_checked(z):
    """thickness(z) verifies; three forgeries of it do not."""
    res = thickness(z)
    assert verify_thickness_result(z, res) == []
    nx, ny = z.x_space.size, z.y_space.size
    plan = res.plan

    def with_plan(mass):
        return replace(res, plan=Plan(plan.x_space, plan.y_space, mass))

    # the cover of all rows with its own value: the cover side holds, and
    # only the plan shows that the set is thinner
    whole = left_sum(z.x_space.weights)
    one, zero = whole * 0 + 1, whole * 0
    all_rows = replace(res, value=whole, cover_x=list(range(nx)), cover_y=[],
                       fractional_f=[one] * nx, fractional_g=[zero] * ny)
    if abs(whole - res.value) > 1e-6:
        assert verify_thickness_result(z, all_rows) == [_GAP]
    if res.value > 1e-6:
        halved = with_plan([[v / 2 for v in row] for row in plan.mass])
        assert verify_thickness_result(z, halved) == [_GAP]
    cells = set(z.cells())
    off = [(i, j) for i in range(nx) for j in range(ny) if (i, j) not in cells]
    if off and cells:
        i, j = max(cells, key=lambda c: plan.mass[c[0]][c[1]])
        if plan.mass[i][j] > 1e-6:
            mass = [list(row) for row in plan.mass]
            k, m = off[0]
            mass[k][m] += mass[i][j]
            mass[i][j] *= 0
            problems = verify_thickness_result(z, with_plan(mass))
            assert {"witness plan carries mass off the set", _GAP} <= set(problems)


_TWO = DiscreteSpace.uniform(2)


# th = 1/2 on one cell of the uniform 2 x 2 space: the cover of both rows,
# with value 1 and pair (1, 1), (0, 0), is a cover but not the least
@example(ProductSet(_TWO, _TWO, [[True, False], [False, False]]))
@given(_sets(Fraction))
def test_exact_thickness_certifies_both_sides(z):
    _both_sides_checked(z)


@given(_sets(lambda p, total: p / total))
def test_float_thickness_certifies_both_sides(z):
    _both_sides_checked(z)


def _sr_norm_of_indicator(z):
    """sr_norm of z's indicator, with cells in z's regime: a transportation
    solve, which shares no code with thickness's max-flow."""
    one = z.x_space.weights[0] * 0 + 1
    return sr_norm(fn_on(z.x_space, z.y_space,
                         lambda i, j: one if z.membership[i][j] else one * 0)).value


# The least cover of a set is the least separable majorant of its
# indicator: the cover LP is the sr-norm's LP on 0/1 values.
@given(_sets(Fraction))
def test_exact_thickness_is_the_sr_norm_of_the_indicator(z):
    assert thickness(z).value == _sr_norm_of_indicator(z)


@given(_sets(lambda p, total: p / total))
def test_float_thickness_is_the_sr_norm_of_the_indicator(z):
    assert abs(thickness(z).value - _sr_norm_of_indicator(z)) <= 1e-9


def test_nan_fails_the_plan_and_the_fractional_pair():
    # every comparison with NaN is false, so a NaN cell or pair entry must
    # fail each test that it meets, as a negative one would
    xs, ys = DiscreteSpace(["a", "b"], [0.5, 0.5]), DiscreteSpace(["p"], [1.0])
    nan = float("nan")
    for mass in ([[nan], [0.5]], [[0.25], [nan]]):
        with pytest.raises(ValidationError, match="negative mass"):
            Plan(xs, ys, mass)
    z = ProductSet(xs, ys, [[True], [True]])
    res = thickness(z)
    assert verify_thickness_result(z, res) == []
    bad = replace(res, fractional_f=[nan, 0.0], fractional_g=[1.0])
    problems = verify_thickness_result(z, bad)
    assert "fractional pair below 1 on cell (0,0)" in problems
    assert "fractional pair below 1 on cell (1,0)" not in problems
    # a NaN in g fails every cell of its column, whatever f is there
    bad = replace(res, fractional_f=[1.0, 0.0], fractional_g=[nan])
    problems = verify_thickness_result(z, bad)
    assert "fractional pair below 1 on cell (0,0)" in problems
    assert "fractional pair below 1 on cell (1,0)" in problems


@pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
@given(data=st.data())
def test_fractional_pair_cells_equal_the_per_cell_oracle(exact, data):
    # the verifier tests each row at its least g; the oracle tests each cell
    z = data.draw(_sets(Fraction if exact else lambda p, total: p / total))
    nx, ny = z.x_space.size, z.y_space.size
    if exact:
        tol, t = DEFAULT_TOL, 0     # tol does not reach an exact test
        free = st.builds(Fraction, st.integers(-4, 8), st.integers(1, 4))
        steps = [Fraction(-1, 1000), 0, Fraction(1, 1000)]
    else:
        tol = t = data.draw(st.sampled_from([DEFAULT_TOL, 0.0]))
        free = st.one_of(st.floats(-1, 2), st.sampled_from([nan, inf, -inf]))
        steps = [-inf, 0, inf]      # one ulp down, none, one ulp up
    f = data.draw(st.lists(free, min_size=nx, max_size=nx))
    g = []
    for _ in range(ny):
        if data.draw(st.booleans()):
            g.append(data.draw(free))
            continue
        # at the edge of some row's test: (f_i + g_j) - 1 near -t
        edge = (1 - t) - f[data.draw(st.integers(0, nx - 1))]
        step = data.draw(st.sampled_from(steps))
        g.append(edge + step if exact else nextafter(edge, step) if step else edge)
    problems = verify_cover(z, 0 * t, [], [], f, g, tol)
    assert [p for p in problems if p.startswith("fractional pair below 1")] == \
        reference_pair_violations(z, f, g, t)
