"""Max-flow vertex cover and successive-shortest-path transportation."""

import hashlib
import random
from fractions import Fraction
from itertools import chain
from math import copysign, gcd, inf, nan

import pytest
from hypothesis import given, settings, strategies as st

from virtcont import (BipartiteCoverInstance, DiscreteSpace, InfeasibleError,
                      MetricMatrix, ProductFunction, TransportationInstance,
                      flows, kantorovich, kr_norm, min_weighted_vertex_cover,
                      solve_transportation, sr_norm)
from virtcont.model import ValidationError, left_sum

from lp_oracle import transport_lp_value
from util import (brute_cover, rand_weights, reference_bellman_ford,
                  reference_max_flow_cover)

FLOAT_TRANSPORT_DIGEST = "c596edc3b0ce03d87e1819f0926e554f23149f61"


def test_single_edge_cover():
    inst = BipartiteCoverInstance((Fraction(1, 4),), (Fraction(1, 4),),
                                  ((0, 0),))
    res = min_weighted_vertex_cover(inst)
    assert res.value == Fraction(1, 4)
    assert res.flow_value == res.value
    assert (list(res.rows), list(res.cols)) in (([0], []), ([], [0]))


@pytest.mark.parametrize("one", [Fraction(1), 1.0], ids=["exact", "float"])
def test_no_edges_give_the_empty_cover(one):
    res = min_weighted_vertex_cover(
        BipartiteCoverInstance((one / 4, 3 * one / 4), (one / 2,) * 2, ()))
    zero = one * 0
    assert (res.rows, res.cols, res.flow) == ([], [], [])
    assert res.value == res.flow_value == zero
    assert type(res.value) is type(res.flow_value) is type(zero)


def test_cover_edges_are_normalised_and_checked_in_range():
    w = (Fraction(1, 2),) * 2
    # unsorted, with a duplicate: read as the distinct pairs in order
    inst = BipartiteCoverInstance(w, w, [(1, 0), (0, 0), (1, 0)])
    assert inst.edges == ((0, 0), (1, 0))
    assert min_weighted_vertex_cover(inst) == min_weighted_vertex_cover(
        BipartiteCoverInstance(w, w, ((0, 0), (1, 0))))
    with pytest.raises(ValidationError, match=r"^edge \(0,2\) out of range$"):
        BipartiteCoverInstance(w, w, [(0, 2)])


def test_diagonal_matching_uniform():
    n = 4
    w = tuple(Fraction(1, n) for _ in range(n))
    inst = BipartiteCoverInstance(w, w, tuple((i, i) for i in range(n)))
    res = min_weighted_vertex_cover(inst)
    assert res.value == 1
    # cover picks every edge on one side or the other
    assert len(res.rows) + len(res.cols) == n


def test_cover_matches_bruteforce_random():
    rng = random.Random(11)
    for _ in range(60):
        nr, nc = rng.randint(1, 5), rng.randint(1, 5)
        rc = tuple(rand_weights(rng, nr))
        cc = tuple(rand_weights(rng, nc))
        edges = tuple(sorted({(rng.randrange(nr), rng.randrange(nc))
                              for _ in range(rng.randint(0, nr * nc))}))
        inst = BipartiteCoverInstance(rc, cc, edges)
        res = min_weighted_vertex_cover(inst)
        assert res.value == brute_cover(rc, cc, edges)
        assert res.flow_value == res.value
        covered = set(res.rows), set(res.cols)
        assert all(i in covered[0] or j in covered[1] for (i, j) in edges)


@st.composite
def _cover_networks(draw):
    """Arguments of the max-flow kernel, with int or float costs, either all
    equal, so that augmenting paths tie, or random.  Most draws have sides 0
    to 12, any density and 1 to 5 batches.  One in four has sides 13 to 40,
    density at least 1/2 and 2 to 5 batches of shuffled cells, so that most
    rows recur from batch to batch, as tau's and the layer cake's level sets
    grow: there most paths are single edges, and flow leaves edges again."""
    large = draw(st.integers(0, 3)) == 0
    sides = st.integers(13, 40) if large else st.integers(0, 12)
    nr, nc = draw(sides), draw(sides)
    exact = draw(st.booleans())
    if draw(st.booleans()):
        cost = st.just(3 if exact else 0.1)
    else:
        cost = st.integers(1, 30) if exact else st.floats(1e-3, 10)
    row_costs = draw(st.lists(cost, min_size=nr, max_size=nr))
    col_costs = draw(st.lists(cost, min_size=nc, max_size=nc))
    cells = [(i, j) for i in range(nr) for j in range(nc)]
    if large:
        random.Random(draw(st.integers(0, 2 ** 32))).shuffle(cells)
        cells = cells[:draw(st.integers((len(cells) + 1) // 2, len(cells)))]
        cuts = draw(st.lists(st.integers(0, len(cells)), min_size=1, max_size=4))
    else:
        cells = draw(st.permutations(cells))
        cells = cells[:draw(st.integers(0, len(cells)))]
        cuts = draw(st.lists(st.integers(0, len(cells)), max_size=4))
    cuts.sort()
    batches = [cells[a:b] for a, b in zip([0] + cuts, cuts + [len(cells)])]
    return row_costs, col_costs, batches, 0 if exact else flows.EPS


@settings(max_examples=300)
@given(_cover_networks())
def test_cover_kernel_equals_generic_edmonds_karp(args):
    # repr compares the float bits and the number types, not only values
    assert repr(flows._max_flow_cover(*args)) == repr(reference_max_flow_cover(*args))


def test_max_profit_zero_matrix():
    inst = TransportationInstance((Fraction(1, 2), Fraction(1, 2)),
                                  (Fraction(1),),
                                  ((Fraction(0),), (Fraction(0),)),
                                  mode="max-profit")
    res = solve_transportation(inst)
    assert res.value == 0


@pytest.mark.parametrize("one", [Fraction(1), 1.0], ids=["exact", "float"])
def test_max_profit_dual_of_a_row_with_no_supply_covers_its_profits(one):
    # no pass reaches row 0, so its dual is the least one above its profit
    res = solve_transportation(TransportationInstance(
        [0 * one, one], [one], [[10 * one], [one]], "max-profit"))
    assert (res.value, res.u, res.v) == (one, [10 * one, one], [0 * one])
    assert all(type(x) is type(one) for x in [res.value] + res.u + res.v)


@pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
@given(data=st.data())
def test_max_profit_duals_cover_every_profit_with_zero_masses(exact, data):
    nr, nc = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 6))
    mass = st.builds(Fraction, st.integers(0, 3), st.integers(1, 3))
    price = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 3))
    supplies = data.draw(st.lists(mass, min_size=nr, max_size=nr))
    demands = data.draw(st.lists(mass, min_size=nc, max_size=nc))
    profit = data.draw(st.lists(st.lists(price, min_size=nc, max_size=nc),
                                min_size=nr, max_size=nr))
    cast = Fraction if exact else float
    tol = 0 if exact else 1e-9
    res = solve_transportation(TransportationInstance(
        map(cast, supplies), map(cast, demands),
        [map(cast, row) for row in profit], "max-profit"))
    assert all(x >= 0 for x in res.u + res.v)
    for a, row in zip(res.u, profit):
        for b, p in zip(res.v, row):
            assert a + b >= p - tol
    assert abs(sum(s * a for s, a in zip(supplies, res.u))
               + sum(d * b for d, b in zip(demands, res.v)) - res.value) <= tol


def test_min_cost_matches_dense_lp():
    rng = random.Random(23)
    for _ in range(20):
        n = 3
        sup = rand_weights(rng, n)
        dem = rand_weights(rng, n)
        cost = [[Fraction(rng.randint(0, 12), 4) for _ in range(n)]
                for _ in range(n)]
        inst = TransportationInstance(tuple(sup), tuple(dem),
                                      tuple(map(tuple, cost)))
        res = solve_transportation(inst)
        assert res.value == transport_lp_value(sup, dem, cost)
        # dual feasibility and tightness on the support
        for i in range(n):
            for j in range(n):
                assert res.u[i] + res.v[j] <= cost[i][j]
                if res.plan[i][j] > 0:
                    assert res.u[i] + res.v[j] == cost[i][j]


@pytest.mark.parametrize("args,message", [
    (((1,), (1,), ((1,),), "cheapest"), "unknown mode 'cheapest'"),
    (((1,), (1,), ((1, 2),)), "matrix dimensions do not match"),
    (((1, 1), (1,), ((1,),)), "matrix dimensions do not match"),
    (((-1, 2), (1,), ((1,), (1,))), "negative supply or demand"),
    (((nan, 1.0), (1.0,), ((1.0,), (1.0,))), "non-finite supply, demand"),
    (((1.0,), (inf,), ((1.0,),)), "non-finite supply, demand"),
    (((1.0,), (1.0,), ((-inf,),)), "non-finite supply, demand"),
    (((Fraction(1),), (Fraction(1),), ((nan,),)), "non-finite supply, demand"),
    # past float range, among floats: no OverflowError from the range test
    (((Fraction(10 ** 400), 1.0), (1.0,), ((1.0,), (1.0,))),
     "non-finite supply, demand"),
    (((1.0,), (1.0,), ((-10 ** 400,),)), "non-finite supply, demand"),
], ids=["mode", "columns", "rows", "negative-supply", "nan-supply",
        "inf-demand", "inf-cost", "nan-cost-with-exact-masses",
        "fraction-supply-past-float-range", "int-cost-past-float-range"])
def test_transportation_instance_rejects_malformed_data(args, message):
    with pytest.raises(ValidationError, match=message):
        TransportationInstance(*args)


def test_unbalanced_min_cost_is_infeasible():
    inst = TransportationInstance((Fraction(1),), (Fraction(1, 2),),
                                  ((Fraction(1),),))
    with pytest.raises(InfeasibleError):
        solve_transportation(inst)


# ---------------------------------------------------------------- scaling
# Exact mode solves on ints scaled by a common denominator; these pin the
# boundary: odd denominators, plain ints, and floats that never get scaled.

def _renormalised(denominators):
    parts = [Fraction(1, q) for q in denominators]
    total = sum(parts)
    return tuple(p / total for p in parts)


def _lowest_terms_fraction(x):
    return isinstance(x, Fraction) and gcd(x.numerator, x.denominator) == 1


def test_cover_coprime_denominators_matches_bruteforce():
    rng = random.Random(29)
    rc = _renormalised((2, 3, 5, 7, 11))
    cc = _renormalised((13, 17, 19, 23))
    for _ in range(30):
        edges = tuple(sorted({(rng.randrange(5), rng.randrange(4))
                              for _ in range(rng.randint(1, 20))}))
        res = min_weighted_vertex_cover(BipartiteCoverInstance(rc, cc, edges))
        assert res.value == brute_cover(rc, cc, edges)
        assert res.flow_value == res.value
        assert all(_lowest_terms_fraction(x)
                   for x in [res.value, res.flow_value] + res.flow)


def test_transport_large_denominators_matches_dense_lp():
    rng = random.Random(31)
    primes = (999983, 1000003, 104729, 7919)
    for _ in range(8):
        sup = _renormalised(rng.sample((2, 3, 5, 7, 11, 13), 3))
        dem = _renormalised(rng.sample((17, 19, 23, 29, 31), 3))
        cost = [[Fraction(rng.randint(0, 10 ** 6), rng.choice(primes))
                 for _ in range(3)] for _ in range(3)]
        res = solve_transportation(TransportationInstance(sup, dem, cost))
        assert res.value == transport_lp_value(sup, dem, cost)
        values = [res.value] + res.u + res.v + [x for row in res.plan for x in row]
        assert all(_lowest_terms_fraction(x) for x in values)
        assert [sum(row) for row in res.plan] == list(sup)
        for i in range(3):
            for j in range(3):
                assert res.u[i] + res.v[j] <= cost[i][j]
                if res.plan[i][j] > 0:
                    assert res.u[i] + res.v[j] == cost[i][j]
        # max-profit on the same data: duals nonnegative and covering
        prof = solve_transportation(TransportationInstance(sup, dem, cost,
                                                           mode="max-profit"))
        assert all(_lowest_terms_fraction(x) for x in [prof.value] + prof.u + prof.v)
        assert all(x >= 0 for x in prof.u + prof.v)
        assert sum(s * a for s, a in zip(sup, prof.u)) + \
            sum(d * b for d, b in zip(dem, prof.v)) == prof.value


def test_plain_int_inputs_return_fractions():
    inst = BipartiteCoverInstance((1, 2, 3), (2, 1), ((0, 0), (1, 1), (2, 0)))
    res = min_weighted_vertex_cover(inst)
    assert res.value == brute_cover((1, 2, 3), (2, 1), inst.edges) == 3
    assert all(isinstance(x, Fraction) for x in [res.value, res.flow_value] + res.flow)
    sup, dem = (2, 1), (1, 2)
    cost = ((4, 1), (2, 3))
    res = solve_transportation(TransportationInstance(sup, dem, cost))
    assert res.value == transport_lp_value(sup, dem, cost) == 4
    assert all(isinstance(x, Fraction)
               for x in [res.value] + res.u + res.v + res.plan[0] + res.plan[1])


def test_float_inputs_stay_float_and_unscaled():
    # dyadic data: float arithmetic on it is exact, so the float results must
    # equal the exact ones value for value
    rc, cc = (0.25, 0.5, 0.25), (0.375, 0.625)
    edges = ((0, 0), (1, 0), (1, 1), (2, 1))
    fres = min_weighted_vertex_cover(BipartiteCoverInstance(rc, cc, edges))
    xres = min_weighted_vertex_cover(BipartiteCoverInstance(
        [Fraction(x) for x in rc], [Fraction(x) for x in cc], edges))
    assert all(type(x) is float for x in [fres.value, fres.flow_value] + fres.flow)
    assert (fres.value, fres.flow, fres.rows, fres.cols) == \
        (xres.value, xres.flow, xres.rows, xres.cols)
    sup, dem = (0.5, 0.25, 0.25), (0.125, 0.375, 0.5)
    cost = ((1.5, 0.25, 2.0), (0.75, 1.0, 0.5), (2.25, 0.125, 1.0))
    for mode in ("min-cost", "max-profit"):
        fres = solve_transportation(TransportationInstance(sup, dem, cost, mode))
        xres = solve_transportation(TransportationInstance(
            [Fraction(x) for x in sup], [Fraction(x) for x in dem],
            [[Fraction(x) for x in row] for row in cost], mode))
        floats = [fres.value] + fres.u + fres.v + [x for r in fres.plan for x in r]
        assert all(type(x) is float for x in floats)
        assert (fres.value, fres.u, fres.v, fres.plan) == \
            (xres.value, xres.u, xres.v, xres.plan)


def test_float_transport_results_pinned():
    # non-dyadic floats: rounding makes the exact comparison above useless,
    # so pin the float results themselves, recorded from the Fraction-only
    # solver before exact mode was scaled to ints; recorded again when the
    # min-cost duals stopped giving -0.0, the one change in their repr
    rng = random.Random(37)
    sup = [rng.randint(1, 9) for _ in range(4)]
    sup = [s / sum(sup) for s in sup]
    dem = [rng.randint(1, 9) for _ in range(4)]
    dem = [d / sum(dem) for d in dem]
    cost = [[rng.randint(1, 30) / 7 for _ in range(4)] for _ in range(4)]
    got = []
    for mode in ("min-cost", "max-profit"):
        res = solve_transportation(TransportationInstance(sup, dem, cost, mode))
        got.append(repr((res.value, res.u, res.v, res.plan)))
    digest = hashlib.sha1("\n".join(got).encode()).hexdigest()
    assert digest == FLOAT_TRANSPORT_DIGEST


def _negative_zeros(values):
    return [x for x in values if x == 0 and copysign(1.0, x) < 0]


def test_min_cost_float_duals_are_never_negative_zero():
    # u_i is the negated potential of row i, and a potential of 0.0 negated
    # is -0.0: a second byte form of zero
    res = solve_transportation(TransportationInstance(
        [0.5, 0.5], [0.25, 0.75], [[0.0, 1.0], [2.0, 0.5]]))
    assert (res.u, res.v) == ([0.0, -0.5], [0.0, 1.0])
    assert _negative_zeros(res.u + res.v) == []
    rng = random.Random(5)
    for _ in range(200):
        nr, nc = rng.randint(1, 5), rng.randint(1, 5)
        sup, dem = rand_weights(rng, nr), rand_weights(rng, nc)
        cost = [[rng.randint(0, 6) / 3 for _ in range(nc)] for _ in range(nr)]
        res = solve_transportation(TransportationInstance(
            [float(x) for x in sup], [float(x) for x in dem], cost))
        assert _negative_zeros(res.u + res.v) == []


# ------------------------------------------------------------ the searches
# Both regimes run one Bellman-Ford search, exact solves on scaled ints.
# There it must take the plans and potentials that a search scanning every
# arc in every round takes, ties included.  Each test draws small sides or
# sides of 9 to 24: there rows are scanned again in later rounds, and node
# numbers pass the size of a small set's table, so that a set of them no
# longer iterates in ascending order.


@st.composite
def _tie_heavy_instances(draw):
    """Instances of either mode with unequal sides, zero supplies and
    demands, and costs over denominators 1 to 3, so shortest paths tie."""
    sides = draw(st.sampled_from([(1, 6), (9, 24)]))
    nr, nc = draw(st.integers(*sides)), draw(st.integers(*sides))
    mass = st.builds(Fraction, st.integers(0, 3), st.integers(1, 3))
    supplies = draw(st.lists(mass, min_size=nr, max_size=nr))
    demands = draw(st.lists(mass, min_size=nc, max_size=nc))
    price = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 3))
    cost = draw(st.lists(st.lists(price, min_size=nc, max_size=nc),
                         min_size=nr, max_size=nr))
    mode = draw(st.sampled_from(("min-cost", "max-profit")))
    if mode == "min-cost":
        gap = sum(supplies) - sum(demands)
        if gap > 0:
            demands[-1] += gap
        else:
            supplies[-1] -= gap
    return TransportationInstance(supplies, demands, cost, mode)


@given(_tie_heavy_instances())
def test_exact_search_equals_the_full_scan_on_the_same_ints(inst):
    search, calls = flows._ssp_bellman_ford, []

    def recorded(*args):
        calls.append(args)
        return search(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(flows, "_ssp_bellman_ford", recorded)
        solve_transportation(inst)
    [(supplies, demands, cost, tol)] = calls
    assert tol == 0 and all(isinstance(x, int) for x in
                            [tol, *supplies, *demands, *chain(*cost)])
    assert search(supplies, demands, cost, tol) == \
        reference_bellman_ford(supplies, demands, cost, tol)


def _float_transport_network(rng, sides=(1, 8)):
    """A float transportation instance and its exact masses: sides drawn
    from `sides` (1 to 8 unless given), masses k/q with zeros, balanced
    before rounding, and costs spread over 1e-3 to 1e6.  The costs are
    drawn one by one, or as a_i + b_j, on which every plan costs the same,
    or as |a_i - b_j|, a metric on a line; the last two tie shortest paths
    up to round-off.  Returns the kernel's arguments (masses rounded to
    floats) and the masses as Fractions."""
    nr, nc, q = rng.randint(*sides), rng.randint(*sides), rng.randint(1, 12)
    supplies = [rng.randint(0, 5) for _ in range(nr)]
    demands = [rng.randint(0, 5) for _ in range(nc)]
    gap = sum(supplies) - sum(demands)
    if gap > 0:
        demands[-1] += gap
    else:
        supplies[-1] -= gap
    form = rng.choice(("free", "sum", "line"))
    if form == "free":
        cost = [[10.0 ** rng.uniform(-3, 6) for _ in range(nc)]
                for _ in range(nr)]
    else:
        a = [10.0 ** rng.uniform(-3, 6) for _ in range(nr)]
        b = [10.0 ** rng.uniform(-3, 6) for _ in range(nc)]
        cost = [[x + y if form == "sum" else abs(x - y) for y in b] for x in a]
    masses = [Fraction(k, q) for k in supplies], [Fraction(k, q) for k in demands]
    return ([k / q for k in supplies], [k / q for k in demands], cost), masses


def _float_profit_network(rng, sides=(1, 8)):
    """The max-profit reduction that `solve_transportation` builds for
    `sr_norm`, as the kernel gets it: positive masses k/q (the spaces'
    weights) under slack marginals, profits spread over 1e-3 to 1e6 and
    negated into costs, and a zero-cost dummy row and column that take the
    other side's total.  So the first pass meets negative costs, and every
    row is reached, and its forward arcs scanned, in every pass.  Returns
    what `_float_transport_network` returns."""
    nr, nc, q = rng.randint(*sides), rng.randint(*sides), rng.randint(1, 12)
    supplies = [rng.randint(1, 5) for _ in range(nr)]
    demands = [rng.randint(1, 5) for _ in range(nc)]
    cost = [[-10.0 ** rng.uniform(-3, 6) for _ in range(nc)] + [0.0]
            for _ in range(nr)]
    cost.append([0.0] * (nc + 1))
    s, d = [k / q for k in supplies], [k / q for k in demands]
    masses = ([Fraction(k, q) for k in supplies + [sum(demands)]],
              [Fraction(k, q) for k in demands + [sum(supplies)]])
    return (s + [left_sum(d, 0.0)], d + [left_sum(s, 0.0)], cost), masses


FLOAT_SIDES = st.sampled_from([(1, 8), (9, 24)])


def _transport_certificate_problems(supplies, demands, cost, total, plan, pi):
    """What `transport.verify_transport_result` checks, on a cost matrix and
    the kernel's potentials: the plan's marginals, dual feasibility,
    complementary slackness, the dual pairing and the plan's cost.  Masses
    are checked at 1e-9; the checks on costs, duals and totals at
    1e-9 * max(1, max|cost|), since their round-off grows with the costs."""
    nr, nc = len(supplies), len(demands)
    u, v = [-pi[1 + i] for i in range(nr)], pi[1 + nr:1 + nr + nc]
    tol = 1e-9
    cost_tol = tol * max(1, *map(abs, chain.from_iterable(cost)))
    problems = []
    if any(x < -tol for row in plan for x in row):
        problems.append("negative mass")
    if any(abs(sum(row) - s) > tol for row, s in zip(plan, supplies)):
        problems.append("row marginals")
    if any(abs(sum(col) - d) > tol for col, d in zip(zip(*plan), demands)):
        problems.append("column marginals")
    for i in range(nr):
        for j in range(nc):
            slack = cost[i][j] - u[i] - v[j]
            if slack < -cost_tol or (plan[i][j] > tol and slack > cost_tol):
                problems.append(f"dual slack {slack} at ({i},{j})")
    if abs(sum(s * x for s, x in zip(supplies, u)) +
           sum(d * y for d, y in zip(demands, v)) - total) > cost_tol:
        problems.append("dual pairing")
    if abs(sum(c * x for crow, prow in zip(cost, plan)
               for c, x in zip(crow, prow)) - total) > cost_tol:
        problems.append("plan cost")
    return problems


@settings(max_examples=300)
@given(st.builds(_float_transport_network, st.randoms(use_true_random=False),
                 FLOAT_SIDES))
def test_float_search_equals_the_one_without_retry_until_that_one_cycles(drawn):
    # the reference is the search before a pass that closes a cycle was
    # searched again, with every arc scanned in every round; it returns None
    # at the first round that leaves a cycle, where the kernel searches again.
    # Past that round the kernel is compared with the reference that searches
    # again as it does, still scanning every arc in every round
    args, (supplies, demands) = drawn
    cycled = reference_bellman_ford(*args, flows.EPS)
    try:
        got = flows._ssp_bellman_ford(*args, flows.EPS)
    except FloatingPointError:
        assert cycled is None
        assert reference_bellman_ford(*args, flows.EPS, retry=True) is None
        return
    if cycled is not None:
        # repr compares the float bits, not only the values
        assert repr(got) == repr(cycled)
        return
    assert repr(got) == repr(reference_bellman_ford(*args, flows.EPS, retry=True))
    assert _transport_certificate_problems(*args, *got) == []
    cost = args[2]
    scale = max(1, *map(abs, chain.from_iterable(cost)))
    # the total within round-off of the optimum of the exact masses and the
    # costs' exact values
    exact = flows._ssp_balanced(supplies, demands,
                                [list(map(Fraction, row)) for row in cost], 0)[0]
    assert abs(Fraction(got[0]) - exact) <= 1e-12 * scale * sum(supplies)


@settings(max_examples=300)
@given(st.builds(_float_profit_network, st.randoms(use_true_random=False),
                 FLOAT_SIDES))
def test_float_search_equals_the_one_without_retry_on_the_sr_norm_shape(drawn):
    test_float_search_equals_the_one_without_retry_until_that_one_cycles \
        .hypothesis.inner_test(drawn)


def test_a_float_search_again_takes_a_margin_scaled_to_the_costs():
    # costs from 0.1 to 2.4e5 on a 4 x 5 network, where the retry with the
    # margin EPS itself closes a cycle again, and the solve raised: the
    # margin is tol * max|cost|, so tol EPS / max|cost| gives margin EPS
    # (the masses are multiples of 1/2, so tol acts only as the margin)
    args, _ = _float_transport_network(random.Random(4))
    scale = max(1, *map(abs, chain.from_iterable(args[2])))
    assert scale > 1e5
    with pytest.raises(FloatingPointError):
        flows._ssp_bellman_ford(*args, flows.EPS / scale)
    got = flows._ssp_bellman_ford(*args, flows.EPS)
    assert _transport_certificate_problems(*args, *got) == []


@pytest.mark.parametrize("exact", [True, False])
def test_each_regime_runs_the_one_search(monkeypatch, exact):
    # dyadic data, so that float arithmetic on it is exact
    num = Fraction if exact else float
    xs = DiscreteSpace(["x0", "x1", "x2"], [num(w) for w in (0.25, 0.5, 0.25)])
    ys = DiscreteSpace(["y0", "y1"], [num(w) for w in (0.375, 0.625)])
    f = ProductFunction(xs, ys, [[num(v) for v in row] for row in
                                 ((1.5, -0.25), (0.75, 1.0), (-2.25, 0.125))])
    rho = MetricMatrix(xs, [[num(d) for d in row] for row in
                            ((0, 1, 1.5), (1, 0, 0.5), (1.5, 0.5, 0))])
    mu1 = [num(w) for w in (0.5, 0.25, 0.25)]
    mu2 = [num(w) for w in (0.125, 0.375, 0.5)]
    entered, run = [], flows._ssp_bellman_ford

    def counted(supplies, demands, cost, tol):
        types = {type(x) for x in [tol, *supplies, *demands, *chain(*cost)]}
        entered.append((types, tol))
        return run(supplies, demands, cost, tol)

    monkeypatch.setattr(flows, "_ssp_bellman_ford", counted)
    sr_norm(f)
    kantorovich(mu1, mu2, rho)
    kr_norm([a - b for a, b in zip(mu1, mu2)], rho)
    # int arguments and tol 0 in exact mode, floats and tol EPS in float mode
    assert entered == [({int}, 0) if exact else ({float}, flows.EPS)] * 3
