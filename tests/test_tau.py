"""The tau metric: breakpoint scan vs direct definition, metric axioms."""

import random
from fractions import Fraction

import pytest

from virtcont import (DiscreteSpace, ProductFunction, ValidationError,
                      level_set, tau_ball_check, tau_distance, thickness)

from util import brute_tau, fn_on, rand_function, rand_space


def test_tau_of_identical_functions_is_zero():
    rng = random.Random(1)
    xs, ys = rand_space(rng, 4, "x"), rand_space(rng, 3, "y")
    f = rand_function(rng, xs, ys)
    assert tau_distance(f, f).value == 0


def test_tau_against_constant():
    s = DiscreteSpace.uniform(4)
    f = ProductFunction.constant(s, s, Fraction(3, 10))
    zero = ProductFunction.constant(s, s, Fraction(0))
    res = tau_distance(f, zero)
    # the exceedance set is everything below 3/10 (thickness 1) and empty at
    # 3/10, so the minimax lands on the function level itself
    assert res.value == Fraction(3, 10)
    assert res.witness_set_thickness == 0


def test_tau_single_cell():
    n = 10
    s = DiscreteSpace.uniform(n)
    f = fn_on(s, s, lambda i, j: Fraction(1) if (i, j) == (0, 0) else Fraction(0))
    zero = ProductFunction.constant(s, s, Fraction(0))
    assert tau_distance(f, zero).value == Fraction(1, 10)


def test_functions_of_other_shapes_are_rejected():
    s = DiscreteSpace.uniform(2)
    f = ProductFunction.constant(s, s, Fraction(1))
    g = ProductFunction.constant(DiscreteSpace.uniform(3), s, Fraction(1))
    for job in (lambda: tau_distance(f, g), lambda: tau_ball_check(f, g, 1)):
        with pytest.raises(ValidationError, match="factor dimension mismatch"):
            job()


def test_tau_matches_bruteforce_scan():
    rng = random.Random(3)
    for _ in range(25):
        xs = rand_space(rng, rng.randint(1, 4), "x")
        ys = rand_space(rng, rng.randint(1, 4), "y")
        f = rand_function(rng, xs, ys, denom=4)
        g = rand_function(rng, xs, ys, denom=4)
        assert tau_distance(f, g).value == brute_tau(f, g)


def test_metric_axioms():
    rng = random.Random(9)
    for _ in range(30):
        xs = rand_space(rng, rng.randint(2, 4), "x")
        ys = rand_space(rng, rng.randint(2, 4), "y")
        f = rand_function(rng, xs, ys, denom=3)
        g = rand_function(rng, xs, ys, denom=3)
        h = rand_function(rng, xs, ys, denom=3)
        dfg = tau_distance(f, g).value
        dgf = tau_distance(g, f).value
        assert dfg == dgf
        assert dfg >= 0
        assert (dfg == 0) == (f.values == g.values)
        assert tau_distance(f, h).value <= dfg + tau_distance(g, h).value


def test_ball_check_consistency():
    rng = random.Random(17)
    for _ in range(20):
        xs = rand_space(rng, 3, "x")
        ys = rand_space(rng, 3, "y")
        f = rand_function(rng, xs, ys, denom=5)
        g = rand_function(rng, xs, ys, denom=5)
        t = tau_distance(f, g).value
        assert tau_ball_check(f, g, t)
        if t > 0:
            assert not tau_ball_check(f, g, t * Fraction(9, 10))


def test_thickness_dominates_measure_of_exceedance_is_false_in_general():
    # thickness can exceed the product measure of the set; tau uses thickness,
    # which upper-bounds both marginal projections of the exceedance set
    s = DiscreteSpace.uniform(4)
    f = fn_on(s, s, lambda i, j: Fraction(1 if i == j else 0))
    z = level_set(f, Fraction(1, 2), ">")
    from virtcont import product_measure
    assert thickness(z).value == 1 > product_measure(z)
