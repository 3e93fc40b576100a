"""The regulator norm: strong duality, norm axioms, layer-cake bounds."""

import random
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from virtcont import (DiscreteSpace, Plan, ProductFunction, SeparableMajorant,
                      SrNormResult, ValidationError, cutoff, kernel_from_terms,
                      layer_cake_integral, nuclear_bound, sr_norm,
                      tau_distance, verify_sr_certificates)
from virtcont.model import DEFAULT_TOL

from util import fn_on, rand_function, rand_space


def test_constant_function():
    s = DiscreteSpace.uniform(3)
    f = ProductFunction.constant(s, s, Fraction(-5, 7))
    res = sr_norm(f)
    assert res.value == Fraction(5, 7)
    assert res.value == res.dual_value
    assert verify_sr_certificates(f, res) == []


def test_separable_function_is_exact():
    rng = random.Random(2)
    xs, ys = rand_space(rng, 3, "x"), rand_space(rng, 4, "y")
    a = [Fraction(rng.randint(0, 5), 3) for _ in range(3)]
    b = [Fraction(rng.randint(0, 5), 3) for _ in range(4)]
    f = fn_on(xs, ys, lambda i, j: a[i] + b[j])
    res = sr_norm(f)
    expected = (sum(w * v for w, v in zip(xs.weights, a))
                + sum(w * v for w, v in zip(ys.weights, b)))
    assert res.value == expected


def test_single_cell():
    n = 6
    s = DiscreteSpace.uniform(n)
    f = fn_on(s, s, lambda i, j: Fraction(1) if (i, j) == (0, 0) else Fraction(0))
    assert sr_norm(f).value == Fraction(1, n)
    # on two spaces weighted (1/4, 3/4) the norm is 1/4; a dual plan over
    # uniform spaces would certify 1/2, were it judged against its own spaces
    w = DiscreteSpace(["x0", "x1"], [Fraction(1, 4), Fraction(3, 4)])
    f = fn_on(w, w, lambda i, j: Fraction(int((i, j) == (0, 0))))
    assert sr_norm(f).value == Fraction(1, 4)
    u, half = DiscreteSpace.uniform(2), Fraction(1, 2)
    forged = SrNormResult(half, SeparableMajorant([1, 0], [1, 0]),
                          Plan(u, u, [[half, 0], [0, 0]]), half)
    assert verify_sr_certificates(f, forged) == [
        "dual plan is not over the function's spaces"]
    # a dual value other than the value is a violation on either exit
    assert verify_sr_certificates(f, replace(forged, dual_value=Fraction(99))) == [
        "dual plan is not over the function's spaces", "primal value != dual value"]
    assert verify_sr_certificates(f, replace(sr_norm(f), dual_value=Fraction(99))) \
        == ["primal value != dual value"]


def test_strong_duality_random():
    rng = random.Random(4)
    for _ in range(25):
        xs = rand_space(rng, rng.randint(1, 4), "x")
        ys = rand_space(rng, rng.randint(1, 4), "y")
        f = rand_function(rng, xs, ys)
        res = sr_norm(f)
        assert res.value == res.dual_value
        assert verify_sr_certificates(f, res) == []
        assert res.majorant.dominates(f.abs())
        assert res.dual_plan.is_subbistochastic()


def test_norm_axioms():
    rng = random.Random(6)
    for _ in range(20):
        xs = rand_space(rng, 3, "x")
        ys = rand_space(rng, 3, "y")
        f = rand_function(rng, xs, ys)
        g = rand_function(rng, xs, ys)
        nf, ng = sr_norm(f).value, sr_norm(g).value
        assert nf >= 0
        assert (nf == 0) == all(v == 0 for row in f.values for v in row)
        assert sr_norm(f.scale(Fraction(-3, 2))).value == Fraction(3, 2) * nf
        assert sr_norm(f.add(g)).value <= nf + ng


def test_layer_cake_equivalence():
    rng = random.Random(8)
    for _ in range(25):
        xs = rand_space(rng, rng.randint(1, 4), "x")
        ys = rand_space(rng, rng.randint(1, 4), "y")
        f = rand_function(rng, xs, ys, denom=5)
        nf = sr_norm(f).value
        lc = layer_cake_integral(f)
        assert Fraction(1, 4) * nf <= lc <= 2 * nf


def test_layer_cake_values():
    s = DiscreteSpace.uniform(10)
    one = ProductFunction.constant(s, s, Fraction(1))
    assert layer_cake_integral(one) == 1
    f = fn_on(s, s, lambda i, j: Fraction(3, 5) if (i, j) == (0, 0) else Fraction(0))
    assert layer_cake_integral(f) == Fraction(3, 5) * Fraction(1, 10)


def test_chebyshev_tau_bound():
    # tau(0, f)^2 <= 2 |f|: compare squares to stay rational
    rng = random.Random(10)
    for _ in range(25):
        xs = rand_space(rng, 3, "x")
        ys = rand_space(rng, 4, "y")
        f = rand_function(rng, xs, ys, denom=4)
        zero = ProductFunction.constant(xs, ys, Fraction(0))
        t = tau_distance(f, zero).value
        assert t * t <= 2 * sr_norm(f).value


def test_cutoff_converges_in_norm():
    rng = random.Random(12)
    xs, ys = rand_space(rng, 4, "x"), rand_space(rng, 4, "y")
    f = rand_function(rng, xs, ys, lo=-9, hi=9)
    prev = None
    for n in range(10):
        err = sr_norm(f.sub(cutoff(f, Fraction(n)))).value
        if prev is not None:
            assert err <= prev
        prev = err
    assert prev == 0


def test_nuclear_bound():
    s = DiscreteSpace.uniform(4)
    ones = [Fraction(1)] * 4
    # a single normalized rank-one term with s = 1: the bound is tight
    terms = [(Fraction(1), ones, ones)]
    bound, maj = nuclear_bound(terms, s, s)
    assert bound == 1
    k = kernel_from_terms(terms, s, s)
    assert sr_norm(k).value == 1
    assert maj.dominates(k.abs())
    # empty sum
    bound0, _ = nuclear_bound([], s, s)
    assert bound0 == 0
    xs, ys = DiscreteSpace.uniform(3), DiscreteSpace.uniform(2)
    bound0, maj0 = nuclear_bound([], xs, ys)
    assert (bound0, maj0.a, maj0.b) == (0, (0,) * 3, (0,) * 2)
    assert {type(v) for v in (bound0, *maj0.a, *maj0.b)} == {Fraction}
    # two terms with s = 1/2 each
    terms2 = [(Fraction(1, 2), ones, ones), (Fraction(1, 2), ones, ones)]
    bound2, _ = nuclear_bound(terms2, s, s)
    assert bound2 == 1
    assert sr_norm(kernel_from_terms(terms2, s, s)).value <= bound2
    # unnormalized factors are rejected
    with pytest.raises(ValidationError):
        nuclear_bound([(Fraction(1), [Fraction(2)] * 4, ones)], s, s)


def test_majorant_weight_is_primal_value():
    rng = random.Random(14)
    xs, ys = rand_space(rng, 3, "x"), rand_space(rng, 3, "y")
    f = rand_function(rng, xs, ys)
    res = sr_norm(f)
    assert res.majorant.weight(xs, ys) == res.value
    assert min(res.majorant.a) == 0


@st.composite
def _float_functions(draw):
    """Float functions on sides of 1 to 6 atoms with random weights, each
    value +-10**e for e in [-3, 3]: six orders of magnitude in one f."""
    nr, nc = draw(st.integers(1, 6)), draw(st.integers(1, 6))

    def space(n, prefix):
        parts = [draw(st.integers(1, 9)) for _ in range(n)]
        return DiscreteSpace([f"{prefix}{i}" for i in range(n)],
                             [p / sum(parts) for p in parts])

    def value():
        return draw(st.sampled_from((-1, 1))) * 10 ** draw(st.floats(-3, 3))

    return ProductFunction(space(nr, "x"), space(nc, "y"),
                           [[value() for _ in range(nc)] for _ in range(nr)])


@given(_float_functions())
def test_float_sr_norm_certifies_over_six_orders_of_magnitude(f):
    assert verify_sr_certificates(f, sr_norm(f), DEFAULT_TOL) == []
