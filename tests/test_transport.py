"""Metric transport, its dual potential, and the two-level duality."""

import dataclasses
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from virtcont import (DiscreteSpace, InfeasibleError, MetricMatrix, Plan,
                      ValidationError, kantorovich, kr_norm,
                      two_level_duality_check, verify_transport_result)
from virtcont.model import DEFAULT_TOL

from lp_oracle import transport_lp_value
from util import rand_metric, rand_space, rand_weights


def _two_point(d):
    s = DiscreteSpace.uniform(2)
    return MetricMatrix(s, ((Fraction(0), d), (d, Fraction(0))))


def test_equal_marginals_cost_zero():
    rng = random.Random(31)
    s = rand_space(rng, 5)
    rho = rand_metric(rng, s)
    mu = rand_weights(rng, 5)
    res = kantorovich(mu, mu, rho)
    assert res.cost == 0
    assert all(res.plan.mass[i][i] == mu[i] for i in range(5))
    assert verify_transport_result(mu, mu, rho, res) == []


def test_two_point_cost_is_distance_times_moved_mass():
    rho = _two_point(Fraction(3, 2))
    mu1 = [Fraction(1), Fraction(0)]
    mu2 = [Fraction(0), Fraction(1)]
    res = kantorovich(mu1, mu2, rho)
    assert res.cost == Fraction(3, 2)
    assert res.plan.mass[0][1] == 1
    assert verify_transport_result(mu1, mu2, rho, res) == []
    # the same masses over other spaces certify nothing about rho's
    other = DiscreteSpace(["p", "q"], [Fraction(1, 2)] * 2)
    moved = dataclasses.replace(res, plan=Plan(other, other, res.plan.mass))
    assert verify_transport_result(mu1, mu2, rho, moved) == [
        "plan is not over the metric's spaces"]


def test_path_metric_matches_dense_lp():
    rng = random.Random(33)
    for _ in range(12):
        n = 3
        s = rand_space(rng, n)
        rho = rand_metric(rng, s)
        mu1 = rand_weights(rng, n)
        mu2 = rand_weights(rng, n)
        res = kantorovich(mu1, mu2, rho)
        assert verify_transport_result(mu1, mu2, rho, res) == []
        assert res.cost == transport_lp_value(mu1, mu2, rho.dist)


def test_unbalanced_marginals_rejected():
    rho = _two_point(Fraction(1))
    with pytest.raises(InfeasibleError):
        kantorovich([Fraction(1), Fraction(0)], [Fraction(1, 2), Fraction(0)], rho)


def test_kr_norm_two_point():
    rho = _two_point(Fraction(3))
    res = kr_norm([Fraction(1), Fraction(-1)], rho)
    assert res.value == 3
    assert res.potential[0] - res.potential[1] == 3
    assert res.plan[0][1] == 1


def test_kr_norm_rejects_vector_of_wrong_length():
    rho = MetricMatrix(DiscreteSpace.uniform(3),
                       [[Fraction(abs(i - j)) for j in range(3)] for i in range(3)])
    for signed in ([Fraction(0)] * 2, [Fraction(0)] * 4,
                   [Fraction(1), Fraction(-1), Fraction(0), Fraction(0)]):
        with pytest.raises(ValidationError):
            kr_norm(signed, rho)
    with pytest.raises(ValidationError):
        kantorovich([Fraction(1, 2)] * 2, [Fraction(1, 2)] * 2, rho)


def test_kantorovich_keeps_common_mass_on_the_diagonal():
    rng = random.Random(37)
    for _ in range(20):
        n = rng.randint(2, 7)
        rho = rand_metric(rng, rand_space(rng, n))
        mu1, mu2 = rand_weights(rng, n), rand_weights(rng, n)
        res = kantorovich(mu1, mu2, rho)
        kr = kr_norm([a - b for a, b in zip(mu1, mu2)], rho)
        assert res.cost == kr.value
        assert res.potential == kr.potential
        for i in range(n):
            for j in range(n):
                common = min(mu1[i], mu2[i]) if i == j else 0
                assert res.plan.mass[i][j] == kr.plan[i][j] + common


def test_kr_norm_axioms():
    rng = random.Random(35)
    s = rand_space(rng, 4)
    rho = rand_metric(rng, s)
    for _ in range(15):
        raw = [Fraction(rng.randint(-3, 3), 6) for _ in range(4)]
        shift = sum(raw) / 4
        eta = [v - shift for v in raw]
        zeta_raw = [Fraction(rng.randint(-3, 3), 6) for _ in range(4)]
        zshift = sum(zeta_raw) / 4
        zeta = [v - zshift for v in zeta_raw]
        ne = kr_norm(eta, rho).value
        assert ne >= 0
        assert (ne == 0) == all(v == 0 for v in eta)
        assert kr_norm([-v for v in eta], rho).value == ne
        assert kr_norm([Fraction(2) * v for v in eta], rho).value == 2 * ne
        both = [a + b for a, b in zip(eta, zeta)]
        assert kr_norm(both, rho).value <= ne + kr_norm(zeta, rho).value


def test_sparse_vertex_optimum_regression():
    # optimum is a vertex plan: moving everything straight across beats any
    # strictly positive plan when the cross-distances are unequal
    s = DiscreteSpace.uniform(2)
    rho = MetricMatrix(s, ((Fraction(0), Fraction(1)),
                           (Fraction(1), Fraction(0))))
    mu1 = [Fraction(3, 4), Fraction(1, 4)]
    mu2 = [Fraction(1, 4), Fraction(3, 4)]
    res = kantorovich(mu1, mu2, rho)
    assert res.cost == Fraction(1, 2)
    # only the common mass and one off-diagonal entry carry mass
    assert res.plan.mass[1][0] == 0
    assert res.plan.mass[0][1] == Fraction(1, 2)


def test_two_level_trivial_costs():
    rng = random.Random(37)
    mu = rand_weights(rng, 4)
    nu = rand_weights(rng, 5)
    zero_cost = [[Fraction(0)] * 5 for _ in range(4)]
    rep = two_level_duality_check(zero_cost, mu, nu)
    assert rep.primal == 0 and rep.gap == 0
    c = Fraction(7, 3)
    const_cost = [[c] * 5 for _ in range(4)]
    rep = two_level_duality_check(const_cost, mu, nu)
    assert rep.primal == c and rep.gap == 0


def test_two_level_gap_zero_random():
    rng = random.Random(39)
    for _ in range(15):
        mu = rand_weights(rng, 6)
        nu = rand_weights(rng, 6)
        cost = [[Fraction(rng.randint(0, 12), 4) for _ in range(6)]
                for _ in range(6)]
        rep = two_level_duality_check(cost, mu, nu)
        assert rep.gap == 0
        for i in range(6):
            for j in range(6):
                assert rep.w1[i] + rep.w2[j] <= cost[i][j]


def test_two_level_reweighting_parameter():
    rng = random.Random(41)
    mu = rand_weights(rng, 3)
    nu = rand_weights(rng, 3)
    cost = [[Fraction(rng.randint(0, 6), 2) for _ in range(3)]
            for _ in range(3)]
    z1 = [Fraction(2)] * 3
    z2 = [Fraction(2)] * 3
    plain = two_level_duality_check(cost, mu, nu)
    scaled = two_level_duality_check(cost, mu, nu, z=(z1, z2))
    assert scaled.primal == 2 * plain.primal
    assert scaled.gap == 0


@st.composite
def _float_line_problems(draw):
    """A float line metric on 1 to 8 points, each at +-10**e for e in
    [-3, 3], with two random float marginals."""
    n = draw(st.integers(1, 8))
    xs = [draw(st.sampled_from((-1, 1))) * 10 ** draw(st.floats(-3, 3))
          for _ in range(n)]

    def weights():
        parts = [draw(st.integers(0, 9)) for _ in range(n - 1)]
        parts.append(draw(st.integers(1, 9)))
        return [p / sum(parts) for p in parts]

    space = DiscreteSpace([f"p{i}" for i in range(n)], weights())
    rho = MetricMatrix(space, [[abs(a - b) for b in xs] for a in xs])
    return rho, weights(), weights()


@given(_float_line_problems())
def test_float_kantorovich_certifies_over_six_orders_of_magnitude(problem):
    rho, mu1, mu2 = problem
    res = kantorovich(mu1, mu2, rho)
    assert verify_transport_result(mu1, mu2, rho, res, DEFAULT_TOL) == []
