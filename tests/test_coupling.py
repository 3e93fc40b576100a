"""Bistochastic plans: the Hall identity, completion, diagonal traces."""

import os
import random
import tempfile
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from virtcont import (DiscreteSpace, Plan, ProductSet, complete_to_bistochastic,
                      integrate_against_plan, max_bistochastic_mass, qb_norm,
                      thickness)
from virtcont.fileio import save_matrix

from test_fileio_cli import _run
from util import fn_on, rand_set, rand_space


def test_full_set_mass_one():
    s = DiscreteSpace.uniform(3)
    res = max_bistochastic_mass(ProductSet.full(s, s))
    assert res.mass == 1
    assert res.plan.is_bistochastic()


def test_diagonal_mass_one():
    s = DiscreteSpace.uniform(4)
    diag = ProductSet(s, s, [[i == j for j in range(4)] for i in range(4)])
    res = max_bistochastic_mass(diag)
    assert res.mass == 1
    # the optimal plan concentrates on the diagonal here
    on_z = sum(res.plan.mass[i][i] for i in range(4))
    assert on_z == 1


def test_single_column_mass_is_column_weight():
    rng = random.Random(19)
    xs, ys = rand_space(rng, 3, "x"), rand_space(rng, 4, "y")
    col = ProductSet(xs, ys, [[j == 2 for j in range(4)] for _ in range(3)])
    res = max_bistochastic_mass(col)
    assert res.mass == ys.weights[2]


def test_hall_identity_random():
    rng = random.Random(21)
    for _ in range(40):
        xs = rand_space(rng, rng.randint(1, 5), "x")
        ys = rand_space(rng, rng.randint(1, 5), "y")
        z = rand_set(rng, xs, ys)
        res = max_bistochastic_mass(z)
        assert res.mass == thickness(z).value
        assert res.plan.is_bistochastic()
        on_z = sum((res.plan.mass[i][j] for (i, j) in z.cells()), Fraction(0))
        assert on_z == res.mass


def test_completion_dominates_and_is_bistochastic():
    rng = random.Random(25)
    xs, ys = rand_space(rng, 3, "x"), rand_space(rng, 3, "y")
    z = rand_set(rng, xs, ys, density=0.4)
    sub_plan = max_bistochastic_mass(z).thickness_certificate.plan
    full = complete_to_bistochastic(sub_plan)
    assert full.is_bistochastic()
    for i in range(3):
        for j in range(3):
            assert full.mass[i][j] >= sub_plan.mass[i][j]


def test_zero_plan_completion_is_northwest_corner():
    s = DiscreteSpace.uniform(2)
    full = complete_to_bistochastic(Plan.zero(s, s))
    assert full.is_bistochastic()
    assert full.mass[0][0] == Fraction(1, 2)


def test_diagonal_trace_of_sum_function():
    n = 8
    s = DiscreteSpace.uniform(n)
    pts = [Fraction(i, n) for i in range(n)]
    f = fn_on(s, s, lambda i, j: pts[i] + pts[j])
    diag = Plan.diagonal(s)
    expected = sum(Fraction(1, n) * 2 * x for x in pts)
    assert integrate_against_plan(f, diag) == expected
    dist = fn_on(s, s, lambda i, j: abs(pts[i] - pts[j]))
    assert integrate_against_plan(dist, diag) == 0


def test_qb_norm_values():
    s = DiscreteSpace.uniform(3)
    assert qb_norm(Plan.product(s, s)) == 1
    assert qb_norm(Plan.diagonal(s)) == 1
    doubled = Plan(s, s, [[2 * v for v in row]
                          for row in Plan.product(s, s).mass])
    assert qb_norm(doubled) == 2


def test_pairing_bounded_by_norm_times_qb():
    from virtcont import sr_norm
    rng = random.Random(27)
    for _ in range(15):
        xs, ys = rand_space(rng, 3, "x"), rand_space(rng, 3, "y")
        from util import rand_function
        f = rand_function(rng, xs, ys)
        # random signed plan with bounded marginal densities
        mass = [[Fraction(rng.randint(-2, 2), 9) for _ in range(3)]
                for _ in range(3)]
        eta = Plan(xs, ys, mass, signed=True)
        assert abs(integrate_against_plan(f, eta)) <= sr_norm(f).value * qb_norm(eta)


# A 5 x 6 set whose float completion meets a row deficit of -2.8e-17: the
# northwest corner advanced a row only at a deficit of exactly 0, so it
# skipped every later row, and the float hall job failed its self-check.
_DUST_X = [Fraction(4, 15), Fraction(1, 10), Fraction(4, 15), Fraction(1, 6),
           Fraction(1, 5)]
_DUST_Y = [Fraction(3, 11), Fraction(5, 22), Fraction(1, 22), Fraction(1, 11),
           Fraction(5, 22), Fraction(3, 22)]
_DUST_ROWS = ["010010", "001100", "010001", "001110", "000001"]


def _hall_and_check(mode, xw, yw, rows):
    """The exit code of a hall job on the set, and of `check` on its report."""
    xs = DiscreteSpace([f"x{i}" for i in range(len(xw))], xw)
    ys = DiscreteSpace([f"y{j}" for j in range(len(yw))], yw)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "z.csv")
        save_matrix(ProductSet(xs, ys, rows), path)
        code, out = _run(["--mode", mode, "hall", path])
        if code:
            return code, None
        with open(os.path.join(tmp, "report.json"), "w") as fh:
            fh.write(out)
        return code, _run(["check", fh.name])[0]


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_hall_completes_past_a_float_deficit_of_negative_dust(mode):
    rows = [[c == "1" for c in row] for row in _DUST_ROWS]
    assert _hall_and_check(mode, _DUST_X, _DUST_Y, rows) == (0, 0)
    num = float if mode == "float" else Fraction
    xs, ys = (DiscreteSpace([f"{p}{i}" for i in range(len(w))], list(map(num, w)))
              for p, w in (("x", _DUST_X), ("y", _DUST_Y)))
    assert max_bistochastic_mass(ProductSet(xs, ys, rows)).plan.is_bistochastic()


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_float_hall_passes_its_own_check_on_random_sets(data):
    weights = [data.draw(st.lists(st.integers(1, 30), min_size=1, max_size=7))
               for _ in range(2)]
    xw, yw = ([Fraction(k, sum(ks)) for k in ks] for ks in weights)
    rows = data.draw(st.lists(st.lists(st.booleans(), min_size=len(yw),
                                       max_size=len(yw)),
                              min_size=len(xw), max_size=len(xw)))
    assert _hall_and_check("float", xw, yw, rows) == (0, 0)
