"""Exact dense simplex used as the LP oracle in the suite."""

from fractions import Fraction

import pytest

from lp_oracle import LPInfeasible, LPUnbounded, dense_lp_solve


def test_box_maximum():
    value, x, y = dense_lp_solve([[Fraction(1)]], [Fraction(1)], [Fraction(1)])
    assert value == 1 and x == [1]
    # dual certifies: y.b = value, y.A >= c
    assert y[0] * 1 == 1 and y[0] >= 1


def test_single_edge_cover_lp():
    # minimize w_r * r + w_c * c with r + c >= 1, 0 <= r, c <= 1
    w = Fraction(1, 4)
    A = [[Fraction(-1), Fraction(-1)], [Fraction(1), Fraction(0)],
         [Fraction(0), Fraction(1)]]
    b = [Fraction(-1), Fraction(1), Fraction(1)]
    c = [-w, -w]
    value, x, _ = dense_lp_solve(A, b, c)
    assert -value == Fraction(1, 4)
    assert x[0] + x[1] >= 1


def test_infeasible():
    with pytest.raises(LPInfeasible):
        dense_lp_solve([[Fraction(1)], [Fraction(-1)]],
                       [Fraction(-1), Fraction(-1)], [Fraction(0)])


def test_unbounded():
    with pytest.raises(LPUnbounded):
        dense_lp_solve([[Fraction(-1)]], [Fraction(1)], [Fraction(1)])


def test_float_mode():
    value, x, _ = dense_lp_solve([[1.0, 1.0]], [1.0], [1.0, 2.0])
    assert value == pytest.approx(2.0)
    assert x[1] == pytest.approx(1.0)
