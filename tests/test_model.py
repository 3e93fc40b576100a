"""Spaces, functions, sets, plans, and semimetric validation."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from virtcont import (DiscreteSpace, MetricMatrix, Plan, ProductFunction,
                      ProductSet, SeparableMajorant, ValidationError, level_set,
                      parse_number, product_measure, validate_semimetric,
                      validate_space)
from virtcont.model import is_exact, left_sum, require_valid_space

from util import fn_on, rand_metric, rand_space


def test_parse_number_exact_and_float():
    assert parse_number("1/3", True) == Fraction(1, 3)
    assert parse_number("0.25", True) == Fraction(1, 4)
    assert parse_number("1/3", False) == pytest.approx(1 / 3)
    assert isinstance(parse_number("2", True), Fraction)


def _parse_by_fraction(text, exact):
    """The reference: every literal through Fraction's regex, or float's."""
    s = str(text).strip()
    if exact:
        return Fraction(s)
    return float(Fraction(s)) if "/" in s else float(s)


def _outcome(parse, text, exact):
    """The value with its type, floats bitwise, or the exception raised."""
    try:
        x = parse(text, exact)
    except (ValueError, ZeroDivisionError, OverflowError) as e:
        return type(e), str(e)
    return type(x), x.hex() if isinstance(x, float) else x


_PART = st.one_of(
    st.text("0123456789", min_size=1, max_size=25),
    st.integers(0, 10 ** 400).map(str),
    st.sampled_from(["", "0", "00", "1_0", "\u00b2", "\u0663", "1.5", ".5",
                     "2e3", "1e400", "inf", "nan", "3 ", " 7"]))
_SIGN = st.sampled_from(["", "-", "--", "+"])


@given(st.one_of(
    st.builds(lambda pad, a, p, slash, b, q: pad + a + p + slash + b + q + pad,
              st.sampled_from(["", " ", "\t"]), _SIGN, _PART,
              st.sampled_from(["", "/", " / "]), _SIGN, _PART),
    st.text(max_size=12)))
@example("007/010")
@example("-0/7")
@example("-0")
@example("--1/2")
@example("+1/2")
@example("1/-2")
@example("1_0/3")
@example("\u00b2/3")
@example(" 3/4 ")
@example("1/0")
@example("1/")
@example(f"{10 ** 400}/3")
@example(f"-{10 ** 400}/{10 ** 399 + 1}")
@example("1" * 5000 + "/3")
@example("0.1")
@example("-2.5e-3")
def test_parse_number_reads_what_fraction_reads(text):
    for exact in (True, False):
        assert _outcome(parse_number, text, exact) == \
            _outcome(_parse_by_fraction, text, exact)


class _Float(float):
    pass


class _Rational(Fraction):
    pass


@pytest.mark.parametrize("x,exact", [
    (3, True), (-10 ** 400, True), (True, True), (Fraction(1, 3), True),
    (_Rational(1, 3), True), (0.5, False), (-0.0, False), (_Float(0.5), False)])
def test_is_exact_by_type(x, exact):
    assert is_exact(x) is exact


def test_space_weights_must_sum_to_one():
    s = DiscreteSpace(("a", "b"), (Fraction(1, 2), Fraction(1, 3)))
    problems = validate_space(s)
    assert any("sum" in p for p in problems)
    with pytest.raises(ValidationError):
        require_valid_space(s)


def test_space_weights_must_be_positive():
    s = DiscreteSpace(("a", "b"), (Fraction(1), Fraction(0)))
    problems = validate_space(s)
    assert any("index 1" in p for p in problems)


def test_uniform_space_is_valid():
    s = DiscreteSpace.uniform(7)
    assert validate_space(s) == []
    assert sum(s.weights) == 1


def test_product_measure_diagonal():
    s = DiscreteSpace.uniform(4)
    member = [[i == j for j in range(4)] for i in range(4)]
    assert product_measure(ProductSet(s, s, member)) == Fraction(1, 4)


def test_level_set_on_grid():
    # f(x, y) = x + y on the two-point grid {0, 1} x {0, 1}
    s = DiscreteSpace(("0", "1"), (Fraction(1, 2), Fraction(1, 2)))
    f = fn_on(s, s, lambda i, j: Fraction(i + j))
    z = level_set(f, Fraction(1), ">=")
    assert set(z.cells()) == {(0, 1), (1, 0), (1, 1)}
    strict = level_set(f, Fraction(1), ">")
    assert set(strict.cells()) == {(1, 1)}


def test_zero_matrix_is_semimetric_not_metric():
    s = DiscreteSpace.uniform(3)
    zero = MetricMatrix(s, tuple(tuple(Fraction(0) for _ in range(3))
                                 for _ in range(3)))
    kind, _ = validate_semimetric(zero)
    assert kind == "semimetric"


def test_triangle_violation_is_reported():
    s = DiscreteSpace.uniform(3)
    d = [[Fraction(0)] * 3 for _ in range(3)]
    d[0][1] = d[1][0] = Fraction(1)
    d[1][2] = d[2][1] = Fraction(1)
    d[0][2] = d[2][0] = Fraction(5)
    kind, witness = validate_semimetric(MetricMatrix(s, tuple(map(tuple, d))))
    assert kind == "invalid"
    assert witness is not None


def test_discrete_metric_is_metric():
    s = DiscreteSpace.uniform(4)
    d = MetricMatrix(s, tuple(tuple(Fraction(0 if i == j else 1)
                                    for j in range(4)) for i in range(4)))
    kind, _ = validate_semimetric(d)
    assert kind == "metric"


def test_function_algebra():
    rng = random.Random(5)
    xs, ys = rand_space(rng, 3, "x"), rand_space(rng, 4, "y")
    f = fn_on(xs, ys, lambda i, j: Fraction(i - j))
    g = f.sub(f)
    assert all(v == 0 for row in g.values for v in row)
    assert f.abs()[(0, 3)] == 3
    assert f.scale(Fraction(2))[(2, 0)] == 4
    assert f.add(ProductFunction.constant(xs, ys, Fraction(1)))[(0, 0)] == 1


def test_set_operations():
    s = DiscreteSpace.uniform(3)
    empty = ProductSet.empty(s, s)
    full = ProductSet.full(s, s)
    assert empty.is_empty() and not full.is_empty()
    assert empty.issubset(full)
    assert set(empty.union(full).cells()) == set(full.cells())
    # 0/1 cells, or bools among them, are stored as bools
    for cells in ([[1, 0], [0, True]], [[True, False], [False, True]]):
        z = ProductSet(DiscreteSpace.uniform(2), DiscreteSpace.uniform(2), cells)
        assert z.membership == ((True, False), (False, True))
        assert {type(v) for row in z.membership for v in row} == {bool}


@pytest.mark.parametrize("values", [
    [[0.5, math.nan], [0.0, 1.0]], [[0.5, 1.0], [-math.inf, 1.0]],
    # an exact value among floats must fit a float
    [[0.5, 10 ** 400], [0.0, 1.0]], [[0.5, 1.0], [Fraction(-10 ** 400, 3), 1.0]]])
def test_a_function_value_that_is_no_finite_float_is_rejected(values):
    s = DiscreteSpace.uniform(2)
    with pytest.raises(ValidationError, match="non-finite function value"):
        ProductFunction(s, s, values)
    # exact values are finite at any size
    ProductFunction(s, s, [[1, 10 ** 400], [0, Fraction(-10 ** 400, 3)]])


@pytest.mark.parametrize("a,b,message", [
    ([Fraction(1), 0], [Fraction(-1, 10 ** 12)], "negative majorant entry"),
    ([1.0, 0.0], [-1e-6], "negative or non-finite majorant entry"),
    ([1.0, math.nan], [0.0], "negative or non-finite majorant entry"),
    ([1.0, 0.0], [math.inf], "negative or non-finite majorant entry"),
    ([1.0, 10 ** 400], [0.0], "negative or non-finite majorant entry")])
def test_a_majorant_entry_negative_or_past_float_range_is_rejected(a, b, message):
    with pytest.raises(ValidationError) as e:
        SeparableMajorant(a, b)
    assert str(e.value) == message
    # within the tolerance, and exact at any size
    SeparableMajorant([1.0, -1e-12], [0.0])
    SeparableMajorant([1, 10 ** 400], [Fraction(1, 3)])


def _first_witness(d, tol):
    """The four axioms by definition, in order: the first nonzero diagonal
    entry; then, for each (i, j), a negative and then an asymmetric pair;
    then the first (i, j, k) with d_ij + d_jk < d_ik, reported as (i, k, j).
    Fractions are compared exactly, floats beyond tol."""
    n = len(d)
    t = 0 if isinstance(d[0][0], Fraction) else tol
    for i in range(n):
        if abs(d[i][i]) > t:
            return ("nonzero diagonal", i)
        for j in range(n):
            if d[i][j] < -t:
                return ("negative distance", i, j)
            if abs(d[i][j] - d[j][i]) > t:
                return ("asymmetric pair", i, j)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if d[i][j] + d[j][k] - d[i][k] < -t:
                    return ("triangle violation", i, k, j)
    return None


def _spoiled_metric(rng, n, bumps):
    """A random metric with a few distances raised, so that several
    triangles fail, and at random a diagonal entry raised, a pair made
    negative or a pair made asymmetric, which come before them."""
    m = rand_metric(rng, rand_space(rng, n, "p"), denom=7)
    d = [list(row) for row in m.dist]
    for _ in range(bumps):
        i, j = rng.sample(range(n), 2)
        d[i][j] = d[j][i] = d[i][j] + Fraction(rng.randint(20, 60), 11)
    i, j = rng.sample(range(n), 2)
    spoil = rng.choice(("triangle", "diagonal", "negative", "asymmetric"))
    if spoil == "diagonal":
        d[i][i] = Fraction(rng.randint(1, 5), 7)
    elif spoil == "negative":
        d[i][j] = d[j][i] = -Fraction(rng.randint(1, 5), 7)
    elif spoil == "asymmetric":
        d[i][j] += Fraction(rng.randint(1, 5), 11)
    return m.space, d


def test_triangle_witness_matches_triple_loop_both_regimes():
    rng = random.Random(41)
    seen = set()
    for trial in range(40):
        space, d = _spoiled_metric(rng, rng.randint(4, 9), rng.randint(2, 4))
        for dist in (d, [[float(v) for v in row] for row in d]):
            expected = _first_witness(dist, 1e-9)
            assert expected is not None
            kind, witness = validate_semimetric(MetricMatrix(space, dist))
            assert (kind, witness) == ("invalid", expected)
            seen.add(witness)
    assert len(seen) > 6   # the witnesses are not all one triple
    assert {w[0] for w in seen} == {"nonzero diagonal", "negative distance",
                                    "asymmetric pair", "triangle violation"}


def test_float_triangle_within_ulps_of_the_tolerance():
    # d01 = d12 = s and d02 near 2s + 1e-9: the triangle (0, 1, 2) fails by
    # about the tolerance, so the verdict turns on how the gap is summed
    s3 = DiscreteSpace.uniform(3)
    for s in (1e-3, 1.0, 7.0, 1e3):
        xs = [2 * s + 1e-9]
        for _ in range(64):   # 64 ulps on either side
            xs = [math.nextafter(xs[0], 0), *xs, math.nextafter(xs[-1], math.inf)]
        verdicts = set()
        for x in xs:
            d = [[0.0, s, x], [s, 0.0, s], [x, s, 0.0]]
            expected = _first_witness(d, 1e-9)
            got = validate_semimetric(MetricMatrix(s3, d))
            assert got == (("metric", None) if expected is None
                           else ("invalid", expected)), (s, x)
            verdicts.add(got[0])
        assert verdicts == {"metric", "invalid"}, s


def test_valid_metrics_pass_in_both_regimes():
    rng = random.Random(43)
    for _ in range(10):
        m = rand_metric(rng, rand_space(rng, rng.randint(2, 9), "p"),
                        denom=rng.choice((7, 1009, 999983)))
        assert validate_semimetric(m) == ("metric", None)
        floats = MetricMatrix(m.space, [[float(v) for v in row] for row in m.dist])
        assert validate_semimetric(floats) == ("metric", None)
    # plain ints, and a triangle that fails by the smallest possible step
    s = DiscreteSpace.uniform(3)
    d = [[0, 1, 2], [1, 0, 1], [2, 1, 0]]
    assert validate_semimetric(MetricMatrix(s, d)) == ("metric", None)
    d[0][2] = d[2][0] = Fraction(2 * 999983 + 1, 999983)
    assert validate_semimetric(MetricMatrix(s, d)) == \
        ("invalid", ("triangle violation", 0, 2, 1))


# ------------------------------------------------------------- plan sums
# The marginals and the total of a plan are summed on its integer scale;
# they must equal the sums of the masses themselves, in both regimes.

def test_exact_plan_sums_equal_fraction_sums():
    rng = random.Random(41)
    xs, ys = rand_space(rng, 4, "x"), rand_space(rng, 5, "y")
    mass = [[Fraction(rng.randint(0, 20), rng.choice((1, 2, 3, 7, 11, 13)))
             for _ in range(5)] for _ in range(4)]
    plan = Plan(xs, ys, mass, signed=True)
    rows = [sum(row, Fraction(0)) for row in mass]
    cols = [sum((row[j] for row in mass), Fraction(0)) for j in range(5)]
    assert plan.row_marginals() == rows
    assert plan.col_marginals() == cols
    assert plan.total() == sum(rows, Fraction(0))
    assert all(type(x) is Fraction
               for x in plan.row_marginals() + plan.col_marginals() + [plan.total()])


def test_float_plan_sums_add_left_to_right():
    # each row and column holds 1e16, 1.0 and -1e16 in some order, so its
    # sum depends on the order of the additions
    big, one = 1e16, 1.0
    s = DiscreteSpace(["a", "b", "c"], [0.25, 0.25, 0.5])
    mass = [[big, one, -big], [one, -big, big], [-big, big, 0.1]]
    plan = Plan(s, s, mass, signed=True)
    rows = [left_sum(row) for row in mass]
    cols = [left_sum(row[j] for row in mass) for j in range(3)]
    assert list(map(repr, plan.row_marginals())) == list(map(repr, rows))
    assert list(map(repr, plan.col_marginals())) == list(map(repr, cols))
    assert repr(plan.total()) == repr(left_sum(rows))
    assert rows != [math.fsum(row) for row in mass]
