"""Spaces, functions, sets, plans, and semimetric validation."""

import math
import random
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from virtcont import (DiscreteSpace, MetricMatrix, Plan, ProductFunction,
                      ProductSet, SeparableMajorant, ValidationError, level_set,
                      parse_number, product_measure, validate_semimetric,
                      validate_space)
from virtcont.model import is_exact, left_sum, require_valid_space

from util import fn_on, rand_metric, rand_space, reference_semimetric


def test_parse_number_exact_and_float():
    assert parse_number("1/3", True) == Fraction(1, 3)
    assert parse_number("0.25", True) == Fraction(1, 4)
    assert parse_number("1/3", False) == pytest.approx(1 / 3)
    assert isinstance(parse_number("2", True), Fraction)


def _parse_by_fraction(text, exact):
    """The reference: every literal through Fraction's regex, or float's.
    An exact value that str() cannot print, its numerator or denominator
    past `sys.get_int_max_str_digits()`, is refused as parse_number
    refuses it."""
    s = str(text).strip()
    if exact:
        x = Fraction(s)
        try:
            str(x)
        except ValueError:
            raise ValueError(
                f"Exceeds the limit ({sys.get_int_max_str_digits()} digits) for "
                "integer string conversion of a numerator or denominator") from None
        return x
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
@example("1e400")
@example("1e4299")           # 4,300 digits: the most str() prints
@example("1e4300")
@example("-1e-4299")
@example("25e-4300")         # 1/(4 * 10**4298) prints
@example("1e5000")
@example("1e-5000")
@example("0." + "1" * 4300)  # the denominator is past the limit
@example("0." + "5" * 4299)  # 8,599 characters, each part within it
@example("1e" + "1" * 5000)  # the exponent itself is past it
@example("2e32e3")
@example("1.e5")
def test_parse_number_reads_what_fraction_reads(text):
    for exact in (True, False):
        assert _outcome(parse_number, text, exact) == \
            _outcome(_parse_by_fraction, text, exact)


@pytest.mark.parametrize("text", ["1e10000000", "-1e-10000000", "7.5e999999999",
                                  "1" * 4000 + "e-999999999", "1e+1000000000"])
def test_exact_literals_past_the_digit_limit_are_refused_before_any_power(text):
    # 10 ** 10000000 alone takes seconds; the exponent is weighed first
    start = time.perf_counter()
    with pytest.raises(ValueError, match="Exceeds the limit"):
        parse_number(text, True)
    assert time.perf_counter() - start < 1.0
    assert parse_number(text, False) in (math.inf, -math.inf, 0.0)


def test_a_zero_mantissa_reads_as_zero_at_any_exponent():
    start = time.perf_counter()
    for text in ("0e10000000", "-0.000e-999999999", "0.0E+1000000000"):
        x = parse_number(text, True)
        assert type(x) is Fraction and x == 0
    assert time.perf_counter() - start < 1.0


def test_the_digit_limit_is_the_one_python_prints_with():
    limit = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(0)           # no limit: nothing refused
        assert parse_number("1e5000", True) == 10 ** 5000
        assert parse_number("1e-5000", True) == Fraction(1, 10 ** 5000)
        sys.set_int_max_str_digits(640)         # the least limit Python takes
        assert parse_number("1e639", True) == 10 ** 639
        for text in ("1e640", "1e-640", "1e5000"):
            with pytest.raises(ValueError, match=r"limit \(640 digits\)"):
                parse_number(text, True)
    finally:
        sys.set_int_max_str_digits(limit)


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


# An exact matrix of n atoms: distances k/q, symmetric with a zero diagonal,
# drawn from [lo, 2 lo) (a metric) or [0, hi] (triangles may fail), then
# spoiled by some of: a diagonal entry, a negative pair, an asymmetric pair.
_SPOILS = st.lists(st.tuples(st.sampled_from(["diagonal", "negative", "asymmetric"]),
                             st.integers(0, 6), st.integers(0, 6),
                             st.integers(1, 5)), max_size=2)


@st.composite
def _distances(draw):
    n = draw(st.integers(1, 6))
    q = draw(st.sampled_from([1, 3, 7]))
    lo, hi = draw(st.sampled_from([(0, 6), (1, 12), (4, 8)]))
    cells = draw(st.lists(st.integers(lo, hi), min_size=n * n, max_size=n * n))
    d = [[Fraction(cells[min(i, j) * n + max(i, j)], q) if i != j else Fraction(0)
          for j in range(n)] for i in range(n)]
    for kind, i, j, k in draw(_SPOILS):
        i, j = i % n, j % n
        if kind == "diagonal":
            d[i][i] = Fraction(k, 7)
        elif kind == "negative":
            d[i][j] = d[j][i] = -Fraction(k, 7)
        else:
            d[i][j] += Fraction(k, 11)
    return d


# floats: the exact matrix as doubles, then at random a pair moved apart by
# less than the tolerance (asymmetric, yet accepted as symmetric), an entry
# nudged by a few ulps, or an entry made inf or nan
_FLOAT_SPOILS = st.lists(st.tuples(
    st.sampled_from(["within tolerance", "ulps", "inf", "nan"]),
    st.integers(0, 6), st.integers(0, 6), st.integers(-4, 4)), max_size=2)


@given(_distances(), _FLOAT_SPOILS)
@example([[0, 1, 2], [1, 0, 1], [2, 1, 0]], [])
# asymmetric within the tolerance: the triangle (2, 1, 0) fails where
# (0, 1, 2) holds, so only a scan of every k names it
@example([[0.0, 1.0, 2.0 + 0.8e-9], [1.0, 0.0, 1.0], [2.0 + 1.3e-9, 1.0, 0.0]], [])
def test_validate_semimetric_names_what_the_full_scan_names(d, spoils):
    n = len(d)
    space = DiscreteSpace.uniform(n)
    exact = MetricMatrix(space, d)
    assert validate_semimetric(exact) == reference_semimetric(exact)
    f = [[float(v) for v in row] for row in d]
    for kind, i, j, k in spoils:
        i, j = i % n, j % n
        if kind == "within tolerance":
            f[i][j] += k * 2e-10
        elif kind == "ulps":
            for _ in range(abs(k)):
                f[i][j] = math.nextafter(f[i][j], math.copysign(math.inf, k))
        else:
            f[i][j] = math.inf if kind == "inf" else math.nan
    floats = MetricMatrix(space, f)
    assert validate_semimetric(floats) == reference_semimetric(floats)


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


# ------------------------------------------------------- plans on a scale
# A kernel or the report reader hands a plan over on its integer scale
# (`Plan.of_scaled`); `Plan(x, y, mass)` puts the same values on theirs
# first.  The two must be one plan, in both regimes, signed ones included.

@st.composite
def _plan_values(draw):
    """(x space, y space, mass, signed): exact weights and masses, some
    negative if signed, or the product plan, which is bistochastic."""
    nx, ny = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    spaces = []
    for n, prefix in ((nx, "x"), (ny, "y")):
        ks = draw(st.lists(st.integers(1, 9), min_size=n, max_size=n))
        spaces.append(DiscreteSpace([f"{prefix}{i}" for i in range(n)],
                                    [Fraction(k, sum(ks)) for k in ks]))
    xs, ys = spaces
    signed = draw(st.booleans())
    if draw(st.booleans()):
        mass = [[a * b for b in ys.weights] for a in xs.weights]
    else:
        lo = -3 if signed else 0
        cell = st.builds(Fraction, st.integers(lo, 3), st.sampled_from([1, 2, 3, 12]))
        mass = draw(st.lists(st.lists(cell, min_size=ny, max_size=ny),
                             min_size=nx, max_size=nx))
    return xs, ys, mass, signed


@given(_plan_values(), st.booleans())
def test_a_plan_built_on_its_scale_is_the_plan_of_its_values(drawn, exact):
    from virtcont.fileio import format_number, matrix_to_obj
    xs, ys, mass, signed = drawn
    cells = [v for row in mass for v in row]
    if exact:
        d = math.lcm(*(v.denominator for v in cells + list(xs.weights + ys.weights)))
        scaled = [[v.numerator * (d // v.denominator) for v in row] for row in mass]
        xw, yw = ([w.numerator * (d // w.denominator) for w in s.weights]
                  for s in (xs, ys))
    else:
        # float mode: d None, every weight and mass the float as given,
        # every other zero as -0.0
        d = None
        xs, ys = (DiscreteSpace(s.labels, list(map(float, s.weights)))
                  for s in (xs, ys))
        mass = scaled = [[-0.0 if v == 0 and (i + j) % 2 else float(v)
                          for j, v in enumerate(row)] for i, row in enumerate(mass)]
        xw, yw = list(xs.weights), list(ys.weights)
    on_scale = Plan.of_scaled(xs, ys, xw, yw, scaled, d, signed)
    plan = Plan(xs, ys, mass, signed)
    assert on_scale == plan
    assert repr(on_scale.mass) == repr(plan.mass)
    assert {type(v) for row in on_scale.mass for v in row} == \
        {Fraction if exact else float}
    (xa, ya, ra, da, ta), (xb, yb, rb, db, tb) = on_scale.scaled(), plan.scaled()
    assert (list(xa), list(ya), ra, da, ta) == (list(xb), list(yb), rb, db, tb)
    for sums in ("row_marginals", "col_marginals"):
        assert repr(getattr(on_scale, sums)()) == repr(getattr(plan, sums)())
    assert repr(on_scale.total()) == repr(plan.total())
    assert on_scale.is_bistochastic() == plan.is_bistochastic()
    assert on_scale.is_subbistochastic() == plan.is_subbistochastic()
    written = [[format_number(v) for v in row] for row in on_scale.mass]
    assert matrix_to_obj(on_scale)["mass"] == matrix_to_obj(plan)["mass"] == written


def test_an_unsigned_plan_on_its_scale_still_refuses_a_negative_mass():
    s = DiscreteSpace.uniform(2)
    f = DiscreteSpace(s.labels, [0.5, 0.5])
    for s, xw, rows, d in ((s, [1, 1], [[2, -1], [0, 0]], 2),
                           (f, [0.5, 0.5], [[0.5, -0.1], [0.0, 0.0]], None)):
        with pytest.raises(ValidationError, match="negative mass"):
            Plan.of_scaled(s, s, xw, xw, rows, d)
        assert Plan.of_scaled(s, s, xw, xw, rows, d, signed=True).signed
        with pytest.raises(ValidationError, match="dimensions"):
            Plan.of_scaled(s, s, xw, xw, rows[:1], d)


# --------------------------------------------------- functions on a scale
# A reader or a kernel hands a function over on its integer scale
# (`ProductFunction.of_scaled`); `ProductFunction(x, y, values)` keeps the
# values given.  The two must be one function, in both regimes.

@st.composite
def _function_values(draw):
    """(x space, y space, values): exact weights, and cells over a few
    denominators, 997 among them, so the scale is not the weights'."""
    nx, ny = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    spaces = []
    for n, prefix in ((nx, "x"), (ny, "y")):
        ks = draw(st.lists(st.integers(1, 9), min_size=n, max_size=n))
        spaces.append(DiscreteSpace([f"{prefix}{i}" for i in range(n)],
                                    [Fraction(k, sum(ks)) for k in ks]))
    cell = st.builds(Fraction, st.integers(-30, 30), st.sampled_from([1, 3, 4, 997]))
    values = draw(st.lists(st.lists(cell, min_size=ny, max_size=ny),
                           min_size=nx, max_size=nx))
    return (*spaces, values)


@given(_function_values(), st.booleans())
def test_a_function_built_on_its_scale_is_the_function_of_its_values(drawn, exact):
    from virtcont.fileio import dumps_matrix, format_number, loads_matrix, matrix_to_obj
    xs, ys, values = drawn
    if exact:
        d = math.lcm(*(v.denominator for row in values for v in row))
        rows = [[v.numerator * (d // v.denominator) for v in row] for row in values]
    else:
        # float mode: d None and every cell the float as given, every other
        # zero as -0.0
        d = None
        xs, ys = (DiscreteSpace(s.labels, list(map(float, s.weights)))
                  for s in (xs, ys))
        values = rows = [[-0.0 if v == 0 and (i + j) % 2 else float(v)
                          for j, v in enumerate(row)] for i, row in enumerate(values)]
    on_scale = ProductFunction.of_scaled(xs, ys, rows, d)
    f = ProductFunction(xs, ys, values)
    assert on_scale == f and f == on_scale
    assert repr(on_scale.values) == repr(f.values) == repr(
        tuple(map(tuple, values)))
    assert on_scale.scaled() == f.scaled() == (tuple(map(tuple, rows)), d)
    written = [[format_number(v) for v in row] for row in f.values]
    assert matrix_to_obj(on_scale)["values"] == matrix_to_obj(f)["values"] == written
    for g in (on_scale, f):
        back = loads_matrix(dumps_matrix(g), exact)
        assert back == f and repr(back.values) == repr(f.values)
        assert back.scaled() == f.scaled()


def test_a_function_on_its_scale_checks_its_shape_and_its_float_cells():
    s = DiscreteSpace.uniform(2)
    with pytest.raises(ValidationError, match="dimensions"):
        ProductFunction.of_scaled(s, s, [[1, 2]], 3)
    with pytest.raises(ValidationError, match="non-finite"):
        ProductFunction.of_scaled(s, s, [[0.5, math.inf], [0.0, 1.0]], None)
    f = ProductFunction.of_scaled(s, s, [[1, -2], [0, 6]], 4)
    assert f.values == ((Fraction(1, 4), Fraction(-1, 2)), (0, Fraction(3, 2)))
    assert f.abs().scaled() == (((1, 2), (0, 6)), 4)
    # the difference of two scales lies on their lcm
    g = ProductFunction.of_scaled(s, s, [[1, 0], [0, 1]], 3)
    assert f.sub(g).scaled() == (((-1, -6), (0, 14)), 12)
    assert f.add(g).values == tuple(tuple(a + b for a, b in zip(ra, rb))
                                    for ra, rb in zip(f.values, g.values))


@pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
def test_functions_over_other_spaces_of_the_same_size_do_not_combine(exact):
    cast = Fraction if exact else float
    x = DiscreteSpace(["x0", "x1"], [cast(1) / 2, cast(1) / 2])
    other = DiscreteSpace(["x0", "x1"], [cast(1) / 4, cast(3) / 4])
    y = DiscreteSpace(["y0", "y1"], [cast(1) / 2, cast(1) / 2])
    f = ProductFunction(x, y, [[cast(1), cast(0)], [cast(0), cast(0)]])
    g = ProductFunction.constant(other, y, cast(0))
    for a, b in ((f, g), (g, f)):
        for op in (a.sub, a.add):
            with pytest.raises(ValidationError, match="factor spaces differ"):
                op(b)
    relabelled = DiscreteSpace(["a0", "a1"], x.weights)
    with pytest.raises(ValidationError, match="factor spaces differ"):
        f.sub(ProductFunction.constant(relabelled, y, cast(0)))
