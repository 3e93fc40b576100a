"""Step-fit search, the profile and its refinement behavior, matrix laws."""

import contextlib
import io
import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from virtcont import (DiscreteSpace, MetricMatrix, ProductFunction,
                      ValidationError, family_function,
                      matrix_distribution_exact, matrix_distribution_sample,
                      random_points_check, refinement_study, sample_points,
                      step_fit_exists, step_fit_violations, vc_profile)
from virtcont.checkers import check_report
from virtcont.cli import main
from virtcont.fileio import jsonable, save_matrix
from virtcont import vcdiag
from virtcont.vcdiag import ENUM_GUARD, _heuristic, _on_scale, _unscale

from util import (brute_step_fit_exists, fn_on, rand_function, rand_metric,
                  rand_space, reference_heuristic, reference_matrix_distribution,
                  reference_vc_profile)


def test_exists_matches_bruteforce_oracle():
    rng = random.Random(43)
    for _ in range(15):
        xs = rand_space(rng, rng.randint(2, 4), "x")
        ys = rand_space(rng, rng.randint(2, 4), "y")
        f = rand_function(rng, xs, ys, denom=3, lo=-1, hi=1)
        for nb in (1, 2):
            for eps in (Fraction(1, 8), Fraction(1, 3), Fraction(2, 3)):
                got = step_fit_exists(f, nb, eps)
                want = brute_step_fit_exists(f, nb, eps)
                assert (got is not None) == want
                if got is not None:
                    assert step_fit_violations(f, got, strict=True) == []


def test_profile_matches_bruteforce_oracle_up_to_three_blocks():
    # the profile is the oracle's threshold: no strict fit at the value, one
    # just above it; three blocks reach the search's cut of partial partitions
    rng = random.Random(47)
    for _ in range(10):
        xs = rand_space(rng, rng.randint(3, 5), "x")
        ys = rand_space(rng, rng.randint(3, 5), "y")
        f = rand_function(rng, xs, ys, denom=4, lo=-1, hi=1)
        for nb in (1, 2, 3):
            res = vc_profile(f, nb)
            assert res.exact
            assert step_fit_violations(f, res.witness, strict=False) == []
            above = res.value + Fraction(1, 10 ** 6)
            for eps, want in ((res.value, False), (above, True),
                              (Fraction(1, 6), None), (Fraction(1, 3), None),
                              (Fraction(1, 2), None)):
                oracle = brute_step_fit_exists(f, nb, eps)
                assert want is None or oracle == want
                if eps > 0:
                    assert (step_fit_exists(f, nb, eps) is not None) == oracle


def test_monotone_in_blocks_and_eps():
    rng = random.Random(45)
    xs, ys = rand_space(rng, 4, "x"), rand_space(rng, 4, "y")
    f = rand_function(rng, xs, ys, denom=4)
    values = [vc_profile(f, nb).value for nb in (1, 2, 3, 4)]
    assert all(a >= b for a, b in zip(values, values[1:]))
    # a fit exists strictly above the profile value, none strictly below it
    v = values[1]
    assert step_fit_exists(f, 2, v + Fraction(1, 100)) is not None
    if v > 0:
        assert step_fit_exists(f, 2, v * Fraction(99, 100)) is None


def test_step_function_fits_itself():
    # an exactly 2 x 2 block function has profile 0 with 2 blocks
    s = DiscreteSpace.uniform(6)
    f = fn_on(s, s, lambda i, j: Fraction((i < 3) * 2 + (j < 3)))
    res = vc_profile(f, 2)
    assert res.value == 0 and res.exact
    assert step_fit_violations(f, res.witness, strict=False) == []
    assert vc_profile(ProductFunction.constant(s, s, Fraction(5)), 1).value == 0


@pytest.mark.parametrize("one", [Fraction(1), 1.0], ids=["exact", "float"])
def test_fit_with_every_column_exceptional(one):
    # one row block spans 0 and 5, so both columns are forced into the
    # exceptional class; their weight 1/2 stays below eps = 2
    s = DiscreteSpace.uniform(2)
    f = ProductFunction(s, s, [[0 * one, 0 * one], [5 * one, 5 * one]])
    fit = step_fit_exists(f, 1, 2)
    assert fit.x_blocks == [[], [0, 1]] and fit.y_blocks == [[0, 1]]
    assert fit.levels == [[]] and fit.exact


def test_triangle_profile_frozen_value():
    f = family_function("triangle_indicator", 8)
    res = vc_profile(f, 4)
    assert res.value == Fraction(1, 4)
    assert res.exact
    assert step_fit_violations(f, res.witness, strict=False) == []


def test_separable_profile_frozen_value():
    f = family_function("separable_smooth", 8)
    res = vc_profile(f, 4)
    assert res.value == Fraction(7, 64)
    assert res.exact


def test_metric_kernel_dense_blocks_reach_zero():
    f = family_function("metric_kernel", 8)
    assert vc_profile(f, 8).value == 0


def test_no_small_fit_for_triangle():
    f = family_function("triangle_indicator", 8)
    assert step_fit_exists(f, 2, Fraction(1, 10)) is None


def test_refinement_study_separable_decreases():
    rows = refinement_study("separable_smooth", [8, 16, 32], 4)
    assert [(r["n"], r["value"], r["kind"]) for r in rows] == [
        (8, Fraction(7, 64), "exact"),
        (16, Fraction(15, 256), "upper"),
        (32, Fraction(31, 1024), "upper"),
    ]
    assert rows[0]["value"] > rows[1]["value"] > rows[2]["value"]


def test_refinement_study_triangle_stays_flat():
    rows = refinement_study("triangle_indicator", [8, 16], 4)
    assert [(r["value"], r["kind"]) for r in rows] == [
        (Fraction(1, 4), "exact"),
        (Fraction(1, 4), "lower"),
    ]


def test_refinement_study_metric_kernel():
    rows = refinement_study("metric_kernel", [8, 16], 4)
    assert [(r["value"], r["kind"]) for r in rows] == [
        (Fraction(1, 8), "exact"),
        (Fraction(1, 16), "upper"),
    ]


def test_random_points_check_frozen_value():
    f = family_function("triangle_indicator", 8)
    hits = random_points_check(f, 8, 2, Fraction(1, 10), trials=100, seed=0)
    assert hits == Fraction(1, 100)


def test_matrix_distribution_two_atoms():
    s = DiscreteSpace.uniform(2)
    m = MetricMatrix(s, ((Fraction(0), Fraction(3)),
                         (Fraction(3), Fraction(0))))
    dist = matrix_distribution_exact(m, 1)
    assert dist.support == [(((Fraction(0),),), Fraction(1, 2)),
                            (((Fraction(3),),), Fraction(1, 2))]


def test_matrix_distribution_atom_split_invariance():
    # splitting an atom into two equal halves leaves the law unchanged
    s = DiscreteSpace.uniform(2)
    m = MetricMatrix(s, ((Fraction(0), Fraction(3)),
                         (Fraction(3), Fraction(0))))
    split = DiscreteSpace(("a", "b1", "b2"),
                          (Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)))
    d = [[Fraction(0), Fraction(3), Fraction(3)],
         [Fraction(3), Fraction(0), Fraction(0)],
         [Fraction(3), Fraction(0), Fraction(0)]]
    msplit = MetricMatrix(split, tuple(map(tuple, d)))
    for k in (1, 2):
        assert (matrix_distribution_exact(m, k).support
                == matrix_distribution_exact(msplit, k).support)


def test_matrix_distribution_sampling():
    s = DiscreteSpace.uniform(2)
    m = MetricMatrix(s, ((Fraction(0), Fraction(3)),
                         (Fraction(3), Fraction(0))))
    draws = matrix_distribution_sample(m, 1, 10000, seed=42)
    assert draws == matrix_distribution_sample(m, 1, 10000, seed=42)
    freq = sum(1 for d in draws if d[0][0] == 3) / 10000
    assert freq == pytest.approx(0.5083)


def test_guards():
    with pytest.raises(ValidationError):
        family_function("no_such_family", 8)
    s = DiscreteSpace.uniform(40)
    m = MetricMatrix(s, tuple(tuple(Fraction(0 if i == j else 1)
                                    for j in range(40)) for i in range(40)))
    with pytest.raises(ValidationError):
        matrix_distribution_exact(m, 3)
    with pytest.raises(ValidationError):
        refinement_study("triangle_indicator", [8, 18], 4)


def test_sample_points_are_midpoints():
    assert sample_points(4) == [Fraction(1, 8), Fraction(3, 8),
                                Fraction(5, 8), Fraction(7, 8)]


def _float_report(tmp_path, f, argv):
    """Exit code, report and stderr of a float-mode step-fit command on f."""
    path = tmp_path / "f.csv"
    save_matrix(f, str(path))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["--mode", "float", argv[0], str(path)] + argv[1:])
    return code, json.loads(out.getvalue()) if code == 0 else None, err.getvalue()


def _level_off_by_rounding():
    # in floats the midrange level sits one rounding step past the half-range
    return fn_on(DiscreteSpace.uniform(1, "x"), DiscreteSpace.uniform(2, "y"),
                 lambda i, j: [Fraction(-7, 12), Fraction(-1)][j])


def _class_weight_by_order():
    # 0.1 + 0.2 + 0.3 and 0.3 + 0.2 + 0.1 differ in the last bit
    xs = DiscreteSpace(("x0", "x1", "x2", "x3"),
                       [Fraction(k, 10) for k in (1, 2, 3, 4)])
    return fn_on(xs, DiscreteSpace.uniform(1, "y"),
                 lambda i, j: Fraction([100, -100, 100, 0][i]))


@pytest.mark.parametrize("make", [_level_off_by_rounding, _class_weight_by_order])
def test_float_profile_passes_its_own_check(tmp_path, make):
    code, rep, err = _float_report(tmp_path, make(), ["vcprofile", "--blocks", "1"])
    assert (code, err) == (0, "")
    assert check_report(rep) == []


def test_float_step_fit_reports_pass_their_check(tmp_path):
    rng = random.Random(61)
    for _ in range(16):
        xs = rand_space(rng, rng.randint(1, 5), "x")
        ys = rand_space(rng, rng.randint(1, 5), "y")
        f = rand_function(rng, xs, ys)
        for nb in ("1", "2", "3"):
            for argv in [["vcprofile", "--blocks", nb]] + [
                    ["stepfit", "--blocks", nb, "--eps", eps]
                    for eps in ("1/4", "1/2", "3/4")]:
                code, rep, err = _float_report(tmp_path, f, argv)
                assert (code, err) == (0, ""), argv
                assert check_report(rep) == [], argv


def test_profile_of_int_valued_function_stays_exact():
    # plain int values halve to Fractions, as the same values as Fractions do
    xs, ys = DiscreteSpace.uniform(5, "x"), DiscreteSpace.uniform(5, "y")
    for k in range(30):
        rng = random.Random(k)
        vals = [[rng.randint(0, 2) for _ in range(5)] for _ in range(5)]
        f = ProductFunction(xs, ys, vals)
        g = ProductFunction(xs, ys, [[Fraction(v) for v in row] for row in vals])
        for nb in (1, 2):
            got, want = vc_profile(f, nb), vc_profile(g, nb)
            assert type(got.value) is Fraction and got.value == want.value
            levels = [c for row in got.witness.levels for c in row]
            assert all(type(c) is Fraction for c in levels)
            assert got.witness.levels == want.witness.levels


# ------------------------------------------- the search against the oracle

# large primes, one per value and per weight of a 4 x 4 function, so that
# the common denominator of the search's integer scale is a product of many
_PRIMES = [p for p in range(10 ** 6, 10 ** 6 + 600)
           if all(p % q for q in range(2, 1001))]


@st.composite
def _exact_functions(draw):
    """Functions up to 4 x 4 whose values and weights have pairwise coprime,
    large denominators (the last weight of a side is 1 minus the others)."""
    nr, nc = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    primes = iter(_PRIMES)

    def space(n, prefix):
        ws = [Fraction(draw(st.integers(1, p // n)), p)
              for p in (next(primes) for _ in range(n - 1))]
        return DiscreteSpace([f"{prefix}{i}" for i in range(n)], ws + [1 - sum(ws)])

    xs, ys = space(nr, "x"), space(nc, "y")
    vals = [[Fraction(draw(st.integers(-3 * p, 3 * p)), p)
             for p in (next(primes) for _ in range(nc))] for _ in range(nr)]
    return ProductFunction(xs, ys, vals)


@st.composite
def _float_functions(draw):
    """Float functions up to 4 x 4 with values spread over 1e-3..1e3."""
    nr, nc = draw(st.integers(1, 4)), draw(st.integers(1, 4))

    def space(n, prefix):
        parts = [draw(st.integers(1, 9)) for _ in range(n)]
        return DiscreteSpace([f"{prefix}{i}" for i in range(n)],
                             [p / sum(parts) for p in parts])

    value = st.builds(lambda sign, e: sign * 10.0 ** e,
                      st.sampled_from([-1, 1]), st.floats(-3, 3))
    return ProductFunction(space(nr, "x"), space(nc, "y"),
                           [[draw(value) for _ in range(nc)] for _ in range(nr)])


def _agrees_with_oracle(f, nb, exact):
    res = vc_profile(f, nb)
    assert res.exact
    above = (res.value + Fraction(1, 10 ** 9) if exact
             else math.nextafter(res.value, math.inf))
    assert not brute_step_fit_exists(f, nb, res.value)
    assert brute_step_fit_exists(f, nb, above)
    for eps in (res.value, above, Fraction(1, 4), Fraction(1, 2), 1.0):
        if eps > 0:
            assert (step_fit_exists(f, nb, eps) is not None) == \
                brute_step_fit_exists(f, nb, eps)


@given(_exact_functions(), st.integers(1, 3))
def test_exact_search_matches_oracle(f, nb):
    _agrees_with_oracle(f, nb, exact=True)


@given(_float_functions(), st.integers(1, 3))
def test_float_search_matches_oracle(f, nb):
    _agrees_with_oracle(f, nb, exact=False)


def test_exact_function_with_float_eps():
    rng = random.Random(67)
    f = rand_function(rng, rand_space(rng, 4, "x"), rand_space(rng, 3, "y"))
    for nb in (1, 2, 3):
        for eps in (float("inf"), 1e300, 0.5, 0.3, 1e-300):
            fit = step_fit_exists(f, nb, eps)
            assert (fit is not None) == brute_step_fit_exists(f, nb, eps)
            if fit is not None:
                assert step_fit_violations(f, fit) == []
        # the float nearest the exact profile value lies on either side of it
        value = vc_profile(f, nb).value
        near = float(value)
        assert (step_fit_exists(f, nb, near) is not None) == (near > value)


@st.composite
def _wide_functions(draw, exact, side=10):
    """Functions of sides 1-side (default 10): exact values with small prime denominators
    and weights with large, pairwise coprime ones, or float values spread
    over 1e-3..1e3 with weights from integer parts."""
    nr, nc = draw(st.integers(1, side)), draw(st.integers(1, side))
    primes = iter(_PRIMES)

    def space(n, prefix):
        if exact:
            ws = [Fraction(draw(st.integers(1, p // n)), p)
                  for p in (next(primes) for _ in range(n - 1))]
            ws.append(1 - sum(ws))
        else:
            parts = [draw(st.integers(1, 9)) for _ in range(n)]
            ws = [p / sum(parts) for p in parts]
        return DiscreteSpace([f"{prefix}{i}" for i in range(n)], ws)

    if exact:
        value = st.builds(lambda q, a: Fraction(a, q), st.sampled_from([1, 2, 3, 5, 7, 11, 13]),
                          st.integers(-39, 39))
    else:
        value = st.builds(lambda sign, e: sign * 10.0 ** e,
                          st.sampled_from([-1, 1]), st.floats(-3, 3))
    return ProductFunction(space(nr, "x"), space(nc, "y"),
                           [[draw(value) for _ in range(nc)] for _ in range(nr)])


@given(_wide_functions(exact=True), st.integers(1, 4), st.integers(0, 3))
def test_exact_heuristic_scores_as_the_reference(f, nb, seed):
    assert repr(_heuristic(f, _on_scale(f), nb, seed)) \
        == repr(reference_heuristic(f, nb, seed))


@given(_wide_functions(exact=False), st.integers(1, 4), st.integers(0, 3))
def test_float_heuristic_scores_as_the_reference(f, nb, seed):
    assert repr(_heuristic(f, _on_scale(f), nb, seed)) \
        == repr(reference_heuristic(f, nb, seed))


@pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
@given(data=st.data(), nb=st.integers(1, 4), seed=st.integers(0, 3))
def test_profile_equals_the_best_of_all_restarts_then_the_search(exact, data,
                                                                 nb, seed):
    # the search certifies the value, so two restarts give the reference's
    # value; the witness is a fit at it, and the reference's own wherever no
    # restart of the reference reached the optimum
    f = data.draw(_wide_functions(exact, side=vcdiag.EXACT_SIDE_LIMIT))
    res = vc_profile(f, nb, seed)
    ref = reference_vc_profile(f, nb, seed)
    assert repr((res.value, res.exact)) == repr((ref.value, ref.exact))
    assert step_fit_violations(f, res.witness, strict=False) == []
    assert res.witness.epsilon == res.value
    if ref.value < _heuristic(f, _on_scale(f), nb, seed)[0]:
        assert repr(res.witness) == repr(ref.witness)
    for other in range(4):
        assert repr(vc_profile(f, nb, other)) == repr(res)


def test_exact_profile_draws_only_the_first_two_restarts(monkeypatch):
    # the search beats both restarts here, and no restart reaches its optimum
    yielded = []
    restarts = vcdiag._restarts

    def counted(*args):
        for r in restarts(*args):
            yielded.append(r)
            yield r

    monkeypatch.setattr(vcdiag, "_restarts", counted)
    x = DiscreteSpace(["x0", "x1", "x2", "x3"],
                      [Fraction(w, 19) for w in (7, 1, 2, 9)])
    y = DiscreteSpace(["y0", "y1", "y2"], [Fraction(w, 9) for w in (2, 6, 1)])
    q = Fraction(1, 4)
    f = ProductFunction(x, y, [[1, -q, -1], [-3 * q, 2 * q, 2 * q],
                               [-3 * q, -q, -3 * q], [1, 2 * q, -1]])
    scale = _on_scale(f)[3]
    res = vc_profile(f, 2)
    assert len(yielded) == 2
    ref = reference_vc_profile(f, 2)
    assert len(yielded) == 2 + vcdiag.HEURISTIC_RESTARTS
    assert res.value == Fraction(3, 19)
    assert all(_unscale(o, scale) > res.value for o, _ in yielded)
    assert repr(res) == repr(ref)
    # past the exact range the heuristic still runs every restart
    yielded.clear()
    assert not vc_profile(family_function("separable_smooth", 9), 2).exact
    assert len(yielded) == vcdiag.HEURISTIC_RESTARTS


@st.composite
def _metric_orders(draw, exact):
    """(distance table on 1-6 atoms, order 1-3), of order 3 only up to 4
    atoms (`test_largest_laws_equal_the_reference` takes 6).  The distances
    come from a pool of at most four values, so that many index tuples draw
    the same matrix; exact weights have pairwise coprime denominators, float
    values are spread over 1e-3..1e3."""
    k = draw(st.integers(1, 3))
    n = draw(st.integers(1, 6 if k < 3 else 4))
    if exact:
        ws = [Fraction(draw(st.integers(1, p // n)), p)
              for p in (11, 13, 17, 19, 23)[:n - 1]]
        ws.append(1 - sum(ws))
        value = st.builds(lambda q, a: Fraction(a, q), st.sampled_from([1, 3, 7, 10]),
                          st.integers(0, 30))
    else:
        parts = [draw(st.integers(1, 9)) for _ in range(n)]
        ws = [p / sum(parts) for p in parts]
        value = st.builds(lambda e: 10.0 ** e, st.floats(-3, 3))
    pool = draw(st.lists(value, min_size=1, max_size=4))
    d = [[0 * pool[0]] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            d[i][j] = d[j][i] = draw(st.sampled_from(pool))
    assert n ** (2 * k) <= ENUM_GUARD
    return MetricMatrix(DiscreteSpace([f"p{i}" for i in range(n)], ws), d), k


def _same_law(support, reference):
    # entry by entry, so that a failure names its first differing entry
    # instead of diffing two reprs of thousands of entries
    assert list(map(repr, support)) == list(map(repr, reference))


@given(_metric_orders(exact=True))
def test_exact_matrix_distribution_equals_the_reference(mk):
    _same_law(matrix_distribution_exact(*mk).support,
              reference_matrix_distribution(*mk))


@given(_metric_orders(exact=False))
def test_float_matrix_distribution_equals_the_reference(mk):
    _same_law(matrix_distribution_exact(*mk).support,
              reference_matrix_distribution(*mk))


@pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
def test_largest_laws_equal_the_reference(exact):
    # n = 6, k = 3: 6^6 index tuples, the most within ENUM_GUARD at side 6;
    # the Fraction reference takes about 2 s here
    rng = random.Random(6)
    m = rand_metric(rng, rand_space(rng, 6, "p"), denom=2, hi=2)
    if not exact:
        m = MetricMatrix(DiscreteSpace(m.space.labels, [float(w) for w in m.space.weights]),
                         [[float(v) for v in row] for row in m.dist])
    _same_law(matrix_distribution_exact(m, 3).support,
              reference_matrix_distribution(m, 3))


def _matdist_check(dist, mode):
    """`check` of a matdist report of dist, as the CLI writes its support."""
    support = [{"matrix": [list(row) for row in mat], "probability": p}
               for mat, p in dist.support]
    return check_report(jsonable({"command": "matdist", "mode": mode,
                                  "order": dist.k, "support": support}))


def test_matrix_distribution_leaves_out_a_zero_weight_atom():
    # DiscreteSpace takes an atom of weight 0 (files do not): the matrices
    # only it draws have probability 0 and stay out of the support
    half, zero = Fraction(1, 2), Fraction(0)
    m = MetricMatrix(DiscreteSpace(("a", "b", "c"), (half, zero, half)),
                     [[Fraction(v) for v in row]
                      for row in ([0, 1, 2], [1, 0, 3], [2, 3, 0])])
    without_b = MetricMatrix(DiscreteSpace.uniform(2),
                             [[zero, Fraction(2)], [Fraction(2), zero]])
    for k in (1, 2):
        dist = matrix_distribution_exact(m, k)
        assert dist.support == matrix_distribution_exact(without_b, k).support
        assert _matdist_check(dist, "exact") == []


def test_float_matrix_distribution_leaves_out_an_underflow():
    # only atom a lies at distances 1 and 2 from b and c, so the matrix
    # [[1, 2], [1, 2]] needs a drawn twice: 1e-200 squared underflows to 0.0,
    # as does every other matrix that needs it twice
    tiny = Fraction(1, 10 ** 200)
    d = [[0, 1, 2], [1, 0, 3], [2, 3, 0]]
    exact = MetricMatrix(DiscreteSpace(("a", "b", "c"),
                                       (tiny, (1 - tiny) / 2, (1 - tiny) / 2)),
                         [[Fraction(v) for v in row] for row in d])
    floats = MetricMatrix(DiscreteSpace(("a", "b", "c"), (1e-200, 0.5, 0.5)),
                          [[float(v) for v in row] for row in d])
    mats = [mat for mat, _ in matrix_distribution_exact(exact, 2).support]
    assert ((1, 2), (1, 2)) in mats
    dist = matrix_distribution_exact(floats, 2)
    assert ((1, 2), (1, 2)) not in [mat for mat, _ in dist.support]
    assert all(p > 0 for _, p in dist.support)
