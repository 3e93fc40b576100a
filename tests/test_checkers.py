"""The certificate checks: the exact violations they list, the reports they
reject as malformed, and the CLI self-check against a corrupted solver."""

import contextlib
import dataclasses
import io
import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from virtcont import (DiscreteSpace, MetricMatrix, Plan, ProductFunction,
                      ProductSet, checkers, cli, flows)
from virtcont.checkers import check_report
from virtcont.fileio import (format_number, matrix_to_obj, save_matrix,
                             save_metric, save_vector)
from virtcont.model import level_set
from virtcont.thickness import thickness

from test_fileio_cli import (_BELOW_1, _LIPSCHITZ_AT_1, _NOT_COVERED,
                             _check_tampered, _fixture_corpus, _run,
                             _run_failing, _self_checked_jobs)
from util import rand_function, rand_metric, rand_space


def _set(**items):
    def tamper(rep):
        rep.update(items)
    return tamper


def _cell(key, value):
    """Put `value` in cell (0, 0) of the plan under `key`."""
    def tamper(rep):
        rep[key]["mass"][0][0] = value
    return tamper


def _zero_majorant(rep):
    rep["majorant"] = {"a": ["0"] * 10, "b": ["0"] * 10}


def _potential_100(rep):
    rep["potential"][1] = "100"


def _shrink_potential(rep):
    # 9/10 of an optimal potential stays 1-Lipschitz but is no longer tight
    # on the plan's support
    rep["potential"] = [str(Fraction(p) * Fraction(9, 10))
                        for p in rep["potential"]]


# Forged reports that reach every message the tampered certificates of
# test_fileio_cli do not; the lists were recorded from the Fraction
# verifiers, before they compared on integer scales.
_FORGED = [
    ("thickness", _set(value="1/7"),
     ["cover weight 1 != reported value 1/7", "fractional pair weight != value",
      "witness plan mass != cover weight (duality gap)",
      "primal != value", "dual != value"],
     ["cover weight 0.9999999999999999 != reported value 0.14285714285714285",
      "fractional pair weight != value",
      "witness plan mass != cover weight (duality gap)",
      "primal != value", "dual != value"]),
    ("thickness", _set(cover_x=[0, 1], cover_y=[]),
     _NOT_COVERED[2:] + ["cover weight 1/5 != reported value 1"],
     _NOT_COVERED[2:] + ["cover weight 0.2 != reported value 0.9999999999999999"]),
    ("thickness", _set(fractional_f=["0"] * 10),
     _BELOW_1 + ["fractional pair weight != value"], None),
    ("thickness", _cell("plan", "1"),
     ["witness plan is not subbistochastic",
      "witness plan mass != cover weight (duality gap)"], None),
    ("hall", _cell("plan", "1"),
     ["plan is not bistochastic", "plan mass on set != reported mass"], None),
    ("hall", _set(mass="1/2"),
     ["plan mass on set != reported mass", "mass != thickness value",
      "primal != mass"], None),
    ("srnorm", _zero_majorant,
     ["majorant does not dominate |f|", "majorant weight != reported value"],
     None),
    ("srnorm", _cell("dual_plan", "1"),
     ["dual plan is not subbistochastic",
      "dual pairing != reported value (duality gap)"], None),
    ("srnorm", _set(dual_value="1/7"),
     ["primal value != dual value", "dual != dual_value"], None),
    ("transport", _potential_100, _LIPSCHITZ_AT_1, None),
    ("transport", _set(cost="1/7"),
     ["dual pairing != cost", "plan cost != reported cost", "primal != cost",
      "dual != cost"], None),
    ("transport", _shrink_potential,
     ["complementary slackness residual 4/15", "dual pairing != cost"],
     ["complementary slackness residual 0.2666666666666666",
      "dual pairing != cost"]),
    ("krnorm", _set(value="1/7"),
     ["dual pairing != cost", "plan cost != reported cost", "primal != value",
      "dual != value"], None),
    ("krnorm", _shrink_potential,
     ["complementary slackness residual 17/60", "dual pairing != cost"],
     ["complementary slackness residual 0.2833333333333332",
      "dual pairing != cost"]),
]


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_cli_check_lists_the_same_violations_of_forged_reports(tmp_path, mode):
    jobs = {job[0]: job for job in _self_checked_jobs(_fixture_corpus(tmp_path))}
    for kind, tamper, exact, in_float in _FORGED:
        expected = in_float or exact if mode == "float" else exact
        assert _check_tampered(tmp_path, jobs, kind, mode, tamper) == expected


# The keys that `primal` and `dual` repeat, and the difference `gap` holds:
# hall's primal is the greatest mass, below its dual.
_SIDES = {
    "thickness": ("value", "value", "primal - dual"),
    "hall": ("mass", "thickness_value", "dual - primal"),
    "srnorm": ("value", "dual_value", "primal - dual"),
    "transport": ("cost", "cost", "primal - dual"),
    "krnorm": ("value", "value", "primal - dual"),
}


@pytest.mark.parametrize("mode", ["exact", "float"])
@pytest.mark.parametrize("kind", sorted(_SIDES))
def test_cli_check_verifies_primal_dual_and_gap(tmp_path, kind, mode):
    jobs = {job[0]: job for job in _self_checked_jobs(_fixture_corpus(tmp_path))}
    primal, dual, gap = _SIDES[kind]
    gap_message = f"gap != {gap}"
    for forged, expected in (
            (_set(primal="99"), [f"primal != {primal}", gap_message]),
            (_set(dual="-7"), [f"dual != {dual}", gap_message]),
            (_set(gap="5"), [gap_message]),
            (_set(primal="99", dual="-7", gap="5"),
             [f"primal != {primal}", f"dual != {dual}", gap_message])):
        assert _check_tampered(tmp_path, jobs, kind, mode, forged) == expected


def _forge_fit(change):
    """A tamper that applies change(fit) to a stepfit's fit or a vcprofile's
    witness."""
    def tamper(rep):
        change(rep["fit" if rep["command"] == "stepfit" else "witness"])
    return tamper


def _exceptional_takes_block_1(side):
    def change(fit):
        fit[side][0], fit[side][1] = fit[side][0] + fit[side][1], []
    return change


def _minus_1_for_atom_9(fit):
    # -1 indexes the last atom in Python, but it is no atom of the space
    fit["x_blocks"][-1][-1] = -1


def _level_of_pair_2_3_at_5(fit):
    fit["levels"][1][2] = "5"


def _fourth_block(side):
    """Split the last block of `side` in two, both at its levels: the fit
    stays within eps and breaks only the budget of 3 blocks per side."""
    def change(fit):
        last = fit[side].pop()
        fit[side] += [last[:-1], last[-1:]]
        if side == "x_blocks":
            fit["levels"].append(list(fit["levels"][-1]))
        else:
            for row in fit["levels"]:
                row.append(row[-1])
    return change


# The fixture's g(i, j) = i/30 on 10 uniform atoms has the fit of both
# commands, in both modes, with blocks [0..3], [4..6], [7..9] on each side
# and no exceptional atom; a block of 4 atoms weighs more than either eps.
_FORGED_FITS = [
    (lambda fit: fit["x_blocks"][-1].pop(), ["x-blocks are not a partition"]),
    (_minus_1_for_atom_9, ["x-blocks are not a partition"]),
    (lambda fit: fit["y_blocks"][-1].pop(), ["y-blocks are not a partition"]),
    (_exceptional_takes_block_1("x_blocks"), ["exceptional x-class too heavy"]),
    (_exceptional_takes_block_1("y_blocks"), ["exceptional y-class too heavy"]),
    (_level_of_pair_2_3_at_5,
     [f"level deviation at cell ({i},{j}) in block pair (2,3)"
      for i in (4, 5, 6) for j in (7, 8, 9)]),
    (_fourth_block("x_blocks"), ["x-side has 4 blocks, more than 3"]),
    (_fourth_block("y_blocks"), ["y-side has 4 blocks, more than 3"]),
]


@pytest.mark.parametrize("mode", ["exact", "float"])
@pytest.mark.parametrize("kind", ["stepfit", "vcprofile"])
def test_cli_check_rejects_forged_step_fits(tmp_path, kind, mode):
    jobs = {job[0]: job for job in _self_checked_jobs(_fixture_corpus(tmp_path))}
    for change, expected in _FORGED_FITS:
        assert _check_tampered(tmp_path, jobs, kind, mode,
                               _forge_fit(change)) == expected
    # a fit within its eps, reported under another eps (a profile's value)
    key, fit = ("epsilon", "fit") if kind == "stepfit" else ("value", "witness")
    assert _check_tampered(tmp_path, jobs, kind, mode, _set(**{key: "1/1000"})) \
        == [f"reported {key} != {fit} epsilon"]


@pytest.mark.parametrize("kind", ["stepfit", "vcprofile"])
def test_cli_check_reads_a_block_budget_that_is_no_positive_int_as_malformed(
        tmp_path, kind):
    jobs = {job[0]: job for job in _self_checked_jobs(_fixture_corpus(tmp_path))}
    code, out = _run(jobs[kind])
    assert code == 0
    rp = tmp_path / "forged.json"
    for blocks in ("3", 0, -1, 3.0, True, None):
        rp.write_text(json.dumps({**json.loads(out), "blocks": blocks}))
        code, _ = _run(["check", str(rp)])
        assert code == 1, blocks


@pytest.mark.parametrize("kind", ["stepfit", "vcprofile"])
def test_cli_check_reads_a_block_entry_that_is_no_int_as_malformed(tmp_path,
                                                                   kind):
    # a block entry is an atom index, as a cover entry is: `true` is not
    # atom 1, and neither is 1.0, "1" or null
    jobs = {job[0]: job for job in _self_checked_jobs(_fixture_corpus(tmp_path))}
    code, out = _run(jobs[kind])
    assert code == 0
    rp = tmp_path / "forged.json"
    for side in ("x_blocks", "y_blocks"):
        for entry in (True, 1.0, "1", None):
            rep = json.loads(out)
            fit = rep["fit" if kind == "stepfit" else "witness"]
            assert fit[side][1][1] == 1
            fit[side][1][1] = entry
            rp.write_text(json.dumps(rep))
            assert _run_failing(["check", str(rp)]) == \
                f"error: {side} entries must be atom indices\n", (side, entry)


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_cli_check_reads_a_step_fit_report_that_found_no_fit(tmp_path, mode):
    # one block per side cannot fit g(i, j) = i/30 within 1/100
    g = _fixture_corpus(tmp_path)["g"]
    code, report = _run(["--mode", mode, "stepfit", g, "--blocks", "1",
                         "--eps", "1/100"])
    assert code == 0 and json.loads(report)["found"] is False
    rp = tmp_path / "not-found.json"
    rp.write_text(report)
    code, out = _run(["check", str(rp)])
    assert code == 0 and json.loads(out)["violations"] == []
    # its budget, function and eps are read all the same
    for key, value in (("blocks", "x"), ("inputs", "garbage"),
                       ("epsilon", "abc")):
        rp.write_text(json.dumps({**json.loads(report), key: value}))
        _run_failing(["check", str(rp)])


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_a_check_report_carries_the_checked_reports_mode(tmp_path, mode):
    path = str(tmp_path / "f.csv")
    rng = random.Random(7)
    save_matrix(rand_function(rng, rand_space(rng, 4, "x"), rand_space(rng, 4, "y")),
                path)
    code, out = _run(["--mode", mode, "srnorm", path])
    assert code == 0
    rp = tmp_path / "r.json"
    rp.write_text(out)
    other = "float" if mode == "exact" else "exact"
    # the check reads the report in its own mode, whatever --mode says
    code, out = _run(["--mode", other, "--tol", "1e-6", "check", str(rp)])
    assert code == 0
    rep = json.loads(out)
    assert (rep["mode"], float(rep["tolerance"])) == (mode, 1e-6)
    assert rep["violations"] == []


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_cli_check_rejects_a_negative_fractional_pair(tmp_path, mode):
    # on Z = {(x0, y0)} the pair f = (4, 0), g = (-1) is >= 1 on the cell
    # and weighs 4/3 - 1 = 1/3 = th(Z), but it is no fractional cover
    xs = DiscreteSpace(["x0", "x1"], [Fraction(1, 3), Fraction(2, 3)])
    ys = DiscreteSpace(["y0"], [Fraction(1)])
    save_matrix(ProductSet(xs, ys, [[1], [0]]), str(tmp_path / "z.csv"))
    code, out = _run(["--mode", mode, "thickness", str(tmp_path / "z.csv")])
    assert code == 0
    rep = json.loads(out)
    assert rep["value"] in ("1/3", "0.33333333333333331")
    rep.update(fractional_f=["4", "0"], fractional_g=["-1"])
    rp = tmp_path / "forged.json"
    rp.write_text(json.dumps(rep))
    code, out = _run(["check", str(rp)])
    assert code == 2
    assert json.loads(out)["violations"] == ["fractional pair has a negative entry"]


@pytest.mark.parametrize("mode,entry,message", [
    ("exact", "-1", "negative majorant entry"),
    ("float", "-1", "negative or non-finite majorant entry"),
    ("float", "nan", "negative or non-finite majorant entry"),
    ("float", "inf", "negative or non-finite majorant entry")])
def test_cli_check_reads_a_negative_or_nan_majorant_entry_as_malformed(
        tmp_path, mode, entry, message):
    jobs = {job[0]: job for job in _self_checked_jobs(_fixture_corpus(tmp_path))}
    code, out = _run(jobs["srnorm"] + ["--mode", mode])
    assert code == 0
    rep = json.loads(out)
    rep["majorant"]["b"][3] = entry
    rp = tmp_path / "forged.json"
    rp.write_text(json.dumps(rep))
    assert _run_failing(["check", str(rp)]) == f"error: {message}\n"


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_cli_check_rejects_a_tau_value_that_is_not_the_least(tmp_path, mode):
    # perfbench's f-10-0/g-10-0 pair, drawn as its workloads draw it; a value
    # of 100 is feasible ({|f - g| > 100} is empty), but so is every smaller
    # value down to tau
    rng = random.Random("fixed:f-10-0.csv")
    xs, ys = rand_space(rng, 10, "x"), rand_space(rng, 10, "y")
    f, g = str(tmp_path / "f.csv"), str(tmp_path / "g.csv")
    save_matrix(rand_function(rng, xs, ys), f)
    save_matrix(rand_function(rng, xs, ys), g)
    code, out = _run(["--mode", mode, "tau", f, g])
    assert code == 0
    rep = json.loads(out)
    rep.update(value="100", witness_set_thickness="0")
    rp = tmp_path / "forged.json"
    rp.write_text(json.dumps(rep))
    code, out = _run(["check", str(rp)])
    assert code == 2
    assert json.loads(out)["violations"] == [
        "reported value is not the least feasible one"]


@pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
@given(data=st.data())
def test_tau_check_weighs_both_level_sets_as_thickness_does(exact, data):
    # one max-flow weighs {|f - g| > value}, then {|f - g| >= value}; values
    # over denominators 1 to 4 tie often, and the value is one of the gaps
    cast = Fraction if exact else float
    nx, ny = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 6))
    rng = data.draw(st.randoms(use_true_random=False))
    xs, ys = rand_space(rng, nx, "x"), rand_space(rng, ny, "y")
    if not exact:
        xs = DiscreteSpace(xs.labels, list(map(float, xs.weights)))
        ys = DiscreteSpace(ys.labels, list(map(float, ys.weights)))
    levels = [cast(Fraction(a, b)) for a in range(-4, 5) for b in range(1, 5)]
    f, g = (ProductFunction(xs, ys, [[rng.choice(levels) for _ in range(ny)]
                                     for _ in range(nx)]) for _ in range(2))
    d = f.sub(g).abs()
    value = data.draw(st.sampled_from([x for row in d.values for x in row]))
    want = [thickness(level_set(d, value, ">")).value]
    if value > 0:
        want.append(thickness(level_set(d, value, ">=")).value)
    rep = {"command": "tau", "mode": "exact" if exact else "float",
           "inputs": {"f": matrix_to_obj(f), "g": matrix_to_obj(g)},
           "value": format_number(value),
           "witness_set_thickness": format_number(want[0])}
    scaled_covers, calls = flows._scaled_covers, []

    def recorded(*args):
        res = scaled_covers(*args)
        calls.append(res[1])
        return res

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(flows, "_scaled_covers", recorded)
        problems = check_report(rep)
    assert [repr(calls)] == [repr([want])]
    assert "witness thickness does not match the exceedance set" not in problems


def test_tau_check_calls_no_thickness_solve():
    assert "thickness" not in checkers._check_tau.__code__.co_names


def _metric_jobs(path):
    """transport and krnorm jobs on a 10-point metric, in directory `path`."""
    path.mkdir()
    rho, mu1, mu2, eta = (str(path / f"{name}.json")
                          for name in ("rho", "mu1", "mu2", "eta"))
    save_metric(rand_metric(random.Random(3), rand_space(random.Random(3), 10)),
                rho)
    save_vector([Fraction(1, 5)] * 5 + [Fraction(0)] * 5, mu1)
    save_vector([Fraction(1, 10)] * 10, mu2)
    save_vector([Fraction(1, 4), Fraction(-1, 4)] + [Fraction(0)] * 8, eta)
    return {"transport": ["transport", rho, mu1, mu2],
            "krnorm": ["krnorm", rho, eta]}


# (command, path to the vector in its report)
_VECTORS = [("krnorm", ("inputs", "signed")), ("krnorm", ("potential",)),
            ("transport", ("inputs", "mu1")), ("transport", ("inputs", "mu2")),
            ("transport", ("potential",)),
            ("thickness", ("fractional_f",)), ("thickness", ("fractional_g",)),
            ("srnorm", ("majorant", "a")), ("srnorm", ("majorant", "b"))]


@pytest.mark.parametrize("cut", [2, 11], ids=["short", "long"])
@pytest.mark.parametrize("kind,path", _VECTORS,
                         ids=["-".join((k,) + p) for k, p in _VECTORS])
def test_cli_check_rejects_vectors_not_matching_their_space(tmp_path, kind,
                                                             path, cut):
    jobs = {job[0]: job for job in _self_checked_jobs(_fixture_corpus(tmp_path))}
    jobs.update(_metric_jobs(tmp_path / "metric"))
    code, out = _run(jobs[kind])
    assert code == 0
    rep = json.loads(out)
    *outer, key = path
    obj = rep
    for k in outer:
        obj = obj[k]
    assert len(obj[key]) == 10
    obj[key] = (obj[key] * 2)[:cut]
    rp = tmp_path / "forged.json"
    rp.write_text(json.dumps(rep))
    err = _run_failing(["check", str(rp)])
    assert err.startswith(f"error: malformed {kind} report: {key} has {cut} "
                          "entries for 10 atoms")


def _plus_a_seventh(field):
    def corrupt(res):
        return dataclasses.replace(res, **{field: getattr(res, field)
                                           + Fraction(1, 7)})
    return corrupt


def _moved_mass(res):
    """The result with one positive cell's mass moved to its neighbour."""
    p = res.plan
    mass = [list(row) for row in p.mass]
    i, j = next((i, j) for i, row in enumerate(mass)
                for j, v in enumerate(row) if v > 0)
    mass[i][(j + 1) % len(mass[i])] += mass[i][j]
    mass[i][j] *= 0
    return dataclasses.replace(res, plan=Plan(p.x_space, p.y_space, mass))


# one solver per kind of certificate, as the CLI binds it
_CORRUPTED = [("thickness", "thickness", _plus_a_seventh("value")),
              ("hall", "max_bistochastic_mass", _moved_mass),
              ("srnorm", "sr_norm", _plus_a_seventh("value")),
              ("transport", "kantorovich", _moved_mass),
              ("krnorm", "kr_norm", _plus_a_seventh("value"))]


@pytest.mark.parametrize("mode", ["exact", "float"])
@pytest.mark.parametrize("kind,solver,corrupt", _CORRUPTED,
                         ids=[c[1] for c in _CORRUPTED])
def test_cli_self_check_catches_a_corrupted_solve(tmp_path, monkeypatch, mode,
                                                  kind, solver, corrupt):
    jobs = {job[0]: job for job in _self_checked_jobs(_fixture_corpus(tmp_path))}
    solve = getattr(cli, solver)
    monkeypatch.setattr(cli, solver, lambda *a, **k: corrupt(solve(*a, **k)))
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code, out = _run(jobs[kind] + ["--mode", mode])
    assert code == 2 and out == ""
    assert err.getvalue().startswith("internal invariant violation:\n")


def _uniform_plan(mass):
    """A plan object over two uniform spaces, labelled as the reports' own."""
    return {"mass": mass,
            "x_space": {"labels": ["x0", "x1"], "weights": ["0.5", "0.5"]},
            "y_space": {"labels": ["y0", "y1"], "weights": ["0.5", "0.5"]}}


# On Z = {(x0, y0)} with both spaces weighted (1/4, 3/4), th(Z) = 1/4.  Each
# forged report claims 1/2, with a plan that would certify it over uniform
# spaces: read against its own spaces, every plan passes its checks.  Its
# `primal` and `dual` claim 1/2 as well, with a `gap` of 0.
_HALF_SIDES = {"primal": "0.5", "dual": "0.5", "gap": "0"}
_HALF_COVER = {"cover_x": [0], "cover_y": [0], **_HALF_SIDES}
_OFF_SPACES = [
    ("thickness", ["z.csv"],
     {**_HALF_COVER, "value": "0.5", "fractional_f": ["1", "0"],
      "fractional_g": ["1", "0"],
      "plan": _uniform_plan([["0.5", "0"], ["0", "0"]])},
     "witness plan is not over the set's spaces"),
    ("hall", ["z.csv"],
     {**_HALF_COVER, "mass": "0.5", "thickness_value": "0.5",
      "plan": _uniform_plan([["0.5", "0"], ["0", "0.5"]])},
     "plan is not over the set's spaces"),
    ("srnorm", ["f.csv"],
     {**_HALF_SIDES, "value": "0.5", "dual_value": "0.5",
      "majorant": {"a": ["1", "0"], "b": ["1", "0"]},
      "dual_plan": _uniform_plan([["0.5", "0"], ["0", "0"]])},
     "dual plan is not over the function's spaces"),
    # the metric's space is the x factor; the plan keeps the solved masses
    ("transport", ["rho.json", "mu1.json", "mu2.json"],
     {"plan": _uniform_plan([["0.25", "0"], ["0.5", "0.25"]])},
     "plan is not over the metric's spaces"),
]


@pytest.mark.parametrize("mode", ["exact", "float"])
@pytest.mark.parametrize("kind,inputs,forged,message", _OFF_SPACES,
                         ids=[c[0] for c in _OFF_SPACES])
def test_cli_check_ties_a_plan_to_the_spaces_it_certifies(tmp_path, mode, kind,
                                                          inputs, forged,
                                                          message):
    xs = DiscreteSpace(["x0", "x1"], [Fraction(1, 4), Fraction(3, 4)])
    ys = DiscreteSpace(["y0", "y1"], [Fraction(1, 4), Fraction(3, 4)])
    save_matrix(ProductSet(xs, ys, [[1, 0], [0, 0]]), str(tmp_path / "z.csv"))
    save_matrix(ProductFunction(xs, ys, [[1, 0], [0, 0]]), str(tmp_path / "f.csv"))
    one = Fraction(1)
    save_metric(MetricMatrix(xs, ((0 * one, one), (one, 0 * one))),
                str(tmp_path / "rho.json"))
    save_vector([Fraction(1, 4), Fraction(3, 4)], str(tmp_path / "mu1.json"))
    save_vector([Fraction(3, 4), Fraction(1, 4)], str(tmp_path / "mu2.json"))
    code, out = _run(["--mode", mode, kind] + [str(tmp_path / p) for p in inputs])
    assert code == 0
    rep = json.loads(out)
    rep.update(forged)
    rp = tmp_path / "forged.json"
    rp.write_text(json.dumps(rep))
    code, out = _run(["check", str(rp)])
    assert code == 2
    assert json.loads(out)["violations"] == [message]


def _matdist_report(tmp_path, mode):
    """The order-2 matdist report of a 4-atom metric whose three light atoms
    give most matrices a probability far below the default tolerance."""
    space = DiscreteSpace(["a", "b", "c", "d"],
                          [Fraction(1, 1000)] * 3 + [Fraction(997, 1000)])
    dist = [[Fraction(0) if i == j else Fraction(10 + 4 * min(i, j) + max(i, j))
             for j in range(4)] for i in range(4)]
    save_metric(MetricMatrix(space, dist), str(tmp_path / "rho.json"))
    code, out = _run(["--mode", mode, "matdist", str(tmp_path / "rho.json"),
                      "--order", "2"])
    assert code == 0
    return json.loads(out)


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_cli_matdist_keeps_probabilities_below_the_tolerance(tmp_path, mode):
    rep = _matdist_report(tmp_path, mode)
    assert min(Fraction(e["probability"]) for e in rep["support"]) < Fraction(1, 10 ** 9)
    rp = tmp_path / "report.json"
    rp.write_text(json.dumps(rep))
    code, out = _run(["check", str(rp)])
    assert code == 0 and json.loads(out)["violations"] == []
    for forged in ("0", "-1e-12"):
        rep["support"][0]["probability"] = forged
        rp.write_text(json.dumps(rep))
        code, out = _run(["check", str(rp)])
        assert code == 2
        assert "nonpositive probability in support" in json.loads(out)["violations"]


# Rows of a plan or metric that hold a list, a JSON number, `true` and two
# malformed strings, with the message `check` gives for each; a JSON number
# is read as its decimal text.  The messages were recorded before rows were
# read through a set of their distinct strings: the error still names the
# first bad cell in row order, whatever the hash seed.
_BAD_CELLS = {"list": [1], "number": 0.5, "true": True, "zero": "1/0", "x": "x"}
_BAD_ROWS = [
    (("list", "number", "true", "zero", "x"),
     "bad numeric literal [1]: Invalid literal for Fraction: '[1]'"),
    (("number", "true", "zero", "list", "x"),
     "bad numeric literal True: Invalid literal for Fraction: 'True'"),
    (("number", "zero", "x", "true", "list"),
     "bad numeric literal '1/0': Fraction(1, 0)"),
    (("number", "x", "zero", "true"),
     "bad numeric literal 'x': Invalid literal for Fraction: 'x'"),
    (("zero", "x"), "bad numeric literal '1/0': Fraction(1, 0)"),
    (("x", "zero"), "bad numeric literal 'x': Invalid literal for Fraction: 'x'"),
]


@pytest.mark.parametrize("kind,path", [("thickness", ("plan", "mass")),
                                       ("transport", ("inputs", "metric", "dist"))])
@pytest.mark.parametrize("cells,message", _BAD_ROWS,
                         ids=["-".join(c) for c, _ in _BAD_ROWS])
def test_cli_check_names_the_first_bad_cell_of_a_row(tmp_path, kind, path,
                                                     cells, message):
    jobs = {job[0]: job for job in _self_checked_jobs(_fixture_corpus(tmp_path))}
    jobs.update(_metric_jobs(tmp_path / "metric"))
    code, out = _run(jobs[kind])
    assert code == 0
    rep = json.loads(out)
    row = rep
    for k in path:
        row = row[k]
    row[1][:len(cells)] = [_BAD_CELLS[c] for c in cells]
    rp = tmp_path / "forged.json"
    rp.write_text(json.dumps(rep))
    assert _run_failing(["check", str(rp)]) == f"error: {message}\n"


# ------------------------------------------------------- plan cells read back
# The plan reader maps each distinct cell string onto one scale with the
# weights: any form of a value reads as that value.

def _same_value(text, k):
    """The k-th of the other forms of a cell's value: a zero as "0/7" or
    "-0", an integer as "p/1", any value as 2p/2q or, if short, as a
    decimal."""
    x = Fraction(text)
    p, q = x.numerator, x.denominator
    forms = (["0/7", "-0"] if x == 0 else []) + ([f"{p}/1"] if q == 1 else [])
    forms.append(f"{2 * p}/{2 * q}")
    if Fraction(repr(float(x))) == x:
        forms.append(repr(float(x)))
    return forms[k % len(forms)]


def _plan_rewritten(rep, form):
    """Each plan cell s of the report as form(s, k), its k-th occurrence;
    the strings written."""
    seen = {}
    for row in rep["plan"]["mass"]:
        for j, s in enumerate(row):
            seen[s] = seen.get(s, -1) + 1
            row[j] = form(s, seen[s])
    return {s for row in rep["plan"]["mass"] for s in row}


@pytest.mark.parametrize("kind", ["thickness", "hall"])
def test_cli_check_reads_a_plan_cell_in_any_form_of_its_value(tmp_path, kind):
    xs = DiscreteSpace(["x0", "x1", "x2"], [Fraction(1, 4), Fraction(1, 4),
                                           Fraction(1, 2)])
    ys = DiscreteSpace(["y0", "y1", "y2"], [Fraction(1, 2), Fraction(1, 4),
                                           Fraction(1, 4)])
    z = tmp_path / "z.csv"
    # a plan of masses 1/4, 1/4, 1/2 and six zeros
    save_matrix(ProductSet(xs, ys, [[0, 1, 0], [0, 0, 1], [1, 0, 0]]), str(z))
    code, out = _run([kind, str(z)])
    assert code == 0

    def verdict(rep):
        path = tmp_path / "report.json"
        path.write_text(json.dumps(rep))
        return _run(["check", str(path)])

    original, forged = json.loads(out), json.loads(out)
    forged["plan"]["mass"][0][0] = "3"      # a forged mass, which check finds
    for rep, forms in ((original, {"2/4", "0/7", "-0", "0.25"}),
                       (forged, {"3/1"})):
        want = verdict(rep)
        assert forms <= _plan_rewritten(rep, _same_value)
        assert verdict(rep) == want
    assert want[0] == 2 and json.loads(want[1])["violations"]
    for bad in ("1/0", "x"):
        rep = json.loads(out)
        rep["plan"]["mass"][1][1] = bad
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(rep))
        _run_failing(["check", str(path)])


def test_an_exact_cover_job_puts_no_plan_on_a_scale(tmp_path, monkeypatch):
    # each group of numbers that a thickness or hall job, its self-check or
    # `check` puts on a common scale (the weights, a value, a fractional
    # pair) holds fewer than the 144 cells of a 12 x 12 plan
    from virtcont import certs, model, transport
    sizes = []
    originals = {name: getattr(model, name)
                 for name in ("common_scales", "common_integers")}

    def recorded(scale):
        def wrapper(*args):
            if scale is originals["common_integers"]:
                values = list(args[0])
                sizes.append(len(values))
                return scale(values)
            tol, *groups = args
            groups = [[list(part) for part in group] for group in groups]
            sizes.extend(sum(map(len, group)) for group in groups)
            return scale(tol, *groups)
        return wrapper

    for module in (model, flows, certs, checkers, transport):
        for name, scale in originals.items():
            if hasattr(module, name):
                monkeypatch.setattr(module, name, recorded(scale))
    rng = random.Random(12)
    xs, ys = rand_space(rng, 12, "x"), rand_space(rng, 12, "y")
    z = tmp_path / "z.csv"
    save_matrix(ProductSet(xs, ys, [[rng.random() < 0.5 for _ in range(12)]
                                    for _ in range(12)]), str(z))
    for kind in ("thickness", "hall"):
        code, out = _run([kind, str(z)])
        assert code == 0
        path = tmp_path / "report.json"
        path.write_text(out)
        assert _run(["check", str(path)])[0] == 0
    assert sizes and max(sizes) < 12 * 12
