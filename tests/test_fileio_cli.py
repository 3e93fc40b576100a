"""Serialization round-trips and the command-line interface."""

import contextlib
import importlib
import io
import json
import pkgutil
import random
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction
from math import inf, nan
from pathlib import Path

import pytest
from hypothesis import example, given, strategies as st

import virtcont
from virtcont import (DiscreteSpace, MetricMatrix, Plan, ProductFunction,
                      ProductSet, ValidationError, checkers, cli, fileio,
                      kantorovich, kr_norm, model)
from virtcont.checkers import check_report
from virtcont.cli import main
from virtcont.fileio import (_cell_strings, _Reader, dumps_json,
                             dumps_matrix, format_number, load_matrix,
                             load_metric, load_vector, loads_matrix,
                             load_space, matrix_from_obj,
                             matrix_to_obj, metric_from_obj, metric_to_obj,
                             save_matrix, save_metric, save_space,
                             save_vector,
                             space_from_obj, space_to_obj, vector_from_obj,
                             vector_to_obj)

from util import fn_on, rand_function, rand_metric, rand_set, rand_space


def _run(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


def test_format_number_rational_and_float():
    assert format_number(Fraction(1, 3)) == "1/3"
    assert format_number(Fraction(2)) == "2"
    assert format_number(0.25) == "0.25"
    for x in (0, 7, -3, 10 ** 30, Fraction(-5, 15), Fraction(4, 2),
              Fraction(-6, 3), Fraction(0)):
        assert format_number(x) == str(Fraction(x))
    for x in (0.1, -2.5, 1e300, 1 / 3, -0.0, 3.0):
        assert format_number(x) == format(x, ".17g")


# what `jsonable` returns: strings (any code point, control characters
# included), ints, bools and None, in lists and string-keyed dicts
_JSON = st.recursive(
    st.one_of(st.text(), st.integers(), st.booleans(), st.none()),
    lambda inner: st.one_of(st.lists(inner), st.dictionaries(st.text(), inner)),
    max_leaves=40)


@given(_JSON)
@example({"": [], "b": {}, "\u00e9\U0001f600": ["\x00\n\"\\", "\u2028"],
          "n": [1, -2, 10 ** 30], "t": [True, None, False]})
# set cells, negative ints and ints past any table of small ones, in one list
@example([0, 1, -1, 1023, 1024, -1024, 10 ** 30, 1, 0])
def test_dumps_json_writes_what_json_dumps_writes(obj):
    assert dumps_json(obj) == json.dumps(obj, sort_keys=True, indent=2)


def _formatted(x):
    """x with each Fraction and float as its format_number string."""
    if isinstance(x, dict):
        return {k: _formatted(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return type(x)(map(_formatted, x))
    return format_number(x) if type(x) in (Fraction, float) else x


# what a runner returns: the same, with Fractions and floats (signed zeros,
# infinities, NaN and subnormals among them) and tuples, and lists of
# Fractions only or of floats only, such as a krnorm report's plan rows,
# which the writer formats in one map
_FLOAT = st.one_of(st.floats(), st.sampled_from([-0.0, inf, nan, 5e-324, 0.1]))
_NUMBER = st.one_of(st.fractions(), _FLOAT)
_ONE_TYPE = st.one_of(st.lists(st.fractions(), min_size=1),
                      st.lists(_FLOAT, min_size=1))
_REPORTS = st.recursive(
    st.one_of(st.text(), st.integers(), st.booleans(), st.none(), _NUMBER,
              _ONE_TYPE),
    lambda inner: st.one_of(st.lists(inner), st.lists(inner).map(tuple),
                            st.dictionaries(st.text(), inner)),
    max_leaves=40)


@given(_REPORTS)
@example({"a": [Fraction(1, 3), Fraction(-2), Fraction(0)],
          "b": (-0.0, inf, -inf, nan, 5e-324, 0.1),
          "c": [True, 1, Fraction(1), 1.0, False, 0, None],
          "d": ((Fraction(1, 2), 0.5), [], (), {}), "e": Fraction(7, 2)})
@example([[Fraction(0), Fraction(-3, 6), Fraction(10 ** 30, 7)],
          [-0.0, 0.0, inf, -inf, nan, 5e-324, 0.1, 1e300]])
def test_dumps_json_writes_model_numbers_as_format_number_strings(obj):
    text = dumps_json(obj)
    assert text == json.dumps(_formatted(obj), sort_keys=True, indent=2)
    assert fileio.jsonable(obj) == json.loads(text)
    assert fileio.jsonable(obj) == json.loads(json.dumps(_formatted(obj)))


@pytest.mark.parametrize("other", [object(), {1, 2}, 1j, b"1", Decimal("0.5")])
def test_dumps_json_and_jsonable_refuse_any_other_type(other):
    for obj in (other, [other], {"a": [Fraction(1, 2), other]}, (1, other)):
        for write in (dumps_json, fileio.jsonable):
            with pytest.raises(ValidationError, match="cannot serialize"):
                write(obj)


def test_numbers_are_formatted_once_per_object_never_by_value():
    cells = [[0.0, -0.0, 1, Fraction(1), True, 1.0], [-0.0, True, 0.0]]
    calls = []
    text = _cell_strings(cells, lambda v: calls.append(v) or repr(v))
    assert text == [list(map(repr, row)) for row in cells]
    assert len(calls) == len({id(v) for row in cells for v in row})
    assert _cell_strings([[0.0, -0.0], [-0.0, 0.0]]) == [["0", "-0"], ["-0", "0"]]
    with pytest.raises(model.ValidationError, match="boolean"):
        _cell_strings([[1, Fraction(1), True]])
    assert model.common_integers([1, Fraction(1), True, Fraction(1, 2)]) == \
        ([2, 2, 2, 1], 2)


def test_a_reader_parses_each_string_of_a_row_once():
    read = _Reader(exact=False)
    row = read.numbers(["-0", "0", "-0", "1/4"])
    assert [str(v) for v in row] == ["-0.0", "0.0", "-0.0", "0.25"]
    assert row[0] is row[2] and read.numbers(["1/4"])[0] is row[3]
    # a number cell is read by its decimal text, as `number` reads it
    assert _Reader().numbers(["1", 1, 0.5]) == [1, 1, Fraction(1, 2)]


def test_space_round_trip(tmp_path):
    rng = random.Random(51)
    s = rand_space(rng, 5)
    assert space_from_obj(space_to_obj(s)) == s
    p = tmp_path / "s.json"
    save_space(s, str(p))
    assert load_space(str(p)) == s


def test_metric_and_vector_round_trip():
    rng = random.Random(53)
    s = rand_space(rng, 4)
    m = rand_metric(rng, s)
    assert metric_from_obj(metric_to_obj(m)) == m
    v = [Fraction(1, 3), Fraction(-2, 7)]
    assert vector_from_obj(vector_to_obj(v)) == v


def test_matrix_round_trips(tmp_path):
    rng = random.Random(55)
    xs, ys = rand_space(rng, 3, "x"), rand_space(rng, 4, "y")
    f = rand_function(rng, xs, ys)
    z = rand_set(rng, xs, ys)
    plan = Plan(xs, ys, [[Fraction(rng.randint(0, 3), 12) for _ in range(4)]
                         for _ in range(3)])
    signed = Plan(xs, ys, [[Fraction(rng.randint(-3, 3), 12) for _ in range(4)]
                           for _ in range(3)], signed=True)
    for obj in (f, z, plan, signed):
        text = dumps_matrix(obj)
        assert loads_matrix(text) == obj
        p = tmp_path / "m.csv"
        save_matrix(obj, str(p))
        assert load_matrix(str(p)) == obj
    for kind, obj in (("function", f), ("set", z), ("plan", plan),
                      ("plan", signed)):
        assert matrix_from_obj(kind, matrix_to_obj(obj)) == obj


@pytest.mark.parametrize("shape", [(3, 4), (1, 5), (5, 1), (2, 2)])
def test_a_set_read_from_csv_or_a_report_is_the_set_its_rows_give(shape):
    # the reader maps each cell to a bool by one lookup, and the set takes
    # those bools unscanned: it must equal the set built from the rows
    rng = random.Random(59)
    nx, ny = shape
    xs, ys = rand_space(rng, nx, "x"), rand_space(rng, ny, "y")
    for rows in ([[rng.randint(0, 1) for _ in range(ny)] for _ in range(nx)],
                 [[0] * ny] * nx, [[1] * ny] * nx):
        z = ProductSet(xs, ys, rows)
        for read in (loads_matrix(dumps_matrix(z)),
                     matrix_from_obj("set", matrix_to_obj(z)),
                     matrix_from_obj("set", json.loads(json.dumps(matrix_to_obj(z))))):
            assert read == z and hash(read) == hash(z)
            assert {type(c) for row in read.membership for c in row} == {bool}
            assert list(read.cells()) == list(z.cells())


def _fixture_corpus(tmp_path):
    rng = random.Random(57)
    n = 10
    s = DiscreteSpace.uniform(n)
    f = fn_on(s, s, lambda i, j: Fraction(1) if (i, j) == (0, 0) else Fraction(0))
    g = fn_on(s, s, lambda i, j: Fraction(i, 3 * n))
    z = ProductSet(s, s, [[i == j for j in range(n)] for i in range(n)])
    m4 = rand_space(rng, 4, "p")
    rho = rand_metric(rng, m4)
    paths = {}
    save_matrix(f, str(tmp_path / "f.csv"))
    save_matrix(g, str(tmp_path / "g.csv"))
    save_matrix(z, str(tmp_path / "z.csv"))
    from virtcont.fileio import save_metric
    save_metric(rho, str(tmp_path / "rho.json"))
    save_vector([Fraction(1, 2), Fraction(1, 4), Fraction(1, 8), Fraction(1, 8)],
                str(tmp_path / "mu1.json"))
    save_vector([Fraction(1, 4)] * 4, str(tmp_path / "mu2.json"))
    save_vector([Fraction(1, 2), Fraction(-1, 2), Fraction(0), Fraction(0)],
                str(tmp_path / "eta.json"))
    for name in ("f", "g", "z", "rho", "mu1", "mu2", "eta"):
        ext = "csv" if name in ("f", "g", "z") else "json"
        paths[name] = str(tmp_path / f"{name}.{ext}")
    return paths


def _jobs(p):
    return [
        ["thickness", p["z"]],
        ["tau", p["f"], p["g"]],
        ["srnorm", p["f"]],
        ["hall", p["z"]],
        ["transport", p["rho"], p["mu1"], p["mu2"]],
        ["krnorm", p["rho"], p["eta"]],
        ["stepfit", p["g"], "--blocks", "3", "--eps", "1/10"],
        ["vcprofile", p["g"], "--blocks", "3"],
        ["refine", "--family", "metric_kernel", "--grids", "4,8",
         "--blocks", "2"],
        ["matdist", p["rho"], "--order", "1"],
        ["matdist", p["rho"], "--order", "1", "--samples", "50"],
    ]


def test_cli_jobs_deterministic(tmp_path):
    paths = _fixture_corpus(tmp_path)
    for job in _jobs(paths):
        code1, out1 = _run(job)
        code2, out2 = _run(job)
        assert code1 == 0, job
        assert out1 == out2
        rep = json.loads(out1)
        assert rep["mode"] == "exact"


def test_cli_rational_output_stays_rational(tmp_path):
    paths = _fixture_corpus(tmp_path)
    code, out = _run(["srnorm", paths["f"]])
    assert code == 0
    rep = json.loads(out)
    assert rep["value"] == "1/10"
    code, out = _run(["thickness", paths["z"]])
    assert json.loads(out)["value"] == "1"
    code, out = _run(["tau", paths["g"], paths["g"]])
    assert json.loads(out)["value"] == "0"


def test_cli_float_mode(tmp_path):
    paths = _fixture_corpus(tmp_path)
    code, out = _run(["srnorm", paths["f"], "--mode", "float"])
    assert code == 0
    rep = json.loads(out)
    assert float(rep["value"]) == pytest.approx(0.1)
    assert rep["mode"] == "float"


@pytest.mark.parametrize("eps", ["inf", "1e400"])
def test_cli_float_stepfit_at_an_infinite_eps_passes_its_check(tmp_path, eps):
    # inf - inf is NaN: the fit's eps and the reported one are still equal
    g = _fixture_corpus(tmp_path)["g"]
    code, out = _run(["--mode", "float", "stepfit", g, "--blocks", "1",
                      "--eps", eps])
    assert code == 0
    rep = json.loads(out)
    assert rep["found"] is True
    assert rep["epsilon"] == rep["fit"]["epsilon"] == "inf"
    rp = tmp_path / "inf.json"
    rp.write_text(out)
    code, out = _run(["check", str(rp)])
    assert code == 0 and json.loads(out)["violations"] == []


def test_cli_float_srnorm_writes_no_negative_zero(tmp_path):
    # max-profit duals clamped with max(x, 0.0) kept -0.0 (max returns the
    # first of equal values): this majorant's b was written ["1", "-0"]
    s = DiscreteSpace.uniform(2)
    f = tmp_path / "f.csv"
    save_matrix(ProductFunction(s, s, [[1, 0], [2, 0]]), str(f))
    code, out = _run(["--mode", "float", "srnorm", str(f)])
    assert code == 0
    assert '"-0"' not in out
    rp = tmp_path / "r.json"
    rp.write_text(out)
    assert _run(["check", str(rp)])[0] == 0


def test_cli_float_refine_reports_floats():
    job = ["refine", "--family", "separable_smooth", "--grids", "2,4",
           "--blocks", "1"]
    code, out = _run(job)
    assert code == 0
    exact_rows = json.loads(out)["table"]
    assert [row["value"] for row in exact_rows] == ["1/4", "3/16"]
    code, out = _run(["--mode", "float"] + job)
    assert code == 0
    rep = json.loads(out)
    assert rep["mode"] == "float"
    assert [row["value"] for row in rep["table"]] == ["0.25", "0.1875"]
    for row, exact_row in zip(rep["table"], exact_rows):
        assert {**row, "value": None} == {**exact_row, "value": None}


@pytest.mark.parametrize("tol", ["inf", "1e300", "1", "nan"])
def test_cli_rejects_tolerance_outside_unit_interval(tmp_path, tol):
    # a float thickness report whose value is forged far above any mass
    paths = _fixture_corpus(tmp_path)
    code, out = _run(["--mode", "float", "thickness", paths["z"]])
    assert code == 0
    rep = json.loads(out)
    rep["value"] = "100"
    rp = tmp_path / "forged.json"
    rp.write_text(json.dumps(rep))
    code, out = _run(["--tol", "0.5", "check", str(rp)])
    assert code == 2 and json.loads(out)["violations"]
    _run_failing(["--tol", tol, "check", str(rp)])


def _self_checked_jobs(p):
    return [job for job in _jobs(p)
            if job[0] != "refine" and "--samples" not in job]


def test_cli_check_round_trip(tmp_path):
    paths = _fixture_corpus(tmp_path)
    jobs = _self_checked_jobs(paths)
    assert sorted({job[0] for job in jobs}) == sorted(
        ["thickness", "hall", "tau", "srnorm", "transport", "krnorm",
         "stepfit", "vcprofile", "matdist"])
    for mode in ("exact", "float"):
        for job in jobs:
            code, out = _run(job + ["--mode", mode])
            assert code == 0, (mode, job)
            rp = tmp_path / "report.json"
            rp.write_text(out)
            code, out2 = _run(["check", str(rp)])
            assert code == 0, (mode, job)
            assert json.loads(out2)["violations"] == []


def test_the_self_check_reads_the_bytes_the_job_prints(tmp_path, monkeypatch,
                                                      capsys):
    # a writer that gets one certificate number wrong, still as valid JSON:
    # the job exits 2 and prints nothing, since it checks what it would print
    paths = _fixture_corpus(tmp_path)
    write = fileio.dumps_json

    def wrong(rep, *args):
        obj = json.loads(write(rep, *args))
        a = obj["majorant"]["a"]
        a[0] = format_number(Fraction(a[0]) + 1)
        return json.dumps(obj, sort_keys=True, indent=2)

    for mode in ("exact", "float"):
        argv = ["--mode", mode, "srnorm", paths["f"]]
        assert main(argv) == 0
        capsys.readouterr()
        with monkeypatch.context() as m:
            m.setattr(cli, "dumps_json", wrong)
            assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("internal invariant violation:\n"), err


def test_every_command_but_refine_and_check_has_a_checker():
    # a check row for no command would never run; a command without one
    # emits its report unchecked
    assert set(checkers._CHECKS) <= set(cli._COMMANDS)
    assert set(cli._COMMANDS) - set(checkers._CHECKS) == {"refine", "check"}


def _tamper_krnorm_potential(rep):
    rep["potential"][1] = "100"


def _tamper_krnorm_plan(rep):
    rep["plan"][0][0] = "1/3"


def _tamper_hall_cover(rep):
    rep["cover_x"], rep["cover_y"] = [], []


def _tamper_transport_plan(rep):
    # move the mass of one cell to its neighbour in the same row
    mass = rep["plan"]["mass"]
    mass[0][1] = str(Fraction(mass[0][0]) + Fraction(mass[0][1]))
    mass[0][0] = "0"


def _tamper_thickness_plan(rep):
    _tamper_transport_plan(rep)   # the set is the diagonal: (0, 1) is off it


def _tamper_tau_witness(rep):
    rep["witness_set_thickness"] = "1/2"


# The violations each tampered report gets, as `check` lists them in exact
# mode and, where a message prints a number, in float mode.
_LIPSCHITZ_AT_1 = [f"potential not 1-Lipschitz at ({i},{j})"
                   for i, j in ((0, 1), (1, 0), (1, 2), (1, 3), (2, 1), (3, 1))]
_NOT_COVERED = [f"cell ({i},{i}) not covered" for i in range(10)]
_BELOW_1 = [f"fractional pair below 1 on cell ({i},{i})" for i in range(10)]
_TAMPERED = [
    ("krnorm", _tamper_krnorm_potential,
     _LIPSCHITZ_AT_1 + ["complementary slackness residual 617/6",
                        "dual pairing != cost"],
     _LIPSCHITZ_AT_1 + ["complementary slackness residual 102.83333333333333",
                        "dual pairing != cost"]),
    ("krnorm", _tamper_krnorm_plan,
     ["plan row marginals != mu1", "plan column marginals != mu2"], None),
    ("hall", _tamper_hall_cover,
     _NOT_COVERED + ["cover weight 0 != reported value 1"],
     _NOT_COVERED + ["cover weight 0 != reported value 0.9999999999999999"]),
    ("transport", _tamper_transport_plan,
     ["plan column marginals != mu2", "plan cost != reported cost"], None),
    ("thickness", _tamper_thickness_plan,
     ["witness plan is not subbistochastic",
      "witness plan carries mass off the set",
      "witness plan mass != cover weight (duality gap)"], None),
    ("tau", _tamper_tau_witness,
     ["witness thickness does not match the exceedance set"], None),
]


def _check_tampered(tmp_path, jobs, kind, mode, tamper):
    """`check` on the report of jobs[kind] in `mode`, after `tamper`."""
    code, out = _run(jobs[kind] + ["--mode", mode])
    assert code == 0
    rep = json.loads(out)
    before = json.dumps(rep, sort_keys=True)
    tamper(rep)
    assert json.dumps(rep, sort_keys=True) != before, tamper.__name__
    rp = tmp_path / "tampered.json"
    rp.write_text(json.dumps(rep))
    code, out = _run(["check", str(rp)])
    assert code == 2, tamper.__name__
    return json.loads(out)["violations"]


def test_cli_check_rejects_tampered_certificates(tmp_path):
    paths = _fixture_corpus(tmp_path)
    jobs = {job[0]: job for job in _self_checked_jobs(paths)}
    for kind, tamper, exact, in_float in _TAMPERED:
        for mode, expected in (("exact", exact), ("float", in_float or exact)):
            assert _check_tampered(tmp_path, jobs, kind, mode, tamper) \
                == expected, (mode, tamper.__name__)


def test_cli_check_reads_report_plans_as_unsigned(tmp_path):
    # on a set of thickness 1/2, a signed "plan" is bistochastic with mass 1
    s = DiscreteSpace.uniform(2)
    save_matrix(ProductSet(s, s, [[1, 0], [0, 0]]), str(tmp_path / "z.csv"))
    code, out = _run(["hall", str(tmp_path / "z.csv")])
    assert code == 0
    rep = json.loads(out)
    rep.update(mass="1", thickness_value="1", cover_x=[0], cover_y=[0])
    rep["plan"]["mass"] = [["1", "-1/2"], ["-1/2", "1"]]
    rp = tmp_path / "forged.json"
    for plan in (dict(rep["plan"], signed=True), rep["plan"]):
        rp.write_text(json.dumps(dict(rep, plan=plan)))
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code, out = _run(["check", str(rp)])
        assert code == 1 and out == ""
        assert err.getvalue().startswith("error: ")
        assert err.getvalue().count("\n") == 1


def test_cli_krnorm_rejects_vector_of_wrong_length(tmp_path):
    paths = _fixture_corpus(tmp_path)
    save_vector([Fraction(0)] * 3, str(tmp_path / "short.json"))
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code, out = _run(["krnorm", paths["rho"], str(tmp_path / "short.json")])
    assert code == 1 and out == ""
    assert err.getvalue().startswith("error: ")


def test_cli_check_rejects_tampered_report(tmp_path):
    paths = _fixture_corpus(tmp_path)
    _, out = _run(["srnorm", paths["f"]])
    rep = json.loads(out)
    rep["value"] = "1/7"
    rp = tmp_path / "bad.json"
    rp.write_text(json.dumps(rep))
    code, _ = _run(["check", str(rp)])
    assert code == 2


def test_cli_error_exit_codes(tmp_path):
    paths = _fixture_corpus(tmp_path)
    assert _run(["thickness", str(tmp_path / "missing.csv")])[0] == 1
    # unbalanced transport marginals are an input error
    save_vector([Fraction(1, 2)] * 4, str(tmp_path / "heavy.json"))
    assert _run(["transport", paths["rho"], paths["mu1"],
                 str(tmp_path / "heavy.json")])[0] == 1
    with pytest.raises(SystemExit) as exc:
        _run(["nonsense"])
    assert exc.value.code == 1


def test_cli_text_and_csv_formats(tmp_path):
    paths = _fixture_corpus(tmp_path)
    code, out = _run(["thickness", paths["z"], "--format", "text"])
    assert code == 0 and "value: 1\n" in out
    code, out = _run(["refine", "--family", "metric_kernel", "--grids", "4,8",
                      "--blocks", "2", "--format", "csv"])
    assert code == 0 and out.splitlines()[0].startswith("n,")


def test_cli_csv_renders_plans(tmp_path):
    paths = _fixture_corpus(tmp_path)
    for argv in _jobs(paths):
        if argv[0] in ("thickness", "hall", "transport"):
            code, out = _run(argv + ["--format", "csv"])
            plan = json.loads(_run(argv)[1])["plan"]
            rows = [line.split(",") for line in out.splitlines()]
            assert code == 0
            assert rows[0] == [""] + plan["y_space"]["labels"]
            assert [row[1:] for row in rows[1:]] == plan["mass"]


@pytest.mark.parametrize("command", ["tau", "srnorm", "krnorm", "stepfit",
                                     "vcprofile", "matdist", "check"])
def test_cli_csv_without_a_rendering_exits_1(tmp_path, capsys, command):
    # the job runs, but only a plan or a refine table has a csv rendering
    paths = _fixture_corpus(tmp_path)
    if command == "check":
        report = tmp_path / "report.json"
        report.write_text(_run(["thickness", paths["z"]])[1])
        argv = ["check", str(report)]
    else:
        argv = next(a for a in _jobs(paths) if a[0] == command)
    capsys.readouterr()
    assert main(argv + ["--format", "csv"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_console_script_entry_point(tmp_path):
    paths = _fixture_corpus(tmp_path)
    proc = subprocess.run([sys.executable, "-m", "virtcont.cli",
                           "thickness", paths["z"]],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["value"] == "1"


def test_cli_main_called_again_prints_what_a_fresh_process_prints(tmp_path):
    # `main` builds its parser once per process; no call may leave a parsed
    # value or a rejected invocation behind for the next one
    p = _fixture_corpus(tmp_path)
    argvs = [["--mode", "float", "srnorm", p["f"]],
             ["srnorm", p["f"], "--mode", "float"],
             ["srnorm", p["f"]],
             ["--format", "text", "thickness", p["z"]],
             ["srnorm", p["f"], "--blocks", "2"],
             ["krnorm", p["rho"], p["eta"]]]
    codes = []
    for argv in argvs:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            try:
                code = main(argv)
            except SystemExit as e:   # argparse rejects the invocation
                code = e.code
        fresh = subprocess.run([sys.executable, "-m", "virtcont.cli", *argv],
                               capture_output=True, text=True)
        assert (code, out.getvalue()) == (fresh.returncode, fresh.stdout), argv
        codes.append(code)
    assert codes == [0, 0, 0, 0, 1, 0]


def _counted_metric_validations(monkeypatch):
    """The list that each `validate_semimetric` call appends its arguments
    to, counted through every module binding, as perfbench's tracer does."""
    calls = []
    original = model.validate_semimetric

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for name in ["virtcont"] + [f"virtcont.{m.name}" for m in
                                pkgutil.iter_modules(virtcont.__path__)]:
        mod = importlib.import_module(name)
        for attr, val in list(vars(mod).items()):
            if val is original:
                monkeypatch.setattr(mod, attr, counted)
    return calls


def test_a_metric_is_validated_where_it_enters_not_in_the_solver(tmp_path,
                                                                 monkeypatch):
    calls = _counted_metric_validations(monkeypatch)

    def validations(argv):
        calls.clear()
        code, out = _run(argv)
        assert code == 0, argv
        return len(calls), out

    p = _fixture_corpus(tmp_path)
    # at load only: the self-check reads the report through the job's reader,
    # which has validated the metric it embeds
    count, out = validations(["transport", p["rho"], p["mu1"], p["mu2"]])
    assert count == 1
    assert validations(["krnorm", p["rho"], p["eta"]])[0] == 1
    rp = tmp_path / "transport.json"
    rp.write_text(out)
    assert validations(["check", str(rp)])[0] == 1
    rho, mu1, mu2 = (load_metric(p["rho"]), load_vector(p["mu1"]),
                     load_vector(p["mu2"]))
    calls.clear()
    kantorovich(mu1, mu2, rho)
    kr_norm([a - b for a, b in zip(mu1, mu2)], rho)
    assert calls == []


def test_a_float_report_reads_back_its_metric_validated(tmp_path, monkeypatch):
    calls = _counted_metric_validations(monkeypatch)
    p = _fixture_corpus(tmp_path)
    # the inputs give weights and distances as "p/q" strings, the report as
    # doubles; its self-check matches the metric to the input's by value
    code, out = _run(["--mode", "float", "transport", p["rho"], p["mu1"], p["mu2"]])
    assert code == 0 and len(calls) == 1
    read = _Reader(exact=False)
    load_metric(p["rho"], exact=False, read=read)
    rep = json.loads(out)
    calls.clear()
    assert check_report(rep, read=read) == [] and calls == []
    # a report whose metric differs in one cell is validated, and rejected
    rep["inputs"]["metric"]["dist"][0][1] = "100"
    with pytest.raises(ValidationError, match="invalid semimetric"):
        check_report(rep, read=read)
    assert len(calls) == 1


def test_a_reader_validates_each_other_metric_a_report_embeds(tmp_path,
                                                              monkeypatch):
    p = _fixture_corpus(tmp_path)
    _, out = _run(["transport", p["rho"], p["mu1"], p["mu2"]])
    read = _Reader()
    load_metric(p["rho"], read=read)
    calls = []
    original = fileio.validate_semimetric
    monkeypatch.setattr(fileio, "validate_semimetric",
                        lambda m: calls.append(m) or original(m))
    rep = json.loads(out)
    assert check_report(rep, read=read) == [] and calls == []
    # metric B: every distance doubled, on the same space
    dist = rep["inputs"]["metric"]["dist"]
    rep["inputs"]["metric"]["dist"] = [[str(2 * Fraction(d)) for d in row]
                                       for row in dist]
    assert check_report(rep, read=read) and len(calls) == 1
    # an asymmetric metric B is rejected
    rep["inputs"]["metric"]["dist"] = [row[:] for row in dist]
    rep["inputs"]["metric"]["dist"][0][1] = "100"
    with pytest.raises(ValidationError, match="invalid semimetric"):
        check_report(rep, read=read)
    assert len(calls) == 2


def test_a_space_is_read_once_per_json_text_not_per_equal_object(tmp_path):
    # [1] == [true] in Python, but only the first is a list of weights
    good = {"labels": ["a"], "weights": [1]}
    bad = {"labels": ["a"], "weights": [True]}
    f, g, h = (tmp_path / n for n in ("f.csv", "g.csv", "h.csv"))
    f.write_text(json.dumps({"kind": "function", "x_space": good,
                             "y_space": good}) + "\n,a\na,0\n")
    g.write_text(json.dumps({"kind": "function", "x_space": good,
                             "y_space": bad}) + "\n,a\na,0\n")
    h.write_text(json.dumps({"kind": "function", "x_space": bad,
                             "y_space": bad}) + "\n,a\na,0\n")
    assert _run(["srnorm", str(f)])[0] == 0
    assert str(g) in _run_failing(["srnorm", str(g)])
    # two files of one job share its reader
    assert str(h) in _run_failing(["tau", str(f), str(h)])


def test_cli_jobs_in_one_process_share_no_validated_metric(tmp_path):
    p = _fixture_corpus(tmp_path)
    obj = json.loads(Path(p["rho"]).read_text())
    obj["dist"][0][1] = "100"
    bad = tmp_path / "asymmetric.json"
    bad.write_text(json.dumps(obj))
    assert _run(["transport", p["rho"], p["mu1"], p["mu2"]])[0] == 0
    err = _run_failing(["transport", str(bad), p["mu1"], p["mu2"]])
    assert str(bad) in err and "invalid semimetric" in err


def test_cli_check_report_missing_inputs_exits_1(tmp_path):
    paths = _fixture_corpus(tmp_path)
    _, out = _run(["thickness", paths["z"]])
    rep = json.loads(out)
    rp = tmp_path / "bad.json"
    # a missing key, and a mode that is neither exact nor float
    for key, value in (("inputs", None), ("mode", "banana"), ("mode", None)):
        bad = dict(rep)
        if value is None:
            del bad[key]
        else:
            bad[key] = value
        rp.write_text(json.dumps(bad))
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code, out = _run(["check", str(rp)])
        assert code == 1 and out == ""
        assert err.getvalue().startswith("error: malformed thickness report")
    rp.write_text(json.dumps([rep]))
    with contextlib.redirect_stderr(io.StringIO()):
        assert _run(["check", str(rp)])[0] == 1
    # a command that is a list or an object names no checker
    for command in ([], {}, ["thickness"]):
        rp.write_text(json.dumps({"command": command, "mode": "exact"}))
        assert "no certificate checker" in _run_failing(["check", str(rp)])
    # a tau report whose g has another shape than its f
    _, out = _run(["tau", paths["f"], paths["g"]])
    bad = json.loads(out)
    one_atom = {"labels": ["a"], "weights": ["1"]}
    bad["inputs"]["g"].update(x_space=one_atom, y_space=one_atom, values=[["0"]])
    rp.write_text(json.dumps(bad))
    assert "factor dimension mismatch" in _run_failing(["check", str(rp)])
    # a cover entry is an atom index 0..n-1 of its side: -1 is not atom n-1,
    # nor is `true` atom 1, and neither is a float or a string
    for kind in ("thickness", "hall"):
        _, out = _run([kind, paths["z"]])
        for key in ("cover_x", "cover_y"):
            for entry in (-1, True, False, 10, 2.0, "0", None, [0]):
                bad = json.loads(out)
                bad[key] = [0, 1, 2, entry]
                rp.write_text(json.dumps(bad))
                assert _run_failing(["check", str(rp)]) == \
                    f"error: {key} entries must be atom indices 0..9\n", (kind, entry)


def test_cli_check_rejects_vcprofile_value_not_witness_epsilon(tmp_path):
    paths = _fixture_corpus(tmp_path)
    code, out = _run(["vcprofile", paths["g"], "--blocks", "3"])
    assert code == 0
    rep = json.loads(out)
    assert rep["value"] == rep["witness"]["epsilon"] != "0"
    rep["value"] = "0"
    rp = tmp_path / "vc.json"
    rp.write_text(json.dumps(rep))
    code, out = _run(["check", str(rp)])
    assert code == 2
    assert "reported value != witness epsilon" in json.loads(out)["violations"]


def _run_failing(argv):
    """Run a job that must fail as an input error: exit 1, one `error:` line."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code, out = _run(argv)
    assert code == 1 and out == "", argv
    assert err.getvalue().startswith("error: "), argv
    assert err.getvalue().count("\n") == 1, argv
    assert "Traceback" not in err.getvalue()
    return err.getvalue()


def test_cli_float_literal_beyond_float_range_exits_1(tmp_path):
    # a "p/q" past float range fits no double: in float mode, an input file
    # or a report that holds one is an input error, never a traceback
    huge = Fraction(10 ** 400, 3)
    s = DiscreteSpace.uniform(2)
    path = str(tmp_path / "huge.csv")
    save_matrix(fn_on(s, s, lambda i, j: huge if i == j == 0 else Fraction(0)),
                path)
    assert "bad numeric literal" in _run_failing(["--mode", "float", "srnorm", path])
    code, out = _run(["--mode", "float", "srnorm", _fixture_corpus(tmp_path)["f"]])
    assert code == 0
    rep = json.loads(out)
    rep["value"] = str(huge)
    rp = tmp_path / "forged.json"
    rp.write_text(json.dumps(rep))
    assert "bad numeric literal" in _run_failing(["check", str(rp)])


@pytest.mark.parametrize("cell", ["1e5000", "-1e-5000", "1e10000000"])
def test_cli_exact_literal_past_the_digit_limit_exits_1_at_once(tmp_path, cell):
    # str() prints no int past sys.get_int_max_str_digits() digits, so such
    # a value could not be written back; and 10 ** 10000000 alone takes
    # seconds, so the exponent is weighed before it is formed
    s = DiscreteSpace.uniform(2)
    path = tmp_path / "big.csv"
    path.write_text(dumps_matrix(fn_on(s, s, lambda i, j: 7 if i == j == 0 else 0))
                    .replace("7", cell))
    proc = subprocess.run([sys.executable, "-m", "virtcont.cli", "srnorm", str(path)],
                          capture_output=True, text=True, timeout=20)
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr.startswith(f"error: {path}: bad numeric literal {cell!r}")
    assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr
    # a report that holds one is malformed too
    _, out = _run(["thickness", _fixture_corpus(tmp_path)["z"]])
    rep = json.loads(out)
    rep["value"] = cell
    rp = tmp_path / "forged.json"
    rp.write_text(json.dumps(rep))
    assert "bad numeric literal" in _run_failing(["check", str(rp)])


def test_cli_check_rejects_set_cells_other_than_0_or_1(tmp_path):
    paths = _fixture_corpus(tmp_path)
    _, out = _run(["thickness", paths["z"]])
    rep = json.loads(out)
    rp = tmp_path / "bad-set.json"
    # equal to 0 or 1, or printing so after a strip, is not enough
    for cell in (2, [0], True, False, 1.0, None, " 1"):
        bad = json.loads(out)
        bad["inputs"]["set"]["membership"][0][1] = cell
        rp.write_text(json.dumps(bad))
        assert _run_failing(["check", str(rp)]) == \
            "error: set cells must be 0 or 1\n"
    # cells as the strings a CSV file holds, and a row mixing both forms
    for cells in (lambda row: list(map(str, row)),
                  lambda row: [str(c) if k % 2 else c for k, c in enumerate(row)]):
        good = json.loads(out)
        good["inputs"]["set"]["membership"] = list(
            map(cells, rep["inputs"]["set"]["membership"]))
        rp.write_text(json.dumps(good))
        assert _run(["check", str(rp)])[0] == 0
    # a CSV set file whose cell spells a JSON bool
    header, col_row, first, *rows = Path(paths["z"]).read_text().splitlines()
    label, *cells = first.split(",")
    bad_csv = tmp_path / "bad-set.csv"
    first = ",".join([label, "true"] + cells[1:])
    bad_csv.write_text("\n".join([header, col_row, first] + rows) + "\n")
    assert _run_failing(["thickness", str(bad_csv)]) == \
        f"error: {bad_csv}: set cells must be 0 or 1\n"
    # a row spelled as a string of cells is not a row
    bad = json.loads(out)
    bad["inputs"]["set"]["membership"][0] = "".join(
        str(c) for c in rep["inputs"]["set"]["membership"][0])
    rp.write_text(json.dumps(bad))
    assert _run_failing(["check", str(rp)]) == \
        "error: matrix rows must be lists of cells\n"
    rp.write_text(json.dumps(rep))
    assert _run(["check", str(rp)])[0] == 0


def test_cli_malformed_input_files_exit_1(tmp_path):
    paths = _fixture_corpus(tmp_path)
    metric = json.loads(Path(paths["rho"]).read_text())
    space = metric["space"]
    labels = [[label] for label in space["labels"]]
    csv_body = Path(paths["f"]).read_text().split("\n", 1)[1]
    files = {
        "vector.json": json.dumps({"values": 5}),
        "dist.json": json.dumps(dict(metric, dist=3)),
        "weights.json": json.dumps(dict(metric, space=dict(space, weights=1))),
        "labels.json": json.dumps(dict(metric, space=dict(space, labels=labels))),
        "list-header.csv": "[1]\n" + csv_body,
        "str-header.csv": '"set"\n' + csv_body,
    }
    # a function matrix file broken in each way that `loads_matrix` rejects
    header, col_row, *rows = Path(paths["f"]).read_text().splitlines()
    broken = {
        "empty.csv": ([], "empty matrix file"),
        "short.csv": ([header, col_row] + rows[:-1], "data rows"),
        "columns.csv": ([header, col_row + ",extra"] + rows,
                        "column header does not match Y labels"),
        "order.csv": ([header, col_row, rows[1], rows[0]] + rows[2:],
                      "out of order"),
        "cells.csv": ([header, col_row, rows[0] + ",0"] + rows[1:],
                      "wrong cell count"),
    }
    for name, (lines, message) in broken.items():
        bad = str(tmp_path / name)
        (tmp_path / name).write_text("".join(line + "\n" for line in lines))
        err = _run_failing(["srnorm", bad])
        assert bad in err and message in err, err
    # a matrix of the other kind than the command reads
    assert "srnorm expects a function matrix" in _run_failing(["srnorm", paths["z"]])
    assert "thickness expects a set matrix" in _run_failing(["thickness", paths["f"]])
    for name, text in files.items():
        bad = str(tmp_path / name)
        (tmp_path / name).write_text(text)
        if name == "vector.json":
            job = ["krnorm", paths["rho"], bad]
        elif name.endswith(".json"):
            job = ["transport", bad, paths["mu1"], paths["mu2"]]
        else:
            job = ["srnorm", bad]
        assert bad in _run_failing(job)
    # a metric whose space repeats a label, or has no atoms
    one_label = space["labels"][:1] * len(space["labels"])
    for name, bad_metric, message in (
            ("duplicate-labels.json",
             dict(metric, space=dict(space, labels=one_label)), "duplicate label"),
            ("no-atoms.json",
             dict(metric, space={"labels": [], "weights": []}, dist=[]),
             "space has no atoms")):
        bad = tmp_path / name
        bad.write_text(json.dumps(bad_metric))
        assert _run_failing(["transport", str(bad), paths["mu1"], paths["mu2"]]) \
            == f"error: {bad}: {message}\n"


def test_cli_lists_given_as_strings_or_objects_exit_1(tmp_path):
    # each of these was once read element by element, and its job exited 0
    s3 = DiscreteSpace(["a", "b", "c"], [Fraction(1, 3)] * 3)
    save_metric(MetricMatrix(s3, [[Fraction(int(i != j)) for j in range(3)]
                                  for i in range(3)]), str(tmp_path / "rho3.json"))
    rho3 = json.loads((tmp_path / "rho3.json").read_text())
    mu = str(tmp_path / "mu.json")
    save_vector([Fraction(1, 3)] * 3, mu)
    save_vector([Fraction(1)], str(tmp_path / "one.json"))
    files = {
        "values-str.json": ({"kind": "vector", "values": "100"}, "values"),
        "values-obj.json": ({"kind": "vector",
                             "values": {"1/3": 0, "2/3": 1, "0": 2}}, "values"),
        "weights-str.json": ({"kind": "metric", "dist": [["0"]],
                              "space": {"labels": ["a"], "weights": "1"}},
                             "weights"),
        "labels-str.json": (dict(rho3, space=dict(rho3["space"], labels="abc")),
                            "labels"),
        # on 3 atoms, rows of digits once read as the discrete metric
        "dist-rows-str.json": (dict(rho3, dist=["011", "101", "110"]), "dist"),
    }
    one_atom = {"labels": ["a"], "weights": ["1"]}
    for tag, dist in (("str", "0"), ("row-str", ["0"]), ("obj", {"0": 1})):
        files[f"dist-{tag}-1.json"] = (
            {"kind": "metric", "space": one_atom, "dist": dist}, "dist")
    for name, (obj, key) in files.items():
        bad = str(tmp_path / name)
        (tmp_path / name).write_text(json.dumps(obj))
        if name.startswith("values"):
            job = ["transport", str(tmp_path / "rho3.json"), bad, mu]
        elif name.startswith("weights") or name.endswith("-1.json"):
            job = ["transport", bad] + [str(tmp_path / "one.json")] * 2
        else:
            job = ["transport", bad, mu, mu]
        err = _run_failing(job)
        assert bad in err and repr(key) in err, err
    # a report's potential spelled as a string of digits is malformed
    nu = str(tmp_path / "nu.json")
    save_vector([Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)], nu)
    code, out = _run(["transport", str(tmp_path / "rho3.json"), mu, nu])
    assert code == 0
    rep = json.loads(out)
    rep["potential"] = "000"
    rp = tmp_path / "potential-str.json"
    rp.write_text(json.dumps(rep))
    assert "potential" in _run_failing(["check", str(rp)])
    # and so is its metric's distance matrix with rows spelled as strings
    rep = json.loads(out)
    rep["inputs"]["metric"]["dist"] = ["".join(row) for row in
                                       rep["inputs"]["metric"]["dist"]]
    rp = tmp_path / "dist-rows-str.json"
    rp.write_text(json.dumps(rep))
    assert "'dist'" in _run_failing(["check", str(rp)])


def _without(key, name):
    """The text of the corpus file `name` with `key` dropped from its JSON
    object (from the header line of a CSV matrix file)."""
    def text(p):
        text = Path(p[name]).read_text()
        head, *body = text.split("\n", 1) if p[name].endswith(".csv") else [text]
        obj = json.loads(head)
        del obj[key]
        return "\n".join([json.dumps(obj), *body])
    return text


# Input errors of each reader and flag check: argv (over the corpus paths and
# the broken file "bad"), the broken file's name and text, and the message.
_INPUT_ERRORS = {
    "stepfit-blocks-0": (["stepfit", "{g}", "--blocks", "0", "--eps", "1"],
                         None, "block count must be at least 1"),
    "stepfit-eps-0": (["stepfit", "{g}", "--blocks", "1", "--eps", "0"],
                      None, "eps must be positive"),
    "vcprofile-blocks-0": (["vcprofile", "{g}", "--blocks", "0"],
                           None, "block count must be at least 1"),
    "refine-grids-8,4": (["refine", "--family", "metric_kernel", "--grids",
                          "8,4", "--blocks", "1"],
                         None, "grid sizes must be ascending"),
    "refine-blocks-0": (["refine", "--family", "metric_kernel", "--grids",
                         "4,8", "--blocks", "0"],
                        None, "block count must be at least 1"),
    "matdist-order-0": (["matdist", "{rho}", "--order", "0"],
                        None, "matrix order must be at least 1"),
    "matdist-samples-0": (["matdist", "{rho}", "--order", "1", "--samples", "0"],
                          None, "count must be at least 1"),
    "vector-bad-json": (["krnorm", "{rho}", "{bad}"],
                        ("bad.json", lambda p: '{"values": [1'), "bad JSON"),
    "vector-no-values": (["krnorm", "{rho}", "{bad}"],
                         ("bad.json", _without("values", "eta")),
                         "vector object needs 'values'"),
    "metric-no-space": (["transport", "{bad}", "{mu1}", "{mu2}"],
                        ("bad.json", _without("space", "rho")),
                        "metric object needs 'space' and 'dist'"),
    "metric-no-dist": (["transport", "{bad}", "{mu1}", "{mu2}"],
                       ("bad.json", _without("dist", "rho")),
                       "metric object needs 'space' and 'dist'"),
    "matrix-no-x_space": (["srnorm", "{bad}"],
                          ("bad.csv", _without("x_space", "f")),
                          "space object needs 'labels' and 'weights'"),
}


@pytest.mark.parametrize("case", sorted(_INPUT_ERRORS))
def test_cli_input_errors_exit_1_with_one_line(tmp_path, case):
    argv, bad, message = _INPUT_ERRORS[case]
    p = _fixture_corpus(tmp_path)
    if bad is not None:
        name, text = bad
        p["bad"] = str(tmp_path / name)
        Path(p["bad"]).write_text(text(p))
        message = f"{p['bad']}: {message}"
    assert _run_failing([a.format(**p) for a in argv]).startswith(
        f"error: {message}")


@pytest.mark.parametrize("flags", [
    ["stepfit", "--blocks", "1", "--eps", "abc"],
    ["stepfit", "--blocks", "1", "--eps", "1/0"],
    ["stepfit", "--blocks", "1", "--eps", "nan"],
    ["refine", "--family", "metric_kernel", "--grids", "0,4", "--blocks", "1"],
    ["refine", "--family", "metric_kernel", "--grids", "-3", "--blocks", "1"],
    ["refine", "--family", "metric_kernel", "--grids", "4,x", "--blocks", "1"],
], ids=["eps-abc", "eps-1/0", "eps-nan", "grids-0,4", "grids--3", "grids-4,x"])
def test_cli_malformed_numeric_flags_exit_1(tmp_path, flags):
    if flags[0] == "stepfit":
        flags = flags[:1] + [_fixture_corpus(tmp_path)["g"]] + flags[1:]
    _run_failing(flags)
