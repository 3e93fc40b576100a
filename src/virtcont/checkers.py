"""Solver-independent re-verification of emitted reports.

Every duality-backed report carries both sides of the duality (a cover and a
plan, a majorant and a plan, a plan and a potential).  Checking feasibility
of both sides plus value equality certifies optimality by weak duality, with
no reference to how the solver found them.
"""

from __future__ import annotations

from .fileio import _malformed, _parse_weight, matrix_from_obj, metric_from_obj
from .model import (DEFAULT_TOL, SeparableMajorant, ValidationError, close,
                    level_set, nonneg)
from .srnorm import SrNormResult, verify_sr_certificates
from .thickness import ThicknessResult, thickness, verify_thickness_result
from .transport import TransportResult, verify_transport_result
from .vcdiag import StepFit, step_fit_violations


def _nums(seq, exact):
    return [_parse_weight(v, exact) for v in seq]


def _plan(obj, exact):
    """A report's plan.  No command emits a signed plan, so a report that
    declares one is read as unsigned and any negative mass is rejected."""
    return matrix_from_obj("plan", {**obj, "signed": False}, exact)


def _check_thickness(rep, exact, tol):
    z = matrix_from_obj("set", rep["inputs"]["set"], exact)
    value = _parse_weight(rep["value"], exact)
    res = ThicknessResult(value, list(rep["cover_x"]), list(rep["cover_y"]),
                          _nums(rep["fractional_f"], exact),
                          _nums(rep["fractional_g"], exact), [], [])
    problems = verify_thickness_result(z, res, tol)
    plan = _plan(rep["plan"], exact)
    if not plan.is_subbistochastic(tol):
        problems.append("witness plan is not subbistochastic")
    on_z = sum((plan.mass[i][j] for (i, j) in z.cells()), plan.mass[0][0] * 0)
    if not close(sum(plan.abs_row_marginals()), on_z, tol):
        problems.append("witness plan carries mass off the set")
    if not close(on_z, value, tol):
        problems.append("witness plan mass != cover weight (duality gap)")
    return problems


def _check_hall(rep, exact, tol):
    z = matrix_from_obj("set", rep["inputs"]["set"], exact)
    mass = _parse_weight(rep["mass"], exact)
    th = _parse_weight(rep["thickness_value"], exact)
    plan = _plan(rep["plan"], exact)
    problems = []
    if not plan.is_bistochastic(tol):
        problems.append("plan is not bistochastic")
    on_z = sum((plan.mass[i][j] for (i, j) in z.cells()), plan.mass[0][0] * 0)
    if not close(on_z, mass, tol):
        problems.append("plan mass on set != reported mass")
    if not close(mass, th, tol):
        problems.append("mass != thickness value")
    cx, cy = set(rep["cover_x"]), set(rep["cover_y"])
    one, zero = th * 0 + 1, th * 0
    cover = ThicknessResult(th, list(cx), list(cy),
                            [one if i in cx else zero for i in range(z.x_space.size)],
                            [one if j in cy else zero for j in range(z.y_space.size)],
                            [], [])
    return problems + verify_thickness_result(z, cover, tol)


def _check_srnorm(rep, exact, tol):
    f = matrix_from_obj("function", rep["inputs"]["function"], exact)
    res = SrNormResult(
        _parse_weight(rep["value"], exact),
        SeparableMajorant(_nums(rep["majorant"]["a"], exact),
                          _nums(rep["majorant"]["b"], exact)),
        _plan(rep["dual_plan"], exact),
        _parse_weight(rep["dual_value"], exact))
    problems = verify_sr_certificates(f, res, tol)
    if not close(res.value, res.dual_value, tol):
        problems.append("primal value != dual value")
    return problems


def _check_tau(rep, exact, tol):
    f = matrix_from_obj("function", rep["inputs"]["f"], exact)
    g = matrix_from_obj("function", rep["inputs"]["g"], exact)
    value = _parse_weight(rep["value"], exact)
    witness = _parse_weight(rep["witness_set_thickness"], exact)
    d = f.sub(g).abs()
    th = thickness(level_set(d, value, ">")).value
    problems = []
    if not close(th, witness, tol):
        problems.append("witness thickness does not match the exceedance set")
    if not nonneg(value - th, tol):
        problems.append("reported value is not feasible (set too thick)")
    return problems


def _check_transport(rep, exact, tol):
    rho = metric_from_obj(rep["inputs"]["metric"], exact)
    mu1 = _nums(rep["inputs"]["mu1"], exact)
    mu2 = _nums(rep["inputs"]["mu2"], exact)
    res = TransportResult(_parse_weight(rep["cost"], exact),
                          _plan(rep["plan"], exact),
                          _nums(rep["potential"], exact))
    return verify_transport_result(mu1, mu2, rho, res, tol)


def _check_krnorm(rep, exact, tol):
    """The plan ships the positive part onto the negative part: a transport
    certificate between the two parts of the signed vector."""
    rho = metric_from_obj(rep["inputs"]["metric"], exact)
    space = rep["inputs"]["metric"]["space"]
    signed = _nums(rep["inputs"]["signed"], exact)
    zero = rho.dist[0][0] * 0
    res = TransportResult(_parse_weight(rep["value"], exact),
                          _plan({"x_space": space, "y_space": space,
                                 "mass": rep["plan"]}, exact),
                          _nums(rep["potential"], exact))
    return verify_transport_result([max(s, zero) for s in signed],
                                   [max(-s, zero) for s in signed], rho, res, tol)


def _fit_from_obj(obj, exact):
    return StepFit([list(b) for b in obj["x_blocks"]],
                   [list(b) for b in obj["y_blocks"]],
                   [[_parse_weight(v, exact) for v in row] for row in obj["levels"]],
                   _parse_weight(obj["epsilon"], exact),
                   bool(obj["exact"]))


def _check_stepfit(rep, exact, tol):
    if not rep["found"]:
        return []
    f = matrix_from_obj("function", rep["inputs"]["function"], exact)
    return step_fit_violations(f, _fit_from_obj(rep["fit"], exact), strict=True,
                               tol=tol)


def _check_vcprofile(rep, exact, tol):
    """The witness is a (non-strict) step fit at the reported value.

    This bounds the profile from above only.  `exact_optimum` is a claim
    from the search that no smaller eps admits a fit; `check` cannot
    verify it.
    """
    f = matrix_from_obj("function", rep["inputs"]["function"], exact)
    fit = _fit_from_obj(rep["witness"], exact)
    # the witness attains the optimum, so its bounds hold non-strictly
    problems = step_fit_violations(f, fit, strict=False, tol=tol)
    if not close(_parse_weight(rep["value"], exact), fit.epsilon, tol):
        problems.append("reported value != witness epsilon")
    return problems


def _check_matdist(rep, exact, tol):
    if "support" not in rep:
        return []
    probs = [_parse_weight(e["probability"], exact) for e in rep["support"]]
    problems = []
    if any(not nonneg(p, tol) or close(p, 0, tol) for p in probs):
        problems.append("nonpositive probability in support")
    if not close(sum(probs), 1, tol):
        problems.append("probabilities do not sum to 1")
    return problems


_CHECKS = {
    "thickness": _check_thickness,
    "hall": _check_hall,
    "srnorm": _check_srnorm,
    "tau": _check_tau,
    "transport": _check_transport,
    "krnorm": _check_krnorm,
    "stepfit": _check_stepfit,
    "vcprofile": _check_vcprofile,
    "matdist": _check_matdist,
}


def check_report(rep: dict, tol: float = DEFAULT_TOL) -> list[str]:
    """Re-verify the certificates inside a report dict; list of violations."""
    if not isinstance(rep, dict):
        raise ValidationError("a report must be a JSON object")
    cmd = rep.get("command")
    if cmd not in _CHECKS:
        raise ValidationError(f"no certificate checker for command {cmd!r}")
    mode = rep.get("mode")
    if mode not in ("exact", "float"):
        raise ValidationError(f"malformed {cmd} report: mode {mode!r} "
                              "is neither 'exact' nor 'float'")
    with _malformed(f"{cmd} report"):
        return _CHECKS[cmd](rep, mode == "exact", tol)
