"""Re-verification of emitted reports, with no reference to their solvers.

Each check reads its report into a certificate and hands it to the one
verifier of its kind (`certs`), then compares the values that the report
repeats.  A tau report carries no certificate: its check weighs the two
level sets that show the value feasible and least with one warm-started
max-flow (`flows`), the one solver module read here.
"""

from __future__ import annotations

from .certs import (SrNormResult, StepFit, ThicknessResult, TransportResult,
                    step_fit_violations, verify_hall, verify_sr_certificates,
                    verify_thickness_result, verify_transport_result)
from .fileio import _malformed, _Reader, matrix_from_obj, metric_from_obj
from .flows import nested_cover_weights
from .model import (DEFAULT_TOL, SeparableMajorant, ValidationError, close,
                    common_scales, from_scale, left_sum, nonneg, scaled_with)

# Every check takes (report, the `_Reader` of its job, tol): the reader
# parses each distinct number string, reads each distinct space and validates
# each distinct metric once per job, the job's inputs included.


def _vector(obj, key, n, read):
    """The numbers under obj[key], one per atom of an n-atom space."""
    values = obj[key]
    if not isinstance(values, (list, tuple)):
        raise TypeError(f"{key} must be a list")
    if len(values) != n:
        # raised as an IndexError, which `check_report` reports as a
        # malformed report, like any other cell that is not where it belongs
        raise IndexError(f"{key} has {len(values)} entries for {n} atoms")
    return [read.number(v) for v in values]


def _plan(obj, read):
    """A report's plan.  No command emits a signed plan, so a report that
    declares one is read as unsigned and any negative mass is rejected."""
    return matrix_from_obj("plan", {**obj, "signed": False}, read.exact, read)


def _check_thickness(rep, read, tol):
    z = matrix_from_obj("set", rep["inputs"]["set"], read.exact, read)
    res = ThicknessResult(read.number(rep["value"]),
                          list(rep["cover_x"]), list(rep["cover_y"]),
                          _vector(rep, "fractional_f", z.x_space.size, read),
                          _vector(rep, "fractional_g", z.y_space.size, read),
                          _plan(rep["plan"], read))
    return verify_thickness_result(z, res, tol)


def _check_hall(rep, read, tol):
    z = matrix_from_obj("set", rep["inputs"]["set"], read.exact, read)
    return verify_hall(z, read.number(rep["mass"]),
                       read.number(rep["thickness_value"]), _plan(rep["plan"], read),
                       rep["cover_x"], rep["cover_y"], tol)


def _check_srnorm(rep, read, tol):
    f = matrix_from_obj("function", rep["inputs"]["function"], read.exact, read)
    nx, ny = f.shape
    res = SrNormResult(
        read.number(rep["value"]),
        SeparableMajorant(_vector(rep["majorant"], "a", nx, read),
                          _vector(rep["majorant"], "b", ny, read)),
        _plan(rep["dual_plan"], read),
        read.number(rep["dual_value"]))
    return verify_sr_certificates(f, res, tol)


def _check_tau(rep, read, tol):
    f = matrix_from_obj("function", rep["inputs"]["f"], read.exact, read)
    g = matrix_from_obj("function", rep["inputs"]["g"], read.exact, read)
    value = read.number(rep["value"])
    witness = read.number(rep["witness_set_thickness"])
    gap = f.sub(g).abs()        # f and g over the same spaces
    # |f - g| and the value on one integer scale, or the floats as given
    ((v,),), rows, _ = (scaled_with([[value]], *gap.scaled())
                        or ([[value]], gap.values, None))
    above, at = [], []      # the cells of {|f - g| > v}, of {|f - g| = v}
    for i, row in enumerate(rows):
        for j, x in enumerate(row):
            if x > v:
                above.append((i, j))
            elif x == v:
                at.append((i, j))
    # every eps < value has {|f - g| > eps} containing {|f - g| >= value}, the
    # exceedance set grown by `at`: one warm-started max-flow weighs both
    weights, dw = nested_cover_weights(f.x_space, f.y_space,
                                       [above, at] if value > 0 else [above])
    over, *least = from_scale([weights], dw)[0]
    problems = []
    if not close(over, witness, tol):
        problems.append("witness thickness does not match the exceedance set")
    if not nonneg(value - over, tol):
        problems.append("reported value is not feasible (set too thick)")
    if least and not nonneg(least[0] - value, tol):
        problems.append("reported value is not the least feasible one")
    return problems


def _check_transport(rep, read, tol):
    rho = metric_from_obj(rep["inputs"]["metric"], read.exact, read)
    n = rho.space.size
    res = TransportResult(read.number(rep["cost"]), _plan(rep["plan"], read),
                          _vector(rep, "potential", n, read))
    return verify_transport_result(_vector(rep["inputs"], "mu1", n, read),
                                   _vector(rep["inputs"], "mu2", n, read),
                                   rho, res, tol)


def _check_krnorm(rep, read, tol):
    """The plan ships the positive part onto the negative part: a transport
    certificate between the two parts of the signed vector."""
    rho = metric_from_obj(rep["inputs"]["metric"], read.exact, read)
    space = rep["inputs"]["metric"]["space"]
    n = rho.space.size
    signed = _vector(rep["inputs"], "signed", n, read)
    zero = rho.dist[0][0] * 0
    res = TransportResult(read.number(rep["value"]),
                          _plan({"x_space": space, "y_space": space,
                                 "mass": rep["plan"]}, read),
                          _vector(rep, "potential", n, read))
    return verify_transport_result([max(s, zero) for s in signed],
                                   [max(-s, zero) for s in signed], rho, res, tol)


def _fit_from_obj(obj, read):
    return StepFit([list(b) for b in obj["x_blocks"]],
                   [list(b) for b in obj["y_blocks"]],
                   [[read.number(v) for v in row] for row in obj["levels"]],
                   read.number(obj["epsilon"]),
                   bool(obj["exact"]))


def _budget(rep, read):
    """A step-fit report's block budget and function."""
    n = rep["blocks"]
    if type(n) is not int or n < 1:
        raise ValidationError(f"blocks {n!r} is not a positive int")
    return n, matrix_from_obj("function", rep["inputs"]["function"], read.exact, read)


def _fit_violations(rep, key, strict, read, tol):
    """The step fit under rep[key] against the report's function and block
    budget: at most `blocks` non-exceptional blocks on each side."""
    n, f = _budget(rep, read)
    fit = _fit_from_obj(rep[key], read)
    problems = step_fit_violations(f, fit, strict=strict, tol=tol)
    for side, blocks in (("x", fit.x_blocks), ("y", fit.y_blocks)):
        if len(blocks) - 1 > n:
            problems.append(f"{side}-side has {len(blocks) - 1} blocks, more than {n}")
    return problems, fit


def _check_stepfit(rep, read, tol):
    """A found fit is checked against the budget, function and eps; a
    report that found none still has to give them well formed."""
    eps = read.number(rep["epsilon"])
    if not rep["found"]:
        _budget(rep, read)
        return []
    problems, fit = _fit_violations(rep, "fit", True, read, tol)
    if not close(eps, fit.epsilon, tol):
        problems.append("reported epsilon != fit epsilon")
    return problems


def _check_vcprofile(rep, read, tol):
    """The witness is a (non-strict) step fit at the reported value.

    This bounds the profile from above only.  `exact_optimum` is a claim
    from the search that no smaller eps admits a fit; `check` cannot
    verify it.
    """
    # the witness attains the optimum, so its bounds hold non-strictly
    problems, fit = _fit_violations(rep, "witness", False, read, tol)
    if not close(read.number(rep["value"]), fit.epsilon, tol):
        problems.append("reported value != witness epsilon")
    return problems


def _check_matdist(rep, read, tol):
    if "support" not in rep:
        return []
    ((probs,),), (d,), t = common_scales(
        tol, [[read.number(e["probability"]) for e in rep["support"]]])
    problems = []
    if not all(p > 0 for p in probs):   # a probability below tol is still one
        problems.append("nonpositive probability in support")
    if not abs(left_sum(probs) - d) <= t:
        problems.append("probabilities do not sum to 1")
    return problems


def _check_sides(rep, read, tol, primal_key, dual_key, sign):
    primal, dual, gap = (read.number(rep[k]) for k in ("primal", "dual", "gap"))
    problems = []
    if not close(primal, read.number(rep[primal_key]), tol):
        problems.append(f"primal != {primal_key}")
    if not close(dual, read.number(rep[dual_key]), tol):
        problems.append(f"dual != {dual_key}")
    if not close(gap, sign * (primal - dual), tol):
        problems.append("gap != primal - dual" if sign > 0 else
                        "gap != dual - primal")
    return problems


# Per kind of report: its check, then for a duality report its sides.  Such a
# report repeats the values of its two sides as `primal` and `dual`, and
# their difference as `gap`: the sides are the key that `primal` repeats, the
# key that `dual` repeats, and the sign of primal - dual in the gap (hall's
# primal is a greatest mass, so its gap is dual - primal).
_CHECKS = {
    "thickness": (_check_thickness, "value", "value", 1),
    "hall": (_check_hall, "mass", "thickness_value", -1),
    "srnorm": (_check_srnorm, "value", "dual_value", 1),
    "tau": (_check_tau,),
    "transport": (_check_transport, "cost", "cost", 1),
    "krnorm": (_check_krnorm, "value", "value", 1),
    "stepfit": (_check_stepfit,),
    "vcprofile": (_check_vcprofile,),
    "matdist": (_check_matdist,),
}


def check_report(rep: dict, tol: float = DEFAULT_TOL, read=None) -> list[str]:
    """Re-verify the certificates inside a report dict; list of violations.
    `read` is the `_Reader` of the job that wrote it; by default, a fresh one."""
    if not isinstance(rep, dict):
        raise ValidationError("a report must be a JSON object")
    cmd = rep.get("command")
    if not isinstance(cmd, str) or cmd not in _CHECKS:
        raise ValidationError(f"no certificate checker for command {cmd!r}")
    mode = rep.get("mode")
    if mode not in ("exact", "float"):
        raise ValidationError(f"malformed {cmd} report: mode {mode!r} "
                              "is neither 'exact' nor 'float'")
    read = read or _Reader(mode == "exact")
    with _malformed(f"{cmd} report"):
        check, *sides = _CHECKS[cmd]
        problems = check(rep, read, tol)
        return problems + _check_sides(rep, read, tol, *sides) if sides else problems
