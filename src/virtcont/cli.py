"""Command-line front end: parse inputs, dispatch, emit deterministic reports.

Every duality-backed command re-verifies its own certificates through the
same independent checker exposed by the `check` subcommand before printing
anything; a failed re-check is an internal invariant violation (exit 2), as
is a float solve whose search round-off defeats, while malformed inputs exit
1.  Reports are byte-stable for a fixed input, mode and seed.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import sys

from .checkers import _CHECKS, check_report
from .coupling import max_bistochastic_mass
from .fileio import (_csv_table, _load, _loads_json, _matrix_kind, _Reader,
                     dumps_json, jsonable, load_matrix, load_metric,
                     load_vector, matrices_to_obj, matrix_to_obj,
                     metric_to_obj)
from .flows import InfeasibleError
from .model import DEFAULT_TOL, ValidationError, left_sum
from .srnorm import sr_norm
from .tau import tau_distance
from .thickness import thickness
from .transport import kantorovich, kr_norm
from .vcdiag import (FAMILIES, matrix_distribution_exact,
                     matrix_distribution_sample, refinement_study,
                     step_fit_exists, vc_profile)


class _CliParser(argparse.ArgumentParser):
    def error(self, message):  # malformed invocations are input errors
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _add_global_flags(p, suppress: bool):
    # the same flags hang off the main parser and every subparser so they can
    # appear on either side of the subcommand; subparsers must not clobber
    # values already parsed, hence SUPPRESS defaults there
    d = argparse.SUPPRESS if suppress else None
    p.add_argument("--mode", choices=("exact", "float"),
                   default=d or "exact",
                   help="arithmetic regime (default: exact rationals)")
    p.add_argument("--tol", type=float, default=d or DEFAULT_TOL,
                   help="absolute tolerance for float mode, in (0, 1) "
                        "(default 1e-9)")
    p.add_argument("--seed", type=int, default=d or 0,
                   help="seed for sampling and heuristic restarts")
    p.add_argument("--format", choices=("json", "csv", "text"),
                   default=d or "json", help="report format (default json)")


def _build_parser() -> argparse.ArgumentParser:
    p = _CliParser(prog="virtcont",
                   description="Thickness, tau-distance, regulator norms, "
                               "transport duality, and step-fit diagnostics "
                               "on finite product measure spaces.")
    _add_global_flags(p, suppress=False)
    sub = p.add_subparsers(dest="command", required=True,
                           parser_class=_CliParser)

    s = sub.add_parser("thickness", help="minimal cross-cover weight of a set")
    s.add_argument("set", help="product set CSV")
    s.set_defaults(run=_run_thickness)
    s = sub.add_parser("tau", help="tau-distance between two functions")
    s.add_argument("f")
    s.add_argument("g")
    s.set_defaults(run=_run_tau)
    s = sub.add_parser("srnorm", help="separable-regulator norm with dual plan")
    s.add_argument("function")
    s.set_defaults(run=_run_srnorm)
    s = sub.add_parser("hall", help="maximal bistochastic mass on a set")
    s.add_argument("set")
    s.set_defaults(run=_run_hall)
    s = sub.add_parser("transport", help="optimal transport between two weightings")
    s.add_argument("metric")
    s.add_argument("mu1")
    s.add_argument("mu2")
    s.set_defaults(run=_run_transport)
    s = sub.add_parser("krnorm", help="transport norm of a balanced signed vector")
    s.add_argument("metric")
    s.add_argument("signed")
    s.set_defaults(run=_run_krnorm)
    s = sub.add_parser("stepfit", help="N-block step fit within eps, if any")
    s.add_argument("function")
    s.add_argument("--blocks", type=int, required=True)
    s.add_argument("--eps", required=True)
    s.set_defaults(run=_run_stepfit)
    s = sub.add_parser("vcprofile", help="least eps admitting an N-block step fit")
    s.add_argument("function")
    s.add_argument("--blocks", type=int, required=True)
    s.set_defaults(run=_run_vcprofile)
    s = sub.add_parser("refine", help="profile of a study family across grids")
    s.add_argument("--family", choices=FAMILIES, required=True)
    s.add_argument("--grids", required=True, help="comma-separated grid sizes")
    s.add_argument("--blocks", type=int, required=True)
    s.set_defaults(run=_run_refine)
    s = sub.add_parser("matdist", help="distance-matrix distribution of a metric")
    s.add_argument("metric")
    s.add_argument("--order", type=int, required=True)
    s.add_argument("--samples", type=int, default=None,
                   help="draw this many seeded samples instead of enumerating")
    s.set_defaults(run=_run_matdist)
    s = sub.add_parser("check", help="re-verify the certificates in a report")
    s.add_argument("report", help="previously emitted JSON report")
    s.set_defaults(run=_run_check)
    for child in sub.choices.values():
        _add_global_flags(child, suppress=True)
    return p


# built on first use and reused by every later call of `main` in the process
_parser = functools.cache(_build_parser)


# ------------------------------------------------------------------ commands
# Every runner takes (args, the job's `_Reader`, tol) and returns the report.

def _load_as(kind, path, read, command):
    """The matrix file at path, which must hold a `kind` ("set" or "function")."""
    m = load_matrix(path, read=read)
    if _matrix_kind(m) != kind:
        raise ValidationError(f"{command} expects a {kind} matrix")
    return m


def _fit_obj(fit):
    return {"x_blocks": fit.x_blocks, "y_blocks": fit.y_blocks,
            "levels": fit.levels, "epsilon": fit.epsilon, "exact": fit.exact}


def _run_thickness(args, read, tol):
    z = _load_as("set", args.set, read, args.command)
    res = thickness(z)
    dual = res.plan.total()
    return {"value": res.value, "primal": res.value, "dual": dual,
            "gap": res.value - dual,
            "cover_x": res.cover_x, "cover_y": res.cover_y,
            "fractional_f": res.fractional_f, "fractional_g": res.fractional_g,
            "plan": matrix_to_obj(res.plan), "inputs": {"set": matrix_to_obj(z)}}


def _run_tau(args, read, tol):
    f = _load_as("function", args.f, read, args.command)
    g = _load_as("function", args.g, read, args.command)
    res = tau_distance(f, g)
    return {"value": res.value,
            "witness_set_thickness": res.witness_set_thickness,
            "inputs": {"f": matrix_to_obj(f), "g": matrix_to_obj(g)}}


def _run_srnorm(args, read, tol):
    f = _load_as("function", args.function, read, args.command)
    res = sr_norm(f)
    return {"value": res.value, "primal": res.value, "dual": res.dual_value,
            "dual_value": res.dual_value, "gap": res.value - res.dual_value,
            "majorant": {"a": list(res.majorant.a), "b": list(res.majorant.b)},
            "dual_plan": matrix_to_obj(res.dual_plan),
            "inputs": {"function": matrix_to_obj(f)}}


def _run_hall(args, read, tol):
    z = _load_as("set", args.set, read, args.command)
    res = max_bistochastic_mass(z)
    cert = res.thickness_certificate
    return {"mass": res.mass, "thickness_value": cert.value,
            "primal": res.mass, "dual": cert.value, "gap": cert.value - res.mass,
            "cover_x": cert.cover_x, "cover_y": cert.cover_y,
            "plan": matrix_to_obj(res.plan), "inputs": {"set": matrix_to_obj(z)}}


def _run_transport(args, read, tol):
    rho = load_metric(args.metric, read=read)
    mu1 = load_vector(args.mu1, read=read)
    mu2 = load_vector(args.mu2, read=read)
    res = kantorovich(mu1, mu2, rho, tol)
    dual = left_sum(u * (a - b) for u, a, b in zip(res.potential, mu1, mu2))
    return {"cost": res.cost, "primal": res.cost, "dual": dual,
            "gap": res.cost - dual, "potential": res.potential,
            "plan": matrix_to_obj(res.plan),
            "inputs": {"metric": metric_to_obj(rho), "mu1": mu1, "mu2": mu2}}


def _run_krnorm(args, read, tol):
    rho = load_metric(args.metric, read=read)
    signed = load_vector(args.signed, read=read)
    res = kr_norm(signed, rho, tol)
    dual = left_sum(u * s for u, s in zip(res.potential, signed))
    return {"value": res.value, "primal": res.value, "dual": dual,
            "gap": res.value - dual, "potential": res.potential,
            "plan": res.plan,
            "inputs": {"metric": metric_to_obj(rho), "signed": signed}}


def _run_stepfit(args, read, tol):
    f = _load_as("function", args.function, read, args.command)
    eps = read.number(args.eps)
    fit = step_fit_exists(f, args.blocks, eps, args.seed)
    rep = {"found": fit is not None, "blocks": args.blocks, "epsilon": eps,
           "inputs": {"function": matrix_to_obj(f)}}
    if fit is not None:
        rep["fit"] = _fit_obj(fit)
    return rep


def _run_vcprofile(args, read, tol):
    f = _load_as("function", args.function, read, args.command)
    res = vc_profile(f, args.blocks, args.seed)
    return {"value": res.value, "exact_optimum": res.exact,
            "blocks": args.blocks, "witness": _fit_obj(res.witness),
            "inputs": {"function": matrix_to_obj(f)}}


def _run_refine(args, read, tol):
    try:
        grids = [int(s) for s in args.grids.split(",")]
    except ValueError:
        raise ValidationError("grid sizes must be comma-separated integers") from None
    table = refinement_study(args.family, grids, args.blocks, args.seed)
    if not read.exact:
        # the study stays exact (its lower bounds are certified that way);
        # float mode only reports its values as floats
        for row in table:
            row["value"] = float(row["value"])
    return {"family": args.family, "blocks": args.blocks, "table": table}


def _run_matdist(args, read, tol):
    rho = load_metric(args.metric, read=read)
    if args.samples is None:
        dist = matrix_distribution_exact(rho, args.order)
        mats = matrices_to_obj([mat for mat, _ in dist.support], dist.k)
        support = [{"matrix": mat, "probability": p}
                   for mat, (_, p) in zip(mats, dist.support)]
        return {"order": dist.k, "support": support,
                "inputs": {"metric": metric_to_obj(rho)}}
    mats = matrix_distribution_sample(rho, args.order, args.samples, args.seed)
    return {"order": args.order, "count": args.samples, "seed": args.seed,
            "samples": matrices_to_obj(mats, args.order)}


def _run_check(args, read, tol):
    rep = _load(args.report, _loads_json)
    violations = check_report(rep, tol)
    # the checked report's mode, which `check_report` read it in
    return {"checked_command": rep.get("command"), "mode": rep["mode"],
            "violations": violations}


# ------------------------------------------------------------------ emission

def _report_csv(rep) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    if "table" in rep:
        writer.writerow(["n", "blocks", "value", "kind"])
        for row in rep["table"]:
            writer.writerow([row["n"], row["blocks"], row["value"], row["kind"]])
        return buf.getvalue()
    if "plan" in rep and isinstance(rep["plan"], dict):
        return _csv_table(rep["plan"], "mass")
    raise ValidationError("csv format needs a matrix or table payload")


def _report_text(rep) -> str:
    lines = []
    for key in sorted(rep):
        val = rep[key]
        if isinstance(val, (dict, list)):
            lines.append(f"{key}: {json.dumps(val, sort_keys=True)}")
        else:
            lines.append(f"{key}: {val}")
    return "\n".join(lines) + "\n"


def emit_report(rep: dict, fmt: str) -> str:
    if fmt == "json":
        return dumps_json(rep) + "\n"
    if fmt == "csv":
        return _report_csv(rep)
    return _report_text(rep)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    tol = args.tol
    # an absolute tolerance of 1 or more passes any mass check, since every
    # measure totals 1
    if not 0 < tol < 1:
        print("error: tolerance must be in (0, 1)", file=sys.stderr)
        return 1
    try:
        read = _Reader(args.mode == "exact")
        rep = args.run(args, read, tol)
    except (ValidationError, InfeasibleError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except FloatingPointError as e:   # a float solve that round-off defeated
        print(f"error: {e}", file=sys.stderr)
        return 2

    rep.setdefault("mode", args.mode)
    rep["tolerance"] = tol
    rep["command"] = args.command
    rep = jsonable(rep)
    if args.command in _CHECKS:
        violations = check_report(rep, tol, read)
        if violations:
            print("internal invariant violation:", file=sys.stderr)
            for v in violations:
                print(f"  {v}", file=sys.stderr)
            return 2
    try:
        text = emit_report(rep, args.format)
    except ValidationError as e:   # a report with no csv rendering
        print(f"error: {e}", file=sys.stderr)
        return 1
    sys.stdout.write(text)
    # a `check` report lists the violations it found in the checked report
    return 2 if rep.get("violations") else 0


if __name__ == "__main__":
    sys.exit(main())
