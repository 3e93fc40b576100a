"""Command-line front end: parse inputs, dispatch, emit deterministic reports.

Every duality-backed command writes its report once and, before printing
it, re-verifies the certificates in those bytes, read back, through the
checker that the `check` subcommand runs; `text` and `csv` render the same
read-back report.  A failed re-check is an internal invariant violation
(exit 2), as is a float solve whose search round-off defeats, while
malformed inputs exit 1.  Reports are byte-stable for a fixed input, mode
and seed.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import sys
from collections import namedtuple

from .checkers import _CHECKS, check_report
from .coupling import max_bistochastic_mass
from .fileio import (_csv_table, _load, _loads_json, _matrix_kind, _Reader,
                     dumps_json, load_matrix, load_metric, load_vector,
                     matrices_to_obj, matrix_to_obj, metric_to_obj)
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
    for name, cmd in _COMMANDS.items():
        s = sub.add_parser(name, help=cmd.help)
        for arg, kind in cmd.inputs.items():
            s.add_argument(arg, help=f"{kind} file")
        for flag, options in cmd.flags.items():
            s.add_argument(flag, **options)
        _add_global_flags(s, suppress=True)
    return p


# built on first use and reused by every later call of `main` in the process
_parser = functools.cache(_build_parser)


# ------------------------------------------------------------------ commands
# Every runner takes (args, the job's `_Reader`, tol, its inputs in the order
# of its `_COMMANDS` row) and returns the report.

def _inputs(args, read):
    """The command's input files, each loaded by its kind through the job's
    reader; the loaders are looked up here on each call, so a rebound one runs."""
    for arg, kind in _COMMANDS[args.command].inputs.items():
        path = getattr(args, arg)
        if kind == "report":
            yield _load(path, _loads_json)
        elif kind in ("metric", "vector"):
            yield (load_metric if kind == "metric" else load_vector)(path, read=read)
        else:
            m = load_matrix(path, read=read)
            if _matrix_kind(m) != kind:     # a set or a function
                raise ValidationError(f"{args.command} expects a {kind} matrix")
            yield m


def _fit_obj(fit):
    return {"x_blocks": fit.x_blocks, "y_blocks": fit.y_blocks,
            "levels": fit.levels, "epsilon": fit.epsilon, "exact": fit.exact}


def _run_thickness(args, read, tol, z):
    res = thickness(z)
    dual = res.plan.total()
    return {"value": res.value, "primal": res.value, "dual": dual,
            "gap": res.value - dual,
            "cover_x": res.cover_x, "cover_y": res.cover_y,
            "fractional_f": res.fractional_f, "fractional_g": res.fractional_g,
            "plan": matrix_to_obj(res.plan), "inputs": {"set": matrix_to_obj(z)}}


def _run_tau(args, read, tol, f, g):
    res = tau_distance(f, g)
    return {"value": res.value,
            "witness_set_thickness": res.witness_set_thickness,
            "inputs": {"f": matrix_to_obj(f), "g": matrix_to_obj(g)}}


def _run_srnorm(args, read, tol, f):
    res = sr_norm(f)
    return {"value": res.value, "primal": res.value, "dual": res.dual_value,
            "dual_value": res.dual_value, "gap": res.value - res.dual_value,
            "majorant": {"a": list(res.majorant.a), "b": list(res.majorant.b)},
            "dual_plan": matrix_to_obj(res.dual_plan),
            "inputs": {"function": matrix_to_obj(f)}}


def _run_hall(args, read, tol, z):
    res = max_bistochastic_mass(z)
    cert = res.thickness_certificate
    return {"mass": res.mass, "thickness_value": cert.value,
            "primal": res.mass, "dual": cert.value, "gap": cert.value - res.mass,
            "cover_x": cert.cover_x, "cover_y": cert.cover_y,
            "plan": matrix_to_obj(res.plan), "inputs": {"set": matrix_to_obj(z)}}


def _run_transport(args, read, tol, rho, mu1, mu2):
    res = kantorovich(mu1, mu2, rho, tol)
    dual = left_sum(u * (a - b) for u, a, b in zip(res.potential, mu1, mu2))
    return {"cost": res.cost, "primal": res.cost, "dual": dual,
            "gap": res.cost - dual, "potential": res.potential,
            "plan": matrix_to_obj(res.plan),
            "inputs": {"metric": metric_to_obj(rho), "mu1": mu1, "mu2": mu2}}


def _run_krnorm(args, read, tol, rho, signed):
    res = kr_norm(signed, rho, tol)
    dual = left_sum(u * s for u, s in zip(res.potential, signed))
    return {"value": res.value, "primal": res.value, "dual": dual,
            "gap": res.value - dual, "potential": res.potential,
            "plan": res.plan,
            "inputs": {"metric": metric_to_obj(rho), "signed": signed}}


def _run_stepfit(args, read, tol, f):
    eps = read.number(args.eps)
    fit = step_fit_exists(f, args.blocks, eps, args.seed)
    rep = {"found": fit is not None, "blocks": args.blocks, "epsilon": eps,
           "inputs": {"function": matrix_to_obj(f)}}
    if fit is not None:
        rep["fit"] = _fit_obj(fit)
    return rep


def _run_vcprofile(args, read, tol, f):
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


def _run_matdist(args, read, tol, rho):
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


def _run_check(args, read, tol, rep):
    violations = check_report(rep, tol)
    # the checked report's mode, which `check_report` read it in
    return {"checked_command": rep.get("command"), "mode": rep["mode"],
            "violations": violations}


# Each subcommand once: its help, its runner, its input files as argument ->
# kind in load order, and its flags as flag -> add_argument keywords.
_Command = namedtuple("_Command", "help run inputs flags", defaults=({}, {}))
_BLOCKS = {"--blocks": {"type": int, "required": True}}
_COMMANDS = {
    "thickness": _Command("minimal cross-cover weight of a set",
                          _run_thickness, {"set": "set"}),
    "tau": _Command("tau-distance between two functions", _run_tau,
                    {"f": "function", "g": "function"}),
    "srnorm": _Command("separable-regulator norm with dual plan", _run_srnorm,
                       {"function": "function"}),
    "hall": _Command("maximal bistochastic mass on a set", _run_hall,
                     {"set": "set"}),
    "transport": _Command("optimal transport between two weightings",
                          _run_transport,
                          {"metric": "metric", "mu1": "vector", "mu2": "vector"}),
    "krnorm": _Command("transport norm of a balanced signed vector", _run_krnorm,
                       {"metric": "metric", "signed": "vector"}),
    "stepfit": _Command("N-block step fit within eps, if any", _run_stepfit,
                        {"function": "function"},
                        {**_BLOCKS, "--eps": {"required": True}}),
    "vcprofile": _Command("least eps admitting an N-block step fit",
                          _run_vcprofile, {"function": "function"}, _BLOCKS),
    "refine": _Command("profile of a study family across grids", _run_refine, {},
                       {"--family": {"choices": FAMILIES, "required": True},
                        "--grids": {"required": True,
                                    "help": "comma-separated grid sizes"},
                        **_BLOCKS}),
    "matdist": _Command("distance-matrix distribution of a metric", _run_matdist,
                        {"metric": "metric"},
                        {"--order": {"type": int, "required": True},
                         "--samples": {"type": int, "help": "draw this many "
                                       "seeded samples instead of enumerating"}}),
    "check": _Command("re-verify the certificates in a report", _run_check,
                      {"report": "report"}),
}


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
    return "".join(f"{k}: {json.dumps(v, sort_keys=True)}\n"
                   if isinstance(v, (dict, list)) else f"{k}: {v}\n"
                   for k, v in sorted(rep.items()))


def emit_report(rep: dict, fmt: str) -> str:
    """rep in the format; `main` passes csv and text the report read back."""
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
        rep = _COMMANDS[args.command].run(args, read, tol, *_inputs(args, read))
    except (ValidationError, InfeasibleError, FloatingPointError) as e:
        print(f"error: {e}", file=sys.stderr)
        # a float solve that round-off defeated is no input error
        return 2 if isinstance(e, FloatingPointError) else 1

    text = emit_report({"mode": args.mode, **rep, "tolerance": tol,
                        "command": args.command}, "json")
    # the report as printed: what the self-check and the other formats read
    rep = json.loads(text)
    if args.command in _CHECKS:
        violations = check_report(rep, tol, read)
        if violations:
            print("internal invariant violation:", file=sys.stderr)
            for v in violations:
                print(f"  {v}", file=sys.stderr)
            return 2
    try:
        if args.format != "json":
            text = emit_report(rep, args.format)
    except ValidationError as e:   # a report with no csv rendering
        print(f"error: {e}", file=sys.stderr)
        return 1
    sys.stdout.write(text)
    # a `check` report lists the violations it found in the checked report
    return 2 if rep.get("violations") else 0


if __name__ == "__main__":
    sys.exit(main())
