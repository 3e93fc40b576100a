"""Certificates and their verifiers, apart from the solvers that build them.

A kind of certificate is its data and one verifier, which re-checks both of
its sides with no reference to how a solver found them: each side feasible
and their values equal certifies optimality by weak duality.  This module
reads only `model`, so `certs` and `model` alone re-verify every kind of
certificate but tau's, whose check weighs two level sets with a max-flow
(`checkers._check_tau`).  Exact numbers are compared on integer scales
(`model.common_scales`, `Plan.scaled`) at tolerance 0, floats as given at
the tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, compress
from operator import and_

from .model import (DEFAULT_TOL, MetricMatrix, Number, Plan, ProductFunction,
                    ProductSet, SeparableMajorant, ValidationError, close,
                    common_scales, is_exact, left_sum, nonneg, unscaled)


@dataclass
class ThicknessResult:
    value: Number
    cover_x: list          # indices of X-atoms in the cover
    cover_y: list          # indices of Y-atoms in the cover
    fractional_f: list     # per-X values in [0,1]
    fractional_g: list     # per-Y values in [0,1]
    plan: Plan             # the max-flow: subbistochastic, carried on the set


@dataclass
class SrNormResult:
    value: Number
    majorant: SeparableMajorant
    dual_plan: Plan        # mass lambda_ij = h_ij * mu_i * nu_j, subbistochastic
    dual_value: Number


@dataclass
class TransportResult:
    cost: Number
    plan: Plan             # marginals mu1, mu2
    potential: list        # u with |u(x)-u(y)| <= rho(x,y), u(0) = 0


@dataclass
class StepFit:
    x_blocks: list    # x_blocks[0] is the exceptional class (possibly empty)
    y_blocks: list
    levels: list      # levels[i][j] for non-exceptional block pair (i+1, j+1)
    epsilon: Number
    exact: bool       # False: found by the heuristic, no optimality claim


def _scaled(plan: Plan, tol: float, *groups):
    """The groups on their scales (`common_scales`) and the plan's mass rows
    on its own (`Plan.scaled`), to compare at one tolerance, 0 unless some
    value is a float: (groups, scales, rows, the plan's scale, t)."""
    scaled, scales, t = common_scales(tol, *groups)
    _, _, rows, d, tp = plan.scaled(tol)
    return scaled, scales, rows, d, max(t, tp)


def verify_cover(z: ProductSet, value: Number, cover_x, cover_y,
                 fractional_f=None, fractional_g=None,
                 tol: float = DEFAULT_TOL) -> list[str]:
    """Violations of the cover half of a thickness certificate: the cover and
    the fractional pair must cover z and weigh the value.  Weights and value
    share one integer scale dw, the pair has its own dp: set against value * dp.
    Without a pair (a hall cover) only the cover is checked.
    """
    groups = [[z.x_space.weights, z.y_space.weights, [value]]]
    if fractional_f is not None:
        if (len(fractional_f) != z.x_space.size
                or len(fractional_g) != z.y_space.size):
            raise ValidationError("fractional pair does not match the factors")
        groups.append([fractional_f, fractional_g])
    for side, cover, n in (("x", cover_x, z.x_space.size),
                           ("y", cover_y, z.y_space.size)):
        # an int in 0..n-1: neither -1 nor a bool is read as an atom
        if not all(type(i) is int and 0 <= i < n for i in cover):
            raise ValidationError(f"cover_{side} entries must be atom "
                                  f"indices 0..{n - 1}")
    cx, cy = set(cover_x), set(cover_y)
    scaled, scales, t = common_scales(tol, *groups)
    (mu, nu, (value,)), dw = scaled[0], scales[0]
    problems = []
    cols = range(z.y_space.size)
    open_cols = [j not in cy for j in cols]
    for i, row in enumerate(z.membership):
        if i not in cx:
            problems += [f"cell ({i},{j}) not covered"
                         for j in compress(cols, map(and_, row, open_cols))]
    total = left_sum(mu[i] for i in cx) + left_sum(nu[j] for j in cy)
    if not abs(total - value) <= t:
        problems.append(f"cover weight {unscaled(total, dw)} != "
                        f"reported value {unscaled(value, dw)}")
    if fractional_f is None:
        return problems
    (f, g), dp = scaled[1], scales[1]
    # (fi + g[j]) - dp >= -t rises with g[j], rounding too: cells are tested
    # one by one in a row that fails at its least g, or in all if g has a NaN
    ordered = not any(v != v for v in g)
    for i, (fi, row) in enumerate(zip(f, z.membership)):
        least = min(compress(g, row), default=None) if ordered else None
        if ordered and (least is None or (fi + least) - dp >= -t):
            continue
        problems += [f"fractional pair below 1 on cell ({i},{j})"
                     for j in compress(cols, row) if not (fi + g[j]) - dp >= -t]
    if not all(v >= -t for v in chain(f, g)):
        problems.append("fractional pair has a negative entry")
    fw = left_sum(w * v for w, v in zip(mu, f)) + left_sum(w * v for w, v in zip(nu, g))
    if not abs(fw - value * dp) <= t:
        problems.append("fractional pair weight != value")
    return problems


def verify_thickness_result(z: ProductSet, res: ThicknessResult,
                            tol: float = DEFAULT_TOL) -> list[str]:
    """Re-check both sides of a thickness certificate without the solver;
    list of violations.  The cover (`verify_cover`) bounds th(z) above, a
    subbistochastic plan on z bounds it below."""
    plan = res.plan
    if not plan.is_over(z.x_space, z.y_space):
        return ["witness plan is not over the set's spaces"]
    _, _, rows, d, t = plan.scaled(tol)
    problems = verify_cover(z, res.value, res.cover_x, res.cover_y,
                            res.fractional_f, res.fractional_g, tol)
    if not plan.is_subbistochastic(tol):
        problems.append("witness plan is not subbistochastic")
    on_z = left_sum(z.on_set(rows))
    if not abs(left_sum(plan.abs_row_sums) - on_z) <= t:
        problems.append("witness plan carries mass off the set")
    if not abs(on_z - res.value * d) <= t:
        problems.append("witness plan mass != cover weight (duality gap)")
    return problems


def verify_hall(z: ProductSet, mass: Number, value: Number, plan: Plan,
                cover_x, cover_y, tol: float = DEFAULT_TOL) -> list[str]:
    """Re-check the Hall identity: a bistochastic plan placing `mass` on z
    bounds th(z) below, a cover of weight `value` bounds it above, and the
    two are equal.  The cover comes without a fractional pair: its own
    indicator vectors would be one, and would list each of its faults again.
    """
    if not plan.is_over(z.x_space, z.y_space):
        return ["plan is not over the set's spaces"]
    _, _, rows, d, t = plan.scaled(tol)
    problems = []
    if not plan.is_bistochastic(tol):
        problems.append("plan is not bistochastic")
    if not abs(left_sum(z.on_set(rows)) - mass * d) <= t:
        problems.append("plan mass on set != reported mass")
    if not close(mass, value, tol):
        problems.append("mass != thickness value")
    return problems + verify_cover(z, value, cover_x, cover_y, tol=tol)


def verify_sr_certificates(f: ProductFunction, res: SrNormResult,
                           tol: float = DEFAULT_TOL) -> list[str]:
    """Solver-independent re-check of both optimality certificates, and of
    the primal value against the dual value.

    The majorant and f share one integer scale df, the weights another dw,
    and the dual plan keeps its own dp (`Plan.scaled`): each weight x
    majorant or |f| x mass sum is set against the value times both scales.
    """
    nx, ny = f.shape
    if len(res.majorant.a) != nx or len(res.majorant.b) != ny:
        raise ValidationError("majorant does not match the factors")
    gap = ([] if close(res.value, res.dual_value, tol)
           else ["primal value != dual value"])
    if not res.dual_plan.is_over(f.x_space, f.y_space):
        return ["dual plan is not over the function's spaces"] + gap
    ((a, b, *fv), (mu, nu)), (df, dw), mass, dp, t = _scaled(
        res.dual_plan, tol, [res.majorant.a, res.majorant.b, *f.values],
        [f.x_space.weights, f.y_space.weights])
    problems = []
    if not all(ai + bj - abs(v) >= -t
               for ai, row in zip(a, fv) for bj, v in zip(b, row)):
        problems.append("majorant does not dominate |f|")
    weight = (left_sum(w * v for w, v in zip(mu, a))
              + left_sum(w * v for w, v in zip(nu, b)))
    if not abs(weight - res.value * dw * df) <= t:
        problems.append("majorant weight != reported value")
    if not res.dual_plan.is_subbistochastic(tol):
        problems.append("dual plan is not subbistochastic")
    pairing = left_sum(abs(v) * m for frow, mrow in zip(fv, mass)
                       for v, m in zip(frow, mrow))
    if not abs(pairing - res.value * df * dp) <= t:
        problems.append("dual pairing != reported value (duality gap)")
    return problems + gap


def verify_transport_result(mu1, mu2, rho: MetricMatrix, res: TransportResult,
                            tol: float = DEFAULT_TOL) -> list[str]:
    """Solver-independent certificate check for a kantorovich result.

    mu1 and mu2 share one integer scale dm, the metric and the potential
    another du, and the plan keeps its own dp (`Plan.scaled`): a marginal
    is set against mu x dp / dm, and a dist x mass or potential x mass sum
    against the cost times both scales.
    """
    n = rho.space.size
    mu1, mu2, u = list(mu1), list(mu2), list(res.potential)
    if not len(mu1) == len(mu2) == len(u) == n:
        raise ValidationError("weight vectors do not match the space")
    if not res.plan.is_over(rho.space, rho.space):
        return ["plan is not over the metric's spaces"]
    ((m1, m2), (*dist, u)), (dm, du), mass, dp, t = _scaled(
        res.plan, tol, [mu1, mu2], [*rho.dist, u])
    problems = []
    if not all(abs(left_sum(r) * dm - m * dp) <= t for r, m in zip(mass, m1)):
        problems.append("plan row marginals != mu1")
    if not all(abs(left_sum(c) * dm - m * dp) <= t for c, m in zip(zip(*mass), m2)):
        problems.append("plan column marginals != mu2")
    problems += [f"potential not 1-Lipschitz at ({i},{j})" for i in range(n)
                 for j in range(n) if not dist[i][j] - abs(u[i] - u[j]) >= -t]
    support_resid = max(
        (abs(u[i] - u[j] - dist[i][j])
         for i in range(n) for j in range(n) if i != j and mass[i][j] > t),
        default=0)
    if not support_resid <= t:
        problems.append("complementary slackness residual "
                        f"{unscaled(support_resid, du)}")
    pairing = left_sum(ui * (a - b) for ui, a, b in zip(u, m1, m2))
    if not abs(pairing - res.cost * du * dm) <= t:
        problems.append("dual pairing != cost")
    plan_cost = left_sum(dist[i][j] * mass[i][j] for i in range(n) for j in range(n))
    if not abs(plan_cost - res.cost * du * dp) <= t:
        problems.append("plan cost != reported cost")
    return problems


def step_fit_violations(f: ProductFunction, fit: StepFit, strict: bool = True,
                        tol: float = DEFAULT_TOL) -> list[str]:
    """Check a step fit against its invariants; list of violations.

    Exact bounds hold strictly (or non-strictly, for a fit at the optimum);
    float bounds hold up to tol.
    """
    problems = []
    mu, nu = f.x_space.weights, f.y_space.weights
    for side, blocks, n in zip("xy", (fit.x_blocks, fit.y_blocks), f.shape):
        # an int, as a cover entry: no bool is read as an atom
        if not all(type(i) is int for blk in blocks for i in blk):
            raise ValidationError(f"{side}_blocks entries must be atom indices")
        # every atom 0..n-1 once: no other index, not even -1 for n-1
        if sorted(i for blk in blocks for i in blk) != list(range(n)):
            problems.append(f"{side}-blocks are not a partition")
    eps = fit.epsilon

    def below(v):
        if not (is_exact(v) and is_exact(eps)):
            return nonneg(eps - v, tol)
        return v < eps if strict else v <= eps

    if not below(left_sum((mu[i] for i in fit.x_blocks[0]), mu[0] * 0)):
        problems.append("exceptional x-class too heavy")
    if not below(left_sum((nu[j] for j in fit.y_blocks[0]), nu[0] * 0)):
        problems.append("exceptional y-class too heavy")
    for bi, blk in enumerate(fit.x_blocks[1:]):
        for bj, grp in enumerate(fit.y_blocks[1:]):
            c = fit.levels[bi][bj]
            for i in blk:
                for j in grp:
                    if not below(abs(f[i, j] - c)):
                        problems.append(
                            f"level deviation at cell ({i},{j}) in block pair ({bi + 1},{bj + 1})")
    return problems
