"""The separable-regulator norm and its subbistochastic dual.

Primal: the least integral of a separable majorant a(x) + b(y) >= |f(x,y)|.
Dual: the largest mass-weighted integral of |f| over subbistochastic plans.
Both come out of one max-profit transportation solve (profits |f|, supplies
mu, demands nu, slack marginals); strong duality is exact in rational mode.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain

from .flows import TransportationInstance, solve_transportation
from .model import (DEFAULT_TOL, Number, Plan, ProductFunction,
                    SeparableMajorant, ValidationError, close, common_scales,
                    left_sum, zero_of)
from .thickness import level_set_thicknesses


@dataclass
class SrNormResult:
    value: Number
    majorant: SeparableMajorant
    dual_plan: Plan        # mass lambda_ij = h_ij * mu_i * nu_j, subbistochastic
    dual_value: Number


def sr_norm(f: ProductFunction) -> SrNormResult:
    """Optimal majorant and subbistochastic witness for |f|.

    The dual potentials of the transportation solve give the majorant; they
    are shifted so that min(a) = 0 (the optimum is invariant under the
    exchange (a + c, b - c)).
    """
    mu, nu = f.x_space.weights, f.y_space.weights
    absf = [[abs(v) for v in row] for row in f.values]
    inst = TransportationInstance(mu, nu, absf, mode="max-profit")
    res = solve_transportation(inst)
    a, b = list(res.u), list(res.v)
    shift = min(a)
    a = [v - shift for v in a]
    b = [max(v + shift, v * 0) for v in b]
    majorant = SeparableMajorant(a, b)
    plan = Plan(f.x_space, f.y_space, res.plan)
    # the cells without mass add exact zeros in either regime
    dual_value = left_sum((v * m for frow, mrow in zip(absf, res.plan)
                           for v, m in zip(frow, mrow) if m),
                          zero_of(chain(mu, nu, *absf)))
    primal_value = majorant.weight(f.x_space, f.y_space)
    return SrNormResult(primal_value, majorant, plan, dual_value)


def layer_cake_integral(f: ProductFunction) -> Number:
    """Integral over lam of th({|f| >= lam}): piecewise constant, summed exactly.

    The sets {|f| >= w} only grow as w falls, so one warm-started max-flow
    gives the thickness at every level (`thickness.level_set_thicknesses`).
    """
    zero = zero_of(v for row in f.values for v in row)
    levels = sorted({abs(v) for row in f.values for v in row} - {zero})
    total = zero
    prev = zero
    for w, th in zip(levels, level_set_thicknesses(f.abs(), levels, ">=")):
        total += (w - prev) * th
        prev = w
    return total


def cutoff(f: ProductFunction, n: Number) -> ProductFunction:
    """Two-sided cut-off: clamp entries to [-N, N]."""
    if n < 0:
        raise ValidationError("cut-off level must be nonnegative")
    return f.map(lambda v: min(max(v, -n), n))


def nuclear_bound(rank_one_terms, x_space, y_space):
    """Trace-norm bound for a kernel sum s_k * u_k(x) * v_k(y).

    Requires each factor normalized in its weighted 2-norm.  Returns
    (sum |s_k|, explicit majorant (sum |s_k| u_k^2)/2 + (sum |s_k| v_k^2)/2),
    which dominates |K| pointwise by AM-GM.
    """
    mu, nu = x_space.weights, y_space.weights
    zero = Fraction(0)
    for (s, u, v) in rank_one_terms:
        un = left_sum(w * q * q for w, q in zip(mu, u))
        vn = left_sum(w * q * q for w, q in zip(nu, v))
        if not close(un, 1) or not close(vn, 1):
            raise ValidationError("rank-one factors must be normalized in the weighted 2-norm")
    bound = left_sum((abs(s) for (s, _, _) in rank_one_terms), zero)
    a = [left_sum((abs(s) * u[i] * u[i] for (s, u, _) in rank_one_terms), zero) / 2
         for i in range(x_space.size)]
    b = [left_sum((abs(s) * v[j] * v[j] for (s, _, v) in rank_one_terms), zero) / 2
         for j in range(y_space.size)]
    return bound, SeparableMajorant(a, b)


def kernel_from_terms(rank_one_terms, x_space, y_space) -> ProductFunction:
    zero = Fraction(0)
    values = [[left_sum((s * u[i] * v[j] for (s, u, v) in rank_one_terms), zero)
               for j in range(y_space.size)] for i in range(x_space.size)]
    return ProductFunction(x_space, y_space, values)


def verify_sr_certificates(f: ProductFunction, res: SrNormResult,
                           tol: float = DEFAULT_TOL) -> list[str]:
    """Solver-independent re-check of both optimality certificates.

    The majorant and f share one integer scale df, the weights another dw,
    and the dual plan keeps its own dp (`Plan.scaled`): each weight x
    majorant or |f| x mass sum is set against the value times both scales.
    """
    nx, ny = f.shape
    if len(res.majorant.a) != nx or len(res.majorant.b) != ny:
        raise ValidationError("majorant does not match the factors")
    if res.dual_plan.x_space.size != nx or res.dual_plan.y_space.size != ny:
        raise ValidationError("dual plan does not match the factors")
    ((a, b, *fv), (mu, nu)), (df, dw), t = common_scales(
        tol, [res.majorant.a, res.majorant.b, *f.values],
        [f.x_space.weights, f.y_space.weights])
    _, _, mass, dp, tp = res.dual_plan.scaled(tol)
    t = max(t, tp)   # 0 unless some value is a float
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
    return problems
