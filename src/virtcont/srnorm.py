"""The separable-regulator norm and its subbistochastic dual.

Primal: the least integral of a separable majorant a(x) + b(y) >= |f(x,y)|.
Dual: the largest mass-weighted integral of |f| over subbistochastic plans.
Both come out of one max-profit transportation solve (profits |f|, supplies
mu, demands nu, slack marginals); strong duality is exact in rational mode.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain

from .certs import SrNormResult, verify_sr_certificates
from .flows import TransportationInstance, solve_transportation
from .model import (Number, Plan, ProductFunction, SeparableMajorant,
                    ValidationError, close, left_sum, to_scale, weights_scaled,
                    zero_of)
from .thickness import exceedance_thicknesses


def sr_norm(f: ProductFunction) -> SrNormResult:
    """Optimal majorant and subbistochastic witness for |f|.

    The dual potentials of the transportation solve give the majorant; they
    are shifted so that min(a) = 0 (the optimum is invariant under the
    exchange (a + c, b - c)).  In exact mode the weights and |f| go to the
    solve as ints on their scales (`model.weights_scaled`,
    `ProductFunction.scaled`), and the dual value is summed on those ints
    and the plan's.
    """
    mu, nu = f.x_space.weights, f.y_space.weights
    absf = f.abs()
    (xw, yw), dw = weights_scaled(f.x_space, f.y_space)
    fv, df = absf.scaled()
    res = solve_transportation(TransportationInstance.of_scaled(
        xw, yw, dw, fv, df, mode="max-profit"))
    a, b = list(res.u), list(res.v)
    shift = min(a)
    a = [v - shift for v in a]
    b = [max(v + shift, v * 0) for v in b]
    majorant = SeparableMajorant(a, b)
    # the plan as the solve left it: ints over d, or floats if d is None
    rows, d = res.scaled_plan, res.scale
    plan = Plan.of_scaled(f.x_space, f.y_space, to_scale(mu, d),
                          to_scale(nu, d), rows, d)
    if d is None:       # a float among them: |f| in its units
        fv = absf.values
    # the cells without mass add exact zeros in either regime; ints on the
    # scales d * df add from the int 0
    dual = left_sum((v * m for frow, mrow in zip(fv, rows)
                     for v, m in zip(frow, mrow) if m),
                    zero_of(chain(mu, nu, *fv)) if d is None else 0)
    dual_value = dual if d is None else Fraction(dual, d * df)
    primal_value = majorant.weight(f.x_space, f.y_space)
    return SrNormResult(primal_value, majorant, plan, dual_value)


def layer_cake_integral(f: ProductFunction) -> Number:
    """Integral over lam of th({|f| >= lam}): piecewise constant, summed exactly.

    Between consecutive levels w' < w of |f|, th({|f| >= w}) equals
    th({|f| > w'}), so one warm-started max-flow over the exceedance sets of
    |f| gives every step (`thickness.exceedance_thicknesses`).  The least
    level is the zero, from which the sum starts.  In exact mode the levels
    and the thicknesses are ints over one scale d, so the sum is an int
    over d**2.
    """
    levels, ths, d = exceedance_thicknesses(f.abs())
    total = left_sum(((w - prev) * th for prev, w, th in zip(levels, levels[1:], ths)),
                     levels[0])
    return total if d is None else Fraction(total, d * d)


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
