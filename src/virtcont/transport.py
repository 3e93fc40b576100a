"""Optimal transportation on one metric space, with dual certificates.

kantorovich moves mu1 to mu2 at metric cost; the common mass stays in place
(valid whenever the cost satisfies the triangle inequality) and only the
Jordan decomposition of mu1 - mu2 is shipped, by kr_norm.  The Lipschitz
potential comes from a c-transform of the transportation duals, so
complementary slackness holds exactly on the support of the optimal plan.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from math import lcm
from operator import sub

from .certs import TransportResult, verify_transport_result
from .flows import InfeasibleError, TransportationInstance, solve_transportation
from .model import (DEFAULT_TOL, MetricMatrix, Number, Plan, ValidationError,
                    all_exact, close, common_scales, from_scale, is_exact,
                    left_sum, to_scale, unscaled, zero_of)


@dataclass
class KrNormResult:
    value: Number
    potential: list        # 1-Lipschitz, pairs with the signed vector to value
    plan: list             # ships the positive part onto the negative part


@dataclass
class TwoLevelReport:
    primal: Number         # inf over plans of the rho-cost
    dual: Number           # sup of mu.w1 + nu.w2 with w1 + w2 <= rho
    gap: Number
    plan: list
    w1: list
    w2: list


def kantorovich(mu1, mu2, rho: MetricMatrix, tol: float = DEFAULT_TOL) -> TransportResult:
    """Optimal plan and Lipschitz dual potential between two weight vectors.

    The common mass min(mu1, mu2) stays on the diagonal; the rest is the
    kr_norm solve of mu1 - mu2, whose potential certifies both.  The plan
    is built on one integer scale: the lcm of the solve's, the space's and
    the common mass's denominators.  rho must be a semimetric, as
    `fileio.metric_from_obj` returns one; check a hand-built one with
    `model.validate_semimetric` first.
    """
    n = rho.space.size
    mu1, mu2 = list(mu1), list(mu2)
    if len(mu1) != n or len(mu2) != n:
        raise ValidationError("weight vectors do not match the space")
    if not close(left_sum(mu1), left_sum(mu2), tol):
        raise InfeasibleError("marginal totals differ")
    value, potential, rows, d = _kr_solve([a - b for a, b in zip(mu1, mu2)],
                                          rho, tol)
    common, w = list(map(min, mu1, mu2)), rho.space.weights
    if d is not None and all_exact(w):
        scale = lcm(d, *(x.denominator for x in chain(w, common)))
        mass = [[k * (scale // d) for k in row] for row in rows]
        d, common, w = scale, to_scale(common, scale), to_scale(w, scale)
    else:       # floats: the cells as given (a float weight makes them so)
        mass, d = from_scale(rows, d), None
    for i, c in enumerate(common):
        mass[i][i] += c
    return TransportResult(value, Plan.of_scaled(rho.space, rho.space, w, w,
                                                 mass, d), potential)


def kr_norm(signed, rho: MetricMatrix, tol: float = DEFAULT_TOL) -> KrNormResult:
    """Transport-cost norm of a balanced signed weight vector.

    The Lipschitz potential is a c-transform of the transportation duals, so
    complementary slackness holds exactly on the support of the plan.  rho
    must be a semimetric, as `fileio.metric_from_obj` returns one; it is
    not validated here, so check a hand-built one with
    `model.validate_semimetric` first.
    """
    value, potential, rows, d = _kr_solve(signed, rho, tol)
    return KrNormResult(value, potential, from_scale(rows, d))


def _kr_solve(signed, rho: MetricMatrix, tol: float):
    """kr_norm's value and potential, and its plan on the scale d of the
    signed vector: (value, potential, plan rows, d), the rows ints over d,
    or floats as given if d is None."""
    signed = list(signed)
    n = rho.space.size
    if len(signed) != n:
        raise ValidationError("signed vector does not match the space")
    zero = zero_of(chain(signed, *rho.dist))
    if not close(left_sum(signed), zero, tol):
        raise ValidationError("signed weights do not sum to zero")
    pos = [max(s, zero) for s in signed]
    neg = [max(-s, zero) for s in signed]
    total = left_sum(pos, zero)
    if close(total, zero, tol):
        cell, d = (0, 1) if is_exact(zero) else (zero, None)
        return zero, [zero] * n, [[cell] * n for _ in range(n)], d
    inst = TransportationInstance(pos, neg, rho.dist, mode="min-cost")
    res = solve_transportation(inst)
    # c-transform of the sink potential: 1-Lipschitz by the triangle inequality,
    # tight on the support of the shipped mass; on one integer scale d
    ((v, *dist),), (d,), _ = common_scales(tol, [res.v, *rho.dist])
    u = [min(map(sub, row, v)) for row in dist]
    shift = u[0]
    u = [unscaled(x - shift, d) for x in u]
    return res.value, u, res.scaled_plan, res.scale


def two_level_duality_check(rho_matrix, mu, nu, z=None) -> TwoLevelReport:
    """Equality of the plan-cost infimum and the separable-minorant supremum.

    rho_matrix is any finite cost matrix over X x Y atoms; the primal ships mu
    to nu at that cost, the dual maximizes mu.w1 + nu.w2 subject to
    w1(i) + w2(j) <= rho(i,j).  An optional z = (z1, z2) of positive factor
    reweightings replaces the marginals by (z1*mu, z2*nu); the default is the
    all-ones pair.
    """
    mu, nu = list(mu), list(nu)
    if z is not None:
        z1, z2 = z
        if any(not v > 0 for v in list(z1) + list(z2)):
            raise ValidationError("reweighting factors must be positive")
        mu = [a * b for a, b in zip(z1, mu)]
        nu = [a * b for a, b in zip(z2, nu)]
    rho = [list(r) for r in rho_matrix]
    if len(rho) != len(mu) or any(len(r) != len(nu) for r in rho):
        raise ValidationError("cost matrix dimensions do not match weights")
    inst = TransportationInstance(mu, nu, rho, mode="min-cost")
    res = solve_transportation(inst)
    dual = (left_sum(m * w for m, w in zip(mu, res.u))
            + left_sum(m * w for m, w in zip(nu, res.v)))
    return TwoLevelReport(res.value, dual, res.value - dual, res.plan, res.u, res.v)
