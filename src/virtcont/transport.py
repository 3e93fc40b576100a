"""Optimal transportation on one metric space, with dual certificates.

kantorovich moves mu1 to mu2 at metric cost; the common mass stays in place
(valid whenever the cost satisfies the triangle inequality) and only the
Jordan decomposition of mu1 - mu2 is shipped, by kr_norm.  The Lipschitz
potential comes from a c-transform of the transportation duals, so
complementary slackness holds exactly on the support of the optimal plan.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from math import lcm
from operator import sub

from .certs import TransportResult, verify_transport_result
from .flows import InfeasibleError, TransportationInstance, solve_transportation
from .model import (DEFAULT_TOL, MetricMatrix, Number, Plan, ValidationError,
                    close, common_integers, from_scale, left_sum, rescaled,
                    scaled_with, unscaled, zero_of)


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
    # both vectors on one scale dm, or as given (dm None)
    m, dm = common_integers(mu1 + mu2)
    m1, m2 = m[:n], m[n:]
    if not close(left_sum(m1), left_sum(m2), tol):
        raise InfeasibleError("marginal totals differ")
    value, potential, rows, d = _kr_solve(list(map(sub, m1, m2)), dm, rho, tol)
    common = list(map(min, m1, m2))
    w, dw = rho.space.scaled()
    if d is not None and dw is not None:
        scale = lcm(d, dm, dw)
        mass = [list(row) for row in rescaled(rows, d, scale)]
        (common,), (w,) = rescaled([common], dm, scale), rescaled([w], dw, scale)
        d = scale
    else:       # floats: the cells as given (a float weight makes them so)
        mass, d = from_scale(rows, d), None
        common, w = from_scale([common], dm)[0], rho.space.weights
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
    value, potential, rows, d = _kr_solve(*common_integers(signed), rho, tol)
    return KrNormResult(value, potential, from_scale(rows, d))


def _kr_solve(s, d, rho: MetricMatrix, tol: float):
    """kr_norm's value and potential for the signed vector s on the scale
    d, ints over d or floats as given if d is None, and its plan on the
    same scale: (value, potential, plan rows, d), the rows ints over d, or
    floats as given if d is None.  In exact mode the signed vector and the
    metric are solved on their integer scales (`MetricMatrix.scaled`)."""
    n = rho.space.size
    if len(s) != n:
        raise ValidationError("signed vector does not match the space")
    dist, dr = rho.scaled()
    exact = d is not None and dr is not None
    if not exact:       # a float among them: all as given
        s, d, dist, dr = from_scale([s], d)[0], None, rho.dist, None
    zero = 0 if exact else zero_of(chain(s, *rho.dist))
    if not close(left_sum(s), zero, tol):
        raise ValidationError("signed weights do not sum to zero")
    pos = [max(x, zero) for x in s]
    neg = [max(-x, zero) for x in s]
    if close(left_sum(pos, zero), zero, tol):
        z = Fraction(0) if exact else zero
        return z, [z] * n, [[zero] * n for _ in range(n)], d
    res = solve_transportation(TransportationInstance.of_scaled(pos, neg, d, dist, dr))
    # c-transform of the sink potential: 1-Lipschitz by the triangle inequality,
    # tight on the support of the shipped mass; on one integer scale d
    (v,), dist, d = scaled_with([res.v], *rho.scaled()) or ([res.v], rho.dist, 1)
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
