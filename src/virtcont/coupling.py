"""Bistochastic plans: maximal mass on a set, completion, traces, QB norm.

The discrete Hall identity: the largest mass a bistochastic plan can place on
a set Z equals the thickness of Z.  The max-flow that computes thickness also
builds the optimal subbistochastic plan supported on Z; a northwest-corner
fill of the marginal deficits completes it to a bistochastic plan.
"""

from __future__ import annotations

from dataclasses import dataclass

from .model import (Number, Plan, ProductFunction, ProductSet, ValidationError,
                    left_sum, unscaled)
from .thickness import ThicknessResult, thickness


@dataclass
class HallResult:
    mass: Number
    plan: Plan                       # fully bistochastic
    thickness_certificate: ThicknessResult


def max_bistochastic_mass(z: ProductSet) -> HallResult:
    """max over bistochastic plans of the mass placed on Z; equals th(Z)."""
    cert = thickness(z)
    _, _, rows, d, _ = cert.plan.scaled()
    total_on_z = unscaled(left_sum(z.on_set(rows)), d)
    return HallResult(total_on_z, complete_to_bistochastic(cert.plan), cert)


def complete_to_bistochastic(sub: Plan) -> Plan:
    """Dominating bistochastic plan: route the marginal deficits
    northwest-corner, on the plan's own scale (`Plan.scaled`)."""
    if sub.signed:
        raise ValidationError("cannot complete a signed plan")
    if not sub.is_subbistochastic():
        raise ValidationError("input plan is not subbistochastic")
    xw, yw, rows, d, t = sub.scaled()
    row_def = [w - left_sum(r) for w, r in zip(xw, rows)]
    col_def = [w - left_sum(c) for w, c in zip(yw, zip(*rows))]
    mass = [list(row) for row in rows]
    i = j = 0
    nr, nc = sub.x_space.size, sub.y_space.size
    while i < nr and j < nc:
        step = min(row_def[i], col_def[j])
        if step > 0:
            mass[i][j] += step
            row_def[i] -= step   # x - min(x, y) is exactly 0 for the smaller
            col_def[j] -= step
        # advance past exhausted lines, a float deficit of negative dust
        # among them; ties advance the row first
        if row_def[i] <= 0:
            i += 1
        else:
            j += 1
    # on the plan's scale: d, or None for a float plan (t > 0)
    return Plan.of_scaled(sub.x_space, sub.y_space, xw, yw, mass,
                          None if t else d)


def integrate_against_plan(f: ProductFunction, plan: Plan) -> Number:
    """Sum of f * mass over atom pairs (signed masses allowed)."""
    if f.shape != (plan.x_space.size, plan.y_space.size):
        raise ValidationError("factor dimension mismatch")
    return left_sum(f[i, j] * plan.mass[i][j]
                    for i in range(f.x_space.size) for j in range(f.y_space.size))


def qb_norm(eta: Plan) -> Number:
    """max of the two marginal-density sup-norms of |eta|."""
    mu, nu = eta.x_space.weights, eta.y_space.weights
    row = max(r / w for r, w in zip(eta.abs_row_marginals(), mu))
    col = max(c / w for c, w in zip(eta.abs_col_marginals(), nu))
    return max(row, col)
