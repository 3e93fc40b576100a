"""Thickness of product sets.

The thickness of Z in X x Y is the least weight mu(X~) + nu(Y~) of a cross
cover (X~ x Y) u (X x Y~) containing Z.  On atomic spaces this is exactly a
weighted bipartite vertex cover, solved by max-flow; the fractional relaxation
attains the same optimum (total unimodularity), so the integral cover doubles
as the optimal fractional pair.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import chain

from .flows import (BipartiteCoverInstance, min_weighted_vertex_cover,
                    nested_cover_weights)
from .model import (DEFAULT_TOL, Number, Plan, ProductFunction, ProductSet,
                    ValidationError, common_scales, left_sum, level_set,
                    unscaled, zero_of)


@dataclass
class ThicknessResult:
    value: Number
    cover_x: list          # indices of X-atoms in the cover
    cover_y: list          # indices of Y-atoms in the cover
    fractional_f: list     # per-X values in [0,1]
    fractional_g: list     # per-Y values in [0,1]
    flow: list             # max-flow certificate aligned with member cells
    cells: list            # member cells, sorted


def thickness(z: ProductSet) -> ThicknessResult:
    """Exact minimum cover weight with integral and fractional certificates."""
    mu, nu = z.x_space.weights, z.y_space.weights
    zero = zero_of(mu + nu)
    one = zero + 1
    inst = BipartiteCoverInstance(mu, nu, z.cells())
    res = min_weighted_vertex_cover(inst)
    rows, cols = set(res.rows), set(res.cols)
    f = [one if i in rows else zero for i in range(len(mu))]
    g = [one if j in cols else zero for j in range(len(nu))]
    return ThicknessResult(res.value, res.rows, res.cols, f, g,
                           res.flow, list(inst.edges))


def _flow_plan(z: ProductSet, res: ThicknessResult) -> Plan:
    """The max-flow certificate of `thickness` as a subbistochastic plan on z.

    Kept out of `thickness` itself: `tau_ball_check` and the tau check need
    only the value.
    """
    zero = res.value * 0
    mass = [[zero] * z.y_space.size for _ in range(z.x_space.size)]
    for (i, j), fl in zip(res.cells, res.flow):
        mass[i][j] = fl
    return Plan(z.x_space, z.y_space, mass)


def thickness_of_level_set(f: ProductFunction, lam: Number) -> Number:
    """th({|f| >= lam}), the integrand of the layer-cake bound."""
    return thickness(level_set(f.abs(), lam, ">=")).value


def level_set_thicknesses(f: ProductFunction, levels, mode: str) -> list:
    """[th(level_set(f, v, mode)) for v in levels], levels strictly ascending.

    The level sets only grow as the level falls, so one warm-started max-flow
    (`flows.nested_cover_weights`) gives every thickness, from the top level
    down.  A cell of value x lies in the sets of levels[:k], where k counts
    the levels below x (mode '>') or at most x (mode '>='); a value that is
    itself a level is counted by its index, without comparisons.
    """
    count = {">": bisect_left, ">=": bisect_right}[mode]
    shift = mode == ">="
    index = {v: k + shift for k, v in enumerate(levels)}
    joins = [[] for _ in levels]     # joins[k]: the cells whose top level is k
    for i, row in enumerate(f.values):
        for j, x in enumerate(row):
            k = index.get(x)
            if k is None:
                k = count(levels, x)
            if k:
                joins[k - 1].append((i, j))
    return nested_cover_weights(f.x_space.weights, f.y_space.weights,
                                joins[::-1])[::-1]


def verify_thickness_result(z: ProductSet, res: ThicknessResult,
                            tol: float = DEFAULT_TOL) -> list[str]:
    """Re-check a thickness certificate without the solver; list of violations.

    Weights and the value share one integer scale dw, the fractional pair
    has its own dp, so the pair's weight is set against value * dp.
    """
    nx, ny = z.x_space.size, z.y_space.size
    if len(res.fractional_f) != nx or len(res.fractional_g) != ny:
        raise ValidationError("fractional pair does not match the factors")
    ((mu, nu, (value,)), (f, g)), (dw, dp), t = common_scales(
        tol, [z.x_space.weights, z.y_space.weights, [res.value]],
        [res.fractional_f, res.fractional_g])
    problems = []
    cells = list(z.cells())
    cx, cy = set(res.cover_x), set(res.cover_y)
    for (i, j) in cells:
        if i not in cx and j not in cy:
            problems.append(f"cell ({i},{j}) not covered")
    total = left_sum(mu[i] for i in cx) + left_sum(nu[j] for j in cy)
    if not abs(total - value) <= t:
        problems.append(f"cover weight {unscaled(total, dw)} != "
                        f"reported value {unscaled(value, dw)}")
    for (i, j) in cells:
        if not f[i] + g[j] - dp >= -t:
            problems.append(f"fractional pair below 1 on cell ({i},{j})")
    if not all(v >= -t for v in chain(f, g)):
        problems.append("fractional pair has a negative entry")
    fw = left_sum(w * v for w, v in zip(mu, f)) + left_sum(w * v for w, v in zip(nu, g))
    if not abs(fw - value * dp) <= t:
        problems.append("fractional pair weight != value")
    return problems
