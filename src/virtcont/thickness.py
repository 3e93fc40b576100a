"""Thickness of product sets.

The thickness of Z in X x Y is the least weight mu(X~) + nu(Y~) of a cross
cover (X~ x Y) u (X x Y~) containing Z.  On atomic spaces this is exactly a
weighted bipartite vertex cover, solved by max-flow; the fractional relaxation
attains the same optimum (total unimodularity), so the integral cover doubles
as the optimal fractional pair.  The maximum flow is a subbistochastic plan
on Z of that same mass (the Hall-type identity), the certificate's other side.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import chain, compress
from operator import and_

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
    plan: Plan             # the max-flow: subbistochastic, carried on the set


def thickness(z: ProductSet) -> ThicknessResult:
    """Exact minimum cover weight with its cover, fractional pair and plan."""
    mu, nu = z.x_space.weights, z.y_space.weights
    zero = zero_of(mu + nu)
    one = zero + 1
    inst = BipartiteCoverInstance(mu, nu, z.cells())
    res = min_weighted_vertex_cover(inst)
    rows, cols = set(res.rows), set(res.cols)
    f = [one if i in rows else zero for i in range(len(mu))]
    g = [one if j in cols else zero for j in range(len(nu))]
    mass = [[zero] * len(nu) for _ in mu]
    for (i, j), fl in zip(inst.edges, res.flow):
        mass[i][j] = fl
    return ThicknessResult(res.value, res.rows, res.cols, f, g,
                           Plan(z.x_space, z.y_space, mass))


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
    scaled, scales, t = common_scales(tol, *groups)
    (mu, nu, (value,)), dw = scaled[0], scales[0]
    problems = []
    cols = range(z.y_space.size)
    cx, cy = set(cover_x), set(cover_y)
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
    problems = verify_cover(z, res.value, res.cover_x, res.cover_y,
                            res.fractional_f, res.fractional_g, tol)
    _, _, rows, d, t = plan.scaled(tol)
    if not plan.is_subbistochastic(tol):
        problems.append("witness plan is not subbistochastic")
    on_z = left_sum(z.on_set(rows))
    if not abs(left_sum(left_sum(map(abs, r)) for r in rows) - on_z) <= t:
        problems.append("witness plan carries mass off the set")
    if not abs(on_z - res.value * d) <= t:
        problems.append("witness plan mass != cover weight (duality gap)")
    return problems
