"""Thickness of product sets.

The thickness of Z in X x Y is the least weight mu(X~) + nu(Y~) of a cross
cover (X~ x Y) u (X x Y~) containing Z.  On atomic spaces this is exactly a
weighted bipartite vertex cover, solved by max-flow; the fractional relaxation
attains the same optimum (total unimodularity), so the integral cover doubles
as the optimal fractional pair.  The maximum flow is a subbistochastic plan
on Z of that same mass (the Hall-type identity), the certificate's other side;
it becomes the plan on the kernel's own scale, with no Fraction formed.
"""

from __future__ import annotations

from itertools import chain
from math import lcm

from .certs import ThicknessResult, verify_cover, verify_thickness_result
from .flows import (BipartiteCoverInstance, min_weighted_vertex_cover,
                    nested_cover_weights)
from .model import (Number, Plan, ProductFunction, ProductSet, from_scale,
                    level_set, rescaled, weights_scaled, zero_of)


def thickness(z: ProductSet) -> ThicknessResult:
    """Exact minimum cover weight with its cover, fractional pair and plan."""
    mu, nu = z.x_space.weights, z.y_space.weights
    zero = zero_of(mu + nu)
    one = zero + 1
    inst = BipartiteCoverInstance.of_set(z)
    res = min_weighted_vertex_cover(inst)
    rows, cols = set(res.rows), set(res.cols)
    f = [one if i in rows else zero for i in range(len(mu))]
    g = [one if j in cols else zero for j in range(len(nu))]
    # the flow's scale, the weights': ints over d, or floats if None
    (xw, yw), d = weights_scaled(z.x_space, z.y_space)
    mass = [[zero if d is None else 0] * len(nu) for _ in mu]
    for (i, j), fl in zip(inst.edges, res.scaled_flow):
        mass[i][j] = fl
    plan = Plan.of_scaled(z.x_space, z.y_space, xw, yw, mass, d)
    return ThicknessResult(res.value, res.rows, res.cols, f, g, plan)


def thickness_of_level_set(f: ProductFunction, lam: Number) -> Number:
    """th({|f| >= lam}), the integrand of the layer-cake bound."""
    return thickness(level_set(f.abs(), lam, ">=")).value


def exceedance_thicknesses(f: ProductFunction) -> tuple:
    """(levels, ths, d): the zero of f's regime and every value of f,
    ascending, with ths[k] = th({f > levels[k]}), on one integer scale d,
    the lcm of f's and the weights' (`ProductFunction.scaled`,
    `model.weights_scaled`): ints over d.  If a value or a weight is a
    float, d is None, the levels are the values as given and the
    thicknesses are in the weights' units.

    The exceedance sets only grow as the level falls, so one warm-started
    max-flow (`flows.nested_cover_weights`) gives every thickness, from the
    top level down.  A cell of value levels[k] lies in the sets of
    levels[:k], so it joins the sweep with the set of levels[k - 1].  The
    levels are sorted, indexed and swept as ints, and only the distinct
    ones are put on the scale d.
    """
    rows, dv = f.scaled()
    if dv is None or weights_scaled(f.x_space, f.y_space)[1] is None:
        rows, dv = f.values, None
    cells = list(chain.from_iterable(rows))
    levels = sorted({0 if dv is not None else zero_of(cells)}.union(cells))
    index = dict(zip(levels, range(len(levels))))
    joins = [[] for _ in levels]     # joins[k]: the cells whose top level is k
    for i, row in enumerate(rows):
        for j, k in enumerate(map(index.__getitem__, row)):
            if k:
                joins[k - 1].append((i, j))
    ths, dw = nested_cover_weights(f.x_space, f.y_space, joins[::-1])
    ths.reverse()
    if dv is None:
        return levels, from_scale([ths], dw)[0], None
    d = lcm(dv, dw)
    (levels,), (ths,) = rescaled([levels], dv, d), rescaled([ths], dw, d)
    return levels, ths, d
