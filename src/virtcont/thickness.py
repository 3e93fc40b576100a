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

from .certs import ThicknessResult, verify_cover, verify_thickness_result
from .flows import (BipartiteCoverInstance, min_weighted_vertex_cover,
                    nested_cover_weights)
from .model import (Number, Plan, ProductFunction, ProductSet, level_set,
                    to_scale, zero_of)


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
    d = res.scale       # the flow's: ints over d, or floats if None
    mass = [[zero if d is None else 0] * len(nu) for _ in mu]
    for (i, j), fl in zip(inst.edges, res.scaled_flow):
        mass[i][j] = fl
    plan = Plan.of_scaled(z.x_space, z.y_space, to_scale(mu, d),
                          to_scale(nu, d), mass, d)
    return ThicknessResult(res.value, res.rows, res.cols, f, g, plan)


def thickness_of_level_set(f: ProductFunction, lam: Number) -> Number:
    """th({|f| >= lam}), the integrand of the layer-cake bound."""
    return thickness(level_set(f.abs(), lam, ">=")).value


def exceedance_thicknesses(f: ProductFunction) -> tuple:
    """(levels, ths): the zero of f's regime and every value of f, ascending,
    with ths[k] = th({f > levels[k]}).

    The exceedance sets only grow as the level falls, so one warm-started
    max-flow (`flows.nested_cover_weights`) gives every thickness, from the
    top level down.  A cell of value levels[k] lies in the sets of
    levels[:k], so it joins the sweep with the set of levels[k - 1].
    """
    values = [v for row in f.values for v in row]
    levels = sorted({zero_of(values)}.union(values))
    index = {v: k for k, v in enumerate(levels)}
    joins = [[] for _ in levels]     # joins[k]: the cells whose top level is k
    for i, row in enumerate(f.values):
        for j, x in enumerate(row):
            k = index[x]
            if k:
                joins[k - 1].append((i, j))
    return levels, nested_cover_weights(f.x_space.weights, f.y_space.weights,
                                        joins[::-1])[::-1]
