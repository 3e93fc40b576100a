"""Combinatorial optimization kernels shared by the measure-theoretic layers.

Two solvers live here:

* a bipartite max-flow / min-cut routine (weighted vertex cover by LP duality
  on a totally unimodular system).  Its kernel sweeps a growing family of
  edge sets in one warm-started max-flow, reading a cover after each batch
  of edges; a single cover is the one-batch case, and tau and the layer-cake
  bound read every level set's thickness from one sweep.  Its breadth-first
  search runs on the bipartite network's own flows and stops at the first
  column it reaches with sink residual left: breadth-first order dequeues
  that column before any node reached after it, so a search run on to the
  sink would take the same path.  A batch's one-edge paths, which the
  search would return first, are taken in its order without a search;
* a balanced min-cost transportation solver (successive shortest paths with
  node potentials) that also handles the max-profit / slack-marginal variant
  through a dummy row and column.

In exact mode the rational inputs are scaled once to ints over their common
denominator (`model.common_integers`), or come on their scale already (a
space's weights, a function's cells, a metric's distances); the kernel runs
on the ints, and its values are divided back to Fractions at the end.  A
flow or a plan is handed over on its scale, as ints with their
denominator; its Fractions are a view formed on first use
(`model.from_scale`).  A positive common scale
preserves every comparison and tie, so the kernel takes the same steps as
on the Fractions themselves.  Each kernel is one body for ints and floats,
with tol 0 on the ints and EPS on floats.  The transportation solver finds
each shortest path by a Bellman-Ford search on reduced costs
(`_ssp_bellman_ford`), which stays correct where float round-off makes a
reduced cost negative; a float search that round-off sends around a cycle
is run again with a margin scaled to the costs.  A round of that search
scans only the nodes that the round before it moved, from lists kept per
phase, tests each arc against a limit formed once per distance, and reads
backward arcs from a support kept sorted across passes.  Augmentation
order is deterministic: ties break on the lowest node index, or in the
transportation search on the arc that it scans first.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import chain
from math import inf
from operator import itemgetter, neg, sub
from typing import Optional, Sequence

from .model import (EPS, Number, ProductSet, ValidationError, all_finite,
                    common_integers, from_scale, left_sum, scaled_rows,
                    weights_scaled, zero_of)


class InfeasibleError(ValueError):
    """The instance has no feasible solution."""


@dataclass(frozen=True)
class BipartiteCoverInstance:
    """Weighted vertex cover data: row/column costs and the edge set to cover."""

    row_costs: tuple
    col_costs: tuple
    edges: tuple  # sorted tuple of (i, j)
    # the costs on their scale, as `model.weights_scaled` gives them, or None
    _scaled: Optional[tuple] = field(default=None, init=False, repr=False,
                                     compare=False)

    def __init__(self, row_costs: Sequence[Number], col_costs: Sequence[Number], edges):
        row_costs, col_costs = tuple(row_costs), tuple(col_costs)
        edges = _int_pairs(edges)
        _require_positive(row_costs + col_costs)
        nr, nc = len(row_costs), len(col_costs)
        cols = list(map(itemgetter(1), edges))
        if edges and not (0 <= edges[0][0] and edges[-1][0] < nr and
                          0 <= min(cols) and max(cols) < nc):
            # the first edge out of range, in sorted order
            i, j = next((i, j) for i, j in edges
                        if not (0 <= i < nr and 0 <= j < nc))
            raise ValidationError(f"edge ({i},{j}) out of range")
        self._set(row_costs, col_costs, edges)

    @classmethod
    def of_set(cls, z: ProductSet) -> "BipartiteCoverInstance":
        """The instance whose least cover weight is th(z): the factor weights
        as costs and the member cells as edges.  `ProductSet.cells` yields
        sorted, distinct, in-range int pairs, so only the costs are checked."""
        (xw, yw), d = weights_scaled(z.x_space, z.y_space)
        _require_positive(xw + yw)
        inst = object.__new__(cls)
        inst._set(z.x_space.weights, z.y_space.weights, tuple(z.cells()))
        object.__setattr__(inst, "_scaled", (xw + yw, d))
        return inst

    def _set(self, row_costs, col_costs, edges):
        object.__setattr__(self, "row_costs", row_costs)
        object.__setattr__(self, "col_costs", col_costs)
        object.__setattr__(self, "edges", edges)


@dataclass
class CoverResult:
    value: Number
    rows: list            # picked row indices
    cols: list            # picked column indices
    flow_value: Number
    scaled_flow: list     # certificate flow per edge, aligned with inst.edges,
                          # on the costs' scale: ints over `scale`, or floats
    scale: Optional[int]  # the costs' common denominator; None for floats

    @cached_property
    def flow(self) -> list:
        """The certificate flow per edge, in the costs' units."""
        return from_scale([self.scaled_flow], self.scale)[0]


def _int_pairs(edges) -> tuple:
    """The distinct edges (i, j) as int pairs in increasing order."""
    return tuple(sorted({(int(i), int(j)) for i, j in edges}))


def _require_positive(costs):
    if any(c <= 0 for c in costs):
        raise ValidationError("cover costs must be strictly positive")


def min_weighted_vertex_cover(inst: BipartiteCoverInstance) -> CoverResult:
    """Minimum-weight cover of all edges, with the max-flow optimality certificate.

    Network: source -> row i (capacity row cost), col j -> sink (capacity col
    cost), row->col arcs of effectively infinite capacity on the edges.  By
    max-flow/min-cut the optimal cover weight equals the max flow, and the cut
    is read off residual reachability (source-side rows stay unpicked).
    This is the one-batch case of `nested_cover_weights`.
    """
    costs, scale = inst._scaled or common_integers(inst.row_costs + inst.col_costs)
    [(rows, cols)], [value], flow, total = _scaled_covers(
        costs, scale, len(inst.row_costs), [inst.edges])
    if scale is not None:
        value, total = Fraction(value, scale), Fraction(total, scale)
    return CoverResult(value, rows, cols, total, flow, scale)


def nested_cover_weights(x_space, y_space, batches):
    """The least cover weight of each growing edge set, the spaces' weights
    as costs, from one max-flow: (weight per batch, d), the weights on the
    costs' one scale (`model.weights_scaled`), ints over d, or floats with d
    None.

    The k-th edge set is the union of batches[0..k].  Adding edges keeps the
    flow found so far feasible, so it is augmented further instead of solved
    again (Gallo, Grigoriadis & Tarjan, SIAM J. Comput. 18, 1989).  The
    residual reachability of a maximum flow is the same for every maximum
    flow, so each cover is the one `min_weighted_vertex_cover` returns on
    that edge set alone, and its weight is summed the same way.
    """
    (xw, yw), d = weights_scaled(x_space, y_space)
    if any(batches):
        _require_positive(xw + yw)
    return _scaled_covers(xw + yw, d, len(xw), batches)[1], d


def _scaled_covers(costs, scale, nr: int, batches):
    """`_max_flow_cover` on the row costs costs[:nr] and the column costs
    costs[nr:], ints over scale, or floats with scale None and EPS as the
    kernel's zero: ([(rows, cols) per batch], [weight per batch], flow per
    edge, flow value), all on the costs' scale.  A cover's weight is summed
    on the costs, rows first, then columns, each from 0 (0.0 on floats)."""
    zero = 0 if scale is not None else 0.0
    covers, flow, total = _max_flow_cover(
        costs[:nr], costs[nr:], batches, 0 if scale is not None else EPS)
    weights = [left_sum((costs[i] for i in rows), zero) +
               left_sum((costs[nr + j] for j in cols), zero)
               for rows, cols in covers]
    return covers, weights, flow, total


def _max_flow_cover(row_costs, col_costs, batches, tol):
    """Max-flow kernel of the cover, warm-started over growing edge sets.

    Adds each batch of edges in turn and augments the flow until no path is
    left; the failed search is the residual reachability from the source,
    which gives that edge set's cover.  Returns ([(rows, cols) per batch],
    flow per edge in the order added, flow value).  tol is 0 on scaled ints
    and EPS on floats; the zero follows it, so int sums stay ints.

    Each path is a shortest one, found breadth first (Edmonds & Karp, J. ACM
    19, 1972) on the flow through each row, column and edge.  The rows with
    residual, kept in a set, leave the source in index order; a row opens
    every column it has not reached, in the order its edges were added (edge
    arcs exceed every cut, so they are always open and never bind); a column
    opens rows back through the edges with flow above tol, which it lists in
    edge order, updated at the edges of each path.  The search stops at the
    first column it reaches with sink residual above tol.  Every column
    reached before it has none, and every node reached after it is dequeued
    after it, so a search run on to the sink takes the same path.  Residuals
    are formed as cost - flow, never kept by decrement, so floats take the
    bits of generic arc lists.

    So the search returns the first edge, in row and then edge order, whose
    row and column both have residual, if any.  Row and column flows only
    grow, so an edge that lost this never regains it, and all have lost it
    after a batch's last search: a batch takes its new edges first, unsearched."""
    nr, nc = len(row_costs), len(col_costs)
    zero = 0 * tol
    row_flow, col_flow = [zero] * nr, [zero] * nc
    flow, ends = [], []                   # per edge, in the order added
    row_edges = [[] for _ in range(nr)]   # (edge, column) per row
    carried = [[] for _ in range(nc)]     # (edge, row) per column, flow above tol
    live = {i for i in range(nr) if row_costs[i] > tol}   # rows with residual

    def search(row_via, col_via):
        """The first column reached with sink residual, or None once all
        that can be reached is; marks each node with the edge it was
        reached through, -1 for the source."""
        rows = sorted(live)
        for i in rows:
            row_via[i] = -1
        while rows:
            cols = []
            for i in rows:
                for e, j in row_edges[i]:
                    if col_via[j] is None:
                        col_via[j] = e
                        if col_costs[j] - col_flow[j] > tol:
                            return j
                        cols.append(j)
            rows = []
            for j in cols:
                for e, i in carried[j]:
                    if row_via[i] is None:
                        row_via[i] = e
                        rows.append(i)
        return None

    def augment(i, j, forward, backward):
        """Pushes the bottleneck of the path from row i to column j."""
        nonlocal total
        bottleneck = min(col_costs[j] - col_flow[j],
                         row_costs[i] - row_flow[i],
                         *(flow[e] for e in backward))
        assert bottleneck > tol, "a path without residual would come back"
        col_flow[j] += bottleneck
        row_flow[i] += bottleneck
        if not row_costs[i] - row_flow[i] > tol:
            live.discard(i)
        # flows stay >= 0, so only a backward edge can fall to tol or below
        for e in forward:
            if not flow[e] > tol:
                insort(carried[ends[e][1]], (e, ends[e][0]))
            flow[e] += bottleneck
        for e in backward:
            flow[e] -= bottleneck
            if not flow[e] > tol:
                carried[ends[e][1]].remove((e, ends[e][0]))
        total += bottleneck

    covers = []
    total = zero
    for batch in batches:
        start = len(flow)
        for i, j in batch:
            row_edges[i].append((len(flow), j))
            ends.append((i, j))
            flow.append(zero)
        for i in sorted(live.intersection(map(itemgetter(0), ends[start:]))):
            for e, j in row_edges[i][bisect_left(row_edges[i], (start,)):]:
                while i in live and col_costs[j] - col_flow[j] > tol:
                    augment(i, j, [e], ())
        while True:
            row_via, col_via = [None] * nr, [None] * nc
            free = search(row_via, col_via)
            if free is None:
                break
            forward, backward = [], []    # edges crossed row->col, col->row
            e = col_via[free]
            while e != -1:
                forward.append(e)
                i = ends[e][0]
                e = row_via[i]
                if e != -1:
                    backward.append(e)
                    e = col_via[ends[e][1]]
            augment(i, free, forward, backward)
        # the failed search reached exactly the source side of the cut
        covers.append(([i for i in range(nr) if row_via[i] is None],
                       [j for j in range(nc) if col_via[j] is not None]))
    return covers, flow, total


@dataclass(frozen=True)
class TransportationInstance:
    """Supplies, demands, and a profit or cost matrix.

    mode "min-cost": marginals must hold with equality (totals must match).
    mode "max-profit": marginals are upper bounds; shipping is optional.
    An instance built on its integer scales (`of_scaled`) holds the
    supplies and demands as ints over one scale and the matrix as ints over
    another, which the solve takes as they are; one built from values has
    them put on their scales by the solve.
    """

    supplies: tuple
    demands: tuple
    matrix: tuple
    mode: str = "min-cost"
    # (mass scale, matrix scale) of an instance built on its scales, or None
    scales: Optional[tuple] = field(default=None, repr=False, compare=False)

    def __init__(self, supplies, demands, matrix, mode="min-cost"):
        self._set(tuple(supplies), tuple(demands),
                  tuple(tuple(row) for row in matrix), mode, None)

    @classmethod
    def of_scaled(cls, supplies, demands, d_w, matrix, d_c,
                  mode="min-cost") -> "TransportationInstance":
        """The instance of the supplies and demands on the scale d_w and
        the matrix on the scale d_c: ints over the scale, or floats as given
        if it is None, as `model.weights_scaled`, `ProductFunction.scaled`
        and `MetricMatrix.scaled` give them.  Nothing is re-scaled; the
        shape, the signs and the finiteness of floats are tested."""
        if None in (d_w, d_c):
            return cls(*from_scale([supplies, demands], d_w),
                       from_scale(matrix, d_c), mode)
        inst = object.__new__(cls)
        inst._set(tuple(supplies), tuple(demands), tuple(map(tuple, matrix)),
                  mode, (d_w, d_c))
        return inst

    def _set(self, supplies, demands, matrix, mode, scales):
        if mode not in ("min-cost", "max-profit"):
            raise ValidationError(f"unknown mode {mode!r}")
        if len(matrix) != len(supplies) or any(len(r) != len(demands) for r in matrix):
            raise ValidationError("matrix dimensions do not match supplies/demands")
        if scales is None and not all_finite(chain(supplies, demands, *matrix)):
            raise ValidationError("non-finite supply, demand or matrix entry")
        if any(s < 0 for s in supplies) or any(d < 0 for d in demands):
            raise ValidationError("negative supply or demand")
        object.__setattr__(self, "supplies", supplies)
        object.__setattr__(self, "demands", demands)
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "mode", mode)
        object.__setattr__(self, "scales", scales)


@dataclass
class TransportResultRaw:
    value: Number
    u: list               # dual per source: u_i + v_j <= cost_ij, tight on support
    v: list               # dual per sink
    scaled_plan: list     # nr x nc plan on the masses' scale: ints over
                          # `scale`, or floats
    scale: Optional[int]  # the masses' common denominator; None for floats

    @cached_property
    def plan(self) -> list:
        """The nr x nc plan, in the masses' units."""
        return from_scale(self.scaled_plan, self.scale)


def _ssp_bellman_ford(supplies, demands, cost, tol):
    """The successive-shortest-path loop of `solve_transportation`, each pass a
    Bellman-Ford search (Ahuja, Magnanti & Orlin, *Network Flows*, ch. 9):
    on scaled ints with tol 0, on floats with tol EPS; the zero follows tol.

    Each pass first searches with a strict `<`.  On floats that test can
    accept a round-off "improvement" that closes a cycle in the
    predecessors, which would lower the cycle's distances by a few ulps in
    every round up to the round cap.  So a search ends at the first round
    that leaves a cycle, and the pass is searched again at once, taking an
    arc only if it shortens a distance by more than the margin
    tol * max(1, max|cost|), scaled to the costs as their round-off is.  If
    that search leaves a cycle too, the solve raises FloatingPointError.  On
    ints the margin is 0 and the retry never runs: exact arithmetic closes a
    cycle in the predecessors only around a negative cycle of the residual
    network, and successive shortest paths leave none.

    The plan's support, per column j the rows i with plan[i][j] > tol in
    ascending order, is kept across passes and updated only at the cells of
    each augmenting path, which one walk back from the sink gives.
    """
    nr, nc = len(supplies), len(demands)
    zero = 0 * tol
    src, snk, n = 0, nr + nc + 1, nr + nc + 2
    margin = tol * max(1, max(map(abs, chain.from_iterable(cost)), default=0))

    plan = [[zero] * nc for _ in range(nr)]
    support = [[] for _ in range(nc)]   # rows i with plan[i][j] > tol, ascending
    remaining_supply = list(supplies)
    remaining_demand = list(demands)
    pi = [zero] * n  # accumulated shortest distances from the source

    def search(margin):
        """Distances and predecessors from the source by rounds of
        Bellman-Ford on the reduced costs (c + pi[u]) - pi[v], each formed
        where its arc is scanned (negative while the potentials start at
        zero), or None at the end of the first round that leaves a cycle in
        the predecessors.  An arc u -> v is taken if it makes v's distance
        less than lim[v], its current one minus the margin, formed once
        when that distance is set (inf while v is unreached).  The source's
        arcs, at cost 0 to the rows with supply left, are taken before the
        first round; pi[source] stays 0, as the source's distance is 0 in
        every pass.  A round scans the rows' forward arcs in row order, then
        per column its backward arcs and its sink arc, but only out of the
        nodes whose distance was set since they were last scanned: from any
        other node every arc gives the sum it gave then, which took nothing
        then and takes nothing now, since distances only fall.  Those nodes
        are kept in lists, not found by a flag on every node: the rows that
        the previous round's column phase set (in round 0, the rows with
        supply left), then the columns that this round's row phase set,
        each in ascending order.  So each round takes the arcs that a scan
        of every arc would take, in the same order, and ends the search in
        the same round.

        A cycle left by a round passes through a node whose predecessor the
        round set, since the round before left none (the sink is on no
        cycle, and a round that sets only its predecessor is the last).  So
        the check walks up the predecessors from those nodes only, stamping
        each node it meets with the walk's number: a walk ends at the
        source or at a node met earlier in the round, and has met a cycle
        if that node carries its own stamp."""
        pc = pi[1 + nr:snk]     # the columns' potentials
        dist, prev, lim = [None] * n, [None] * n, [inf] * n
        dist[src] = zero
        rows = [1 + i for i in range(nr) if remaining_supply[i] > tol]
        for u in rows:          # source -> rows with supply left, cost 0
            d = zero + (zero - pi[u])
            dist[u], prev[u], lim[u] = d, src, d - margin
        stamp = [0] * n         # the number of the last walk to meet a node
        stamp[src] = inf        # where every walk ends
        walks = 0
        for _ in range(n):
            cols = []           # the columns whose prev the row phase set
            for u in rows:
                du, r = dist[u], pi[u]
                for v, c, p in zip(range(1 + nr, snk), cost[u - 1], pc):
                    d = du + ((c + r) - p)
                    if d < lim[v]:
                        dist[v], prev[v], lim[v] = d, u, d - margin
                        cols.append(v)
            rows = []           # the rows whose prev the column phase set
            for u in sorted(set(cols)):
                j = u - 1 - nr
                du, p = dist[u], pc[j]
                for i in support[j]:
                    d = du + ((-cost[i][j] + p) - pi[1 + i])
                    if d < lim[1 + i]:
                        dist[1 + i], prev[1 + i], lim[1 + i] = d, u, d - margin
                        rows.append(1 + i)
                if remaining_demand[j] > tol:
                    d = du + ((zero + p) - pi[snk])
                    if d < lim[snk]:
                        dist[snk], prev[snk], lim[snk] = d, u, d - margin
            if not cols:
                break
            first = walks + 1   # the stamps of this round's walks
            for v in chain(cols, rows):
                walks += 1
                while stamp[v] < first:
                    stamp[v] = walks
                    v = prev[v]
                if stamp[v] == walks:
                    return None
            rows = sorted(set(rows))
        if dist[snk] is None:
            raise InfeasibleError("transportation network disconnected")
        return dist, prev

    total_cost = zero
    to_ship = left_sum(supplies, zero)
    while to_ship > tol:
        found = search(zero) or search(margin)
        if found is None:
            raise FloatingPointError(
                "float round-off closed a cycle in the transportation search")
        dist, prev = found
        path = [snk]            # the path from the sink back to the source
        while path[-1] != src:
            path.append(prev[path[-1]])
        # the path is source, row, column, row, ..., column, sink: forward
        # arcs (rows[k], cols[k]), backward arcs (rows[k + 1], cols[k])
        rows = [u - 1 for u in path[-2:0:-2]]
        cols = [v - 1 - nr for v in path[-3:0:-2]]
        bottleneck = min(to_ship, remaining_supply[rows[0]],
                         *(plan[i][j] for i, j in zip(rows[1:], cols)),
                         remaining_demand[cols[-1]])
        remaining_supply[rows[0]] -= bottleneck
        for k, j in enumerate(cols):
            i = rows[k]
            plan[i][j] += bottleneck
            total_cost += cost[i][j] * bottleneck
            if k + 1 < len(rows):
                i = rows[k + 1]
                plan[i][j] -= bottleneck
                total_cost -= cost[i][j] * bottleneck
        remaining_demand[cols[-1]] -= bottleneck
        to_ship -= bottleneck
        for i, j in chain(zip(rows, cols), zip(rows[1:], cols)):
            held = support[j]
            k = bisect_left(held, i)
            if held[k:k + 1] == [i]:
                del held[k]
            if plan[i][j] > tol:
                held.insert(k, i)
        # fold distances into potentials (unreached nodes get the max distance)
        dmax = max(d for d in dist if d is not None)
        pi[:] = [p + (dmax if d is None else d) for p, d in zip(pi, dist)]

    return total_cost, plan, pi


def solve_transportation(inst: TransportationInstance) -> TransportResultRaw:
    """Solve either transportation mode with dual certificates.

    min-cost: returns cost, a plan meeting the marginals exactly, and duals
    (u, v) with u_i + v_j <= cost_ij, tight on the support, and
    sum(s*u) + sum(d*v) = cost.

    max-profit: marginals are <=; returns profit, plan, and nonnegative duals
    (a, b) with a_i + b_j >= profit_ij, tight on the support, and
    sum(s*a) + sum(d*b) = profit.

    This function decides the regime, and both regimes run the same lines
    and the same kernel, `_ssp_bellman_ford`.  Exact inputs are solved on
    ints, with tol 0: the supplies and demands over their common
    denominator d_w, the matrix over its own, d_c (the instance's scales,
    or `model.common_integers`); the plan stays on the scale d_w, and the
    duals are divided by d_c and the value by d_w * d_c once at the end.
    If any input is a float, all are solved as given, with tol EPS, and the
    plan's scale is None.
    """
    nr, nc = len(inst.supplies), len(inst.demands)
    if inst.scales:
        (d_w, d_c), matrix = inst.scales, inst.matrix
        masses = inst.supplies + inst.demands
    else:
        masses, d_w = common_integers(inst.supplies + inst.demands)
        matrix, d_c = scaled_rows(inst.matrix)
    exact = d_w is not None and d_c is not None
    if exact:
        supplies, demands, zero, tol = masses[:nr], masses[nr:], 0, 0
    else:       # a float among them: all as given
        supplies, demands = inst.supplies, inst.demands
        matrix = inst.matrix
        zero, tol = zero_of(chain(supplies, demands, *matrix)), EPS

    if inst.mode == "min-cost":
        if not (abs(left_sum(supplies) - left_sum(demands)) <= tol):
            raise InfeasibleError("marginal totals differ")
        value, plan, pi = _ssp_bellman_ford(supplies, demands, matrix, tol)
        # zero - p, not -p: a float potential of 0.0 gives the dual 0.0, not -0.0
        u = [zero - pi[1 + i] for i in range(nr)]
        v = pi[1 + nr:1 + nr + nc]
    else:
        # max-profit: reduce to balanced min-cost with a dummy row and column
        cost = [[*map(neg, row), zero] for row in matrix]
        cost.append([zero] * (nc + 1))
        total, plan_ext, pi = _ssp_bellman_ford(
            [*supplies, left_sum(demands, zero)], [*demands, left_sum(supplies, zero)],
            cost, tol)
        value, plan = -total, [row[:nc] for row in plan_ext[:nr]]
        pu = [-p for p in pi[1:2 + nr]]     # per row, the dummy row last
        pv = pi[2 + nr:3 + nr + nc]         # per column, the dummy column last
        # each dual is the reduced cost of a zero-cost arc to or from a dummy
        # node, which is always residual, so it is nonnegative and max only
        # clears float dust; max keeps the first of equal values, so -0.0 never
        # reaches a report.  No pass reaches a row with no supply, so its
        # potential need not cover its profits; the least nonnegative dual that
        # does adds 0 to the value.
        v = [max(zero, -(x + pu[nr])) for x in pv[:nc]]
        u = [max([zero, *map(sub, row, v)]) if s == 0 else max(zero, -(x + pv[nc]))
             for s, x, row in zip(supplies, pu, matrix)]
    if not exact:
        return TransportResultRaw(value, u, v, plan, None)
    u, v = from_scale([u, v], d_c)
    return TransportResultRaw(Fraction(value, d_w * d_c), u, v, plan, d_w)
