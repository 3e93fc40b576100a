"""Shared generators and independent oracles for the test suite.

Everything here is deliberately naive: brute-force enumeration and direct
definitions, so agreement with the library is meaningful evidence.
"""

import random
from fractions import Fraction
from itertools import product, repeat
from operator import add, sub

from virtcont import DiscreteSpace, MetricMatrix, ProductFunction, ProductSet
from virtcont.flows import InfeasibleError
from virtcont.model import (DEFAULT_TOL, common_scales, is_exact, left_sum,
                             zero_of)
from virtcont.vcdiag import (EXACT_SIDE_LIMIT, HEURISTIC_RESTARTS,
                             VcProfileResult, _assignments_to_config,
                             _exact_search, _fit_from_config, _heuristic,
                             _on_scale, _sweep)


def rand_weights(rng, n):
    """Positive rational weights summing to exactly 1."""
    parts = [rng.randint(1, 9) for _ in range(n)]
    total = sum(parts)
    return [Fraction(p, total) for p in parts]


def rand_space(rng, n, prefix="a"):
    return DiscreteSpace(tuple(f"{prefix}{i}" for i in range(n)),
                         tuple(rand_weights(rng, n)))


def fn_on(xs, ys, fn):
    """ProductFunction from an index function fn(i, j)."""
    return ProductFunction(xs, ys, [[fn(i, j) for j in range(ys.size)]
                                    for i in range(xs.size)])


def rand_set(rng, xs, ys, density=0.5):
    member = tuple(tuple(rng.random() < density for _ in range(ys.size))
                   for _ in range(xs.size))
    return ProductSet(xs, ys, member)


def rand_function(rng, xs, ys, denom=12, lo=-3, hi=3):
    vals = tuple(tuple(Fraction(rng.randint(lo * denom, hi * denom), denom)
                       for _ in range(ys.size))
                 for _ in range(xs.size))
    return ProductFunction(xs, ys, vals)


def rand_metric(rng, space, denom=6, hi=4):
    """Random shortest-path-closed metric: symmetric seed, then closure."""
    n = space.size
    d = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            d[i][j] = d[j][i] = Fraction(rng.randint(1, hi * denom), denom)
    for k in range(n):
        for i in range(n):
            for j in range(n):
                via = d[i][k] + d[k][j]
                if via < d[i][j]:
                    d[i][j] = via
    return MetricMatrix(space, tuple(tuple(row) for row in d))


def brute_cover(row_costs, col_costs, edges):
    """Least weight of a vertex cover of the edges: scan every row subset; the
    columns of the edges whose row is left out are then forced."""
    best = None
    for mask in range(1 << len(row_costs)):
        rows = {i for i in range(len(row_costs)) if mask >> i & 1}
        cols = {j for (i, j) in edges if i not in rows}
        w = (sum((row_costs[i] for i in rows), Fraction(0))
             + sum((col_costs[j] for j in cols), Fraction(0)))
        best = w if best is None else min(best, w)
    return best


def reference_max_flow_cover(row_costs, col_costs, batches, tol):
    """`flows._max_flow_cover` as plain Edmonds-Karp on generic arc lists:
    one full BFS per augmenting path, lowest node index first, over nodes
    0 = source, 1..nr rows, nr+1..nr+nc columns, nr+nc+1 = sink.  Arcs are
    [to, capacity, flow, index of the reverse arc]; edge arcs carry `big`,
    which exceeds every cut.  Returns what the library kernel returns."""
    nr, nc = len(row_costs), len(col_costs)
    zero = 0 * tol
    big = left_sum(row_costs) + left_sum(col_costs)
    src, snk = 0, nr + nc + 1
    n = nr + nc + 2
    graph = [[] for _ in range(n)]

    def add_arc(u, v, cap):
        graph[u].append([v, cap, zero, len(graph[v])])
        graph[v].append([u, zero, zero, len(graph[u]) - 1])

    for i in range(nr):
        add_arc(src, 1 + i, row_costs[i])
    for j in range(nc):
        add_arc(1 + nr + j, snk, col_costs[j])
    edge_arcs = []
    covers = []
    total = zero
    for batch in batches:
        for (i, j) in batch:
            edge_arcs.append((1 + i, len(graph[1 + i])))
            add_arc(1 + i, 1 + nr + j, big)
        while True:
            parent = [None] * n
            parent[src] = (src, -1)
            queue = [src]
            qi = 0
            while qi < len(queue) and parent[snk] is None:
                u = queue[qi]
                qi += 1
                for ai, arc in enumerate(graph[u]):
                    v, cap, flow, _ = arc
                    if parent[v] is None and cap - flow > tol:
                        parent[v] = (u, ai)
                        queue.append(v)
            if parent[snk] is None:
                break
            path = []
            v = snk
            while v != src:
                u, ai = parent[v]
                path.append((u, ai))
                v = u
            bottleneck = min(graph[u][ai][1] - graph[u][ai][2] for u, ai in path)
            for u, ai in path:
                arc = graph[u][ai]
                arc[2] += bottleneck
                graph[arc[0]][arc[3]][2] -= bottleneck
            total += bottleneck
        covers.append(([i for i in range(nr) if parent[1 + i] is None],
                       [j for j in range(nc) if parent[1 + nr + j] is not None]))
    return covers, [graph[u][ai][2] for u, ai in edge_arcs], total


def reference_semimetric(m):
    """`model.validate_semimetric` as it was before its entry tests were
    screened at C speed and its triangle scan halved on symmetric input:
    every entry test in the loop, and every k scanned for each (i, j)."""
    (d,), _, t = common_scales(DEFAULT_TOL, m.dist)
    n = len(d)
    for i in range(n):
        if not abs(d[i][i]) <= t:
            return ("invalid", ("nonzero diagonal", i))
        for j in range(n):
            if not d[i][j] >= -t:
                return ("invalid", ("negative distance", i, j))
            if not abs(d[i][j] - d[j][i]) <= t:
                return ("invalid", ("asymmetric pair", i, j))
    for i, di in enumerate(d):
        for j, (dij, dj) in enumerate(zip(di, d)):
            if min(map(sub, map(add, repeat(dij), dj), di)) < -t:
                k = next(k for k in range(n) if dij + dj[k] - di[k] < -t)
                return ("invalid", ("triangle violation", i, k, j))
    semimetric = any(abs(d[i][j]) <= t for i in range(n) for j in range(n) if i != j)
    return ("semimetric" if semimetric else "metric", None)


def reference_pair_violations(z, f, g, t):
    """The cells on which `thickness.verify_cover` finds the fractional pair
    below 1, each tested on its own as (f_i + g_j) - 1 >= -t (NaN fails it).
    The values are taken as given: on Fractions at t = 0 this is the
    verifier's test on ints scaled by dp, on floats its test itself."""
    return [f"fractional pair below 1 on cell ({i},{j})"
            for i, row in enumerate(z.membership)
            for j, member in enumerate(row)
            if member and not (f[i] + g[j]) - 1 >= -t]


def _has_cycle(parent, root):
    """Whether following parent from some node never reaches root; a node
    without a parent (None) ends its walk too."""
    for v in range(len(parent)):
        seen = set()
        while v is not None and v != root:
            if v in seen:
                return True
            seen.add(v)
            v = parent[v]
    return False


def reference_bellman_ford(supplies, demands, cost, tol, retry=False):
    """`flows._ssp_bellman_ford` as it was before a pass whose search closes
    a cycle was searched again: every round scans every arc, and each
    reduced cost is formed where it is used.  The one addition is a guard at
    the end of each round: the search returns None at the first round that
    leaves a cycle in `prev`, the round at which the kernel searches again.

    With retry, such a pass is searched again as the kernel does, taking an
    arc only if it shortens a distance by more than the margin
    tol * max(1, max|cost|), and None is returned only if that search leaves
    a cycle too."""
    nr, nc = len(supplies), len(demands)
    zero = 0 * tol
    src, snk = 0, nr + nc + 1
    n = nr + nc + 2
    margin = tol * max([1] + [abs(c) for row in cost for c in row])

    plan = [[zero] * nc for _ in range(nr)]
    remaining_supply = list(supplies)
    remaining_demand = list(demands)
    pi = [zero] * n  # accumulated shortest distances from the source

    def reduced(c, u, v):
        return c + pi[u] - pi[v]

    INF = None

    def search(margin):
        # Bellman-Ford on reduced costs, on every pass (reduced costs may be
        # negative while the potentials start at zero).  On ints it is exact.
        # On floats the strict `<` can accept a round-off "improvement" that
        # closes a cycle in `prev`.
        dist = [INF] * n
        prev = [None] * n
        dist[src] = zero
        for _ in range(n):
            changed = False
            # source -> rows with remaining supply, cost 0
            for i in range(nr):
                if remaining_supply[i] > tol:
                    d = dist[src] + reduced(zero, src, 1 + i)
                    if dist[1 + i] is None or d < dist[1 + i] - margin:
                        dist[1 + i] = d
                        prev[1 + i] = (src, ("s", i))
                        changed = True
            for i in range(nr):
                if dist[1 + i] is None:
                    continue
                for j in range(nc):
                    d = dist[1 + i] + reduced(cost[i][j], 1 + i, 1 + nr + j)
                    if dist[1 + nr + j] is None or d < dist[1 + nr + j] - margin:
                        dist[1 + nr + j] = d
                        prev[1 + nr + j] = (1 + i, ("f", i, j))
                        changed = True
            for j in range(nc):
                if dist[1 + nr + j] is None:
                    continue
                # backward arcs col -> row where plan > 0
                for i in range(nr):
                    if plan[i][j] > tol:
                        d = dist[1 + nr + j] + reduced(-cost[i][j], 1 + nr + j, 1 + i)
                        if dist[1 + i] is None or d < dist[1 + i] - margin:
                            dist[1 + i] = d
                            prev[1 + i] = (1 + nr + j, ("b", i, j))
                            changed = True
                if remaining_demand[j] > tol:
                    d = dist[1 + nr + j] + reduced(zero, 1 + nr + j, snk)
                    if dist[snk] is None or d < dist[snk] - margin:
                        dist[snk] = d
                        prev[snk] = (1 + nr + j, ("t", j))
                        changed = True
            if not changed:
                break
            if _has_cycle([p and p[0] for p in prev], src):
                return None
        return dist, prev

    total_cost = zero
    to_ship = left_sum(supplies, zero)
    while to_ship > tol:
        found = search(zero) or (retry and search(margin))
        if not found:
            return None
        dist, prev = found
        if dist[snk] is None:
            raise InfeasibleError("transportation network disconnected")

        # trace the path and find the bottleneck
        path = []
        node = snk
        while node != src:
            pnode, tag = prev[node]
            path.append(tag)
            node = pnode
        path.reverse()
        bottleneck = to_ship
        for tag in path:
            if tag[0] == "s":
                bottleneck = min(bottleneck, remaining_supply[tag[1]])
            elif tag[0] == "t":
                bottleneck = min(bottleneck, remaining_demand[tag[1]])
            elif tag[0] == "b":
                bottleneck = min(bottleneck, plan[tag[1]][tag[2]])
        for tag in path:
            if tag[0] == "s":
                remaining_supply[tag[1]] -= bottleneck
            elif tag[0] == "t":
                remaining_demand[tag[1]] -= bottleneck
            elif tag[0] == "f":
                plan[tag[1]][tag[2]] += bottleneck
                total_cost += cost[tag[1]][tag[2]] * bottleneck
            elif tag[0] == "b":
                plan[tag[1]][tag[2]] -= bottleneck
                total_cost -= cost[tag[1]][tag[2]] * bottleneck
        to_ship -= bottleneck

        # fold distances into potentials (unreached nodes get the max distance)
        finite = [d for d in dist if d is not None]
        dmax = max(finite)
        for k in range(n):
            pi[k] += dist[k] if dist[k] is not None else dmax

    return total_cost, plan, pi


def brute_thickness(z):
    """Thickness by definition: the cheapest cross cover of the set's cells."""
    return brute_cover(z.x_space.weights, z.y_space.weights, list(z.cells()))


def brute_tau(f, g):
    """tau by direct definition: scan every candidate level exhaustively,
    with the brute-force thickness (rows up to about 12 atoms)."""
    from virtcont import level_set
    d = f.sub(g).abs()
    vals = sorted({v for row in d.values for v in row} | {Fraction(0)})
    return min(max(v, brute_thickness(level_set(d, v, ">"))) for v in vals)


def scan_tau(f, g):
    """(tau, witness thickness) by one max-flow per breakpoint: the scan
    `tau_distance` ran before its level sets shared one flow."""
    from virtcont import level_set, thickness
    d = f.sub(g).abs()
    zero = zero_of(v for row in d.values for v in row)
    best = None
    for v in sorted({zero} | {v for row in d.values for v in row}):
        candidate = max(v, thickness(level_set(d, v, ">")).value)
        if best is None or candidate < best:
            best = candidate
    return best, thickness(level_set(d, best, ">")).value


def scan_layer_cake(f):
    """The layer-cake integral by one max-flow per level."""
    from virtcont import thickness_of_level_set
    zero = zero_of(v for row in f.values for v in row)
    total = prev = zero
    for w in sorted({abs(v) for row in f.values for v in row} - {zero}):
        total += (w - prev) * thickness_of_level_set(f, w)
        prev = w
    return total


def _partitions_upto(items, max_blocks):
    """All partitions of items into at most max_blocks nonempty blocks."""
    items = list(items)
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in _partitions_upto(rest, max_blocks):
        for i in range(len(part)):
            yield [blk + [first] if j == i else list(blk)
                   for j, blk in enumerate(part)]
        if len(part) < max_blocks:
            yield [[first]] + [list(blk) for blk in part]


def _splits(items, max_blocks):
    """(exceptional subset, partition of the rest into <= max_blocks blocks)."""
    items = list(items)
    n = len(items)
    for mask in range(1 << n):
        exc = [items[i] for i in range(n) if mask >> i & 1]
        rest = [items[i] for i in range(n) if not mask >> i & 1]
        for part in _partitions_upto(rest, max_blocks):
            yield exc, part


def brute_step_fit_exists(f, n_blocks, eps):
    """Independent exhaustive check for a strict (n_blocks, eps) step fit."""
    xs, ys = f.x_space, f.y_space
    for ax, xpart in _splits(range(xs.size), n_blocks):
        if not sum((xs.weights[i] for i in ax), Fraction(0)) < eps:
            continue
        for by, ypart in _splits(range(ys.size), n_blocks):
            if not sum((ys.weights[j] for j in by), Fraction(0)) < eps:
                continue
            ok = True
            for xb in xpart:
                for yb in ypart:
                    cell = [f[(i, j)] for i in xb for j in yb]
                    if not max(cell) - min(cell) < 2 * eps:
                        ok = False
                        break
                if not ok:
                    break
            if ok:
                return True
    return False


def _reference_objective(f, cfg):
    """Objective of a step-fit search config in the values' own arithmetic:
    its heaviest exceptional class or its widest block-pair half-range, with
    class weights added in index order."""
    em, row_blocks, ec, col_groups = cfg
    mu, nu = f.x_space.weights, f.y_space.weights
    zero = zero_of(mu + nu)
    worst = max(left_sum((w for i, w in enumerate(mu) if (em >> i) & 1), zero),
                left_sum((w for j, w in enumerate(nu) if (ec >> j) & 1), zero))
    for rows in row_blocks:
        for cols in col_groups:
            cells = [f[i, j] for i in rows for j in cols]
            gap = max(cells) - min(cells)
            worst = max(worst, Fraction(gap) / 2 if is_exact(gap) else gap / 2)
    return worst


def reference_heuristic(f, n_blocks, seed):
    """`vcdiag._heuristic` with each restart scored in Fractions (or floats)
    by `_reference_objective` instead of on the search's integer scale; the
    library's own sweeps move the blocks.  Returns (objective, config)."""
    nr, nc = f.shape
    v = [[float(x) for x in row] for row in f.values]
    vt = [[v[i][j] for i in range(nr)] for j in range(nc)]
    wx = [float(w) for w in f.x_space.weights]
    wy = [float(w) for w in f.y_space.weights]
    best_val = None
    best_cfg = None
    row_means = sorted(range(nr), key=lambda i: left_sum(v[i]))
    col_means = sorted(range(nc), key=lambda j: left_sum(vt[j]))
    for t in range(HEURISTIC_RESTARTS):
        rng = random.Random(seed * 1000003 + t)
        if t == 0:
            rowasg = [1 + (i * n_blocks) // nr for i in range(nr)]
            colasg = [1 + (j * n_blocks) // nc for j in range(nc)]
        elif t == 1:
            rowasg = [0] * nr
            colasg = [0] * nc
            for pos, i in enumerate(row_means):
                rowasg[i] = 1 + (pos * n_blocks) // nr
            for pos, j in enumerate(col_means):
                colasg[j] = 1 + (pos * n_blocks) // nc
        else:
            rowasg = [rng.randint(1, n_blocks) for _ in range(nr)]
            colasg = [rng.randint(1, n_blocks) for _ in range(nc)]
        for _ in range(50):
            ey = left_sum(wy[j] for j in range(nc) if colasg[j] == 0)
            a = _sweep(v, wx, rowasg, colasg, ey, n_blocks)
            ex = left_sum(wx[i] for i in range(nr) if rowasg[i] == 0)
            b = _sweep(vt, wy, colasg, rowasg, ex, n_blocks)
            if not (a or b):
                break
        cfg = _assignments_to_config(rowasg, colasg, n_blocks)
        val = _reference_objective(f, cfg)
        if best_val is None or val < best_val:
            best_val, best_cfg = val, cfg
    return best_val, best_cfg


def reference_vc_profile(f, n_blocks, seed=0):
    """`vcdiag.vc_profile` as it was before restarts stopped early: all the
    heuristic's restarts, then the exact search from the best of them, whose
    config the witness keeps if the search finds nothing better."""
    nr, nc = f.shape
    scaled = _on_scale(f)
    hval, cfg = _heuristic(f, scaled, n_blocks, seed)
    if nr <= EXACT_SIDE_LIMIT and nc <= EXACT_SIDE_LIMIT:
        value, found = _exact_search(scaled, n_blocks, hval, stop_early=False)
        if found is not None:
            cfg = found
        return VcProfileResult(value, True, _fit_from_config(f, cfg, value, True))
    return VcProfileResult(hval, False, _fit_from_config(f, cfg, hval, False))


def reference_matrix_distribution(m, k):
    """The support of `vcdiag.matrix_distribution_exact` by plain enumeration
    in the weights' own arithmetic: the product of the 2k weights of every
    index tuple, added per distance matrix in enumeration order, the matrices
    sorted, and positive probabilities kept."""
    n = m.space.size
    w = m.space.weights
    one = zero_of(w) + 1
    acc = {}
    for tup in product(range(n), repeat=2 * k):
        p = one
        for i in tup:
            p = p * w[i]
        mat = tuple(tuple(m.dist[i][j] for j in tup[k:]) for i in tup[:k])
        acc[mat] = acc.get(mat, one * 0) + p
    return [(mat, p) for mat, p in sorted(acc.items()) if p > 0]
