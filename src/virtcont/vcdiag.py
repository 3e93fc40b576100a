"""Step-function approximation diagnostics and matrix distributions.

A step fit for f splits each factor into at most N blocks plus a small
exceptional class and asks that f stay within eps of a constant on every
non-exceptional block pair, with both exceptional classes of measure below
eps.  The least such eps (the "vc profile") separates functions that are
limits of step functions from those that are not: it tends to 0 under grid
refinement for the former and stays bounded away from 0 for the latter.

Instances with at most 8 atoms per side are solved exactly by enumerating
row-side configurations and running a subset DP over the columns.  Exact
inputs are read on their integer scale (`ProductFunction.scaled`), values by
the common denominator d of the values and weights and class weights by 2d, so
every half-gap and class weight is compared as an int.  The row partitions
grow one row at a time, each block carrying its per-column value range, and
a partial partition is cut as soon as the columns it already forces into the
exceptional class weigh at least the current best.  The better of the first
two restarts of an alternating local search bounds the search, and no other
restart runs (see `vc_profile`).  Larger instances run every seeded restart,
and the result is flagged as an upper bound; restarts are scored on the
search's scale.

Exact matrix distributions run on the integer scale too: weights and
distances are scaled once, probabilities are products of int weights, and
the matrices are sorted on their scaled entries.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import islice, product
from math import ceil, lcm
from operator import itemgetter, sub
from typing import Optional

from .certs import StepFit, step_fit_violations
from .model import (EPS, DiscreteSpace, MetricMatrix, Number, ProductFunction,
                    ValidationError, common_integers, is_exact, left_sum,
                    rescaled, unscaled, weights_scaled)

EXACT_SIDE_LIMIT = 8
HEURISTIC_RESTARTS = 20
ENUM_GUARD = 10 ** 6
INF = float("inf")


@dataclass
class VcProfileResult:
    value: Number
    exact: bool       # False means the value is only an upper bound
    witness: Optional[StepFit]


@dataclass
class MatrixDistribution:
    k: int
    support: list     # (k x k matrix as tuple of tuples, probability), sorted


# ---------------------------------------------------------------- exact core

def _subset_sums(weights):
    """Weight of every index subset, added in index order as `left_sum` adds it."""
    table = [0] * (1 << len(weights))
    for m in range(1, 1 << len(weights)):
        high = m.bit_length() - 1
        table[m] = table[m ^ (1 << high)] + weights[high]
    return table


def _on_scale(f: ProductFunction):
    """f on the one scale of the search and the heuristic's scoring.

    Exact values are multiplied by the common denominator d of the values and
    the weights, class weights by 2d, all ints, so a half-gap (a - b)/2 is
    compared with a weight w as a - b against 2w and an objective o stands
    for o/(2d).  Float values stay as they are and the weights are doubled,
    which is exact; o then stands for o/2.

    Returns (rows of values, row weights, column weights, d), d None for
    floats.  f's cells and the weights come on their own scales
    (`ProductFunction.scaled`, `model.weights_scaled`), grown to d.
    """
    rows, dv = f.scaled()
    (wx, wy), dw = weights_scaled(f.x_space, f.y_space)
    if dv is None or dw is None:    # a float among them: all as given
        rows, scale = f.values, None
        wx, wy = f.x_space.weights, f.y_space.weights
    else:
        scale = lcm(dv, dw)
        rows = rescaled(rows, dv, scale)
        wx, wy = rescaled([wx, wy], dw, scale)
    return ([list(row) for row in rows], [2 * w for w in wx],
            [2 * w for w in wy], scale)


def _unscale(o, scale):
    """An objective on the scale of `_on_scale` in the units of the values."""
    return o / 2 if scale is None else Fraction(o, 2 * scale)


def _exact_search(scaled, n_blocks: int, bound: Number, stop_early: bool):
    """Best configuration with objective strictly below bound.

    Returns (objective, config) with config = (row_exc_mask, row_blocks,
    col_exc_mask, col_groups), or (bound, None) if nothing beats it.  The
    search compares ints on the scale of `_on_scale(f)`, given as scaled.
    """
    vr, wx, wy, scale = scaled
    nr, nc = len(wx), len(wy)
    wsx = _subset_sums(wx)
    wsy = _subset_sums(wy)
    if scale is None:
        best = 2 * bound
    elif bound == INF:
        best = INF
    else:
        # every scaled objective is an int: o < 2d*bound iff o < ceil(2d*bound)
        best = ceil(Fraction(bound) * 2 * scale)
    full_c = (1 << nc) - 1
    best_cfg = None

    def grow(k, blocks, cy):
        """Place kept[k:] into the row blocks (each existing block in index
        order, then a new one); True once stop_early has a configuration.

        Each block is (rows, lo, hi), lo[y] and hi[y] its value range in
        column y, and cy[y] the widest range of column y over all blocks.
        """
        # a column whose own half-range already reaches the bound can only
        # sit in the exceptional class of an improving configuration; ranges
        # only widen as rows join, so every leaf below forces these columns
        # too, and none of them can improve on best
        forced = 0
        for y in range(nc):
            if cy[y] >= best:
                forced |= 1 << y
        if wsy[forced] >= best:
            return False
        if k < len(kept):
            i = kept[k]
            row = vr[i]
            for b, (rows, lo, hi) in enumerate(blocks):
                lo = [a if a < v else v for a, v in zip(lo, row)]
                hi = [a if a > v else v for a, v in zip(hi, row)]
                ncy = [max(c, h - l) for c, h, l in zip(cy, hi, lo)]
                if grow(k + 1, blocks[:b] + [(rows + [i], lo, hi)] + blocks[b + 1:],
                        ncy):
                    return True
            # a singleton block has range 0
            return len(blocks) < n_blocks and grow(k + 1, blocks + [([i], row, row)], cy)
        return leaf(blocks, forced)

    def leaf(blocks, forced):
        """Best column side for one row configuration (the column DP)."""
        nonlocal best, best_cfg
        allowed = [y for y in range(nc) if not (forced >> y) & 1]
        am = len(allowed)
        size = 1 << am
        # the subsets of the allowed columns, indexed by their bits over
        # `allowed`, built by one doubling per column that adds the column to
        # each subset so far: each subset's mask among all columns and, per
        # row block, its value range.  A subset's diameter is the widest of
        # its block ranges, which is the widest range of a column pair in it;
        # it stays the int 0 unless a range is wider, never a float zero
        cmask, diam = [0], [0] * size
        for y in allowed:
            cmask += [c | 1 << y for c in cmask]
        for _, blo, bhi in blocks:
            lo, hi = [INF], [-INF]
            for y in allowed:
                ylo, yhi = blo[y], bhi[y]
                lo += [a if a < ylo else ylo for a in lo]
                hi += [a if a > yhi else yhi for a in hi]
            diam = [d if d >= h - l else h - l for d, l, h in zip(diam, lo, hi)]

        # dp[s] = best max-diameter over partitions of s into <= k groups
        kk = min(n_blocks, am)
        dp = diam[:]
        choices = [None, None]  # level 1 always takes the whole subset
        for _k in range(2, kk + 1):
            nxt = [0] * size
            ch = [0] * size
            for s in range(1, size):
                lbit = s & -s
                bv, bg = diam[s], s
                g = (s - 1) & s
                while g:
                    if g & lbit:
                        v = diam[g]
                        w = dp[s ^ g]
                        if w > v:
                            v = w
                        if v < bv:
                            bv, bg = v, g
                    g = (g - 1) & s
                nxt[s] = bv
                ch[s] = bg
            dp = nxt
            choices.append(ch)

        for s in range(size):
            obj = dp[s]
            exc = full_c ^ cmask[s]
            if wsy[exc] > obj:
                obj = wsy[exc]
            if base > obj:
                obj = base
            if obj < best:
                groups = []
                rem, k = s, kk
                while rem:
                    g = rem if k <= 1 else choices[k][rem]
                    groups.append([allowed[p] for p in range(am)
                                   if (g >> p) & 1])
                    rem ^= g
                    k -= 1
                best = obj
                best_cfg = (em, [list(rows) for rows, _, _ in blocks], exc, groups)
                if stop_early:
                    return True
        return False

    for em in sorted(range(1 << nr), key=wsx.__getitem__):
        base = wsx[em]
        if base >= best:
            break
        kept = [i for i in range(nr) if not (em >> i) & 1]
        if grow(0, [], [0] * nc):
            break
    if best_cfg is None:
        return bound, None
    return _unscale(best, scale), best_cfg


# ------------------------------------------------------------- local search

def _sweep(v, wrow, asg, oasg, other_exc_weight, n_blocks):
    """One greedy pass reassigning rows (columns fixed); returns True if improved.

    A block's range in column group c is the least and the greatest value its
    rows take in the columns of group c, (INF, -INF) if either set is empty;
    its half-range is the widest (hi - lo) / 2 over its groups, 0.0 if none.
    Each block keeps its ranges and half-range, and a move updates only the
    two blocks it touches.
    """
    no_lo, no_hi = [INF] * n_blocks, [-INF] * n_blocks
    # each row's range in each column group, computed once
    grouped = [(j, c - 1) for j, c in enumerate(oasg) if c]
    rlo, rhi = [no_lo[:] for _ in v], [no_hi[:] for _ in v]
    for lo, hi, row in zip(rlo, rhi, v):
        for j, c in grouped:
            x = row[j]
            if x < lo[c]:
                lo[c] = x
            if x > hi[c]:
                hi[c] = x

    def hull(rows):
        """The (lows, highs) of the block of the given rows."""
        return (list(map(min, zip(no_lo, *[rlo[r] for r in rows]))),
                list(map(max, zip(no_hi, *[rhi[r] for r in rows]))))

    def half(lo, hi):
        # an empty group's -INF - INF falls below the floor 0.0
        return max(0.0, *map(sub, hi, lo)) / 2

    # the ranges and half-range of each block b = 1..N; the exceptional
    # class 0 weighs ex and has half-range 0.0
    ranges = [None] + [hull([i for i, a in enumerate(asg) if a == b])
                       for b in range(1, n_blocks + 1)]
    bhalf = [0.0] + [half(lo, hi) for lo, hi in ranges[1:]]
    ex = left_sum((w for w, a in zip(wrow, asg) if a == 0), 0.0)

    improved = False
    for r in range(len(v)):
        b0 = asg[r]
        best_obj, best_b = max(ex, other_exc_weight, *bhalf), b0
        halfs = bhalf[:]
        ex0 = ex if b0 else ex - wrow[r]
        if b0:
            rest = hull([i for i, a in enumerate(asg) if a == b0 and i != r])
            halfs[b0] = half(*rest)
        # the widest half-range without row r; for a target block b2 it need
        # not leave out b2's own, which b2 with row r can only widen
        widest = max(halfs)
        for b2 in range(n_blocks + 1):
            if b2 == b0:
                continue
            if b2 == 0:
                cand, h = max(ex0 + wrow[r], other_exc_weight, widest), 0.0
            else:
                # the half-range of block b2 with row r; its ranges are built
                # only if it takes the row
                lo, hi = ranges[b2]
                h = half(map(min, lo, rlo[r]), map(max, hi, rhi[r]))
                cand = max(ex0, other_exc_weight, widest, h)
            if cand < best_obj - EPS:
                best_obj, best_b, best_h = cand, b2, h
        if best_b != b0:
            improved = True
            if b0 == 0:
                ex -= wrow[r]
            else:
                ranges[b0], bhalf[b0] = rest, halfs[b0]
            if best_b == 0:
                ex += wrow[r]
            else:
                lo, hi = ranges[best_b]
                ranges[best_b] = list(map(min, lo, rlo[r])), list(map(max, hi, rhi[r]))
                bhalf[best_b] = best_h
            asg[r] = best_b
    return improved


def _half(x):
    """x / 2, exact for exact x (an int halves to a Fraction)."""
    return Fraction(x) / 2 if is_exact(x) else x / 2


def _score(scaled, cfg):
    """Objective of a search config on the scale of `_on_scale`: its heaviest
    exceptional class, with weights added in index order, or its widest
    block-pair range."""
    em, row_blocks, ec, col_groups = cfg
    vr, wx, wy, _ = scaled
    o = max(left_sum(w for i, w in enumerate(wx) if (em >> i) & 1),
            left_sum(w for j, w in enumerate(wy) if (ec >> j) & 1))
    for rows in row_blocks:
        for cols in col_groups:
            cells = [vr[i][j] for i in rows for j in cols]
            o = max(o, max(cells) - min(cells))
    return o


def _restarts(f: ProductFunction, scaled, n_blocks: int, seed: int):
    """Alternating row/column local search; yields (objective, config) of
    each restart in order.

    The sweeps run on floats; each restart is scored on the scale of
    `_on_scale(f)`, given as scaled."""
    nr, nc = f.shape
    v = [[float(x) for x in row] for row in f.values]
    vt = [[v[i][j] for i in range(nr)] for j in range(nc)]
    wx = [float(w) for w in f.x_space.weights]
    wy = [float(w) for w in f.y_space.weights]
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
        yield _score(scaled, cfg), cfg


def _least(restarts):
    """The (objective, config) of least objective, the first of equals."""
    return min(restarts, key=itemgetter(0))


def _heuristic(f: ProductFunction, scaled, n_blocks: int, seed: int):
    """The best of all restarts, (objective in the values' units, config)."""
    val, cfg = _least(_restarts(f, scaled, n_blocks, seed))
    return _unscale(val, scaled[3]), cfg


def _assignments_to_config(rowasg, colasg, n_blocks):
    """The search config (row_exc_mask, row_blocks, col_exc_mask, col_groups)
    of two assignments, 0 the exceptional class, empty blocks dropped."""
    def side(asg):
        blocks = [[i for i, a in enumerate(asg) if a == b] for b in range(n_blocks + 1)]
        return sum(1 << i for i in blocks[0]), [blk for blk in blocks[1:] if blk]

    return (*side(rowasg), *side(colasg))


def _fit_from_config(f: ProductFunction, cfg, epsilon, exact: bool) -> StepFit:
    em, row_blocks, ec, col_groups = cfg
    nr, nc = f.shape
    x_blocks = [[i for i in range(nr) if (em >> i) & 1]] + row_blocks
    y_blocks = [[j for j in range(nc) if (ec >> j) & 1]] + col_groups
    levels = []
    for blk in row_blocks:
        row = []
        for grp in col_groups:
            cells = [f[i, j] for i in blk for j in grp]
            row.append(_half(max(cells) + min(cells)))  # midrange: least sup error
        levels.append(row)
    return StepFit(x_blocks, y_blocks, levels, epsilon, exact)


# ----------------------------------------------------------------- frontend

def step_fit_exists(f: ProductFunction, n_blocks: int, eps: Number,
                    seed: int = 0) -> Optional[StepFit]:
    """A step fit with strict bounds below eps, or None if none was found.

    Exact (complete) search up to 8 atoms per side; heuristic above, in which
    case None does not prove nonexistence and any returned fit has exact=False.
    """
    if n_blocks < 1:
        raise ValidationError("block count must be at least 1")
    if not eps > 0:
        raise ValidationError("eps must be positive")
    nr, nc = f.shape
    if nr <= EXACT_SIDE_LIMIT and nc <= EXACT_SIDE_LIMIT:
        _, cfg = _exact_search(_on_scale(f), n_blocks, eps, stop_early=True)
        if cfg is None:
            return None
        return _fit_from_config(f, cfg, eps, exact=True)
    val, cfg = _heuristic(f, _on_scale(f), n_blocks, seed)
    if val < eps:
        return _fit_from_config(f, cfg, eps, exact=False)
    return None


def vc_profile(f: ProductFunction, n_blocks: int, seed: int = 0) -> VcProfileResult:
    """Least eps admitting an N-block step fit (infimum over strict fits).

    Exact up to 8 atoms per side; an upper bound flagged exact=False beyond
    that.  The witness attains the reported objective, so it is a valid fit
    for every eps above it.

    In the exact range only the first two restarts run, and the better of
    them bounds `_exact_search`.  The witness is the search's configuration
    if it finds one below that bound, else that restart's.  Neither restart
    draws a random number, so an exact-range profile does not depend on
    seed.
    """
    if n_blocks < 1:
        raise ValidationError("block count must be at least 1")
    nr, nc = f.shape
    scaled = _on_scale(f)
    if nr > EXACT_SIDE_LIMIT or nc > EXACT_SIDE_LIMIT:
        hval, cfg = _heuristic(f, scaled, n_blocks, seed)
        return VcProfileResult(hval, False, _fit_from_config(f, cfg, hval, False))
    bound, cfg = _least(islice(_restarts(f, scaled, n_blocks, seed), 2))
    # the search returns the bound itself if nothing beats it
    value, found = _exact_search(scaled, n_blocks, _unscale(bound, scaled[3]),
                                 stop_early=False)
    if found is not None:
        cfg = found
    return VcProfileResult(value, True, _fit_from_config(f, cfg, value, True))


# ------------------------------------------------------- refinement families

def sample_points(n: int) -> list:
    """Cell midpoints (i + 1/2)/n of the unit interval."""
    return [Fraction(2 * i + 1, 2 * n) for i in range(n)]


def _staircase(n: int, strict: bool) -> ProductFunction:
    x = DiscreteSpace.uniform(n, "x")
    y = DiscreteSpace.uniform(n, "y")
    one, zero = Fraction(1), Fraction(0)
    if strict:
        vals = [[one if i > j else zero for j in range(n)] for i in range(n)]
    else:
        vals = [[one if i >= j else zero for j in range(n)] for i in range(n)]
    return ProductFunction(x, y, vals)


FAMILIES = ("triangle_indicator", "separable_smooth", "metric_kernel")


def family_function(name: str, n: int) -> ProductFunction:
    """Grid samples (at cell midpoints) of the three study families."""
    if name not in FAMILIES:
        raise ValidationError(f"unknown family {name!r}")
    if name == "triangle_indicator":
        return _staircase(n, strict=False)
    xs = sample_points(n)
    x = DiscreteSpace.uniform(n, "x")
    y = DiscreteSpace.uniform(n, "y")
    if name == "separable_smooth":
        vals = [[xs[i] * xs[j] for j in range(n)] for i in range(n)]
    else:
        vals = [[abs(xs[i] - xs[j]) for j in range(n)] for i in range(n)]
    return ProductFunction(x, y, vals)


def _triangle_lower_bound(n: int, profile):
    """Certified lower bound on the staircase profile at grid size n, from
    profile(m, strict), the exact profile of `_staircase(m, strict)`.

    Any fit on the 2m grid restricts, through the lighter parity class on
    each side, to a fit of one of the two staircase patterns on the m grid
    with no more blocks and strictly smaller exceptional weight, so the exact
    optimum at the halved size (minimized over both patterns) bounds the fine
    value from below.  Requires n = 8 * 2^k.
    """
    m = n
    while m > EXACT_SIDE_LIMIT:
        if m % 2:
            raise ValidationError(
                "staircase lower bounds need grid sizes of the form 8 * 2^k")
        m //= 2
    return min(profile(m, False).value, profile(m, True).value)


def refinement_study(family: str, grid_sizes, n_blocks: int,
                     seed: int = 0) -> list[dict]:
    """Profile values of one family across refining grids.

    The staircase family keeps the block budget fixed and reports certified
    lower bounds past the exact range (its profile must stay bounded away
    from 0); the smooth and metric families scale the budget with the grid so
    the reported upper bounds can witness decay to 0.
    """
    grid_sizes = list(grid_sizes)
    if any(b >= a for a, b in zip(grid_sizes[1:], grid_sizes)):
        raise ValidationError("grid sizes must be ascending")
    if not grid_sizes or grid_sizes[0] < 1:
        raise ValidationError("grid sizes must be at least 1")
    if n_blocks < 1:
        raise ValidationError("block count must be at least 1")
    if family not in FAMILIES:
        raise ValidationError(f"unknown family {family!r}")
    base = grid_sizes[0]
    rows = []

    # each staircase is profiled once per study: a grid size and the
    # lower bound of its doubles may both need it
    @cache
    def staircase_profile(m, strict):
        return vc_profile(_staircase(m, strict), n_blocks, seed)

    for n in grid_sizes:
        if family == "triangle_indicator":
            blocks = n_blocks
            if n <= EXACT_SIDE_LIMIT:
                res = staircase_profile(n, False)
                rows.append({"n": n, "blocks": blocks, "value": res.value,
                             "kind": "exact" if res.exact else "upper"})
            else:
                value = _triangle_lower_bound(n, staircase_profile)
                rows.append({"n": n, "blocks": blocks, "value": value,
                             "kind": "lower"})
        else:
            blocks = max(1, (n_blocks * n) // base)
            res = vc_profile(family_function(family, n), blocks, seed)
            rows.append({"n": n, "blocks": blocks, "value": res.value,
                         "kind": "exact" if res.exact else "upper"})
    return rows


# ------------------------------------------------------ matrix distributions

def matrix_distribution_exact(m: MetricMatrix, k: int) -> MatrixDistribution:
    """Exact law of the k x k distance matrix of 2k points drawn from mu.

    Exact weights and distances are scaled once to ints (`model.common_integers`,
    each on its own scale): a probability is a product of int weights over
    dw^(2k), and the matrices are keyed and sorted as tuples of scaled ints,
    whose order is that of the Fractions.  Floats run the same loop as they
    are, adding in the same order.  Each matrix is reported with the distances
    of the first index tuple that draws it; only positive probabilities are
    kept (a zero-weight atom, or a float product that underflows, adds none).
    """
    if k < 1:
        raise ValidationError("matrix order must be at least 1")
    n = m.space.size
    if n ** (2 * k) > ENUM_GUARD:
        raise ValidationError(
            f"enumeration too large ({n}^{2 * k} index tuples > {ENUM_GUARD})")
    w, dw = common_integers(m.space.weights)
    flat, _ = common_integers(v for row in m.dist for v in row)
    rows = [flat[i * n:(i + 1) * n] for i in range(n)]
    one = 1.0 if dw is None else 1
    # pick(row) is the row's entries in the columns ys, as a tuple
    cols = [(ys, itemgetter(*ys) if k > 1 else lambda row, j=ys[0]: (row[j],))
            for ys in product(range(n), repeat=k)]
    acc: dict = {}
    first: dict = {}
    for xs in product(range(n), repeat=k):
        px = one
        for i in xs:
            px *= w[i]
        sub = [rows[i] for i in xs]
        for ys, pick in cols:
            p = px
            for j in ys:
                p *= w[j]
            key = tuple(map(pick, sub))
            if key in acc:
                acc[key] += p
            else:
                acc[key] = p
                first[key] = xs, pick
    scale = 1 if dw is None else dw ** (2 * k)
    support = []
    for key in sorted(acc):
        if acc[key] > 0:
            xs, pick = first[key]
            support.append((tuple(pick(m.dist[i]) for i in xs),
                            unscaled(acc[key], scale)))
    return MatrixDistribution(k, support)


def matrix_distribution_sample(m: MetricMatrix, k: int, count: int,
                               seed: int) -> list:
    """count seeded i.i.d. draws of the k x k sampled distance matrix."""
    if k < 1:
        raise ValidationError("matrix order must be at least 1")
    if count < 1:
        raise ValidationError("count must be at least 1")
    rng = random.Random(seed)
    n = m.space.size
    wf = [float(x) for x in m.space.weights]
    out = []
    for _ in range(count):
        tup = rng.choices(range(n), weights=wf, k=2 * k)
        xs, ys = tup[:k], tup[k:]
        out.append(tuple(tuple(m.dist[i][j] for j in ys) for i in xs))
    return out


def random_points_check(f: ProductFunction, n: int, n_blocks: int, eps: Number,
                        trials: int, seed: int) -> Fraction:
    """Fraction of sampled n x n submatrices admitting an N-block step fit.

    Each trial draws n row indices and n column indices i.i.d. from the factor
    measures (per-trial derived seed: seed + trial index), puts uniform weights
    on the sample, and runs the exact fit search.
    """
    if n < 1 or n > EXACT_SIDE_LIMIT:
        raise ValidationError(
            f"sample size must be between 1 and {EXACT_SIDE_LIMIT} for the exact search")
    if trials < 1:
        raise ValidationError("trials must be at least 1")
    wxf = [float(w) for w in f.x_space.weights]
    wyf = [float(w) for w in f.y_space.weights]
    xs_space = DiscreteSpace.uniform(n, "sx")
    ys_space = DiscreteSpace.uniform(n, "sy")
    hits = 0
    for t in range(trials):
        rng = random.Random(seed + t)
        xs = rng.choices(range(f.x_space.size), weights=wxf, k=n)
        ys = rng.choices(range(f.y_space.size), weights=wyf, k=n)
        sub = ProductFunction(xs_space, ys_space,
                              [[f[i, j] for j in ys] for i in xs])
        if step_fit_exists(sub, n_blocks, eps) is not None:
            hits += 1
    return Fraction(hits, trials)
