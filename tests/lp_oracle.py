"""Dense two-phase simplex, the suite's independent LP oracle.

Solves   maximize c.x  subject to  A.x <= b,  x >= 0
with Bland's rule (guaranteed termination) and exact rational pivoting when
the data are Fractions.  The library solves with its flow kernels; this
module, and the LP formulations below, exist to cross-check them.
"""

from __future__ import annotations

from fractions import Fraction

from virtcont.model import all_exact

PIVOT_EPS = 1e-11


class LPInfeasible(ValueError):
    pass


class LPUnbounded(ValueError):
    pass


def _pivot(T, basis, r, e):
    piv = T[r][e]
    row = T[r] = [v / piv if v else v for v in T[r]]
    # a zero entry of the pivot row leaves its column unchanged in every row
    support = [j for j, v in enumerate(row) if v]
    for k, other in enumerate(T):
        coef = other[e]
        if k != r and coef != 0:
            for j in support:
                other[j] -= coef * row[j]
    basis[r] = e


def _bland(T, basis, ncols, tol):
    """Minimize: pivot while some reduced cost (last row) is negative."""
    m = len(T) - 1
    while True:
        obj = T[-1]
        enter = -1
        for j in range(ncols):
            if obj[j] < -tol:
                enter = j
                break
        if enter < 0:
            return
        leave, best = -1, None
        for r in range(m):
            if T[r][enter] > tol:
                ratio = T[r][-1] / T[r][enter]
                if best is None or ratio < best or (ratio == best and basis[r] < basis[leave]):
                    best, leave = ratio, r
        if leave < 0:
            raise LPUnbounded("objective unbounded")
        _pivot(T, basis, leave, enter)


def dense_lp_solve(A, b, c, tol: float = PIVOT_EPS):
    """Maximize c.x s.t. A.x <= b, x >= 0.  Returns (value, x, y).

    y are the dual multipliers of the rows: y >= 0, y.b = value, y.A >= c.
    Raises LPInfeasible / LPUnbounded.
    """
    m, n = len(A), len(c)
    exact = all_exact(b) and all_exact(c) and all(all_exact(r) for r in A)
    if exact:
        A = [[Fraction(v) for v in row] for row in A]
        b = [Fraction(v) for v in b]
        c = [Fraction(v) for v in c]
        zero, one = Fraction(0), Fraction(1)
        tol = 0
    else:
        A = [[float(v) for v in row] for row in A]
        b = [float(v) for v in b]
        c = [float(v) for v in c]
        zero, one = 0.0, 1.0

    # columns: x (n) | slacks (m) | artificials (for rows with negative rhs)
    row_sign = [one if b[i] >= 0 else -one for i in range(m)]
    art_rows = [i for i in range(m) if b[i] < 0]
    n_art = len(art_rows)
    ncols = n + m + n_art
    art_col = {i: n + m + k for k, i in enumerate(art_rows)}
    T = []
    basis = []
    for i in range(m):
        row = [row_sign[i] * v for v in A[i]]
        slack = [zero] * m
        slack[i] = row_sign[i]
        art = [zero] * n_art
        if i in art_col:
            art[art_col[i] - n - m] = one
        T.append(row + slack + art + [row_sign[i] * b[i]])
        basis.append(art_col[i] if i in art_col else n + i)

    if n_art:
        # phase 1: minimize the sum of artificials
        obj = [zero] * (ncols + 1)
        for i in art_rows:
            obj = [o - t for o, t in zip(obj, T[i])]
        for k in range(n_art):
            obj[n + m + k] = zero
        T.append(obj)
        _bland(T, basis, ncols, tol)
        residue = -T[-1][-1]
        T.pop()
        if (exact and residue != 0) or (not exact and abs(residue) > 1e-8):
            raise LPInfeasible("empty feasible set")
        # drive leftover zero-level artificials out of the basis; a pivot on
        # any nonzero x/slack entry exists because B^-1 rows are nonzero
        for r in range(m):
            if basis[r] >= n + m:
                piv = next(j for j in range(n + m)
                           if (T[r][j] != 0 if exact else abs(T[r][j]) > 1e-12))
                _pivot(T, basis, r, piv)

    # phase 2: minimize -c.x (never let artificials re-enter)
    obj = [-v for v in c] + [zero] * (len(T[0]) - n)
    for r, bv in enumerate(basis):
        if obj[bv] != 0:
            coef = obj[bv]
            obj = [a - coef * t for a, t in zip(obj, T[r])]
    T.append(obj)
    _bland(T, basis, n + m, tol)

    x = [zero] * n
    for r, bv in enumerate(basis):
        if bv < n:
            x[bv] = T[r][-1]
    # dual of row i = reduced cost of its slack column, sign-corrected for
    # rows negated during setup
    obj = T[-1]
    y = [row_sign[i] * obj[n + i] for i in range(m)]
    value = sum(ci * xi for ci, xi in zip(c, x))
    return value, x, y


def cover_lp_data(z):
    """The fractional cover LP of a product set in max-form.

    Variables (f_1..f_nr, g_1..g_nc); maximize -(mu.f + nu.g) subject to
    -f_i - g_j <= -1 on member cells and f, g <= 1.
    """
    nr, nc = z.x_space.size, z.y_space.size
    mu, nu = z.x_space.weights, z.y_space.weights
    nvar = nr + nc
    A, b = [], []
    one = Fraction(1) if all_exact(mu + nu) else 1.0
    for (i, j) in sorted(z.cells()):
        row = [0] * nvar
        row[i] = -one
        row[nr + j] = -one
        A.append(row)
        b.append(-one)
    for k in range(nvar):
        row = [0] * nvar
        row[k] = one
        A.append(row)
        b.append(one)
    c = [-w for w in mu] + [-w for w in nu]
    return A, b, c


def transport_lp_value(sup, dem, cost):
    """Min-cost transport value by the dense LP, marginals as <= pairs."""
    nr, nc = len(sup), len(dem)
    nv = nr * nc
    rows, rhs = [], []
    for i in range(nr):
        r = [Fraction(1) if k // nc == i else Fraction(0) for k in range(nv)]
        rows += [r, [-x for x in r]]
        rhs += [sup[i], -sup[i]]
    for j in range(nc):
        r = [Fraction(1) if k % nc == j else Fraction(0) for k in range(nv)]
        rows += [r, [-x for x in r]]
        rhs += [dem[j], -dem[j]]
    value, _, _ = dense_lp_solve(rows, rhs,
                                 [-cost[k // nc][k % nc] for k in range(nv)])
    return -value
